"""Three-party workflow: endpoint logger, cloud, administrator.

The logger records events into its graph, periodically syncs touched nodes
into the accumulator, and signs the resulting root as a commitment. The
cloud deterministically rebuilds the same state from the raw log and checks
its roots against the logger's commitments (any divergence is tampered
log data). The administrator validates analysis bundles against the signed
commitments plus an epoch-freshness check.

Everything is in-process; no network transport.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import causality
from .accumulator import Accumulator, NotCommitted, TimestampKey
from .commitment import Commitment, make_commitment
from .hashcore import MsetDigest, mset_add
from .provgraph import (
    DEPENDENCY,
    SEGMENTED,
    UNSEGMENTED,
    ClockRegression,
    EventRecord,
    Graph,
    NodeRef,
)
from .wire import Reader, WireError, bytes_lp, seq, str_lp, u8, u32, u64

_SNAP_MAGIC = b"VCSNAP1"
_SNAP_VERSION = 5

_MODE_TAGS = {SEGMENTED: 0, UNSEGMENTED: 1}
_MODE_FROM_TAG = {v: k for k, v in _MODE_TAGS.items()}


class RootMismatch(Exception):
    """Cloud replay diverged from a signed commitment: the log was tampered."""

    def __init__(self, epoch: int, detail: str = ""):
        super().__init__(f"root mismatch at epoch {epoch}" + (f": {detail}" if detail else ""))
        self.epoch = epoch


class UnknownEndpoint(KeyError):
    pass


class PendingChanges(RuntimeError):
    """Snapshots require a quiescent (fully committed) state."""


@dataclass(frozen=True, slots=True)
class StateConfig:
    mode: str = SEGMENTED
    depth: int = 1
    commit_interval: int = 1000


class EndpointState:
    """Graph + accumulator plus the set of nodes touched since last sync.

    Shared by the logger and the cloud's replayed reconstruction so both
    sides run bit-identical code.
    """

    def __init__(self, config: StateConfig):
        self.config = config
        self.graph = Graph(mode=config.mode, depth=config.depth)
        self.acc = Accumulator()
        self.pending_new: dict[NodeRef, None] = {}  # creation order: dense registry ids
        self.pending_dirty: set[NodeRef] = set()
        self.flushed_events = 0  # graph.event_count at the last flush

    def apply_event(self, ev: EventRecord) -> None:
        res = self.graph.record_event(ev)
        pending_new = self.pending_new
        for node in res.created:
            if not node.is_terminal:  # stubs are bound by their parent's digest
                pending_new[node.ref] = None
        self.pending_dirty |= res.updated.difference(pending_new)

    @property
    def events_since_commit(self) -> int:
        return self.graph.event_count - self.flushed_events

    def flush(self) -> bytes:
        """Sync pending nodes into the accumulator and commit; returns R.

        Nodes touched several times within the window sync exactly once:
        new nodes register with their final digest, previously committed
        ones get a single update.
        """
        nodes, acc = self.graph.nodes, self.acc
        for ref in self.pending_new:
            acc.register_node(nodes[ref])
        for ref in self.pending_dirty:
            acc.update_node(nodes[ref])
        self.pending_new.clear()
        self.pending_dirty.clear()
        self.flushed_events = self.graph.event_count
        return acc.commit()

    @property
    def quiescent(self) -> bool:
        return not self.pending_new and not self.pending_dirty

    def fork(self) -> "EndpointState":
        """Independent copy for what-if replays (tamper detection probes)."""
        other = EndpointState.__new__(EndpointState)
        other.config = self.config
        other.graph = self.graph.fork()
        other.acc = self.acc.fork()
        other.pending_new = dict(self.pending_new)
        other.pending_dirty = set(self.pending_dirty)
        other.flushed_events = self.flushed_events
        return other


class EndpointLogger:
    """Endpoint role: record, periodically commit, sign."""

    def __init__(self, endpoint_id: str, keypair, config: StateConfig = StateConfig()):
        self.endpoint_id = endpoint_id
        self.keypair = keypair
        self.state = EndpointState(config)
        self.commitments: list[Commitment] = []

    def ingest(self, ev: EventRecord) -> Commitment | None:
        self.state.apply_event(ev)
        if self.state.events_since_commit >= self.state.config.commit_interval:
            return self.commit()
        return None

    def commit(self) -> Commitment:
        root = self.state.flush()
        # the signed timestamp is the stream's high-water mark, so logger
        # and cloud replay produce identical commitments deterministically
        c = make_commitment(
            self.keypair.signing_key,
            self.endpoint_id,
            len(self.commitments) + 1,
            self.state.graph.event_count,
            root,
            self.state.acc.registry_digest(),
            self.state.graph.last_ts,
        )
        self.commitments.append(c)
        return c


def replay_epochs(state: EndpointState, events: list[EventRecord],
                  commitments: list[Commitment]) -> None:
    """Replay `events` into `state` one epoch at a time. Epoch k covers the
    first commitments[k - 1].event_count events; once they are applied, the
    state is flushed and its root and registry digest are compared with
    commitments[k - 1]. Cloud.replay and load_state share these rules.

    Raises RootMismatch for a commitment whose epoch is not k, an event
    count outside done..len(events), an empty first epoch, a clock
    regression, a root or registry digest that differs from the signed
    one, or an event past the last commitment.
    """
    done = 0
    for epoch, expected in enumerate(commitments, 1):
        if expected.epoch != epoch:
            raise RootMismatch(epoch, f"commitment {epoch} carries epoch {expected.epoch}")
        end = expected.event_count
        lo = max(done, 1)  # epoch 1 must add events: an empty accumulator has no root
        if not lo <= end <= len(events):
            raise RootMismatch(epoch, f"ends at event {end}, outside {lo}..{len(events)}")
        try:
            for ev in events[done:end]:
                state.apply_event(ev)
        except ClockRegression as exc:
            raise RootMismatch(epoch, str(exc)) from exc
        done = end
        if state.flush() != expected.root:
            raise RootMismatch(epoch)
        if state.acc.registry_digest() != expected.registry_digest:
            raise RootMismatch(epoch, "registry digest diverged")
    if done != len(events):
        raise RootMismatch(len(commitments) + 1,
                           f"{len(events) - done} events past the last commitment")


@dataclass
class CloudEndpoint:
    state: EndpointState
    commitments: list[Commitment] = field(default_factory=list)


class Cloud:
    """Cloud role: reconstruct per-endpoint state from raw logs, serve queries."""

    def __init__(self):
        self.endpoints: dict[str, CloudEndpoint] = {}

    def replay(
        self,
        endpoint_id: str,
        events,
        commitments: list[Commitment],
        config: StateConfig = StateConfig(),
    ) -> CloudEndpoint:
        """Rebuild an endpoint's state, checking every commitment boundary.

        Each epoch ends at the event count its commitment signs. Raises
        RootMismatch as replay_epochs does; the endpoint is registered only
        once every epoch has replayed, so a rejected upload leaves the
        registered endpoints as they were.
        """
        ep = CloudEndpoint(EndpointState(config), list(commitments))
        replay_epochs(ep.state, list(events), ep.commitments)
        self.endpoints[endpoint_id] = ep
        return ep

    def analyze(self, endpoint_id: str, query: causality.CausalityQuery) -> causality.ProofBundle:
        ep = self.endpoints.get(endpoint_id)
        if ep is None:
            raise UnknownEndpoint(endpoint_id)
        if not ep.commitments:
            raise NotCommitted("endpoint has no commitments")
        return causality.analyze(ep.state.graph, ep.state.acc, ep.commitments[-1], query)


def admin_verify(
    vk,
    query: causality.CausalityQuery,
    bundle: causality.ProofBundle,
    min_epoch: int = 0,
) -> causality.VerifyReport:
    """Administrator-side validation plus commitment freshness."""
    report = causality.verify_bundle(vk, query, bundle)
    report.freshness_ok = bundle.commitment.epoch >= min_epoch
    if not report.freshness_ok and report.first_failure is None:
        report.first_failure = "stale commitment epoch"
    return report


class Admin:
    """Administrator role: per-endpoint keys and epoch high-water marks."""

    def __init__(self):
        self.keys = {}
        self.last_seen: dict[str, int] = {}

    def register_endpoint(self, endpoint_id: str, vk) -> None:
        self.keys[endpoint_id] = vk

    def verify(self, query: causality.CausalityQuery, bundle: causality.ProofBundle):
        endpoint_id = bundle.commitment.endpoint_id
        vk = self.keys.get(endpoint_id)
        if vk is None:
            report = causality.VerifyReport()
            report.first_failure = f"unknown endpoint {endpoint_id!r}"
            return report
        report = admin_verify(vk, query, bundle, self.last_seen.get(endpoint_id, 0))
        if report.accepted:
            self.last_seen[endpoint_id] = max(
                self.last_seen.get(endpoint_id, 0), bundle.commitment.epoch
            )
        return report


# -- tamper harness -----------------------------------------------------------

TAMPER_KINDS = (
    "delete-edge",
    "add-edge",
    "modify-edge",
    "modify-node",
    "delete-node",
    "forge-digest",
    "rollback-commitment",
)


@dataclass(frozen=True, slots=True)
class TamperReceipt:
    """What was mutated, plus a query guaranteed to exercise the damage."""

    description: str
    entity_ext: str | None
    timestamp: int | None


def _last_at_its_timestamp(graph, node) -> bool:
    # versions at one timestamp take consecutive seqs
    following = TimestampKey(node.key.timestamp, node.key.seq + 1)
    return (node.entity_id, following.encoded()) not in graph.nodes


def tamper(ep: CloudEndpoint, kind: str, rng) -> TamperReceipt:
    """Apply a named mutation class to reconstructed cloud state.

    Mutations keep the graph traversable (so analysis still runs) while
    desynchronizing it from the committed digests; a bundle for the
    receipt's query must fail administrator validation.
    """
    graph = ep.state.graph
    nodes = [n for n in graph.nodes.values() if not n.is_terminal]
    if kind == "delete-edge":
        candidates = [n for n in nodes if n.in_edge_ids]
        victim = rng.choice(candidates)
        eid = rng.choice(victim.in_edge_ids)
        edge = graph.edges[eid]
        victim.in_edge_ids = tuple(i for i in victim.in_edge_ids if i != eid)
        graph.nodes[edge.src_ref].out_edge_ids.remove(eid)
        return TamperReceipt(
            f"deleted edge {eid}", victim.entity_ext, victim.key.timestamp
        )
    if kind == "add-edge":
        src, dst = rng.sample(nodes, 2)
        if src.created_seq > dst.created_seq:
            src, dst = dst, src
        forged = EventRecord(src.entity_ext, "forged", dst.entity_ext, dst.key.timestamp)
        edge, _ = graph._add_edge(DEPENDENCY, src, dst, forged)
        dst.in_edge_ids += (edge.edge_id,)
        return TamperReceipt(
            f"added edge {edge.edge_id}", dst.entity_ext, dst.key.timestamp
        )
    if kind == "modify-edge":
        candidates = [n for n in nodes if n.in_edge_ids]
        victim = rng.choice(candidates)
        edge = graph.edges[rng.choice(victim.in_edge_ids)]
        # the digests and the edge's encodings keep their committed values,
        # as a cloud that edits a stored record would leave them
        edge.event_type = edge.event_type + "?"
        return TamperReceipt(
            f"modified edge {edge.edge_id}", victim.entity_ext, victim.key.timestamp
        )
    if kind == "modify-node":
        victim = rng.choice(nodes)
        old_ts = victim.key.timestamp
        victim._key = TimestampKey(old_ts + 1, victim.key.seq)  # ref keeps the old key
        return TamperReceipt(f"modified node {victim.entity_ext}", victim.entity_ext, old_ts)
    if kind == "delete-node":
        candidates = [n for n in nodes if not n.out_edge_ids and n.in_edge_ids]
        victim = rng.choice(candidates)
        parent = graph.nodes[graph.edges[victim.in_edge_ids[0]].src_ref]
        for eid in list(victim.in_edge_ids):
            edge = graph.edges[eid]
            graph.nodes[edge.src_ref].out_edge_ids.remove(eid)
        del graph.nodes[victim.ref]
        if graph.latest.get(victim.entity_id) == victim.ref:
            refs = [ref for ref in graph.nodes if ref[0] == victim.entity_id]
            if refs:
                graph.latest[victim.entity_id] = max(refs)
            else:
                del graph.latest[victim.entity_id]
        # the deleted node's absence shows up in its parent's forward digest
        return TamperReceipt(
            f"deleted node {victim.entity_ext}", parent.entity_ext, parent.key.timestamp
        )
    if kind == "forge-digest":
        # the receipt's le(timestamp) query resolves to the last version at
        # that timestamp, so only such a node is sure to be the POI
        victim = rng.choice([n for n in nodes if _last_at_its_timestamp(graph, n)])
        victim.pi_out = mset_add(MsetDigest(victim.pi_out), b"forged").value
        return TamperReceipt(
            f"forged outgoing digest of {victim.entity_ext}",
            victim.entity_ext,
            victim.key.timestamp,
        )
    if kind == "rollback-commitment":
        if len(ep.commitments) < 2:
            raise ValueError("rollback needs at least two epochs")
        ep.commitments.pop()
        return TamperReceipt("rolled back to previous commitment", None, None)
    raise ValueError(f"unknown tamper kind {kind!r}")


# -- snapshots ----------------------------------------------------------------


def _read_event(r: Reader) -> EventRecord:
    return EventRecord(r.str_lp(), r.str_lp(), r.str_lp(), r.u64(), r.bytes_lp())


def save_state(path: str, endpoint_id: str, state: EndpointState,
               commitments: list[Commitment]) -> None:
    """Versioned binary snapshot of one endpoint: its config, its signed
    commitments and its events. Load replays the events; nothing derived
    is stored."""
    if not state.quiescent:
        raise PendingChanges("flush before snapshotting")
    cfg, exts = state.config, state.graph.entity_exts
    # record_event adds exactly one dependency edge per event, in order
    events = [e for e in state.graph.edges if e.kind == DEPENDENCY]
    blob = b"".join((
        _SNAP_MAGIC, u8(_SNAP_VERSION),
        u8(_MODE_TAGS[cfg.mode]), u32(cfg.depth), u32(cfg.commit_interval),
        str_lp(endpoint_id),
        seq(commitments, Commitment.to_bytes),
        seq(events, lambda e: b"".join((
            str_lp(exts[e.src_ref[0]]), str_lp(e.event_type), str_lp(exts[e.dst_ref[0]]),
            u64(e.dst_ref[1] >> 32), bytes_lp(e.payload),  # the event's timestamp
        ))),
    ))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_state(path: str, vk) -> tuple[str, EndpointState, list[Commitment]]:
    """Inverse of save_state. Every stored commitment must verify under vk
    and name the snapshot's endpoint. The stored events then replay through
    replay_epochs, the rules Cloud.replay follows, so the replay binds
    every stored event. Any fault raises WireError."""
    with open(path, "rb") as fh:
        r = Reader(fh.read())
    if r.take(len(_SNAP_MAGIC)) != _SNAP_MAGIC:
        raise WireError("not a state snapshot")
    if r.u8() != _SNAP_VERSION:
        raise WireError("unsupported snapshot version")
    mode = _MODE_FROM_TAG.get(r.u8())
    if mode is None:
        raise WireError("unknown graph mode tag")
    config = StateConfig(mode, r.u32(), r.u32())
    if config.commit_interval < 1 or (mode == SEGMENTED and config.depth < 1):
        raise WireError(f"invalid state config {config}")
    endpoint_id = r.str_lp()
    commitments = r.seq(Commitment.read_from)
    events = r.seq(_read_event)
    r.finish()
    for c in commitments:
        if c.endpoint_id != endpoint_id or not c.verify(vk):
            raise WireError(f"commitment of epoch {c.epoch} is not signed for {endpoint_id!r}")

    state = EndpointState(config)
    try:
        replay_epochs(state, events, commitments)
    except RootMismatch as exc:
        raise WireError(f"stored events do not replay to the commitments: {exc}") from exc
    return endpoint_id, state, commitments
