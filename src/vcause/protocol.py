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
from .accumulator import Accumulator, EntityIdMismatch, TimestampKey, read_registry, registry_bytes
from .commitment import Commitment, make_commitment
from .dimtree import OutOfOrderKey
from .hashcore import MsetDigest, edge_kind_bytes, mset_add, mset_empty, read_edge_kind
from .provgraph import (
    SEGMENTED,
    STUB_ID_BIT,
    UNSEGMENTED,
    Edge,
    EventRecord,
    Graph,
    NodeRef,
    VersionNode,
    node_id_bytes,
    read_node_id,
)
from .wire import Reader, WireError, bytes_lp, node_ref, seq, str_lp, u8, u32, u64

_SNAP_MAGIC = b"VCSNAP1"
_SNAP_VERSION = 3

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
        self.pending_new: list[NodeRef] = []
        self._pending_new_set: set[NodeRef] = set()
        self.pending_dirty: dict[NodeRef, None] = {}
        self.events_since_commit = 0

    def apply_event(self, ev: EventRecord) -> None:
        res = self.graph.record_event(ev)
        for node in res.created:
            if not node.is_terminal:  # stubs are bound by their parent's digest
                self.pending_new.append(node.ref)
                self._pending_new_set.add(node.ref)
        for ref in sorted(res.updated):
            if ref not in self._pending_new_set:
                self.pending_dirty[ref] = None
        self.events_since_commit += 1

    def flush(self) -> bytes:
        """Sync pending nodes into the accumulator and commit; returns R.

        Nodes touched several times within the window sync exactly once:
        new nodes register with their final digest, previously committed
        ones get a single update.
        """
        for ref in self.pending_new:
            self.acc.register_node(self.graph.node(ref))
        for ref in self.pending_dirty:
            node = self.graph.node(ref)
            self.acc.update_node(node.entity_ext, node.key, node.leaf_digest())
        self.pending_new.clear()
        self._pending_new_set.clear()
        self.pending_dirty.clear()
        self.events_since_commit = 0
        return self.acc.commit()

    @property
    def quiescent(self) -> bool:
        return not self.pending_new and not self.pending_dirty

    def fork(self) -> "EndpointState":
        """Independent copy for what-if replays (tamper detection probes)."""
        other = EndpointState.__new__(EndpointState)
        other.config = self.config
        other.graph = self.graph.fork()
        other.acc = self.acc.fork()
        other.pending_new = list(self.pending_new)
        other._pending_new_set = set(self._pending_new_set)
        other.pending_dirty = dict(self.pending_dirty)
        other.events_since_commit = self.events_since_commit
        return other


class EndpointLogger:
    """Endpoint role: record, periodically commit, sign."""

    def __init__(self, endpoint_id: str, keypair, config: StateConfig = StateConfig()):
        self.endpoint_id = endpoint_id
        self.keypair = keypair
        self.state = EndpointState(config)
        self.epoch = 0
        self.commitments: list[Commitment] = []

    def ingest(self, ev: EventRecord) -> Commitment | None:
        self.state.apply_event(ev)
        if self.state.events_since_commit >= self.state.config.commit_interval:
            return self.commit()
        return None

    def commit(self) -> Commitment:
        root = self.state.flush()
        self.epoch += 1
        # the signed timestamp is the stream's high-water mark, so logger
        # and cloud replay produce identical commitments deterministically
        c = make_commitment(
            self.keypair.signing_key,
            self.endpoint_id,
            self.epoch,
            root,
            self.state.acc.registry_digest(),
            self.state.graph.last_ts,
        )
        self.commitments.append(c)
        return c


@dataclass
class CloudEndpoint:
    state: EndpointState
    log: list[EventRecord] = field(default_factory=list)
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

        Raises RootMismatch at the first epoch whose recomputed root (or
        registry digest) disagrees with the logger's signed commitment.
        """
        ep = CloudEndpoint(EndpointState(config), [], list(commitments))
        self.endpoints[endpoint_id] = ep
        epoch = 0
        for ev in events:
            ep.log.append(ev)
            ep.state.apply_event(ev)
            if ep.state.events_since_commit >= config.commit_interval:
                epoch += 1
                self._check_epoch(ep, epoch)
        if epoch < len(ep.commitments) and ep.state.events_since_commit > 0:
            epoch += 1
            self._check_epoch(ep, epoch)
        if epoch != len(ep.commitments):
            raise RootMismatch(epoch + 1, "commitment without matching events")
        return ep

    @staticmethod
    def _check_epoch(ep: CloudEndpoint, epoch: int) -> None:
        root = ep.state.flush()
        if epoch > len(ep.commitments):
            raise RootMismatch(epoch, "events beyond the last commitment")
        expected = ep.commitments[epoch - 1]
        if expected.root != root:
            raise RootMismatch(epoch)
        if expected.registry_digest != ep.state.acc.registry_digest():
            raise RootMismatch(epoch, "registry digest diverged")

    def analyze(self, endpoint_id: str, query: causality.CausalityQuery) -> causality.ProofBundle:
        ep = self.endpoints.get(endpoint_id)
        if ep is None:
            raise UnknownEndpoint(endpoint_id)
        if not ep.commitments:
            raise causality.NotCommitted("endpoint has no commitments")
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
    keys = graph.versions[node.entity_id]
    i = keys.index(node.key.encoded())
    return i + 1 == len(keys) or keys[i + 1] >> 32 != node.key.timestamp


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
        victim.in_edge_ids.remove(eid)
        graph.nodes[edge.src_ref].out_edge_ids.remove(eid)
        return TamperReceipt(
            f"deleted edge {eid}", victim.entity_ext, victim.key.timestamp
        )
    if kind == "add-edge":
        src, dst = rng.sample(nodes, 2)
        if src.created_seq > dst.created_seq:
            src, dst = dst, src
        edge = Edge(len(graph.edges), "dependency", src.ref, dst.ref, dst.ref,
                    "forged", dst.key.timestamp)
        graph.edges.append(edge)
        src.out_edge_ids.append(edge.edge_id)
        dst.in_edge_ids.append(edge.edge_id)
        return TamperReceipt(
            f"added edge {edge.edge_id}", dst.entity_ext, dst.key.timestamp
        )
    if kind == "modify-edge":
        candidates = [n for n in nodes if n.in_edge_ids]
        victim = rng.choice(candidates)
        edge = graph.edges[rng.choice(victim.in_edge_ids)]
        edge.event_type = edge.event_type + "?"
        edge._enc_logical = None
        edge._enc_seg = None
        return TamperReceipt(
            f"modified edge {edge.edge_id}", victim.entity_ext, victim.key.timestamp
        )
    if kind == "modify-node":
        victim = rng.choice(nodes)
        old_ts = victim.key.timestamp
        victim.key = TimestampKey(old_ts + 1, victim.key.seq)
        return TamperReceipt(f"modified node {victim.entity_ext}", victim.entity_ext, old_ts)
    if kind == "delete-node":
        candidates = [n for n in nodes if not n.out_edge_ids and n.in_edge_ids]
        victim = rng.choice(candidates)
        parent = graph.nodes[graph.edges[victim.in_edge_ids[0]].src_ref]
        for eid in list(victim.in_edge_ids):
            edge = graph.edges[eid]
            graph.nodes[edge.src_ref].out_edge_ids.remove(eid)
        del graph.nodes[victim.ref]
        graph.versions[victim.entity_id].remove(victim.key.encoded())
        if graph.latest.get(victim.entity_id) == victim.ref:
            keys = graph.versions[victim.entity_id]
            if keys:
                graph.latest[victim.entity_id] = (victim.entity_id, keys[-1])
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
        victim.pi_out = mset_add(victim.pi_out, b"forged")
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


def _node_bytes(node: VersionNode) -> bytes:
    out = [
        node_id_bytes(node.entity_id, node.key, node.is_terminal, node.terminal_target),
        u64(node.tree_id + 1), u32(node.depth),
    ]
    if not node.is_terminal:  # stubs are digest-empty
        out.extend((node.pi_in.to_bytes(), node.pi_out.to_bytes()))
    return b"".join(out)


def _read_node(r: Reader) -> VersionNode:
    entity_id, key, is_terminal, target = read_node_id(r)
    tree_id = r.u64() - 1
    depth = r.u32()
    pi_in = pi_out = mset_empty()
    if not is_terminal:  # stubs are digest-empty
        pi_in, pi_out = MsetDigest.read_from(r), MsetDigest.read_from(r)
    return VersionNode(entity_id, "", key, pi_in, pi_out, tree_id, depth,
                       is_terminal=is_terminal, terminal_target=target)


def save_state(path: str, endpoint_id: str, state: EndpointState,
               commitments: list[Commitment]) -> None:
    """Versioned binary snapshot of one endpoint's graph and commitments;
    load rebuilds the rest, the epoch included."""
    if not state.quiescent:
        raise PendingChanges("flush before snapshotting")
    g = state.graph
    out: list[bytes] = [_SNAP_MAGIC, u8(_SNAP_VERSION)]
    out.extend((u8(_MODE_TAGS[g.mode]), u32(g.depth), u32(state.config.commit_interval)))
    out.append(str_lp(endpoint_id))
    out.append(seq(commitments, lambda c: bytes_lp(c.to_bytes())))

    out.extend((u64(g.last_ts), u64(g.event_count), u32(g.next_tree_id)))
    out.append(registry_bytes(g.entity_exts))
    out.append(seq(g.nodes.values(), _node_bytes))  # insertion order == creation order
    out.append(u32(len(g.edges)))
    for e in g.edges:
        out.append(edge_kind_bytes(e.kind))
        out.extend(node_ref(ref) for ref in (e.src_ref, e.dst_ref, e.seg_dst_ref))
        out.extend((str_lp(e.event_type), u64(e.timestamp), bytes_lp(e.payload)))

    blob = b"".join(out)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_state(path: str, vk) -> tuple[str, int, EndpointState, list[Commitment]]:
    """Inverse of save_state. Every stored commitment must verify under vk
    and name the snapshot's endpoint, and their epochs must run 1..n; the
    endpoint's epoch is n. The accumulator is rebuilt from the graph's
    non-terminal nodes, and its root must be the last commitment's root:
    that one check covers every node's identity and both digests."""
    with open(path, "rb") as fh:
        r = Reader(fh.read())
    if r.take(len(_SNAP_MAGIC)) != _SNAP_MAGIC:
        raise WireError("not a state snapshot")
    if r.u8() != _SNAP_VERSION:
        raise WireError("unsupported snapshot version")
    mode = _MODE_FROM_TAG.get(r.u8())
    if mode is None:
        raise WireError("unknown graph mode tag")
    depth = r.u32()
    interval = r.u32()
    endpoint_id = r.str_lp()
    commitments = r.seq(lambda r: Commitment.from_bytes(r.bytes_lp()))
    for epoch, c in enumerate(commitments, 1):
        if c.endpoint_id != endpoint_id or not c.verify(vk):
            raise WireError(f"commitment of epoch {c.epoch} is not signed for {endpoint_id!r}")
        if c.epoch != epoch:
            raise WireError(f"commitment {epoch} carries epoch {c.epoch}")

    state = EndpointState(StateConfig(mode, depth, interval))
    g = state.graph
    try:
        g.last_ts = r.u64()
        g.event_count = r.u64()
        g.next_tree_id = r.u32()
        for ext in read_registry(r):
            g._entity_id(ext)
        for _ in range(r.u32()):
            node = _read_node(r)
            if node.is_terminal:
                if node.entity_id != STUB_ID_BIT | g.next_terminal:
                    raise WireError(f"stub {node.ref} out of sequence")
                g.next_terminal += 1
            else:
                node.entity_ext = g.entity_exts[node.entity_id]
                g.latest[node.entity_id] = node.ref
                state.pending_new.append(node.ref)
            g._add_node(node)
        for i in range(r.u32()):
            kind = read_edge_kind(r)
            refs = [r.node_ref() for _ in range(3)]
            edge = Edge(i, kind, refs[0], refs[1], refs[2], r.str_lp(), r.u64(), r.bytes_lp())
            g.edges.append(edge)
            g.nodes[edge.src_ref].out_edge_ids.append(i)
            g.nodes[edge.dst_ref].in_edge_ids.append(i)
            # the segment-view destination is the destination or its stub;
            # stubs have no leaf, so this binds their target at load
            seg_dst = g.nodes[edge.seg_dst_ref]
            if (seg_dst.terminal_target if seg_dst.is_terminal else seg_dst.ref) != edge.dst_ref:
                raise WireError(f"edge {i}: segment-view destination stands for another node")
            if g.mode == SEGMENTED:
                seg_dst.seg_parent_edge = i
        r.finish()
        if g.mode == SEGMENTED:
            for node in g.nodes.values():
                if node.seg_parent_edge is None:
                    g.trees[node.tree_id] = node.ref
        root = state.flush() if state.pending_new else None
        if root != (commitments[-1].root if commitments else None):
            raise WireError("rebuilt accumulator root differs from the last commitment's root")
    except (KeyError, IndexError, EntityIdMismatch, OutOfOrderKey) as exc:
        raise WireError(f"snapshot refers to a missing or misordered record: {exc!r}") from exc
    return endpoint_id, len(commitments), state, commitments
