"""Verifiable causality analysis: query execution and result validation.

analyze() resolves a point-of-interest node through the accumulator, walks
its causal components, and packs everything an administrator needs into a
self-contained ProofBundle. The verifiers never touch the prover's graph:
they recompute path digests bottom-up from the supplied component lists and
compare against digests authenticated by accumulator proofs under the
signed commitment.

Component records carry internal ids and keys only; external entity names
appear exactly where a proof authenticates them (the query's entity via the
POI proof, segment anchors via their root proofs). Unauthenticated display
fields would be a free forgery channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import accumulator as acc_mod
from .accumulator import (
    NodeProofResult,
    RangeProof,
    RangeResult,
    Relation,
    TimestampKey,
)
from .commitment import Commitment
from .hashcore import (
    MsetDigest,
    edge_kind_bytes,
    encode_edge,
    mset_empty,
    mset_hash_set,
    read_edge_kind,
)
from .provgraph import (
    Graph,
    NodeRef,
    node_id_bytes,
    node_leaf_digest,
    read_node_id,
    terminal_marker,
)
from .wire import Reader, WireError, bytes_lp, flag, node_ref, optional, seq, str_lp, u8, u64

BACKWARD = "backward"
FORWARD = "forward"
BOTH = "both"

_DIRECTION_TAGS = {BACKWARD: 0, FORWARD: 1, BOTH: 2}
_DIRECTION_FROM_TAG = {v: k for k, v in _DIRECTION_TAGS.items()}


class NotCommitted(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class CausalityQuery:
    entity_ext: str
    relation: Relation
    direction: str = BOTH

    def wants_backward(self) -> bool:
        return self.direction in (BACKWARD, BOTH)

    def wants_forward(self) -> bool:
        return self.direction in (FORWARD, BOTH)

    def to_bytes(self) -> bytes:
        return str_lp(self.entity_ext) + self.relation.to_bytes() + u8(
            _DIRECTION_TAGS[self.direction]
        )

    @classmethod
    def read_from(cls, r: Reader) -> "CausalityQuery":
        ext = r.str_lp()
        rel = Relation.read_from(r)
        direction = _DIRECTION_FROM_TAG.get(r.u8())
        if direction is None:
            raise WireError("unknown direction tag")
        return cls(ext, rel, direction)


@dataclass(slots=True)
class WireNode:
    """One component node on the wire.

    `pi` is the incoming digest in backward components and the (segmented)
    outgoing digest in forward components.
    """

    entity_id: int
    key: TimestampKey
    is_terminal: bool
    terminal_target: NodeRef | None
    pi: MsetDigest

    @property
    def ref(self) -> NodeRef:
        return (self.entity_id, self.key.encoded())

    def to_bytes(self) -> bytes:
        return node_id_bytes(
            self.entity_id, self.key, self.is_terminal, self.terminal_target
        ) + self.pi.to_bytes()

    @classmethod
    def read_from(cls, r: Reader) -> "WireNode":
        return cls(*read_node_id(r), MsetDigest.read_from(r))


@dataclass(slots=True)
class WireEdge:
    """Edge record; the event time travels inside the destination's key."""

    kind: str
    src_ref: NodeRef
    dst_ref: NodeRef
    event_type: str
    payload: bytes = b""

    def to_bytes(self) -> bytes:
        return (
            edge_kind_bytes(self.kind)
            + node_ref(self.src_ref)
            + node_ref(self.dst_ref)
            + str_lp(self.event_type)
            + bytes_lp(self.payload)
        )

    @classmethod
    def read_from(cls, r: Reader) -> "WireEdge":
        return cls(read_edge_kind(r), r.node_ref(), r.node_ref(), r.str_lp(), r.bytes_lp())


@dataclass(slots=True)
class PoiRecord:
    """The queried node with both digests; bound into its accumulator leaf."""

    entity_id: int
    key: TimestampKey
    pi_in: MsetDigest
    pi_out: MsetDigest

    @property
    def ref(self) -> NodeRef:
        return (self.entity_id, self.key.encoded())

    def leaf_digest(self, entity_ext: str) -> bytes:
        return node_leaf_digest(
            entity_ext, self.entity_id, self.key, False, None, self.pi_in, self.pi_out
        )

    def to_bytes(self) -> bytes:
        return (
            u64(self.entity_id)
            + self.key.to_bytes()
            + self.pi_in.to_bytes()
            + self.pi_out.to_bytes()
        )

    @classmethod
    def read_from(cls, r: Reader) -> "PoiRecord":
        return cls(
            r.u64(),
            TimestampKey.read_from(r),
            MsetDigest.read_from(r),
            MsetDigest.read_from(r),
        )


@dataclass(slots=True)
class WireSegment:
    anchor_ref: NodeRef
    nodes: list[WireNode]
    edges: list[WireEdge]

    def to_bytes(self) -> bytes:
        return (
            node_ref(self.anchor_ref)
            + seq(self.nodes, WireNode.to_bytes)
            + seq(self.edges, WireEdge.to_bytes)
        )

    @classmethod
    def read_from(cls, r: Reader) -> "WireSegment":
        return cls(r.node_ref(), r.seq(WireNode.read_from), r.seq(WireEdge.read_from))


@dataclass(slots=True)
class RootProofEntry:
    """Accumulator evidence for forward-segment anchors of one entity.

    Anchors are listed as (key, pi_in) pairs; pi_in joins the segment
    record's pi_out to reconstruct each anchor's committed leaf digest.
    A range entry batches a contiguous key run (Appendix-style O(m)
    verification); a node entry authenticates a single anchor.
    """

    entity_ext: str
    anchors: list[tuple[TimestampKey, MsetDigest]]
    node_proof: NodeProofResult | None = None
    range_bounds: tuple[int, int] | None = None
    range_proof: RangeProof | None = None

    def to_bytes(self) -> bytes:
        out = [
            str_lp(self.entity_ext),
            seq(self.anchors, lambda a: a[0].to_bytes() + a[1].to_bytes()),
        ]
        if self.node_proof is not None:
            out.extend((u8(0), self.node_proof.to_bytes()))
        else:
            a, b = self.range_bounds
            out.extend((u8(1), u64(a), u64(b), self.range_proof.to_bytes()))
        return b"".join(out)

    @classmethod
    def read_from(cls, r: Reader) -> "RootProofEntry":
        ext = r.str_lp()
        anchors = r.seq(lambda r: (TimestampKey.read_from(r), MsetDigest.read_from(r)))
        tag = r.u8()
        if tag == 0:
            return cls(ext, anchors, node_proof=NodeProofResult.read_from(r))
        if tag == 1:
            a, b = r.u64(), r.u64()
            return cls(ext, anchors, range_bounds=(a, b), range_proof=RangeProof.read_from(r))
        raise WireError("unknown root proof tag")


@dataclass(slots=True)
class ProofBundle:
    query: CausalityQuery
    commitment: Commitment
    poi: PoiRecord | None  # None when the query is provably empty
    poi_proof: NodeProofResult
    backward_nodes: list[WireNode] | None = None
    backward_edges: list[WireEdge] | None = None
    forward_segments: list[WireSegment] | None = None
    root_proofs: list[RootProofEntry] | None = None

    def to_bytes(self) -> bytes:
        out = [
            u8(1),
            self.query.to_bytes(),
            bytes_lp(self.commitment.to_bytes()),
            optional(self.poi),
            self.poi_proof.to_bytes(),
            flag(self.backward_nodes is not None),
        ]
        if self.backward_nodes is not None:
            out.append(seq(self.backward_nodes, WireNode.to_bytes))
            out.append(seq(self.backward_edges, WireEdge.to_bytes))
        out.append(flag(self.forward_segments is not None))
        if self.forward_segments is not None:
            out.append(seq(self.forward_segments, WireSegment.to_bytes))
            out.append(seq(self.root_proofs, RootProofEntry.to_bytes))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProofBundle":
        r = Reader(data)
        if r.u8() != 1:
            raise WireError("unsupported bundle version")
        query = CausalityQuery.read_from(r)
        commitment = Commitment.from_bytes(r.bytes_lp())
        poi = r.optional(PoiRecord.read_from)
        poi_proof = NodeProofResult.read_from(r)
        backward_nodes = backward_edges = None
        if r.flag():
            backward_nodes = r.seq(WireNode.read_from)
            backward_edges = r.seq(WireEdge.read_from)
        forward_segments = root_proofs = None
        if r.flag():
            forward_segments = r.seq(WireSegment.read_from)
            root_proofs = r.seq(RootProofEntry.read_from)
        r.finish()
        return cls(
            query, commitment, poi, poi_proof,
            backward_nodes, backward_edges, forward_segments, root_proofs,
        )


@dataclass(slots=True)
class VerifyReport:
    commitment_ok: bool = False
    poi_ok: bool = False
    backward_ok: bool | None = None  # None: not requested
    forward_ok: bool | None = None
    provably_empty: bool = False
    freshness_ok: bool | None = None  # set by the administrator role
    first_failure: str | None = None

    @property
    def accepted(self) -> bool:
        if not (self.commitment_ok and self.poi_ok):
            return False
        if self.backward_ok is False or self.forward_ok is False:
            return False
        return self.freshness_ok is not False

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "commitment_ok": self.commitment_ok,
            "poi_ok": self.poi_ok,
            "backward_ok": self.backward_ok,
            "forward_ok": self.forward_ok,
            "provably_empty": self.provably_empty,
            "freshness_ok": self.freshness_ok,
            "first_failure": self.first_failure,
        }


# -- proof generation ---------------------------------------------------------


def _wire_node(node, pi: MsetDigest) -> WireNode:
    return WireNode(node.entity_id, node.key, node.is_terminal, node.terminal_target, pi)


def _wire_edge(graph: Graph, edge, seg_view: bool) -> WireEdge:
    dst = edge.seg_dst_ref if seg_view else edge.dst_ref
    return WireEdge(edge.kind, edge.src_ref, dst, edge.event_type, edge.payload)


def _anchor_proof_entries(graph: Graph, acc, anchors: list) -> list[RootProofEntry]:
    """Batch anchor proofs: one range per contiguous key run covering >= 2
    anchors whose timestamp window selects exactly the run, else single
    exact-key node proofs."""
    by_entity: dict[int, list] = {}
    for node in anchors:
        by_entity.setdefault(node.entity_id, []).append(node)
    entries: list[RootProofEntry] = []
    for entity_id in sorted(by_entity):
        group = sorted(by_entity[entity_id], key=lambda n: n.key.encoded())
        ext = graph.entity_exts[entity_id]
        keys = graph.versions[entity_id]
        positions = {k: i for i, k in enumerate(keys)}
        runs: list[list] = [[group[0]]]
        for node in group[1:]:
            if positions[node.key.encoded()] == positions[runs[-1][-1].key.encoded()] + 1:
                runs[-1].append(node)
            else:
                runs.append([node])
        for run in runs:
            if len(run) >= 2 and _window_exact(keys, positions, run):
                a = run[0].key.timestamp
                b = run[-1].key.timestamp
                res = acc.prove_range(ext, a, b)
                entries.append(
                    RootProofEntry(
                        ext,
                        [(n.key, n.pi_in) for n in run],
                        range_bounds=(a, b),
                        range_proof=res.proof,
                    )
                )
            else:
                for node in run:
                    res = acc.prove_node(
                        ext, Relation(acc_mod.REL_KEY, node.key.encoded())
                    )
                    entries.append(
                        RootProofEntry(ext, [(node.key, node.pi_in)], node_proof=res)
                    )
    return entries


def _window_exact(keys: list[int], positions: dict[int, int], run: list) -> bool:
    """True when [first.ts, last.ts] selects exactly this key run."""
    i = positions[run[0].key.encoded()]
    j = positions[run[-1].key.encoded()]
    first_ts = run[0].key.timestamp
    last_ts = run[-1].key.timestamp
    if i > 0 and TimestampKey.from_encoded(keys[i - 1]).timestamp >= first_ts:
        return False
    if j < len(keys) - 1 and TimestampKey.from_encoded(keys[j + 1]).timestamp <= last_ts:
        return False
    return True


def analyze(graph: Graph, acc, commitment: Commitment, query: CausalityQuery) -> ProofBundle:
    """Run a causality query and assemble its proof bundle."""
    poi_res = acc.prove_node(query.entity_ext, query.relation)
    if not poi_res.found:
        return ProofBundle(query, commitment, None, poi_res)
    entity_id = graph.entity_ids[query.entity_ext]
    poi_ref = (entity_id, poi_res.node_key.encoded())
    poi_node = graph.node(poi_ref)
    poi = PoiRecord(entity_id, poi_node.key, poi_node.pi_in, poi_node.pi_out)
    bundle = ProofBundle(query, commitment, poi, poi_res)

    if query.wants_backward():
        nodes, edges = graph.collect_backward(poi_ref)
        bundle.backward_nodes = [_wire_node(n, n.pi_in) for n in nodes]
        bundle.backward_edges = [_wire_edge(graph, e, seg_view=False) for e in edges]

    if query.wants_forward():
        segments = graph.collect_forward(poi_ref)
        bundle.forward_segments = [
            WireSegment(
                seg.anchor_ref,
                [_wire_node(n, n.pi_out) for n in seg.nodes],
                [_wire_edge(graph, e, seg_view=True) for e in seg.edges],
            )
            for seg in segments
        ]
        anchors = [graph.node(seg.anchor_ref) for seg in segments[1:]]
        bundle.root_proofs = _anchor_proof_entries(graph, acc, anchors)
    return bundle


# -- validation ---------------------------------------------------------------


def verify_backward(poi: PoiRecord, nodes: list[WireNode], edges: list[WireEdge]) -> bool:
    """Recompute incoming path digests from the supplied components only.

    Accepts iff the recomputed digest of every supplied node matches its
    claim, the queried node's digest matches, and every supplied component
    was consumed by the walk (unreachable extras are forgeries).
    """
    pool: dict[NodeRef, WireNode] = {}
    for n in nodes:
        if n.ref in pool or n.is_terminal:
            return False  # duplicates are ambiguous; terminals never appear backward
        pool[n.ref] = n
    poi_rec = pool.get(poi.ref)
    if poi_rec is None or poi_rec.pi.value != poi.pi_in.value:
        return False
    in_edges: dict[NodeRef, list[int]] = {ref: [] for ref in pool}
    for i, e in enumerate(edges):
        if e.dst_ref not in pool or e.src_ref not in pool:
            return False
        in_edges[e.dst_ref].append(i)

    computed: dict[NodeRef, MsetDigest] = {}
    in_progress: set[NodeRef] = set()
    used_edges: set[int] = set()
    stack: list[tuple[NodeRef, bool]] = [(poi.ref, False)]
    while stack:
        ref, expand = stack.pop()
        if expand:
            in_progress.discard(ref)
            elems = []
            for i in in_edges[ref]:
                e = edges[i]
                src_pi = computed.get(e.src_ref)
                if src_pi is None:
                    return False  # cycle: a source never finished computing
                elems.append(encode_edge(e, e.src_ref, e.dst_ref) + src_pi.to_bytes())
            computed[ref] = mset_hash_set(elems)
            continue
        if ref in computed or ref in in_progress:
            continue
        in_progress.add(ref)
        stack.append((ref, True))
        for i in in_edges[ref]:
            used_edges.add(i)
            stack.append((edges[i].src_ref, False))
    if len(computed) != len(pool) or len(used_edges) != len(edges):
        return False
    return all(computed[ref].value == pool[ref].pi.value for ref in pool)


def verify_forward(
    poi: PoiRecord,
    segments: list[WireSegment],
    root_proofs: list[RootProofEntry],
    commitment: Commitment,
) -> bool:
    """Validate forward components: authenticate every segment anchor
    against the commitment, then recompute outgoing digests over the pooled
    components, treating terminals as digest-empty leaves."""
    if not segments or segments[0].anchor_ref != poi.ref:
        return False
    pool: dict[NodeRef, WireNode] = {}
    edges: list[WireEdge] = []
    for seg in segments:
        for n in seg.nodes:
            if n.ref in pool:
                return False
            if n.is_terminal != (n.terminal_target is not None):
                return False
            pool[n.ref] = n
        edges.extend(seg.edges)
    poi_rec = pool.get(poi.ref)
    if poi_rec is None or poi_rec.is_terminal or poi_rec.pi.value != poi.pi_out.value:
        return False

    # every terminal target must be a supplied non-terminal node
    for n in pool.values():
        if n.is_terminal:
            target = pool.get(n.terminal_target)
            if target is None or target.is_terminal:
                return False

    # anchors beyond the POI: exactly the supplied segments, each justified
    # by some terminal and authenticated by a root proof
    anchor_refs = [seg.anchor_ref for seg in segments[1:]]
    if len(set(anchor_refs)) != len(anchor_refs):
        return False
    targets = {n.terminal_target for n in pool.values() if n.is_terminal}
    if not set(anchor_refs) <= targets:
        return False
    if not _verify_root_proofs(anchor_refs, pool, root_proofs, commitment):
        return False

    out_edges: dict[NodeRef, list[int]] = {ref: [] for ref in pool}
    for i, e in enumerate(edges):
        if e.src_ref not in pool or e.dst_ref not in pool:
            return False
        out_edges[e.src_ref].append(i)

    computed: dict[NodeRef, MsetDigest] = {}
    in_progress: set[NodeRef] = set()
    used_edges: set[int] = set()
    for start in [poi.ref] + anchor_refs:
        stack: list[tuple[NodeRef, bool]] = [(start, False)]
        while stack:
            ref, expand = stack.pop()
            if expand:
                in_progress.discard(ref)
                elems = []
                for i in out_edges[ref]:
                    e = edges[i]
                    dst_pi = computed.get(e.dst_ref)
                    if dst_pi is None:
                        return False  # cycle: a successor never finished
                    dst_rec = pool[e.dst_ref]
                    marker = terminal_marker(dst_rec.is_terminal, dst_rec.terminal_target)
                    enc = encode_edge(e, e.src_ref, e.dst_ref)
                    elems.append(enc + marker + dst_pi.to_bytes())
                computed[ref] = mset_hash_set(elems)
                continue
            if ref in computed or ref in in_progress:
                continue
            if pool[ref].is_terminal:
                computed[ref] = mset_empty()
                continue
            in_progress.add(ref)
            stack.append((ref, True))
            for i in out_edges[ref]:
                used_edges.add(i)
                stack.append((edges[i].dst_ref, False))
    if len(computed) != len(pool) or len(used_edges) != len(edges):
        return False
    return all(computed[ref].value == pool[ref].pi.value for ref in pool)


def _verify_root_proofs(
    anchor_refs: list[NodeRef],
    pool: dict[NodeRef, WireNode],
    root_proofs: list[RootProofEntry] | None,
    commitment: Commitment,
) -> bool:
    """Each anchor's committed leaf digest must match its supplied record."""
    if root_proofs is None:
        root_proofs = []
    proven: set[NodeRef] = set()
    for entry in root_proofs:
        if not entry.anchors:
            return False
        claimed: list[tuple[NodeRef, bytes]] = []
        for key, pi_in in entry.anchors:
            internal_id = _entry_internal_id(entry)
            if internal_id is None:
                return False
            ref = (internal_id, key.encoded())
            rec = pool.get(ref)
            if rec is None or rec.is_terminal:
                return False
            digest = node_leaf_digest(
                entry.entity_ext, internal_id, key, False, None, pi_in, rec.pi
            )
            claimed.append((ref, digest))
        if entry.node_proof is not None:
            if len(claimed) != 1:
                return False
            res = entry.node_proof
            ref, digest = claimed[0]
            if not res.found or res.node_key is None:
                return False
            if res.node_key.encoded() != ref[1]:
                return False
            lp = res.proof.local_proof
            if lp is None or not lp.found or lp.leaf.payload != digest:
                return False
            rel = Relation(acc_mod.REL_KEY, ref[1])
            if not acc_mod.verify_node(commitment.root, entry.entity_ext, rel, res):
                return False
        else:
            a, b = entry.range_bounds
            rp = entry.range_proof
            if rp is None or rp.local_range is None:
                return False
            leaves = rp.local_range.leaves
            if len(leaves) != len(claimed):
                return False
            for (ref, digest), leaf in zip(claimed, leaves):
                if leaf.key != ref[1] or leaf.payload != digest:
                    return False
            result = RangeResult(rp.local_range.found, list(leaves), rp)
            if not acc_mod.verify_range(commitment.root, entry.entity_ext, a, b, result):
                return False
        proven.update(ref for ref, _ in claimed)
    return set(anchor_refs) <= proven


def _entry_internal_id(entry: RootProofEntry) -> int | None:
    if entry.node_proof is not None:
        return entry.node_proof.proof.internal_id
    if entry.range_proof is not None:
        return entry.range_proof.internal_id
    return None


def verify_bundle(vk, query: CausalityQuery, bundle: ProofBundle) -> VerifyReport:
    """Full administrator-side validation, short-circuiting on failure."""
    report = VerifyReport()
    if bundle.query != query:
        report.first_failure = "bundle answers a different query"
        return report
    report.commitment_ok = bundle.commitment.verify(vk)
    if not report.commitment_ok:
        report.first_failure = "commitment signature invalid"
        return report
    root = bundle.commitment.root

    if bundle.poi is None:
        ok = bundle.poi_proof.found is False and acc_mod.verify_node(
            root,
            query.entity_ext,
            query.relation,
            bundle.poi_proof,
            registry_digest=bundle.commitment.registry_digest,
        )
        # an empty result must not smuggle unvalidated components
        ok = ok and bundle.backward_nodes is None and bundle.forward_segments is None
        report.poi_ok = ok
        report.provably_empty = ok
        if not ok:
            report.first_failure = "non-membership proof rejected"
        return report

    # sections the query did not request would escape validation entirely
    if not query.wants_backward() and bundle.backward_nodes is not None:
        report.poi_ok = False
        report.first_failure = "bundle carries unrequested backward components"
        return report
    if not query.wants_forward() and (
        bundle.forward_segments is not None or bundle.root_proofs is not None
    ):
        report.poi_ok = False
        report.first_failure = "bundle carries unrequested forward components"
        return report

    report.poi_ok = self_consistent = _verify_poi(root, query, bundle)
    if not self_consistent:
        report.first_failure = "point-of-interest proof rejected"
        return report

    if query.wants_backward():
        if bundle.backward_nodes is None:
            report.backward_ok = False
        else:
            report.backward_ok = verify_backward(
                bundle.poi, bundle.backward_nodes, bundle.backward_edges
            )
        if not report.backward_ok:
            report.first_failure = "backward components rejected"
            return report

    if query.wants_forward():
        if bundle.forward_segments is None or bundle.root_proofs is None:
            report.forward_ok = False
        else:
            report.forward_ok = verify_forward(
                bundle.poi, bundle.forward_segments, bundle.root_proofs, bundle.commitment
            )
        if not report.forward_ok:
            report.first_failure = "forward components rejected"
            return report
    return report


def _verify_poi(root: bytes, query: CausalityQuery, bundle: ProofBundle) -> bool:
    res = bundle.poi_proof
    poi = bundle.poi
    if not res.found or res.node_key is None:
        return False
    if res.node_key != poi.key or res.proof.internal_id != poi.entity_id:
        return False
    lp = res.proof.local_proof
    if lp is None or not lp.found or lp.leaf is None:
        return False
    if lp.leaf.payload != poi.leaf_digest(query.entity_ext):
        return False
    return acc_mod.verify_node(root, query.entity_ext, query.relation, res)
