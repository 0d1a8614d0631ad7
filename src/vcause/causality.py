"""Verifiable causality analysis: query execution and result validation.

analyze() resolves a point-of-interest node through the accumulator, walks
its causal components, and packs everything an administrator needs into a
self-contained ProofBundle. The verifiers never touch the prover's graph:
they recompute path digests bottom-up from the supplied component lists and
compare against digests authenticated by accumulator proofs under the
signed commitment.

Component records carry internal ids and keys only; external entity names
appear exactly where a proof authenticates them (the query's entity via the
POI proof, segment anchors via the anchor section). Unauthenticated display
fields would be a free forgery channel.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass

from . import accumulator as acc_mod
from .accumulator import NodeProofResult, Relation, TimestampKey
from .commitment import Commitment
from .dimtree import LeafRecord, MultiProof
from .hashcore import (
    EMPTY_DIGEST_BYTES,
    MsetDigest,
    digest_hash,
    encode_edge,
    mset_empty,
    mset_hash_set,
    read_edge,
    terminal_marker,
)
from .provgraph import Graph, NodeRef, node_leaf_digest
from .wire import NODE_REF, Reader, WireError, bytes_lp, flag, node_ref, optional, seq, str_lp, u8

BACKWARD = "backward"
FORWARD = "forward"
BOTH = "both"

_DIRECTION_TAGS = {BACKWARD: 0, FORWARD: 1, BOTH: 2}
_DIRECTION_FROM_TAG = {v: k for k, v in _DIRECTION_TAGS.items()}


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


# NodeRef || u8 is_terminal || u8 has_target
_NODE_HEAD = struct.Struct(NODE_REF.format + "BB")


@dataclass(slots=True)
class WireNode:
    """One component node on the wire:

        u64 entity_id || TimestampKey || flag is_terminal ||
        optional(NodeRef terminal_target) || MsetDigest pi

    A node carries a target iff it is terminal. `pi` is the incoming digest
    in backward components and the (segmented) outgoing digest in forward
    components.
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
        key, target = self.key, self.terminal_target
        head = _NODE_HEAD.pack(
            self.entity_id, key.timestamp, key.seq, self.is_terminal, target is not None
        )
        if target is not None:
            head += node_ref(target)
        return head + self.pi.to_bytes()

    @classmethod
    def read_from(cls, r: Reader) -> "WireNode":
        entity_id, timestamp, seq_no, terminal, has_target = r.unpack(_NODE_HEAD)
        if terminal > 1 or terminal != has_target:
            raise WireError(f"node flags ({terminal}, {has_target}): a node carries "
                            "a terminal target iff it is terminal")
        return cls(
            entity_id, TimestampKey(timestamp, seq_no), terminal == 1,
            r.node_ref() if terminal else None, MsetDigest.read_from(r),
        )


@dataclass(slots=True)
class WireEdge:
    """Edge record: its canonical encoding (hashcore.encode_edge), the
    preimage the verifiers hash. The event time travels inside the
    destination's key."""

    kind: str
    src_ref: NodeRef
    dst_ref: NodeRef
    event_type: str
    payload: bytes = b""

    def to_bytes(self) -> bytes:
        return encode_edge(self, self.src_ref, self.dst_ref)

    @classmethod
    def read_from(cls, r: Reader) -> "WireEdge":
        return cls(*read_edge(r))


@dataclass(slots=True)
class PoiRecord:
    """The queried node with the hashes of both digests, as its accumulator
    leaf binds them; the verifiers hash the digests they recompute."""

    entity_id: int
    key: TimestampKey
    pi_in_hash: bytes
    pi_out_hash: bytes

    @property
    def ref(self) -> NodeRef:
        return (self.entity_id, self.key.encoded())

    def leaf_digest(self, entity_ext: str) -> bytes:
        return node_leaf_digest(entity_ext, self.ref, self.pi_in_hash, self.pi_out_hash)

    def to_bytes(self) -> bytes:
        return node_ref(self.ref) + self.pi_in_hash + self.pi_out_hash

    @classmethod
    def read_from(cls, r: Reader) -> "PoiRecord":
        entity_id, key = r.node_ref()
        return cls(entity_id, TimestampKey.from_encoded(key), r.take(32), r.take(32))


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
class AnchorEntity:
    """Accumulator evidence for the forward anchors of one entity.

    The anchors' internal id and keys come from the segments' anchor refs.
    Each anchor's pi_in hash, in key order, joins the hash of its segment
    record's pi_out to rebuild the anchor's committed leaf; the local
    multiproof ties those leaves to the entity's local root, and the
    bundle's one global multiproof ties every entity to the root.
    """

    entity_ext: str
    pi_in_hashes: list[bytes]
    local_proof: MultiProof

    def to_bytes(self) -> bytes:
        return (
            str_lp(self.entity_ext)
            + seq(self.pi_in_hashes, bytes)
            + self.local_proof.to_bytes()
        )

    @classmethod
    def read_from(cls, r: Reader) -> "AnchorEntity":
        return cls(r.str_lp(), r.seq(lambda r: r.take(32)), MultiProof.read_from(r))


# 4: the POI proof is an EntityProof with no kind tag, found flag, node key
# or entity copy; version 3 is refused
_BUNDLE_VERSION = 4


@dataclass(slots=True)
class ProofBundle:
    query: CausalityQuery
    commitment: Commitment
    poi: PoiRecord | None  # None when the query is provably empty
    poi_proof: NodeProofResult
    backward_nodes: list[WireNode] | None = None
    backward_edges: list[WireEdge] | None = None
    forward_segments: list[WireSegment] | None = None
    root_proofs: list[AnchorEntity] | None = None  # one per anchor entity
    anchor_global: MultiProof | None = None  # present iff root_proofs is not empty

    def to_bytes(self) -> bytes:
        out = [
            u8(_BUNDLE_VERSION),
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
            out.append(optional(self.anchor_global))
            out.append(seq(self.root_proofs, AnchorEntity.to_bytes))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProofBundle":
        r = Reader(data)
        if r.u8() != _BUNDLE_VERSION:
            raise WireError("unsupported bundle version")
        query = CausalityQuery.read_from(r)
        commitment = Commitment.from_bytes(r.bytes_lp())
        poi = r.optional(PoiRecord.read_from)
        poi_proof = NodeProofResult.read_from(r)
        backward_nodes = backward_edges = None
        if r.flag():
            backward_nodes = r.seq(WireNode.read_from)
            backward_edges = r.seq(WireEdge.read_from)
        forward_segments = root_proofs = anchor_global = None
        if r.flag():
            forward_segments = r.seq(WireSegment.read_from)
            anchor_global = r.optional(MultiProof.read_from)
            root_proofs = r.seq(AnchorEntity.read_from)
        r.finish()
        return cls(
            query, commitment, poi, poi_proof,
            backward_nodes, backward_edges, forward_segments, root_proofs, anchor_global,
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


def _anchor_section(
    graph: Graph, acc, anchors: list
) -> tuple[list[AnchorEntity], MultiProof | None]:
    """One AnchorEntity per anchor entity in internal-id order, plus the
    global multiproof over those entities."""
    by_entity: dict[int, list] = {}
    for node in sorted(anchors, key=lambda n: n.ref):
        by_entity.setdefault(node.entity_id, []).append(node)
    if not by_entity:
        return [], None
    global_proof, local = acc.prove_members(
        {entity_id: [n.ref[1] for n in nodes] for entity_id, nodes in by_entity.items()}
    )
    entries = [
        AnchorEntity(graph.entity_exts[entity_id], [n.pi_in_hash for n in nodes], proof)
        for (entity_id, nodes), proof in zip(by_entity.items(), local)
    ]
    return entries, global_proof


def analyze(graph: Graph, acc, commitment: Commitment, query: CausalityQuery) -> ProofBundle:
    """Run a causality query and assemble its proof bundle."""
    poi_res = acc.prove_node(query.entity_ext, query.relation)
    if not poi_res.found:
        return ProofBundle(query, commitment, None, poi_res)
    entity_id = graph.entity_ids[query.entity_ext]
    poi_ref = (entity_id, poi_res.node_key.encoded())
    poi_node = graph.node(poi_ref)
    poi = PoiRecord(
        entity_id, poi_node.key, poi_node.pi_in_hash, digest_hash(poi_node.pi_out)
    )
    bundle = ProofBundle(query, commitment, poi, poi_res)

    if query.wants_backward():
        nodes, edges = graph.collect_backward(poi_ref)
        bundle.backward_nodes = [
            WireNode(
                n.entity_id, n.key, n.is_terminal, n.terminal_target,
                MsetDigest(n.pi_in) if n.pi_in else mset_empty(),
            )
            for n in nodes
        ]
        bundle.backward_edges = [
            WireEdge(e.kind, e.src_ref, e.dst_ref, e.event_type, e.payload) for e in edges
        ]

    if query.wants_forward():
        segments = graph.collect_forward(poi_ref)
        bundle.forward_segments = [
            WireSegment(
                seg.anchor_ref,
                [
                    WireNode(
                        n.entity_id, n.key, n.is_terminal, n.terminal_target,
                        MsetDigest(n.pi_out) if n.pi_out else mset_empty(),
                    )
                    for n in seg.nodes
                ],
                [
                    WireEdge(e.kind, e.src_ref, e.seg_dst_ref, e.event_type, e.payload)
                    for e in seg.edges
                ],
            )
            for seg in segments
        ]
        anchors = [graph.node(seg.anchor_ref) for seg in segments[1:]]
        bundle.root_proofs, bundle.anchor_global = _anchor_section(graph, acc, anchors)
    return bundle


# -- validation ---------------------------------------------------------------


def _digests_match(
    pool: dict[NodeRef, WireNode],
    children: dict[NodeRef, list[int]],
    prefixes: list[bytes],
    kid_refs: list[NodeRef],
    starts: list[NodeRef],
) -> bool:
    """Recompute every pooled digest bottom-up and compare it with its claim.

    Entry i is `prefixes[i]` over the child `kid_refs[i]`; `children` maps
    a node to its entries. A node's digest is the multiset hash of
    `prefix || child digest` over its entries; a node without entries has
    the empty digest. Each digest is compared with its node's claim as soon
    as it is known. Rejects cycles and pooled nodes that no walk from
    `starts` reaches (unreachable extras are forgeries). Reaching every node
    consumes every entry, so no supplied edge escapes the comparison.
    """
    # every finished node's recomputed digest, as the bytes that end its
    # parents' elements
    done: dict[NodeRef, bytes] = {}
    # expanded nodes whose children are still being computed: the walk's
    # current path, so meeting one again closes a cycle
    on_path: set[NodeRef] = set()
    for start in starts:
        stack = [start]
        while stack:
            ref = stack.pop()
            if ref in done:
                continue
            entries = children.get(ref)
            if entries is None:
                if pool[ref].pi.to_bytes() != EMPTY_DIGEST_BYTES:
                    return False
                done[ref] = EMPTY_DIGEST_BYTES
            elif ref in on_path:  # its children are done: close it
                on_path.discard(ref)
                digest = mset_hash_set([prefixes[i] + done[kid_refs[i]] for i in entries])
                raw = digest.to_bytes()
                if raw != pool[ref].pi.to_bytes():
                    return False
                done[ref] = raw
            else:
                on_path.add(ref)
                stack.append(ref)
                for i in entries:
                    child = kid_refs[i]
                    if child in done:
                        continue
                    if child in on_path:
                        return False
                    if child in children:
                        stack.append(child)
                    elif pool[child].pi.to_bytes() != EMPTY_DIGEST_BYTES:
                        return False  # a childless child finishes here
                    else:
                        done[child] = EMPTY_DIGEST_BYTES
    return len(done) == len(pool)


def verify_backward(poi: PoiRecord, nodes: list[WireNode], edges: list[WireEdge]) -> bool:
    """Recompute incoming path digests from the supplied components only.

    Accepts iff the recomputed digest of every supplied node matches its
    claim, the queried node's digest matches, and the walk from the queried
    node reaches every supplied node (unreachable extras are forgeries).
    """
    pool: dict[NodeRef, WireNode] = {}
    for n in nodes:
        key = n.key
        ref = (n.entity_id, (key.timestamp << 32) | key.seq)  # n.ref
        # duplicates are ambiguous; terminals never appear backward
        if ref in pool or n.is_terminal or n.terminal_target is not None:
            return False
        pool[ref] = n
    poi_rec = pool.get(poi.ref)
    if poi_rec is None or poi_rec.pi.hashed() != poi.pi_in_hash:
        return False
    # a node's entries are its in-edges, over their sources
    sources: dict[NodeRef, list[int]] = defaultdict(list)
    prefixes: list[bytes] = []
    kid_refs: list[NodeRef] = []
    for i, e in enumerate(edges):
        src, dst = e.src_ref, e.dst_ref
        if dst not in pool or src not in pool:
            return False
        sources[dst].append(i)
        prefixes.append(e.to_bytes())
        kid_refs.append(src)
    return _digests_match(pool, sources, prefixes, kid_refs, [poi.ref])


def verify_forward(
    poi: PoiRecord,
    segments: list[WireSegment],
    anchor_global: MultiProof | None,
    root_proofs: list[AnchorEntity],
    commitment: Commitment,
) -> bool:
    """Validate forward components: authenticate every segment anchor
    against the commitment, then recompute outgoing digests over the pooled
    components, treating terminals as digest-empty leaves."""
    if not segments or segments[0].anchor_ref != poi.ref:
        return False
    pool: dict[NodeRef, WireNode] = {}
    terminals: list[WireNode] = []
    edges: list[WireEdge] = []
    for seg in segments:
        for n in seg.nodes:
            key = n.key
            ref = (n.entity_id, (key.timestamp << 32) | key.seq)  # n.ref
            if ref in pool or n.is_terminal != (n.terminal_target is not None):
                return False
            if n.is_terminal:
                terminals.append(n)
            pool[ref] = n
        edges.extend(seg.edges)
    poi_rec = pool.get(poi.ref)
    if poi_rec is None or poi_rec.is_terminal or poi_rec.pi.hashed() != poi.pi_out_hash:
        return False

    # every terminal target must be a supplied non-terminal node
    for n in terminals:
        target = pool.get(n.terminal_target)
        if target is None or target.is_terminal:
            return False

    # anchors beyond the POI: exactly the supplied segments, each justified
    # by some terminal and authenticated by a root proof
    anchor_refs = [seg.anchor_ref for seg in segments[1:]]
    if len(set(anchor_refs)) != len(anchor_refs):
        return False
    if not set(anchor_refs) <= {n.terminal_target for n in terminals}:
        return False
    if not _verify_anchors(anchor_refs, pool, root_proofs, anchor_global, commitment.root):
        return False

    # a node's entries are its out-edges, over their destinations; no edge
    # may leave a terminal, and an edge into one binds its marker
    successors: dict[NodeRef, list[int]] = defaultdict(list)
    prefixes: list[bytes] = []
    kid_refs: list[NodeRef] = []
    for i, e in enumerate(edges):
        src_ref, dst_ref = e.src_ref, e.dst_ref
        src, dst = pool.get(src_ref), pool.get(dst_ref)
        if src is None or dst is None or src.is_terminal:
            return False
        successors[src_ref].append(i)
        prefixes.append(e.to_bytes() + terminal_marker(dst.terminal_target))
        kid_refs.append(dst_ref)
    return _digests_match(pool, successors, prefixes, kid_refs, [poi.ref] + anchor_refs)


def _verify_anchors(
    anchor_refs: list[NodeRef],
    pool: dict[NodeRef, WireNode],
    entries: list[AnchorEntity],
    anchor_global: MultiProof | None,
    root: bytes,
) -> bool:
    """Each anchor's committed leaf, rebuilt from its entry's pi_in hash and
    its supplied record's pi_out, must be proven under the root. Entries
    follow the anchors' entities in internal-id order, one each."""
    by_entity: dict[int, list[int]] = {}
    for entity_id, key in sorted(anchor_refs):
        by_entity.setdefault(entity_id, []).append(key)
    if len(entries) != len(by_entity) or (anchor_global is None) != (not entries):
        return False
    if not entries:
        return True
    members = []
    for (entity_id, keys), entry in zip(by_entity.items(), entries):
        if len(entry.pi_in_hashes) != len(keys):
            return False
        ext = entry.entity_ext
        leaves = []
        for key, pi_in_hash in zip(keys, entry.pi_in_hashes):
            ref = (entity_id, key)
            pi_out_hash = pool[ref].pi.hashed()
            leaves.append(LeafRecord(key, node_leaf_digest(ext, ref, pi_in_hash, pi_out_hash)))
        members.append((entity_id, ext, leaves, entry.local_proof))
    return acc_mod.members_root(anchor_global, members) == root


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
        ok = not bundle.poi_proof.found and acc_mod.verify_node(
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
        bundle.forward_segments is not None
        or bundle.root_proofs is not None
        or bundle.anchor_global is not None
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
                bundle.poi, bundle.forward_segments, bundle.anchor_global,
                bundle.root_proofs, bundle.commitment,
            )
        if not report.forward_ok:
            report.first_failure = "forward components rejected"
            return report
    return report


def _verify_poi(root: bytes, query: CausalityQuery, bundle: ProofBundle) -> bool:
    """The POI proof must prove a member under the root whose leaf is the
    POI record's."""
    res, poi = bundle.poi_proof, bundle.poi
    if not res.found or not acc_mod.verify_node(root, query.entity_ext, query.relation, res):
        return False
    leaf = res.proof.local_proof.leaf
    return (
        leaf.key == poi.key.encoded()
        and res.proof.internal_id == poi.entity_id
        and leaf.payload == poi.leaf_digest(query.entity_ext)
    )
