"""Verifiable versioned provenance graph.

Events materialize version nodes linked by temporal and dependency edges.
Every node carries two multiset digests over its path structure:

- an incoming path digest, computed once at creation over the node's
  in-edges and their sources' digests, immutable afterwards;
- an outgoing path digest, maintained incrementally with homomorphic
  add/subtract as new events extend the node's outgoing paths.

The graph holds both digests as plain ints, the group values of
`hashcore`'s multiset hash; `MsetDigest` exists only on the wire. Each node
keeps its 20-byte NodeRef encoding and each edge its segment-view
encoding, built once when the node or edge is created (and again when
re-rooting points the edge at a stub); an edge's logical encoding is
rebuilt from its fields when it is read. Both encodings are
`hashcore.encode_edge`, the layout the wire carries and the verifiers hash.

In segmented mode the graph is partitioned into dependency trees: every
temporal edge is detached onto a digest-empty terminal stub that points at
its logical destination, and dependency edges that would push a tree past
the configured depth move their parent into a fresh tree. A tree is the
set of nodes whose `seg_parent_edge` chains end at its root. The outgoing
digest of a node then covers only its own tree, so an event touches at most
depth+1 existing digests instead of every ancestor.

Unsegmented outgoing digests (full ancestor propagation) are kept as a
test and benchmark mode.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from operator import attrgetter

from .accumulator import MAX_SEQ, TimestampKey
from .hashcore import (
    EMPTY_DIGEST_BYTES,
    MSET_BYTES,
    MSET_MASK,
    digest_hash,
    encode_edge,
    mset_element,
    terminal_marker,
)
from .wire import NODE_REF, flag, node_ref, optional

_NODE_TAG = b"vc:node\x00"
_NLEAF_TAG = b"vc:node-leaf\x00"

SEGMENTED = "segmented"
UNSEGMENTED = "unsegmented"

TEMPORAL = "temporal"
DEPENDENCY = "dependency"

# Terminal stubs take entity ids from their own space, the top bit of the
# u64 id: stub N is STUB_ID_BIT | N. Real entity ids stay dense (0..N-1),
# so the two spaces never meet and NodeRefs keep their layout.
STUB_ID_BIT = 1 << 63

NodeRef = tuple[int, int]  # (entity_id, encoded TimestampKey)


# the node-identity tail of a non-terminal node (is_terminal 0, no target),
# as causality.WireNode writes it
_REAL_ID_SUFFIX = flag(False) + optional(None)
# The edge ids of a stub: no logical edge starts or ends at one, so every
# stub shares this empty tuple instead of holding an empty list.
_NO_EDGES: tuple[int, ...] = ()

_BY_REF = attrgetter("ref")  # component orders
_BY_EDGE_ID = attrgetter("edge_id")


def _leaf_hash(entity_ext: str, ref_bytes: bytes, pi_in_hash: bytes, pi_out_hash: bytes) -> bytes:
    ext = entity_ext.encode("utf-8")
    return hashlib.sha3_256(b"".join((
        _NLEAF_TAG, _NODE_TAG, len(ext).to_bytes(4, "big"), ext,  # lp(entity_ext)
        ref_bytes, _REAL_ID_SUFFIX, pi_in_hash, pi_out_hash,
    ))).digest()


def node_leaf_digest(
    entity_ext: str, ref: NodeRef, pi_in_hash: bytes, pi_out_hash: bytes
) -> bytes:
    """Accumulator leaf payload: binds the external id, the node identity
    of a non-terminal node and the hashes of both path digests. Only
    non-terminal nodes have leaves."""
    return _leaf_hash(entity_ext, node_ref(ref), pi_in_hash, pi_out_hash)


class ClockRegression(ValueError):
    """Event timestamp below the stream's high-water mark."""


class UnknownNode(KeyError):
    pass


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One audit event: src acts on dst at ts."""

    src: str
    action: str
    dst: str
    ts: int
    payload: bytes = b""


@dataclass(slots=True)
class VersionNode:
    entity_id: int
    entity_ext: str
    ref: NodeRef  # (entity_id, encoded key); keys never change
    ref_bytes: bytes  # wire.node_ref(ref)
    pi_in: int = 0
    pi_out: int = 0
    depth: int = 0  # dependency depth in the node's tree; real nodes only
    # logical edge ids: in-edges are fixed when the node is created, so
    # they are a tuple; a stub has no logical edges at all (_NO_EDGES)
    in_edge_ids: tuple[int, ...] = ()
    out_edge_ids: list[int] = field(default_factory=list)
    is_terminal: bool = False
    terminal_target: NodeRef | None = None
    created_seq: int = 0
    seg_parent_edge: int | None = None  # seg-view in-edge, for O(1) up-walks
    _pi_in_hash: bytes | None = None
    _key: TimestampKey | None = None

    @property
    def key(self) -> TimestampKey:
        """The version's (timestamp, seq), built from ref on first read:
        only queries, and syncs of already committed nodes, read it."""
        if self._key is None:
            self._key = TimestampKey.from_encoded(self.ref[1])
        return self._key

    @property
    def pi_in_hash(self) -> bytes:
        """digest_hash(pi_in), computed once at the first sync: pi_in is
        fixed once the node's in-edges exist."""
        if self._pi_in_hash is None:
            self._pi_in_hash = digest_hash(self.pi_in)
        return self._pi_in_hash

    def leaf_digest(self) -> bytes:
        return _leaf_hash(
            self.entity_ext, self.ref_bytes, self.pi_in_hash, digest_hash(self.pi_out)
        )


@dataclass(slots=True)
class Edge:
    """An edge with its segment-view encoding `enc_seg`: hashcore.encode_edge
    over (src_ref, seg_dst_ref) followed by the segment destination's
    terminal marker. The marker makes outgoing digests bind stub metadata;
    without it a prover could flip a stub into a fake exit node unnoticed.
    The event time is the destination key's timestamp."""

    edge_id: int
    kind: str  # TEMPORAL or DEPENDENCY
    src_ref: NodeRef
    dst_ref: NodeRef  # logical destination
    seg_dst_ref: NodeRef  # segment-view destination (terminal once detached)
    event_type: str
    payload: bytes
    enc_seg: bytes

    @property
    def enc_logical(self) -> bytes:
        """hashcore.encode_edge over (src_ref, dst_ref)."""
        return encode_edge(self, self.src_ref, self.dst_ref)


@dataclass(slots=True)
class RecordResult:
    node: VersionNode
    created: list[VersionNode]  # new nodes in creation order (entries, node, terminals)
    updated: set[NodeRef]  # pre-existing nodes whose outgoing digest changed


@dataclass(slots=True)
class Segment:
    """One forward component piece, scoped to a single dependency tree."""

    anchor_ref: NodeRef
    nodes: list[VersionNode]
    edges: list[Edge]


def _retarget(edge: Edge, stub: VersionNode) -> None:
    """Point the edge's segment view at a stub whose target is the edge's
    logical destination: the stub's ref replaces the destination, and the
    terminal marker names the target."""
    edge.seg_dst_ref = stub.ref
    edge.enc_seg = encode_edge(edge, edge.src_ref, stub.ref) + terminal_marker(
        stub.terminal_target
    )


class Graph:
    """Single-writer event graph for one endpoint stream."""

    def __init__(self, mode: str = SEGMENTED, depth: int = 1):
        if mode not in (SEGMENTED, UNSEGMENTED):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == SEGMENTED and depth < 1:
            raise ValueError("segmentation depth must be >= 1")
        self.mode = mode
        self.depth = depth
        self.nodes: dict[NodeRef, VersionNode] = {}
        self.edges: list[Edge] = []
        self.entity_ids: dict[str, int] = {}
        self.entity_exts: list[str] = []
        self.latest: dict[int, NodeRef] = {}  # entity -> latest real version
        self.next_terminal = 0
        self.last_ts = 0
        self.event_count = 0
        self._created_seq = 0
        self.total_digest_updates = 0  # instrumentation: digests touched so far

    def fork(self) -> "Graph":
        """Deep-enough copy for what-if replays: nodes and edges are
        duplicated (they mutate in place), immutable digests are shared."""
        other = Graph.__new__(Graph)
        other.mode = self.mode
        other.depth = self.depth
        new_node = VersionNode.__new__
        nodes = {}
        for ref, n in self.nodes.items():
            m = new_node(VersionNode)
            m.entity_id = n.entity_id
            m.entity_ext = n.entity_ext
            m.ref = n.ref
            m.ref_bytes = n.ref_bytes
            m.pi_in = n.pi_in
            m._pi_in_hash = n._pi_in_hash
            m._key = n._key
            m.pi_out = n.pi_out
            m.depth = n.depth
            m.in_edge_ids = n.in_edge_ids
            m.out_edge_ids = n.out_edge_ids[:]  # copies a list, shares a stub's _NO_EDGES
            m.is_terminal = n.is_terminal
            m.terminal_target = n.terminal_target
            m.created_seq = n.created_seq
            m.seg_parent_edge = n.seg_parent_edge
            nodes[ref] = m
        other.nodes = nodes
        new_edge = Edge.__new__
        edges = []
        for e in self.edges:
            f = new_edge(Edge)
            f.edge_id = e.edge_id
            f.kind = e.kind
            f.src_ref = e.src_ref
            f.dst_ref = e.dst_ref
            f.seg_dst_ref = e.seg_dst_ref
            f.event_type = e.event_type
            f.payload = e.payload
            f.enc_seg = e.enc_seg
            edges.append(f)
        other.edges = edges
        other.entity_ids = dict(self.entity_ids)
        other.entity_exts = list(self.entity_exts)
        other.latest = dict(self.latest)
        other.next_terminal = self.next_terminal
        other.last_ts = self.last_ts
        other.event_count = self.event_count
        other._created_seq = self._created_seq
        other.total_digest_updates = self.total_digest_updates
        return other

    # -- lookups -------------------------------------------------------------

    def node(self, ref: NodeRef) -> VersionNode:
        try:
            return self.nodes[ref]
        except KeyError:
            raise UnknownNode(ref) from None

    # -- construction ----------------------------------------------------------

    def _new_entity(self, ext: str) -> int:
        entity_id = len(self.entity_exts)
        self.entity_ids[ext] = entity_id
        self.entity_exts.append(ext)
        return entity_id

    def _add_node(
        self, entity_id: int, ext: str, ts: int, seq: int, out_edge_ids, target: NodeRef | None
    ) -> VersionNode:
        ref = (entity_id, (ts << 32) | seq)
        node = VersionNode(
            entity_id, ext, ref, NODE_REF.pack(entity_id, ts, seq), 0, 0, 0, _NO_EDGES,
            out_edge_ids, target is not None, target, self._created_seq,
        )
        self._created_seq += 1
        self.nodes[ref] = node
        return node

    def _create_version(self, entity_id: int, ts: int) -> VersionNode:
        """The entity's next real version: versions at one timestamp take
        consecutive seqs."""
        last = self.latest.get(entity_id)
        seq = (last[1] & MAX_SEQ) + 1 if last is not None and last[1] >> 32 == ts else 0
        node = self._add_node(entity_id, self.entity_exts[entity_id], ts, seq, [], None)
        self.latest[entity_id] = node.ref
        return node

    def _create_terminal(self, target: VersionNode, ts: int) -> VersionNode:
        """A graph-only stub: no entity entry, no version, no accumulator leaf."""
        entity_id = STUB_ID_BIT | self.next_terminal
        self.next_terminal += 1
        return self._add_node(entity_id, "", ts, 0, _NO_EDGES, target.ref)

    def _add_edge(
        self, kind: str, src: VersionNode, dst: VersionNode, ev: EventRecord
    ) -> tuple[Edge, bytes]:
        """The new edge and its logical encoding. The caller sets the
        destination's in_edge_ids."""
        edge = Edge(len(self.edges), kind, src.ref, dst.ref, dst.ref, ev.action, ev.payload, b"")
        enc = encode_edge(edge, src.ref, dst.ref)
        edge.enc_seg = enc + terminal_marker(None)
        self.edges.append(edge)
        src.out_edge_ids.append(edge.edge_id)
        return edge, enc

    def record_event(self, ev: EventRecord) -> RecordResult:
        """Apply one event: new dst version, edges, digest maintenance."""
        ts = ev.ts
        if ts < self.last_ts:
            raise ClockRegression(f"timestamp {ts} below high-water mark {self.last_ts}")
        self.last_ts = ts
        self.event_count += 1
        created: list[VersionNode] = []
        updated: set[NodeRef] = set()
        nodes, latest = self.nodes, self.latest

        # Entity ids are assigned at first node creation, in creation order,
        # so the accumulator's dense registry matches when non-terminal
        # nodes are registered in `created` order.
        src_id = self.entity_ids.get(ev.src)
        if src_id is None:
            src_id = self._new_entity(ev.src)
        entry = None
        if src_id not in latest:
            entry = self._create_version(src_id, ts)
            created.append(entry)
        parent = nodes[latest[src_id]]
        if ev.src == ev.dst:
            dst_id = src_id
            prev = None  # the parent doubles as the previous version; no temporal edge
        else:
            dst_id = self.entity_ids.get(ev.dst)
            if dst_id is None:
                dst_id = self._new_entity(ev.dst)
            prev_ref = latest.get(dst_id)
            prev = nodes[prev_ref] if prev_ref is not None else None

        node = self._create_version(dst_id, ts)
        created.append(node)

        dep_edge, enc = self._add_edge(DEPENDENCY, parent, node, ev)
        # incoming path digest: one element per in-edge over (logical
        # encoding, source digest)
        pi_in = mset_element(enc + parent.pi_in.to_bytes(MSET_BYTES, "big"))
        if prev is None:
            temporal_edge = None
            node.in_edge_ids = (dep_edge.edge_id,)
        else:
            temporal_edge, enc = self._add_edge(TEMPORAL, prev, node, ev)
            node.in_edge_ids = (dep_edge.edge_id, temporal_edge.edge_id)
            pi_in += mset_element(enc + prev.pi_in.to_bytes(MSET_BYTES, "big"))
        node.pi_in = pi_in & MSET_MASK

        if self.mode == SEGMENTED:
            self._apply_segmentation(node, parent, dep_edge, temporal_edge, ts, created, updated)
        else:
            self._update_unsegmented(node, updated)

        if entry is not None:  # a fresh entry is the one created node a bump can reach
            updated.discard(entry.ref)
        return RecordResult(node, created, updated)

    # -- digests ---------------------------------------------------------------

    def _bump_chain(self, start: VersionNode, delta: int, updated: set[NodeRef]) -> None:
        """Add delta to start's outgoing digest and propagate the change up
        its tree chain.

        One call is one attachment batch; it adds the nodes it touches to
        total_digest_updates.
        """
        nodes, edges = self.nodes, self.edges
        child = start
        child_old = child.pi_out
        child.pi_out = (child_old + delta) & MSET_MASK
        updated.add(child.ref)
        count = 1
        while child.seg_parent_edge is not None:
            edge = edges[child.seg_parent_edge]
            parent = nodes[edge.src_ref]
            enc = edge.enc_seg
            parent_old = parent.pi_out
            parent.pi_out = (
                parent_old
                - mset_element(enc + child_old.to_bytes(MSET_BYTES, "big"))
                + mset_element(enc + child.pi_out.to_bytes(MSET_BYTES, "big"))
            ) & MSET_MASK
            updated.add(parent.ref)
            count += 1
            child, child_old = parent, parent_old
        self.total_digest_updates += count

    def _attach_seg_child(self, edge: Edge, child: VersionNode, updated: set[NodeRef]) -> None:
        """Eq-5 style attach: child (digest-empty) hangs off edge.src."""
        child.seg_parent_edge = edge.edge_id
        elem = mset_element(edge.enc_seg + EMPTY_DIGEST_BYTES)
        self._bump_chain(self.nodes[edge.src_ref], elem, updated)

    def _apply_segmentation(
        self,
        node: VersionNode,
        parent: VersionNode,
        dep_edge: Edge,
        temporal_edge: Edge | None,
        ts: int,
        created: list[VersionNode],
        updated: set[NodeRef],
    ) -> None:
        if parent.depth + 1 <= self.depth:
            # Case 1: the edge stays in the parent's tree
            node.depth = parent.depth + 1
            self._attach_seg_child(dep_edge, node, updated)
        else:
            # Case 2: make the parent the root of a new tree and stub its
            # old position. Its subtree moves with it: a parent at depth L
            # has only terminal children (a dependency child would already
            # have exceeded the bound), and they hang off its out-edges.
            stub = self._create_terminal(parent, ts)
            created.append(stub)
            in_edge = (
                self.edges[parent.seg_parent_edge]
                if parent.seg_parent_edge is not None
                else None
            )
            parent.depth = 0
            parent.seg_parent_edge = None
            for eid in parent.out_edge_ids:
                if eid != dep_edge.edge_id:  # the triggering edge's node is placed below
                    child = self.nodes[self.edges[eid].seg_dst_ref]
                    assert child.is_terminal, "non-terminal child below a depth-L node"
            if in_edge is not None:
                old_enc = in_edge.enc_seg
                _retarget(in_edge, stub)
                stub.seg_parent_edge = in_edge.edge_id
                grand = self.nodes[in_edge.src_ref]
                swap = mset_element(in_edge.enc_seg + EMPTY_DIGEST_BYTES) - mset_element(
                    old_enc + parent.pi_out.to_bytes(MSET_BYTES, "big")
                )
                self._bump_chain(grand, swap, updated)
            node.depth = 1
            self._attach_seg_child(dep_edge, node, updated)

        if temporal_edge is not None:
            stub = self._create_terminal(node, ts)
            created.append(stub)
            _retarget(temporal_edge, stub)
            self._attach_seg_child(temporal_edge, stub, updated)

    def _update_unsegmented(self, node: VersionNode, updated: set[NodeRef]) -> None:
        """Eq-5/6 batch over the full logical graph, one pass per ancestor.
        Destinations are never terminals here, so every edge's segment-view
        encoding is its logical one plus the constant plain marker, which
        keeps outgoing-digest elements uniform across modes."""
        stash: dict[NodeRef, int] = {}
        heap: list[tuple[int, NodeRef]] = []

        def touch(n: VersionNode) -> None:
            if n.ref not in stash:
                stash[n.ref] = n.pi_out
                heapq.heappush(heap, (-n.created_seq, n.ref))

        for eid in node.in_edge_ids:
            edge = self.edges[eid]
            pred = self.nodes[edge.src_ref]
            touch(pred)
            elem = mset_element(edge.enc_seg + node.pi_out.to_bytes(MSET_BYTES, "big"))
            pred.pi_out = (pred.pi_out + elem) & MSET_MASK

        done: set[NodeRef] = set()
        while heap:
            _, ref = heapq.heappop(heap)
            if ref in done:
                continue
            done.add(ref)
            child = self.nodes[ref]
            old_bytes = stash[ref].to_bytes(MSET_BYTES, "big")
            new_bytes = child.pi_out.to_bytes(MSET_BYTES, "big")
            for eid in child.in_edge_ids:
                edge = self.edges[eid]
                pred = self.nodes[edge.src_ref]
                touch(pred)
                enc = edge.enc_seg
                pred.pi_out = (
                    pred.pi_out - mset_element(enc + old_bytes) + mset_element(enc + new_bytes)
                ) & MSET_MASK
        updated.update(done)
        self.total_digest_updates += len(done)

    # -- traversals ------------------------------------------------------------

    def collect_backward(self, ref: NodeRef) -> tuple[list[VersionNode], list[Edge]]:
        """Backward components: every node with a path into ref, plus their
        in-edges (the queried node and its own in-edges included)."""
        start = self.node(ref)
        seen = {ref}
        stack = [start]
        nodes = []
        edge_ids: set[int] = set()
        while stack:
            cur = stack.pop()
            nodes.append(cur)
            for eid in cur.in_edge_ids:
                edge_ids.add(eid)
                src_ref = self.edges[eid].src_ref
                if src_ref not in seen:
                    seen.add(src_ref)
                    stack.append(self.nodes[src_ref])
        nodes.sort(key=_BY_REF)
        return nodes, [self.edges[i] for i in sorted(edge_ids)]

    def collect_forward(self, ref: NodeRef) -> list[Segment]:
        """Forward components as segments, one per reached dependency tree.

        Each terminal opens a new segment at its target unless an earlier
        segment already covers that node. Anchors beyond the first are
        processed in sorted order for a deterministic layout.
        """
        self.node(ref)
        nodes, edges = self.nodes, self.edges
        visited: set[NodeRef] = set()
        segments: list[Segment] = []
        queue: list[NodeRef] = [ref]
        while queue:
            anchor_ref = queue.pop(0)
            if anchor_ref in visited:
                continue
            seg_nodes: list[VersionNode] = []
            seg_edges: list[Edge] = []
            targets: set[NodeRef] = set()
            stack = [anchor_ref]
            visited.add(anchor_ref)
            while stack:
                cur = nodes[stack.pop()]
                seg_nodes.append(cur)
                if cur.is_terminal:
                    targets.add(cur.terminal_target)
                    continue
                for eid in cur.out_edge_ids:
                    edge = edges[eid]
                    seg_edges.append(edge)
                    nxt = edge.seg_dst_ref
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append(nxt)
            seg_nodes.sort(key=_BY_REF)
            seg_edges.sort(key=_BY_EDGE_ID)
            segments.append(Segment(anchor_ref, seg_nodes, seg_edges))
            queue.extend(sorted(t for t in targets if t not in visited))
        return segments
