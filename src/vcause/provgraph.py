"""Verifiable versioned provenance graph.

Events materialize version nodes linked by temporal and dependency edges.
Every node carries two multiset digests over its path structure:

- an incoming path digest, computed once at creation over the node's
  in-edges and their sources' digests, immutable afterwards;
- an outgoing path digest, maintained incrementally with homomorphic
  add/subtract as new events extend the node's outgoing paths.

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

import heapq
import struct
from dataclasses import dataclass, field

from .accumulator import TimestampKey
from .hashcore import (
    MsetDigest,
    digest_hash,
    encode_edge,
    hash_bytes,
    mset_add,
    mset_empty,
    mset_sub,
)
from .wire import Reader, flag, node_ref, optional, str_lp

_NODE_ID_PACK = struct.Struct(">QQI")

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


def terminal_marker(is_terminal: bool, target: NodeRef | None) -> bytes:
    """Suffix binding terminal metadata into segment-view edge encodings."""
    return optional(target if is_terminal else None, node_ref)


_PLAIN_MARKER = terminal_marker(False, None)


def node_id_bytes(
    entity_id: int, key: TimestampKey, is_terminal: bool, target: NodeRef | None
) -> bytes:
    """Node identity as leaf preimages and wire records carry it:
    u64 entity_id || TimestampKey || flag is_terminal || optional NodeRef."""
    head = _NODE_ID_PACK.pack(entity_id, key.timestamp, key.seq)
    return head + flag(is_terminal) + optional(target, node_ref)


def read_node_id(r: Reader) -> tuple[int, TimestampKey, bool, NodeRef | None]:
    return r.u64(), TimestampKey.read_from(r), r.flag(), r.optional(Reader.node_ref)


def node_leaf_digest(
    entity_ext: str,
    entity_id: int,
    key: TimestampKey,
    pi_in_hash: bytes,
    pi_out_hash: bytes,
) -> bytes:
    """Accumulator leaf payload: binds identity and the hashes of both path
    digests. Only non-terminal nodes have leaves."""
    return hash_bytes(b"".join((
        _NLEAF_TAG,
        _NODE_TAG,
        str_lp(entity_ext),
        node_id_bytes(entity_id, key, False, None),
        pi_in_hash,
        pi_out_hash,
    )))


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
    key: TimestampKey
    pi_in: MsetDigest
    pi_out: MsetDigest
    depth: int = 0  # dependency depth in the node's tree; real nodes only
    in_edge_ids: list[int] = field(default_factory=list)
    out_edge_ids: list[int] = field(default_factory=list)
    is_terminal: bool = False
    terminal_target: NodeRef | None = None
    created_seq: int = 0
    seg_parent_edge: int | None = None  # seg-view in-edge, for O(1) up-walks
    ref: NodeRef = None  # cached (entity_id, encoded key); keys never change
    _pi_in_hash: bytes | None = None

    def __post_init__(self):
        if self.ref is None:
            self.ref = (self.entity_id, self.key.encoded())

    @property
    def pi_in_hash(self) -> bytes:
        """digest_hash(pi_in), computed once at the first sync: pi_in is
        fixed once the node's in-edges exist."""
        if self._pi_in_hash is None:
            self._pi_in_hash = digest_hash(self.pi_in)
        return self._pi_in_hash

    def leaf_digest(self) -> bytes:
        return node_leaf_digest(
            self.entity_ext, self.entity_id, self.key, self.pi_in_hash,
            digest_hash(self.pi_out),
        )


@dataclass(slots=True)
class Edge:
    edge_id: int
    kind: str  # TEMPORAL or DEPENDENCY
    src_ref: NodeRef
    dst_ref: NodeRef  # logical destination
    seg_dst_ref: NodeRef  # segment-view destination (terminal once detached)
    event_type: str
    timestamp: int
    payload: bytes = b""
    _enc_logical: bytes | None = None
    _enc_seg: bytes | None = None


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
        # instrumentation: per-attachment digest-update counts of the last event
        self.last_event_attachments: list[int] = []
        self.total_digest_updates = 0

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
            m.key = n.key
            m.pi_in = n.pi_in
            m._pi_in_hash = n._pi_in_hash
            m.pi_out = n.pi_out
            m.depth = n.depth
            m.in_edge_ids = list(n.in_edge_ids)
            m.out_edge_ids = list(n.out_edge_ids)
            m.is_terminal = n.is_terminal
            m.terminal_target = n.terminal_target
            m.created_seq = n.created_seq
            m.seg_parent_edge = n.seg_parent_edge
            m.ref = n.ref
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
            f.timestamp = e.timestamp
            f.payload = e.payload
            f._enc_logical = e._enc_logical
            f._enc_seg = e._enc_seg
            edges.append(f)
        other.edges = edges
        other.entity_ids = dict(self.entity_ids)
        other.entity_exts = list(self.entity_exts)
        other.latest = dict(self.latest)
        other.next_terminal = self.next_terminal
        other.last_ts = self.last_ts
        other.event_count = self.event_count
        other._created_seq = self._created_seq
        other.last_event_attachments = list(self.last_event_attachments)
        other.total_digest_updates = self.total_digest_updates
        return other

    # -- lookups -------------------------------------------------------------

    def node(self, ref: NodeRef) -> VersionNode:
        try:
            return self.nodes[ref]
        except KeyError:
            raise UnknownNode(ref) from None

    def encode_edge_logical(self, edge: Edge) -> bytes:
        if edge._enc_logical is None:
            edge._enc_logical = encode_edge(edge, edge.src_ref, edge.dst_ref)
        return edge._enc_logical

    def encode_edge_seg(self, edge: Edge) -> bytes:
        # The segment view appends the destination's terminal marker (and
        # target ref) so outgoing digests bind stub metadata; otherwise a
        # prover could flip a stub into a fake exit node unnoticed.
        if edge._enc_seg is None:
            dst = self.nodes[edge.seg_dst_ref]
            edge._enc_seg = encode_edge(
                edge, edge.src_ref, edge.seg_dst_ref
            ) + terminal_marker(dst.is_terminal, dst.terminal_target)
        return edge._enc_seg

    # -- construction ----------------------------------------------------------

    def _entity_id(self, ext: str) -> int:
        entity_id = self.entity_ids.get(ext)
        if entity_id is None:
            entity_id = len(self.entity_exts)
            self.entity_ids[ext] = entity_id
            self.entity_exts.append(ext)
        return entity_id

    def _next_key(self, entity_id: int, ts: int) -> TimestampKey:
        ref = self.latest.get(entity_id)
        if ref is not None:
            last = TimestampKey.from_encoded(ref[1])
            if last.timestamp == ts:
                return TimestampKey(ts, last.seq + 1)
        return TimestampKey(ts, 0)

    def _add_node(self, node: VersionNode) -> VersionNode:
        node.created_seq = self._created_seq
        self._created_seq += 1
        self.nodes[node.ref] = node
        return node

    def _create_entry(self, entity_id: int, ts: int) -> VersionNode:
        node = VersionNode(
            entity_id,
            self.entity_exts[entity_id],
            self._next_key(entity_id, ts),
            mset_empty(),
            mset_empty(),
        )
        self._add_node(node)
        self.latest[entity_id] = node.ref
        return node

    def _create_terminal(self, target: VersionNode, ts: int) -> VersionNode:
        """A graph-only stub: no entity entry, no version, no accumulator leaf."""
        entity_id = STUB_ID_BIT | self.next_terminal
        self.next_terminal += 1
        node = VersionNode(
            entity_id,
            "",
            TimestampKey(ts, 0),
            mset_empty(),
            mset_empty(),
            is_terminal=True,
            terminal_target=target.ref,
        )
        return self._add_node(node)

    def _add_edge(self, kind: str, src: VersionNode, dst: VersionNode, ev: EventRecord) -> Edge:
        edge = Edge(
            len(self.edges), kind, src.ref, dst.ref, dst.ref, ev.action, ev.ts, ev.payload
        )
        self.edges.append(edge)
        src.out_edge_ids.append(edge.edge_id)
        dst.in_edge_ids.append(edge.edge_id)
        return edge

    def record_event(self, ev: EventRecord) -> RecordResult:
        """Apply one event: new dst version, edges, digest maintenance."""
        if ev.ts < self.last_ts:
            raise ClockRegression(f"timestamp {ev.ts} below high-water mark {self.last_ts}")
        self.last_ts = ev.ts
        self.event_count += 1
        self.last_event_attachments = []
        created: list[VersionNode] = []
        updated: set[NodeRef] = set()

        # Entity ids are assigned at first node creation, in creation order,
        # so the accumulator's dense registry matches when non-terminal
        # nodes are registered in `created` order.
        if ev.src == ev.dst:
            dst_id = self._entity_id(ev.dst)
            if dst_id not in self.latest:
                created.append(self._create_entry(dst_id, ev.ts))
            parent = self.nodes[self.latest[dst_id]]
            prev = None  # the parent doubles as the previous version; no temporal edge
        else:
            src_id = self._entity_id(ev.src)
            if src_id not in self.latest:
                created.append(self._create_entry(src_id, ev.ts))
            parent = self.nodes[self.latest[src_id]]
            dst_id = self._entity_id(ev.dst)
            prev_ref = self.latest.get(dst_id)
            prev = self.nodes[prev_ref] if prev_ref is not None else None

        node = VersionNode(
            dst_id,
            ev.dst,
            self._next_key(dst_id, ev.ts),
            mset_empty(),  # placeholder until edges exist
            mset_empty(),
        )
        self._add_node(node)
        created.append(node)
        self.latest[dst_id] = node.ref

        dep_edge = self._add_edge(DEPENDENCY, parent, node, ev)
        temporal_edge = self._add_edge(TEMPORAL, prev, node, ev) if prev is not None else None
        node.pi_in = self.compute_pi_in(node)

        if self.mode == SEGMENTED:
            self._apply_segmentation(node, dep_edge, temporal_edge, ev, created, updated)
        else:
            self._update_unsegmented(node, updated)

        updated.difference_update(n.ref for n in created)
        return RecordResult(node, created, updated)

    # -- digests ---------------------------------------------------------------

    def compute_pi_in(self, node: VersionNode) -> MsetDigest:
        """Incoming path digest: multiset over (edge encoding, source digest)."""
        digest = mset_empty()
        for eid in node.in_edge_ids:
            edge = self.edges[eid]
            src = self.nodes[edge.src_ref]
            digest = mset_add(digest, self.encode_edge_logical(edge) + src.pi_in.to_bytes())
        return digest

    def _bump_chain(
        self,
        start: VersionNode,
        new_pi: MsetDigest,
        updated: set[NodeRef],
    ) -> None:
        """Rewrite start's outgoing digest and propagate up its tree chain.

        One call is one attachment batch; the touched-node count feeds the
        per-attachment instrumentation.
        """
        child = start
        child_old = child.pi_out
        child.pi_out = new_pi
        updated.add(child.ref)
        count = 1
        while child.seg_parent_edge is not None:
            edge = self.edges[child.seg_parent_edge]
            parent = self.nodes[edge.src_ref]
            enc = self.encode_edge_seg(edge)
            parent_old = parent.pi_out
            parent.pi_out = mset_add(
                mset_sub(parent_old, enc + child_old.to_bytes()),
                enc + child.pi_out.to_bytes(),
            )
            updated.add(parent.ref)
            count += 1
            child, child_old = parent, parent_old
        self.last_event_attachments.append(count)
        self.total_digest_updates += count

    def _attach_seg_child(self, edge: Edge, child: VersionNode, updated: set[NodeRef]) -> None:
        """Eq-5 style attach: child (digest-empty) hangs off edge.src."""
        child.seg_parent_edge = edge.edge_id
        parent = self.nodes[edge.src_ref]
        elem = self.encode_edge_seg(edge) + child.pi_out.to_bytes()
        self._bump_chain(parent, mset_add(parent.pi_out, elem), updated)

    def _apply_segmentation(
        self,
        node: VersionNode,
        dep_edge: Edge,
        temporal_edge: Edge | None,
        ev: EventRecord,
        created: list[VersionNode],
        updated: set[NodeRef],
    ) -> None:
        parent = self.nodes[dep_edge.src_ref]
        if parent.depth + 1 <= self.depth:
            # Case 1: the edge stays in the parent's tree
            node.depth = parent.depth + 1
            self._attach_seg_child(dep_edge, node, updated)
        else:
            # Case 2: make the parent the root of a new tree and stub its
            # old position. Its subtree moves with it: a parent at depth L
            # has only terminal children (a dependency child would already
            # have exceeded the bound), and they hang off its out-edges.
            stub = self._create_terminal(parent, ev.ts)
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
                old_enc = self.encode_edge_seg(in_edge)
                in_edge.seg_dst_ref = stub.ref
                in_edge._enc_seg = None
                stub.seg_parent_edge = in_edge.edge_id
                grand = self.nodes[in_edge.src_ref]
                swapped = mset_add(
                    mset_sub(grand.pi_out, old_enc + parent.pi_out.to_bytes()),
                    self.encode_edge_seg(in_edge) + stub.pi_out.to_bytes(),
                )
                self._bump_chain(grand, swapped, updated)
            node.depth = 1
            self._attach_seg_child(dep_edge, node, updated)

        if temporal_edge is not None:
            stub = self._create_terminal(node, ev.ts)
            created.append(stub)
            temporal_edge.seg_dst_ref = stub.ref
            temporal_edge._enc_seg = None
            self._attach_seg_child(temporal_edge, stub, updated)

    def _update_unsegmented(self, node: VersionNode, updated: set[NodeRef]) -> None:
        """Eq-5/6 batch over the full logical graph, one pass per ancestor."""
        stash: dict[NodeRef, MsetDigest] = {}
        heap: list[tuple[int, NodeRef]] = []

        def touch(n: VersionNode) -> None:
            if n.ref not in stash:
                stash[n.ref] = n.pi_out
                heapq.heappush(heap, (-n.created_seq, n.ref))

        for eid in node.in_edge_ids:
            edge = self.edges[eid]
            pred = self.nodes[edge.src_ref]
            touch(pred)
            # logical destinations are never terminals; the constant marker
            # keeps outgoing-digest elements uniform across modes
            elem = self.encode_edge_logical(edge) + _PLAIN_MARKER + node.pi_out.to_bytes()
            pred.pi_out = mset_add(pred.pi_out, elem)

        done: set[NodeRef] = set()
        while heap:
            _, ref = heapq.heappop(heap)
            if ref in done:
                continue
            done.add(ref)
            child = self.nodes[ref]
            old_bytes = stash[ref].to_bytes()
            new_bytes = child.pi_out.to_bytes()
            for eid in child.in_edge_ids:
                edge = self.edges[eid]
                pred = self.nodes[edge.src_ref]
                touch(pred)
                enc = self.encode_edge_logical(edge) + _PLAIN_MARKER
                pred.pi_out = mset_add(
                    mset_sub(pred.pi_out, enc + old_bytes), enc + new_bytes
                )
        updated.update(done)
        self.last_event_attachments.append(len(done))
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
        nodes.sort(key=lambda n: n.ref)
        return nodes, [self.edges[i] for i in sorted(edge_ids)]

    def collect_forward(self, ref: NodeRef) -> list[Segment]:
        """Forward components as segments, one per reached dependency tree.

        Each terminal opens a new segment at its target unless an earlier
        segment already covers that node. Anchors beyond the first are
        processed in sorted order for a deterministic layout.
        """
        self.node(ref)
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
                cur = self.nodes[stack.pop()]
                seg_nodes.append(cur)
                if cur.is_terminal:
                    targets.add(cur.terminal_target)
                    continue
                for eid in cur.out_edge_ids:
                    edge = self.edges[eid]
                    seg_edges.append(edge)
                    nxt = edge.seg_dst_ref
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append(nxt)
            seg_nodes.sort(key=lambda n: n.ref)
            seg_edges.sort(key=lambda e: e.edge_id)
            segments.append(Segment(anchor_ref, seg_nodes, seg_edges))
            queue.extend(sorted(t for t in targets if t not in visited))
        return segments
