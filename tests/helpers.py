"""Independent oracles and small builders used across the test suite.

Everything here deliberately avoids the library's incremental code paths:
the Merkle oracle builds trees by direct recursion, reachability uses plain
BFS over adjacency maps, and digest oracles recompute from scratch.
"""

from __future__ import annotations

import hashlib
from collections import deque

from vcause import hashcore
from vcause.hashcore import terminal_marker
from vcause.wire import Reader, u128


def naive_merkle_root(leaves) -> bytes:
    """Recursive bottom-up build over the canonical shape.

    The shape is the binary decomposition of the leaf count: the largest
    power-of-two prefix forms a perfect tree, the remainder recurses and is
    merged on the right.
    """

    def leaf_hash(leaf):
        return hashlib.sha3_256(b"\x00" + u128(leaf.key) + leaf.payload).digest(), leaf.key, leaf.key

    def internal(left, right):
        lh, lmin, lmax = left
        rh, rmin, rmax = right
        h = hashlib.sha3_256(
            b"\x01" + lh + rh + u128(lmin) + u128(lmax) + u128(rmin) + u128(rmax)
        ).digest()
        return h, lmin, rmax

    def perfect(chunk):
        if len(chunk) == 1:
            return leaf_hash(chunk[0])
        mid = len(chunk) // 2
        return internal(perfect(chunk[:mid]), perfect(chunk[mid:]))

    def build(chunk):
        n = len(chunk)
        p = 1 << (n.bit_length() - 1)
        if p == n:
            return perfect(chunk)
        return internal(perfect(chunk[:p]), build(chunk[p:]))

    assert leaves
    return build(list(leaves))[0]


def decode_edge(data: bytes) -> dict:
    """Test-only decoder for hashcore.encode_edge output."""
    r = Reader(data)
    out = {
        "src_entity": r.u64(),
        "src_ts": r.u64(),
        "src_seq": r.u32(),
        "dst_entity": r.u64(),
        "dst_ts": r.u64(),
        "dst_seq": r.u32(),
        "kind": {0: "temporal", 1: "dependency"}[r.u8()],
        "event_type": r.str_lp(),
        "payload": r.bytes_lp(),
    }
    r.finish()
    return out


def attachment_counts(graph) -> list[int]:
    """Record the digest updates of each attachment batch of `graph`: wraps
    its `_bump_chain` and appends the change in `total_digest_updates` over
    each call to the returned list."""
    counts = []
    bump = graph._bump_chain

    def recording(start, delta, updated):
        before = graph.total_digest_updates
        bump(start, delta, updated)
        counts.append(graph.total_digest_updates - before)

    graph._bump_chain = recording
    return counts


def floor_key_scan(keys, bound):
    """Greatest key <= bound by linear scan, or None."""
    best = None
    for k in keys:
        if k <= bound and (best is None or k > best):
            best = k
    return best


def ceil_key_scan(keys, bound):
    best = None
    for k in keys:
        if k >= bound and (best is None or k < best):
            best = k
    return best


def backward_reachable(graph, ref):
    """BFS over logical in-edges: Eq. 1 components, POI included."""
    nodes = {ref}
    edges = set()
    queue = deque([ref])
    while queue:
        cur = queue.popleft()
        node = graph.node(cur)
        for eid in node.in_edge_ids:
            edge = graph.edges[eid]
            edges.add(eid)
            if edge.src_ref not in nodes:
                nodes.add(edge.src_ref)
                queue.append(edge.src_ref)
    return nodes, edges


def forward_reachable(graph, ref):
    """BFS over logical out-edges: Eq. 2 components, POI included."""
    nodes = {ref}
    edges = set()
    queue = deque([ref])
    while queue:
        cur = queue.popleft()
        node = graph.node(cur)
        for eid in node.out_edge_ids:
            edge = graph.edges[eid]
            edges.add(eid)
            if edge.dst_ref not in nodes:
                nodes.add(edge.dst_ref)
                queue.append(edge.dst_ref)
    return nodes, edges


def flatten_forward(segments):
    """Union of forward segments in the logical view: terminals dropped,
    their targets already covered by the segment structure."""
    refs = {n.ref for seg in segments for n in seg.nodes if not n.is_terminal}
    edge_ids = {e.edge_id for seg in segments for e in seg.edges}
    return refs, edge_ids


def tree_root(graph, node):
    """Root of the dependency tree holding node: the end of its
    seg_parent_edge chain."""
    while node.seg_parent_edge is not None:
        node = graph.nodes[graph.edges[node.seg_parent_edge].src_ref]
    return node.ref


def recompute_pi_in(graph, ref) -> int:
    """From-scratch Eq. 3 recomputation over full incoming paths; the
    digest's group value, as the graph holds it."""
    memo = {}
    order = []
    stack = [(ref, False)]
    seen = set()
    while stack:
        cur, done = stack.pop()
        if done:
            order.append(cur)
            continue
        if cur in seen:
            continue
        seen.add(cur)
        stack.append((cur, True))
        for eid in graph.node(cur).in_edge_ids:
            stack.append((graph.edges[eid].src_ref, False))
    for cur in order:
        node = graph.node(cur)
        elems = []
        for eid in node.in_edge_ids:
            edge = graph.edges[eid]
            src = graph.node(edge.src_ref)
            enc = hashcore.encode_edge(edge, src.ref, node.ref)
            elems.append(enc + memo[edge.src_ref].to_bytes())
        memo[cur] = hashcore.mset_hash_set(elems)
    return memo[ref].value


def recompute_pi_out(graph) -> dict:
    """From-scratch Eq. 4 recomputation for every node, as group values.

    Uses the segment view when the graph is segmented (terminals are
    digest-empty leaves) and the logical view otherwise.
    """
    memo = {}
    for ref in graph.nodes:
        if ref in memo:
            continue
        stack = [(ref, False)]
        while stack:
            cur, done = stack.pop()
            node = graph.node(cur)
            if done:
                elems = []
                for eid in node.out_edge_ids:
                    edge = graph.edges[eid]
                    dst = graph.node(edge.seg_dst_ref)
                    enc = hashcore.encode_edge(edge, node.ref, dst.ref)
                    enc += terminal_marker(dst.terminal_target)
                    elems.append(enc + memo[edge.seg_dst_ref].to_bytes())
                memo[cur] = hashcore.mset_hash_set(elems)
                continue
            if cur in memo:
                continue
            if node.is_terminal:
                memo[cur] = hashcore.mset_empty()
                continue
            stack.append((cur, True))
            for eid in node.out_edge_ids:
                stack.append((graph.edges[eid].seg_dst_ref, False))
    return {ref: d.value for ref, d in memo.items()}


def build_pipeline(stream, mode="segmented", depth=1, endpoint="ep0", interval=None):
    """Logger over a whole stream with a single trailing commitment."""
    from vcause.hashcore import KeyPair
    from vcause.protocol import EndpointLogger, StateConfig

    kp = KeyPair.generate()
    config = StateConfig(mode, depth, interval or 10**9)
    logger = EndpointLogger(endpoint, kp, config)
    for e in stream:
        logger.ingest(e)
    commitment = logger.commit()
    return logger, kp, commitment


def simple_stream(rng, n_events, n_entities, tie_prob=0.2, self_prob=0.05):
    from vcause.provgraph import EventRecord

    ts = 1
    out = []
    for _ in range(n_events):
        if rng.random() > tie_prob:
            ts += rng.randrange(1, 3)
        src = rng.randrange(n_entities)
        dst = src if rng.random() < self_prob else rng.randrange(n_entities)
        out.append(EventRecord(str(src), rng.choice(["read", "write", "exec"]), str(dst), ts))
    return out
