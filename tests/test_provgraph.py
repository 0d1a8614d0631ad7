"""Versioned provenance graph: digests, segmentation, traversals."""

import random

import pytest

from vcause import hashcore
from vcause.accumulator import TimestampKey
from vcause.ingest import SynthConfig, synth
from vcause.provgraph import (
    SEGMENTED,
    UNSEGMENTED,
    ClockRegression,
    EventRecord,
    Graph,
    UnknownNode,
)
from vcause.wire import node_ref

from .helpers import (
    attachment_counts,
    backward_reachable,
    flatten_forward,
    forward_reachable,
    recompute_pi_in,
    recompute_pi_out,
    tree_root,
)
from .test_record_codecs import _preimage_layout


def ev(src, action, dst, ts):
    return EventRecord(str(src), action, str(dst), ts)


def random_stream(rng, n_events, n_entities, tie_prob=0.2):
    ts = 1
    out = []
    for _ in range(n_events):
        if rng.random() > tie_prob:
            ts += rng.randrange(1, 3)
        src = rng.randrange(n_entities)
        dst = rng.randrange(n_entities)
        out.append(ev(src, rng.choice(["read", "write", "exec"]), dst, ts))
    return out

FIG6_STREAM = [
    ev(0, "a", 1, 1),
    ev(1, "a", 2, 2),
    ev(0, "a", 1, 3),
    ev(1, "a", 2, 4),
    ev(2, "a", 3, 6),
]


def named_refs(g):
    """Map 'S_<entity>^<ts>' -> ref for readable assertions."""
    out = {}
    for ref, node in g.nodes.items():
        if not node.is_terminal:
            out[f"S_{node.entity_ext}^{node.key.timestamp}"] = ref
    return out


class TestRecordEvent:
    def test_first_event_base_case(self):
        g = Graph(mode=UNSEGMENTED)
        res = g.record_event(ev(1, "write", 2, 5))
        assert len(res.created) == 2  # entry for 1, version for 2
        entry, node = res.created
        assert entry.pi_in == hashcore.mset_empty().value
        assert len(node.in_edge_ids) == 1
        dep = g.edges[node.in_edge_ids[0]]
        assert dep.kind == "dependency"
        elem = dep.enc_logical + entry.pi_in.to_bytes(hashcore.MSET_BYTES, "big")
        assert node.pi_in == hashcore.mset_hash_set([elem]).value

    def test_clock_regression(self):
        g = Graph()
        g.record_event(ev(1, "w", 2, 5))
        with pytest.raises(ClockRegression):
            g.record_event(ev(1, "w", 2, 4))

    def test_same_timestamp_seq_tiebreak(self):
        g = Graph()
        g.record_event(ev(1, "w", 2, 5))
        g.record_event(ev(1, "w", 2, 5))
        entity = g.entity_ids["2"]
        keys = [TimestampKey.from_encoded(k) for e, k in g.nodes if e == entity]
        assert keys == [TimestampKey(5, 0), TimestampKey(5, 1)]

    def test_self_event(self):
        g = Graph()
        res = g.record_event(ev(7, "fork", 7, 3))
        entry, node = res.created[0], res.node
        assert entry.entity_ext == node.entity_ext == "7"
        kinds = [g.edges[e].kind for e in node.in_edge_ids]
        assert kinds == ["dependency"]  # no temporal edge on self events

    def test_in_degree_bounds(self):
        rng = random.Random(1)
        g = Graph(mode=UNSEGMENTED)
        for e in random_stream(rng, 300, 12):
            g.record_event(e)
        for node in g.nodes.values():
            kinds = [g.edges[i].kind for i in node.in_edge_ids]
            assert len(kinds) <= 2
            if kinds:
                assert kinds.count("dependency") == 1
                assert kinds.count("temporal") <= 1

    def test_replay_determinism(self):
        rng = random.Random(42)
        stream = random_stream(rng, 1000, 30)
        graphs = []
        for _ in range(2):
            g = Graph(mode=SEGMENTED, depth=1)
            for e in stream:
                g.record_event(e)
            graphs.append(g)
        a, b = graphs
        assert set(a.nodes) == set(b.nodes)
        for ref in a.nodes:
            na, nb = a.nodes[ref], b.nodes[ref]
            assert na.pi_in == nb.pi_in
            assert na.pi_out == nb.pi_out
            assert na.leaf_digest() == nb.leaf_digest()


class TestCachedEncodings:
    """Nodes keep their NodeRef bytes and edges their encodings from
    creation on; both must equal what the canonical encoders give."""

    @staticmethod
    def _graph(mode, depth):
        g = Graph(mode=mode, depth=depth)
        events = list(synth(SynthConfig(seed=depth, n_events=600, n_entities=40)))
        ts = events[-1].ts
        # synth events carry no payloads
        events += [
            EventRecord(f"e{i}", "send", f"e{i + 1}", ts + i, bytes(range(i))) for i in range(5)
        ]
        for e in events:
            g.record_event(e)
        return g

    @staticmethod
    def _assert_canonical(g):
        """Both edge encodings are hashcore's edge encoding (checked against
        the field-by-field preimage layout), the segment view's followed by
        hashcore's terminal marker of its destination."""
        for ref, node in g.nodes.items():
            assert node.ref == ref and node.ref_bytes == node_ref(ref)
        for edge in g.edges:
            assert edge.enc_logical == hashcore.encode_edge(edge, edge.src_ref, edge.dst_ref)
            assert edge.enc_logical == _preimage_layout(edge)
            dst = g.nodes[edge.seg_dst_ref]
            assert edge.enc_seg == hashcore.encode_edge(
                edge, edge.src_ref, edge.seg_dst_ref
            ) + hashcore.terminal_marker(dst.terminal_target)
            if dst.is_terminal:  # a stub's marker names the logical destination
                assert dst.terminal_target == edge.dst_ref
            else:
                assert edge.enc_seg == edge.enc_logical + hashcore.terminal_marker(None)

    @pytest.mark.parametrize("mode,depth", [
        (SEGMENTED, 1), (SEGMENTED, 2), (SEGMENTED, 3),
        (UNSEGMENTED, 1), (UNSEGMENTED, 2), (UNSEGMENTED, 3),
    ])
    def test_caches_match_the_canonical_encoders(self, mode, depth):
        g = self._graph(mode, depth)
        self._assert_canonical(g)
        if mode == SEGMENTED:
            # re-rooting moved some dependency edges onto stubs
            assert any(e.kind == "dependency" and e.seg_dst_ref != e.dst_ref for e in g.edges)
        else:
            assert all(e.seg_dst_ref == e.dst_ref for e in g.edges)

    @pytest.mark.parametrize("mode", [SEGMENTED, UNSEGMENTED])
    def test_fork_carries_the_caches(self, mode):
        g = self._graph(mode, 2)
        f = g.fork()
        assert [(e.enc_logical, e.enc_seg) for e in f.edges] == [
            (e.enc_logical, e.enc_seg) for e in g.edges
        ]
        assert {r: n.ref_bytes for r, n in f.nodes.items()} == {
            r: n.ref_bytes for r, n in g.nodes.items()
        }
        f.record_event(EventRecord("e1", "w", "e2", g.last_ts + 1))
        self._assert_canonical(f)
        self._assert_canonical(g)


class TestPiIn:
    def test_matches_recursive_oracle(self):
        rng = random.Random(5)
        g = Graph(mode=UNSEGMENTED)
        for e in random_stream(rng, 200, 10):
            g.record_event(e)
        for ref in list(g.nodes)[::7]:
            assert g.nodes[ref].pi_in == recompute_pi_in(g, ref)

    def test_immutable_after_creation(self):
        rng = random.Random(6)
        g = Graph(mode=SEGMENTED, depth=2)
        snapshots = {}
        for e in random_stream(rng, 300, 8):
            res = g.record_event(e)
            for n in res.created:
                snapshots[n.ref] = n.pi_in
        for ref, pi in snapshots.items():
            assert g.nodes[ref].pi_in == pi


class TestUnsegmentedPiOut:
    def test_single_predecessor_one_update(self):
        g = Graph(mode=UNSEGMENTED)
        res = g.record_event(ev(1, "w", 2, 5))
        # the new node's only predecessor is the freshly created entry
        assert g.total_digest_updates == 1
        assert res.updated == set()  # entry is itself newly created

    def test_fig6_affected_set(self):
        g = Graph(mode=UNSEGMENTED)
        for e in FIG6_STREAM:
            g.record_event(e)
        res = g.record_event(ev(2, "read", 3, 7))
        names = named_refs(g)
        want = {names[n] for n in ("S_0^1", "S_1^1", "S_1^3", "S_2^2", "S_2^4", "S_3^6")}
        assert res.updated == want

    def test_matches_scratch_recomputation_at_prefixes(self):
        rng = random.Random(8)
        g = Graph(mode=UNSEGMENTED)
        stream = random_stream(rng, 500, 15)
        checkpoints = set(rng.sample(range(1, 501), 25))
        for i, e in enumerate(stream, 1):
            g.record_event(e)
            if i in checkpoints:
                want = recompute_pi_out(g)
                for ref, node in g.nodes.items():
                    assert node.pi_out == want[ref], (i, ref)


class TestSegmentation:
    def test_l1_dep_chain_splits(self):
        # every dependency edge landing at depth 1 forces the next to split
        g = Graph(mode=SEGMENTED, depth=1)
        g.record_event(ev("a", "w", "b", 1))
        g.record_event(ev("b", "w", "c", 2))
        real = [n for n in g.nodes.values() if not n.is_terminal]
        assert len({tree_root(g, n) for n in real}) == 2
        g.record_event(ev("c", "w", "d", 3))
        real = [n for n in g.nodes.values() if not n.is_terminal]
        assert len({tree_root(g, n) for n in real}) == 3

    def test_depth_bound_holds(self):
        rng = random.Random(9)
        for depth in (1, 2, 4):
            g = Graph(mode=SEGMENTED, depth=depth)
            for e in random_stream(rng, 400, 10):
                g.record_event(e)
                for node in g.nodes.values():
                    if not node.is_terminal:
                        assert node.depth <= depth

    def test_fig7_case2_scenario(self):
        g = Graph(mode=SEGMENTED, depth=2)
        for e in [ev(0, "w", 1, 1), ev(1, "w", 2, 2), ev(2, "w", 3, 3),
                  ev(0, "w", 1, 4), ev(1, "w", 2, 5)]:
            g.record_event(e)
        names = named_refs(g)
        s25 = g.nodes[names["S_2^5"]]
        assert s25.depth == 2  # sits at the segmentation limit
        res = g.record_event(ev(2, "w", 4, 6))
        names = named_refs(g)
        s46 = g.nodes[names["S_4^6"]]
        s25 = g.nodes[names["S_2^5"]]
        # moved into a fresh tree: parent as root, new node at depth 1
        assert s25.depth == 0 and s46.depth == 1
        assert tree_root(g, s25) == tree_root(g, s46)
        assert tree_root(g, s25) == s25.ref
        # old tree gained a terminal at the parent's old position
        stubs = [n for n in res.created if n.is_terminal and n.terminal_target == s25.ref]
        assert len(stubs) == 1 and tree_root(g, stubs[0]) == tree_root(g, g.nodes[names["S_1^4"]])
        # digest updates: old tree {S_1^4, S_0^1}, new tree {S_2^5}
        want = {names["S_1^4"], names["S_0^1"], names["S_2^5"]}
        assert res.updated == want

    def test_union_of_trees_is_unsegmented_node_set(self):
        # compare real nodes by external identity; stubs exist only when
        # segmented
        rng = random.Random(10)
        stream = random_stream(rng, 400, 12)
        seg = Graph(mode=SEGMENTED, depth=2)
        unseg = Graph(mode=UNSEGMENTED)
        for e in stream:
            seg.record_event(e)
            unseg.record_event(e)
        seg_real = {
            (n.entity_ext, n.key) for n in seg.nodes.values() if not n.is_terminal
        }
        assert seg_real == {(n.entity_ext, n.key) for n in unseg.nodes.values()}
        for node in seg.nodes.values():
            if node.is_terminal:
                target = seg.nodes[node.terminal_target]
                assert (target.entity_ext, target.key) in seg_real

    def test_seg_digests_match_scratch_for_depths(self):
        rng = random.Random(11)
        stream = random_stream(rng, 500, 15)
        for depth in (1, 2, 4):
            g = Graph(mode=SEGMENTED, depth=depth)
            checkpoints = set(rng.sample(range(1, 501), 15))
            for i, e in enumerate(stream, 1):
                g.record_event(e)
                if i in checkpoints:
                    want = recompute_pi_out(g)
                    for ref, node in g.nodes.items():
                        assert node.pi_out == want[ref], (depth, i, ref)

    def test_attachment_update_bound(self):
        rng = random.Random(12)
        for depth in (1, 2):
            g = Graph(mode=SEGMENTED, depth=depth)
            counts = attachment_counts(g)
            for e in random_stream(rng, 2000, 25):
                counts.clear()
                g.record_event(e)
                assert counts and max(counts) <= depth + 1

    def test_terminal_digest_stays_empty(self):
        rng = random.Random(13)
        g = Graph(mode=SEGMENTED, depth=1)
        for e in random_stream(rng, 300, 8):
            g.record_event(e)
        for node in g.nodes.values():
            if node.is_terminal:
                assert node.pi_out == hashcore.mset_empty().value
                assert not node.out_edge_ids


class TestTraversals:
    def test_entry_node_backward(self):
        g = Graph()
        res = g.record_event(ev(1, "w", 2, 1))
        entry = res.created[0]
        nodes, edges = g.collect_backward(entry.ref)
        assert [n.ref for n in nodes] == [entry.ref]
        assert edges == []

    def test_chain_backward(self):
        g = Graph(mode=UNSEGMENTED)
        g.record_event(ev("a", "w", "b", 1))
        res = g.record_event(ev("b", "w", "c", 2))
        nodes, edges = g.collect_backward(res.node.ref)
        assert len(nodes) == 3 and len(edges) == 2

    def test_unknown_node(self):
        g = Graph()
        with pytest.raises(UnknownNode):
            g.collect_backward((99, 0))

    def test_backward_matches_bfs(self):
        rng = random.Random(14)
        g = Graph(mode=SEGMENTED, depth=1)
        for e in random_stream(rng, 400, 10):
            g.record_event(e)
        for ref in list(g.nodes)[:: 5]:
            if g.nodes[ref].is_terminal:
                continue
            nodes, edges = g.collect_backward(ref)
            want_nodes, want_edges = backward_reachable(g, ref)
            assert {n.ref for n in nodes} == want_nodes
            assert {e.edge_id for e in edges} == want_edges

    def test_exit_node_forward_single_segment(self):
        g = Graph(mode=SEGMENTED, depth=1)
        res = g.record_event(ev(1, "w", 2, 1))
        segs = g.collect_forward(res.node.ref)
        assert len(segs) == 1
        assert [n.ref for n in segs[0].nodes] == [res.node.ref]
        assert segs[0].edges == []

    def test_fig7_forward_segments(self):
        g = Graph(mode=SEGMENTED, depth=2)
        for e in [ev(0, "w", 1, 1), ev(1, "w", 2, 2), ev(2, "w", 3, 3),
                  ev(0, "w", 1, 4), ev(1, "w", 2, 5), ev(2, "w", 4, 6)]:
            g.record_event(e)
        names = named_refs(g)
        segs = g.collect_forward(names["S_0^1"])
        anchors = [s.anchor_ref for s in segs]
        assert anchors == [names["S_0^1"], names["S_2^2"], names["S_2^5"]]

    def test_forward_flatten_matches_bfs(self):
        rng = random.Random(15)
        for depth in (1, 3):
            g = Graph(mode=SEGMENTED, depth=depth)
            for e in random_stream(rng, 400, 10):
                g.record_event(e)
            for ref in list(g.nodes)[::5]:
                if g.nodes[ref].is_terminal:
                    continue
                segs = g.collect_forward(ref)
                refs, edge_ids = flatten_forward(segs)
                want_nodes, want_edges = forward_reachable(g, ref)
                assert refs == want_nodes
                assert edge_ids == want_edges

    def test_segmented_forward_equals_unsegmented(self):
        rng = random.Random(16)
        stream = random_stream(rng, 300, 8)
        seg = Graph(mode=SEGMENTED, depth=1)
        unseg = Graph(mode=UNSEGMENTED)
        for e in stream:
            seg.record_event(e)
            unseg.record_event(e)

        def ext(g, refs):
            return {(g.nodes[r].entity_ext, g.nodes[r].key) for r in refs}

        for ref, node in unseg.nodes.items():
            seg_ref = (seg.entity_ids[node.entity_ext], node.key.encoded())
            refs, edge_ids = flatten_forward(seg.collect_forward(seg_ref))
            want_refs, want_edges = flatten_forward(unseg.collect_forward(ref))
            assert ext(seg, refs) == ext(unseg, want_refs)
            assert edge_ids == want_edges  # edge ids are mode-independent
