"""Causality analysis bundles: honest round-trips and forgery rejection."""

import random

import pytest

from vcause import accumulator as acc_mod
from vcause import causality
from vcause.accumulator import Relation, TimestampKey
from vcause.causality import (
    BACKWARD,
    BOTH,
    FORWARD,
    CausalityQuery,
    ProofBundle,
    WireEdge,
    WireNode,
    WireSegment,
    analyze,
    verify_backward,
    verify_bundle,
    verify_forward,
)
from vcause.commitment import Commitment
from vcause.hashcore import (
    KeyPair,
    MsetDigest,
    digest_hash,
    encode_edge,
    mset_add,
    mset_empty,
    mset_hash_set,
    terminal_marker,
)
from vcause.provgraph import STUB_ID_BIT, EventRecord

from .helpers import backward_reachable, build_pipeline, forward_reachable, simple_stream


def ev(src, action, dst, ts):
    return EventRecord(str(src), action, str(dst), ts)


def le(t):
    return Relation(acc_mod.REL_LE, t)


def ge(t):
    return Relation(acc_mod.REL_GE, t)


def run_query(logger, commitment, query):
    return analyze(logger.state.graph, logger.state.acc, commitment, query)


class TestAnalyzeHonest:
    def test_exit_node_forward(self):
        logger, kp, c = build_pipeline([ev(1, "w", 2, 5)])
        q = CausalityQuery("2", le(5), FORWARD)
        bundle = run_query(logger, c, q)
        assert bundle.poi is not None
        assert len(bundle.forward_segments) == 1
        seg = bundle.forward_segments[0]
        assert len(seg.nodes) == 1 and seg.edges == []
        report = verify_bundle(kp.verify_key, q, bundle)
        assert report.accepted and report.forward_ok

    def test_fig9_query_carries_digests(self):
        # entity 1 queried at t=4 resolves to its version at t4 with both digests
        stream = [ev(9, "w", 1, 1), ev(9, "w", 1, 4), ev(1, "w", 3, 5)]
        logger, kp, c = build_pipeline(stream)
        q = CausalityQuery("1", le(4), BOTH)
        bundle = run_query(logger, c, q)
        assert bundle.poi.key == TimestampKey(4, 0)
        node = logger.state.graph.node(bundle.poi.ref)
        assert bundle.poi.pi_in_hash == digest_hash(node.pi_in)
        assert bundle.poi.pi_out_hash == digest_hash(node.pi_out)
        assert verify_bundle(kp.verify_key, q, bundle).accepted

    def test_empty_query_provably_empty(self):
        logger, kp, c = build_pipeline([ev(1, "w", 2, 5)])
        q = CausalityQuery("ghost", le(100), BOTH)
        bundle = run_query(logger, c, q)
        assert bundle.poi is None
        report = verify_bundle(kp.verify_key, q, bundle)
        assert report.accepted and report.provably_empty

    def test_empty_relation_result(self):
        logger, kp, c = build_pipeline([ev(1, "w", 2, 5)])
        q = CausalityQuery("2", ge(6), BOTH)
        bundle = run_query(logger, c, q)
        assert bundle.poi is None
        assert verify_bundle(kp.verify_key, q, bundle).provably_empty

    @pytest.mark.parametrize("mode,depth", [("segmented", 1), ("segmented", 3), ("unsegmented", 1)])
    def test_random_queries_roundtrip(self, mode, depth):
        rng = random.Random(77)
        stream = simple_stream(rng, 300, 12)
        logger, kp, c = build_pipeline(stream, mode=mode, depth=depth)
        graph = logger.state.graph
        for _ in range(60):
            ext = str(rng.randrange(14))
            t = rng.randrange(0, 40)
            rel = le(t) if rng.random() < 0.5 else ge(t)
            direction = rng.choice([BACKWARD, FORWARD, BOTH])
            q = CausalityQuery(ext, rel, direction)
            bundle = run_query(logger, c, q)
            report = verify_bundle(kp.verify_key, q, bundle)
            assert report.accepted, (q, report.first_failure)
            if bundle.poi is None:
                continue
            # component sets must equal plain reachability
            if q.wants_backward():
                want_nodes, want_edges = backward_reachable(graph, bundle.poi.ref)
                assert {n.ref for n in bundle.backward_nodes} == want_nodes
                assert len(bundle.backward_edges) == len(want_edges)
            if q.wants_forward():
                want_nodes, want_edges = forward_reachable(graph, bundle.poi.ref)
                got = {
                    n.ref
                    for seg in bundle.forward_segments
                    for n in seg.nodes
                    if not n.is_terminal
                }
                assert got == want_nodes

    def test_bundle_wire_roundtrip(self):
        rng = random.Random(3)
        stream = simple_stream(rng, 120, 6)
        logger, kp, c = build_pipeline(stream)
        for q in (
            CausalityQuery("3", le(20), BOTH),
            CausalityQuery("1", ge(1), FORWARD),
            CausalityQuery("zz", le(5), BACKWARD),
        ):
            bundle = run_query(logger, c, q)
            blob = bundle.to_bytes()
            again = ProofBundle.from_bytes(blob)
            assert again.to_bytes() == blob
            assert verify_bundle(kp.verify_key, q, again).accepted


class TestVerifyBackward:
    def _bundle(self, seed=5, n=200):
        rng = random.Random(seed)
        stream = simple_stream(rng, n, 8)
        logger, kp, c = build_pipeline(stream)
        graph = logger.state.graph
        # pick a POI with a reasonably deep backward set
        best = max(
            (r for r, node in graph.nodes.items() if not node.is_terminal),
            key=lambda r: len(backward_reachable(graph, r)[0]),
        )
        node = graph.node(best)
        q = CausalityQuery(node.entity_ext, le(node.key.timestamp), BACKWARD)
        bundle = run_query(logger, c, q)
        assert bundle.poi is not None and bundle.poi.ref == best
        return logger, kp, q, bundle

    def test_honest_accepts(self):
        _, kp, q, bundle = self._bundle()
        assert verify_bundle(kp.verify_key, q, bundle).accepted

    def test_deleted_edge_rejected(self):
        _, kp, q, bundle = self._bundle()
        assert len(bundle.backward_edges) > 2
        bundle.backward_edges.pop(len(bundle.backward_edges) // 2)
        report = verify_bundle(kp.verify_key, q, bundle)
        assert report.backward_ok is False

    def test_modified_timestamp_rejected(self):
        _, kp, q, bundle = self._bundle()
        victim = bundle.backward_nodes[len(bundle.backward_nodes) // 2]
        victim.key = TimestampKey(victim.key.timestamp + 1, victim.key.seq)
        assert not verify_bundle(kp.verify_key, q, bundle).accepted

    def test_added_unreachable_node_rejected(self):
        _, kp, q, bundle = self._bundle()
        extra = WireNode(999, TimestampKey(1, 0), False, None, MsetDigest(0))
        bundle.backward_nodes.append(extra)
        assert verify_bundle(kp.verify_key, q, bundle).backward_ok is False

    def test_cycle_components_rejected(self):
        # adversarial component list encoding a cycle must not hang or pass
        poi = causality.PoiRecord(
            0, TimestampKey(2, 0), digest_hash(1), digest_hash(0)
        )
        a = WireNode(0, TimestampKey(2, 0), False, None, MsetDigest(1))
        b = WireNode(1, TimestampKey(1, 0), False, None, MsetDigest(1))
        edges = [
            WireEdge("dependency", b.ref, a.ref, "w"),
            WireEdge("dependency", a.ref, b.ref, "w"),
        ]
        assert not verify_backward(poi, [a, b], edges)

    def test_forged_pi_in_claim_rejected(self):
        _, kp, q, bundle = self._bundle()
        victim = next(n for n in bundle.backward_nodes if n.ref != bundle.poi.ref)
        victim.pi = mset_add(victim.pi, b"forge")
        assert verify_bundle(kp.verify_key, q, bundle).backward_ok is False

    def test_entry_node_poi_accepted(self):
        # an entry node has no in-edges: its component is itself, digest-empty
        logger, kp, c = build_pipeline([ev(1, "w", 2, 5)])
        q = CausalityQuery("1", le(5), BACKWARD)
        bundle = run_query(logger, c, q)
        assert [n.ref for n in bundle.backward_nodes] == [bundle.poi.ref]
        assert bundle.backward_edges == []
        assert bundle.backward_nodes[0].pi == mset_empty()
        report = verify_bundle(kp.verify_key, q, bundle)
        assert report.accepted and report.backward_ok, report.first_failure


class TestVerifyForward:
    def _bundle(self, seed=6, n=250, depth=1):
        rng = random.Random(seed)
        stream = simple_stream(rng, n, 8)
        logger, kp, c = build_pipeline(stream, depth=depth)
        graph = logger.state.graph
        best = max(
            (r for r, node in graph.nodes.items() if not node.is_terminal),
            key=lambda r: len(forward_reachable(graph, r)[0]),
        )
        node = graph.node(best)
        q = CausalityQuery(node.entity_ext, le(node.key.timestamp), FORWARD)
        bundle = run_query(logger, c, q)
        assert bundle.poi is not None and bundle.poi.ref == best
        assert len(bundle.forward_segments) > 1  # exercises root proofs
        return logger, kp, q, bundle

    def test_honest_accepts(self):
        _, kp, q, bundle = self._bundle()
        report = verify_bundle(kp.verify_key, q, bundle)
        assert report.accepted, report.first_failure

    def test_stubs_with_top_bit_ids_accepted(self):
        _, kp, q, bundle = self._bundle()
        bundle = ProofBundle.from_bytes(bundle.to_bytes())
        nodes = [n for seg in bundle.forward_segments for n in seg.nodes]
        stubs = [n for n in nodes if n.is_terminal]
        assert stubs and all(n.entity_id & STUB_ID_BIT for n in stubs)
        assert not any(n.entity_id & STUB_ID_BIT for n in nodes if not n.is_terminal)
        report = verify_bundle(kp.verify_key, q, bundle)
        assert report.accepted, report.first_failure

    def test_fabricated_edge_rejected(self):
        _, kp, q, bundle = self._bundle()
        seg = max(bundle.forward_segments, key=lambda s: len(s.nodes))
        real = [n for n in seg.nodes if not n.is_terminal]
        seg.edges.append(WireEdge("dependency", real[0].ref, real[-1].ref, "forged"))
        assert verify_bundle(kp.verify_key, q, bundle).forward_ok is False

    def test_dropped_segment_rejected(self):
        _, kp, q, bundle = self._bundle()
        bundle.forward_segments.pop()
        assert verify_bundle(kp.verify_key, q, bundle).forward_ok is False

    def test_forged_anchor_digest_rejected(self):
        _, kp, q, bundle = self._bundle()
        seg = bundle.forward_segments[1]
        anchor = next(n for n in seg.nodes if n.ref == seg.anchor_ref)
        anchor.pi = mset_add(anchor.pi, b"x")
        assert verify_bundle(kp.verify_key, q, bundle).forward_ok is False

    def test_missing_root_proof_rejected(self):
        _, kp, q, bundle = self._bundle()
        bundle.root_proofs = bundle.root_proofs[:-1] if len(bundle.root_proofs) > 1 else []
        assert verify_bundle(kp.verify_key, q, bundle).forward_ok is False

    def test_edge_leaving_terminal_rejected(self):
        _, kp, q, bundle = self._bundle()
        seg = max(bundle.forward_segments, key=lambda s: len(s.nodes))
        stub = next(n for n in seg.nodes if n.is_terminal)
        real = next(n for n in seg.nodes if not n.is_terminal)
        seg.edges.append(WireEdge("dependency", stub.ref, real.ref, "forged"))
        assert verify_bundle(kp.verify_key, q, bundle).forward_ok is False

    def test_cycle_components_rejected(self):
        a = WireNode(0, TimestampKey(2, 0), False, None, mset_empty())
        b = WireNode(1, TimestampKey(3, 0), False, None, mset_empty())
        a_to_b = WireEdge("dependency", a.ref, b.ref, "w")
        b_to_a = WireEdge("dependency", b.ref, a.ref, "w")
        commitment = Commitment("ep0", 1, 2, bytes(32), bytes(32), 3, b"")

        def claim(edge, child_pi):
            enc = encode_edge(edge, edge.src_ref, edge.dst_ref) + terminal_marker(None)
            return mset_hash_set([enc + child_pi.to_bytes()])

        def verify(edges):
            poi = causality.PoiRecord(0, a.key, digest_hash(0), digest_hash(a.pi.value))
            return verify_forward(poi, [WireSegment(a.ref, [a, b], edges)], None, [], commitment)

        a.pi = claim(a_to_b, b.pi)
        assert verify([a_to_b])
        # a back edge closes a cycle; the claims are what a walk that cut
        # the cycle by taking the unfinished POI as empty would compute
        b.pi = claim(b_to_a, mset_empty())
        a.pi = claim(a_to_b, b.pi)
        assert not verify([a_to_b, b_to_a])

    def test_terminal_flip_rejected(self):
        _, kp, q, bundle = self._bundle()
        seg = max(bundle.forward_segments, key=lambda s: len(s.nodes))
        stub = next((n for n in seg.nodes if n.is_terminal), None)
        assert stub is not None
        stub.is_terminal = False
        stub.terminal_target = None
        assert verify_bundle(kp.verify_key, q, bundle).forward_ok is False


class TestVerifyBundleOrchestration:
    def _setup(self):
        rng = random.Random(8)
        stream = simple_stream(rng, 150, 6)
        logger, kp, c = build_pipeline(stream)
        q = CausalityQuery("3", le(30), BOTH)
        bundle = run_query(logger, c, q)
        assert bundle.poi is not None
        return logger, kp, q, bundle

    def test_wrong_vk_fails_commitment(self):
        _, _, q, bundle = self._setup()
        other = KeyPair.generate()
        report = verify_bundle(other.verify_key, q, bundle)
        assert not report.commitment_ok and not report.accepted

    def test_query_mismatch_rejected(self):
        _, kp, q, bundle = self._setup()
        other = CausalityQuery(q.entity_ext, le(q.relation.value + 1), q.direction)
        assert not verify_bundle(kp.verify_key, other, bundle).accepted

    def test_stale_commitment_rejected(self):
        # old commitment paired with components from the new graph state
        rng = random.Random(9)
        stream = simple_stream(rng, 100, 5)
        logger, kp, old_c = build_pipeline(stream)
        for e in simple_stream(rng, 50, 5):
            logger.ingest(
                EventRecord(e.src, e.action, e.dst, e.ts + logger.state.graph.last_ts)
            )
        new_c = logger.commit()
        q = CausalityQuery("2", le(logger.state.graph.last_ts), BOTH)
        bundle = run_query(logger, new_c, q)
        assert verify_bundle(kp.verify_key, q, bundle).accepted
        forged = ProofBundle(
            q, old_c, bundle.poi, bundle.poi_proof,
            bundle.backward_nodes, bundle.backward_edges,
            bundle.forward_segments, bundle.root_proofs, bundle.anchor_global,
        )
        report = verify_bundle(kp.verify_key, q, forged)
        assert report.commitment_ok and not report.poi_ok

    def test_swapped_poi_rejected(self):
        logger, kp, q, bundle = self._setup()
        q2 = CausalityQuery("4", le(30), BOTH)
        bundle2 = run_query(logger, bundle.commitment, q2)
        assert bundle2.poi is not None
        forged = ProofBundle(
            q, bundle.commitment, bundle2.poi, bundle2.poi_proof,
            bundle2.backward_nodes, bundle2.backward_edges,
            bundle2.forward_segments, bundle2.root_proofs, bundle2.anchor_global,
        )
        assert not verify_bundle(kp.verify_key, q, forged).accepted

    def test_empty_claim_with_components_rejected(self):
        logger, kp, q, bundle = self._setup()
        ghost_q = CausalityQuery("ghost", le(5), BOTH)
        ghost = run_query(logger, bundle.commitment, ghost_q)
        assert ghost.poi is None
        ghost.backward_nodes = bundle.backward_nodes
        ghost.backward_edges = bundle.backward_edges
        report = verify_bundle(kp.verify_key, ghost_q, ghost)
        assert not report.accepted and not report.provably_empty

    def test_false_empty_claim_rejected(self):
        # claim "no result" for a query that has one
        logger, kp, q, bundle = self._setup()
        empty_q = CausalityQuery(q.entity_ext, ge(10**9), BOTH)
        empty = run_query(logger, bundle.commitment, empty_q)
        assert empty.poi is None
        forged = ProofBundle(q, bundle.commitment, None, empty.poi_proof)
        assert not verify_bundle(kp.verify_key, q, forged).accepted
