"""DIM-Tree structure, proofs, and verification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcause import dimtree
from vcause.dimtree import (
    DimTree,
    EmptyTree,
    LeafRecord,
    NotFinalized,
    OutOfOrderKey,
    PathStep,
    RangeSearchResult,
    SearchProof,
    Terminus,
    verify_path,
    verify_range,
)
from vcause.wire import WireError

from .helpers import ceil_key_scan, floor_key_scan, naive_merkle_root


def payload(i: int) -> bytes:
    return i.to_bytes(4, "big") * 8


def _find_node(t: DimTree, h: bytes):
    stack = [t._root]
    while stack:
        node = stack.pop()
        if node.hash == h:
            return node
        if node.height > 1:
            stack.extend((node.left, node.right))
    raise KeyError(h)


def build(keys) -> DimTree:
    t = DimTree()
    for i, k in enumerate(keys):
        t.insert(LeafRecord(k, payload(i)))
    t.finalize()
    return t


class TestInsert:
    def test_power_of_two_merges(self):
        t = DimTree()
        before = dimtree.counters.internal
        for i in range(4):
            t.insert(LeafRecord(i, payload(i)))
        assert dimtree.counters.internal - before == 3
        assert len(t._stack) == 1

    def test_fifth_leaf_no_merge(self):
        t = DimTree()
        before = dimtree.counters.internal
        for i in range(5):
            t.insert(LeafRecord(i, payload(i)))
        assert [n.count for n in t._stack] == [4, 1]
        assert dimtree.counters.internal - before == 3  # unchanged by the fifth insert

    def test_out_of_order_rejected(self):
        t = DimTree()
        t.insert(LeafRecord(5, payload(0)))
        with pytest.raises(OutOfOrderKey):
            t.insert(LeafRecord(4, payload(1)))

    def test_equal_keys_allowed(self):
        t = DimTree()
        t.insert(LeafRecord(5, payload(0)))
        t.insert(LeafRecord(5, payload(1)))
        assert len(t) == 2

    def test_merge_totals_match_popcount(self):
        t = DimTree()
        before = dimtree.counters.internal
        for n in range(1, 300):
            t.insert(LeafRecord(n, payload(n)))
            assert dimtree.counters.internal - before == n - bin(n).count("1")

    def test_large_amortized(self):
        t = DimTree()
        n = 1 << 16
        before = dimtree.counters.internal
        for i in range(n):
            t.insert(LeafRecord(i, b"\x00" * 32))
        merges = dimtree.counters.internal - before
        assert merges == n - 1
        assert merges / n < 1


def settle_cost(t: DimTree, updates) -> tuple[int, int]:
    """(leaf, internal) hashes of applying (index, payload) updates and
    finalizing."""
    leaf0, internal0 = dimtree.counters.leaf, dimtree.counters.internal
    for index, data in updates:
        t.update(index, data)
    t.finalize()
    return dimtree.counters.leaf - leaf0, dimtree.counters.internal - internal0


class TestUpdate:
    def test_single_leaf_no_internal_recompute(self):
        t = DimTree()
        t.insert(LeafRecord(1, payload(0)))
        assert settle_cost(t, [(0, payload(9))])[1] == 0

    def test_size8_subtree_three_recomputes(self):
        assert settle_cost(build(range(8)), [(3, payload(99))])[1] == 3

    def test_update_hashes_nothing_until_finalize(self):
        t = build(range(8))
        before = (dimtree.counters.leaf, dimtree.counters.internal)
        t.update(3, payload(99))
        assert (dimtree.counters.leaf, dimtree.counters.internal) == before
        with pytest.raises(NotFinalized):
            _ = t.root

    @pytest.mark.parametrize("n, indices, cost", [
        (8, [0, 1], (2, 3)),  # siblings share all three ancestors
        (8, [0, 7], (2, 5)),  # only the root is shared
        (8, [5, 5], (1, 3)),  # a leaf updated twice hashes once
        (7, [1, 4, 6], (3, 5)),  # slots of 4, 2, 1: 2 + 1 + 0 path hashes, 2 fold merges
    ])
    def test_one_hash_per_touched_node(self, n, indices, cost):
        t = build(range(n))
        updates = [(i, payload(90 + j)) for j, i in enumerate(indices)]
        assert settle_cost(t, updates) == cost
        assert t.leaves[indices[-1]].payload == updates[-1][1]  # the last write wins
        assert t.root == naive_merkle_root(t.leaves)

    def test_insert_over_stale_slot(self):
        # the inserts merge the updated leaves' stale nodes; finalize still
        # rehashes every node above them
        for n in range(1, 18):
            t = build(range(n))
            t.update(0, payload(90))
            t.update(n - 1, payload(91))
            t.insert(LeafRecord(n, payload(n)))
            t.insert(LeafRecord(n + 1, payload(n + 1)))
            assert t.finalize() == naive_merkle_root(t.leaves)

    def test_fork_between_update_and_finalize(self):
        t = build(range(13))
        t.update(2, payload(90))
        u = t.fork()
        u.update(2, payload(91))
        u.update(9, payload(92))
        t.update(12, payload(93))
        t_leaves, u_leaves = list(t.leaves), list(u.leaves)
        assert t_leaves != u_leaves
        assert t.finalize() == naive_merkle_root(t_leaves)
        assert u.finalize() == naive_merkle_root(u_leaves)
        assert t.root == naive_merkle_root(t_leaves)

    def test_keys_unchanged(self):
        t = build([2, 4, 6])
        t.update(1, payload(77))
        assert [l.key for l in t.leaves] == [2, 4, 6]

    def test_out_of_range(self):
        t = build([1])
        with pytest.raises(IndexError):
            t.update(1, payload(0))

    def test_update_matches_rebuild(self):
        rng = random.Random(5)
        t = build(range(13))
        for _ in range(20):
            idx = rng.randrange(13)
            t.update(idx, rng.randbytes(32))
        assert t.finalize() == naive_merkle_root(t.leaves)


class TestFinalize:
    def test_empty_tree_error(self):
        with pytest.raises(EmptyTree):
            DimTree().finalize()

    def test_single_subtree_zero_merges(self):
        t = DimTree()
        for i in range(4):
            t.insert(LeafRecord(i, payload(i)))
        before = dimtree.counters.internal
        t.finalize()
        assert dimtree.counters.internal - before == 0

    def test_three_subtrees_two_merges(self):
        t = DimTree()
        for i in range(7):  # 7 = 4 + 2 + 1
            t.insert(LeafRecord(i, payload(i)))
        before = dimtree.counters.internal
        t.finalize()
        assert dimtree.counters.internal - before == 2

    def test_idempotent_until_mutation(self):
        t = build(range(7))
        before = dimtree.counters.internal
        assert t.finalize() == t.finalize()
        assert dimtree.counters.internal == before  # no fold without a mutation
        old_root = t.root
        t.insert(LeafRecord(10, payload(10)))
        with pytest.raises(NotFinalized):
            _ = t.root
        t.insert(LeafRecord(11, payload(11)))  # 9 leaves: stack [8, 1]
        before = dimtree.counters.internal
        assert t.finalize() != old_root
        assert dimtree.counters.internal - before == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 64, 100, 255])
    def test_matches_naive_build(self, n):
        rng = random.Random(n)
        keys = sorted(rng.randrange(1000) for _ in range(n))
        leaves = [LeafRecord(k, rng.randbytes(32)) for k in keys]
        t = DimTree()
        for leaf in leaves:
            t.insert(leaf)
        assert t.finalize() == naive_merkle_root(leaves)

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_matches_naive_build_random(self, n):
        rng = random.Random(n * 31)
        keys = sorted(rng.randrange(10_000) for _ in range(n))
        leaves = [LeafRecord(k, rng.randbytes(32)) for k in keys]
        t = DimTree()
        for leaf in leaves:
            t.insert(leaf)
        assert t.finalize() == naive_merkle_root(leaves)


class TestSearch:
    def test_unfinalized_search_rejected(self):
        t = DimTree()
        t.insert(LeafRecord(1, payload(0)))
        with pytest.raises(NotFinalized):
            t.search_exact(1)

    def test_floor(self):
        t = build([1, 3, 5])
        res = t.search_le(4)
        assert res.found and res.leaf.key == 3

    def test_ceil_out_of_range_absence(self):
        t = build([1, 3, 5])
        res = t.search_ge(6)
        assert not res.found
        assert res.terminus is not None
        assert verify_path(t.root, "ge", 6, res)

    def test_fuzzy_relations_differ(self):
        # floor(2) and ceil(2) on keys {1,3,...} match different leaves
        # through different sibling sets
        t = build([1, 3, 5, 7])
        le = t.search_le(2)
        ge = t.search_ge(2)
        assert le.found and ge.found
        assert le.leaf.key == 1 and ge.leaf.key == 3
        assert [s.hash for s in le.steps] != [s.hash for s in ge.steps]

    def test_exact_hit_and_miss(self):
        t = build([2, 4, 6, 8, 10])
        assert t.search_exact(6).found
        miss = t.search_exact(5)
        assert not miss.found
        assert verify_path(t.root, "exact", 5, miss)

    def test_search_matches_scan_oracle(self):
        rng = random.Random(17)
        keys = sorted(rng.sample(range(5000), 400))
        t = build(keys)
        for _ in range(500):
            q = rng.randrange(-10, 5100)
            fl = t.search_le(q)
            want = floor_key_scan(keys, q)
            assert fl.found == (want is not None)
            if fl.found:
                assert fl.leaf.key == want
            ce = t.search_ge(q)
            want = ceil_key_scan(keys, q)
            assert ce.found == (want is not None)
            if ce.found:
                assert ce.leaf.key == want


class TestVerifyPath:
    def _roundtrip_cases(self, rng, keys, t):
        for _ in range(200):
            q = rng.randrange(-5, max(keys) + 6)
            for rel, search in (("le", t.search_le), ("ge", t.search_ge), ("exact", t.search_exact)):
                proof = search(q)
                assert verify_path(t.root, rel, q, proof), (rel, q)

    def test_honest_roundtrip(self):
        rng = random.Random(23)
        for n in (1, 2, 3, 7, 50, 129):
            keys = sorted(rng.sample(range(500), n))
            t = build(keys)
            self._roundtrip_cases(rng, keys, t)

    def test_bitflip_in_sibling_hash_rejected(self):
        t = build(range(16))
        proof = t.search_le(9)
        s = proof.steps[1]
        bad = bytearray(s.hash)
        bad[0] ^= 1
        proof.steps[1] = PathStep(s.side, s.min_key, s.max_key, bytes(bad))
        assert not verify_path(t.root, "le", 9, proof)

    def test_every_field_mutation_rejected(self):
        t = build([1, 4, 9, 16, 25, 36])
        base = t.search_le(20)
        root = t.root
        assert verify_path(root, "le", 20, base)

        def clone():
            return SearchProof(
                base.relation, base.key, base.found,
                base.leaf, list(base.steps), base.terminus,
            )

        # leaf payload bit
        p = clone()
        p.leaf = LeafRecord(p.leaf.key, bytes([p.leaf.payload[0] ^ 1]) + p.leaf.payload[1:])
        assert not verify_path(root, "le", 20, p)
        # leaf key
        p = clone()
        p.leaf = LeafRecord(p.leaf.key + 1, p.leaf.payload)
        assert not verify_path(root, "le", 20, p)
        for i in range(len(base.steps)):
            for fld in ("side", "min_key", "max_key", "hash"):
                p = clone()
                s = p.steps[i]
                vals = {
                    "side": 1 - s.side,
                    "min_key": s.min_key + 1,
                    "max_key": s.max_key + 1,
                    "hash": bytes([s.hash[0] ^ 0x80]) + s.hash[1:],
                }
                p.steps[i] = PathStep(
                    vals["side"] if fld == "side" else s.side,
                    vals["min_key"] if fld == "min_key" else s.min_key,
                    vals["max_key"] if fld == "max_key" else s.max_key,
                    vals["hash"] if fld == "hash" else s.hash,
                )
                assert not verify_path(root, "le", 20, p), (i, fld)

    def test_replay_valid_member_as_floor_rejected(self):
        # floor(4) on {1,3,5} is 3; a proof for leaf 1 (a genuine member)
        # must not verify as the floor
        t = build([1, 3, 5])
        honest = t.search_le(4)
        assert honest.leaf.key == 3
        forged = t.search_exact(1)
        forged.relation = "le"
        forged.key = 4
        assert not verify_path(t.root, "le", 4, forged)

    def test_absence_claim_when_member_exists_rejected(self):
        t = build([1, 3, 5])
        absent = t.search_exact(7)  # honest absence, root-level
        assert verify_path(t.root, "exact", 7, absent)
        absent.key = 3  # replay the same absence evidence against a member
        assert not verify_path(t.root, "exact", 3, absent)

    def test_truncated_path_rejected(self):
        t = build(range(32))
        proof = t.search_exact(11)
        proof.steps = proof.steps[:-1]
        assert not verify_path(t.root, "exact", 11, proof)

    def test_proof_wire_roundtrip(self):
        t = build([1, 3, 5, 9])
        for proof in (t.search_le(4), t.search_exact(2), t.search_ge(100)):
            again = SearchProof.from_bytes(proof.to_bytes())
            assert again.to_bytes() == proof.to_bytes()
            assert verify_path(t.root, proof.relation, proof.key, again) == verify_path(
                t.root, proof.relation, proof.key, proof
            )


class TestRange:
    def test_full_range(self):
        keys = list(range(0, 40, 2))
        t = build(keys)
        res = t.range_search(0, 38)
        assert res.found and len(res.leaves) == len(keys)
        assert verify_range(t.root, 0, 38, res)

    def test_interior_range_matches_scan(self):
        rng = random.Random(31)
        keys = sorted(rng.sample(range(2000), 300))
        t = build(keys)
        for _ in range(300):
            a = rng.randrange(0, 2000)
            b = rng.randrange(a, 2001)
            res = t.range_search(a, b)
            want = [k for k in keys if a <= k <= b]
            assert [l.key for l in res.leaves] == want
            assert res.found == bool(want)
            assert verify_range(t.root, a, b, res)

    def test_empty_range_has_absence_evidence(self):
        t = build([10, 20, 30])
        res = t.range_search(21, 29)
        assert not res.found
        assert verify_range(t.root, 21, 29, res)

    def test_invalid_bounds(self):
        t = build([1, 2])
        with pytest.raises(ValueError):
            t.range_search(5, 4)

    def test_dropped_interior_leaf_rejected(self):
        t = build(range(20))
        res = t.range_search(3, 12)
        res.leaves.pop(4)
        assert not verify_range(t.root, 3, 12, res)

    def test_extra_leaf_rejected(self):
        t = build(range(20))
        res = t.range_search(3, 12)
        res.leaves.append(LeafRecord(13, payload(13)))
        assert not verify_range(t.root, 3, 12, res)

    def test_shape_hint_lies_rejected(self):
        # the node kinds of the walk are the proof's only shape hints; a
        # lie about any one of them breaks the walk or root equality
        t = build(range(21))
        res = t.range_search(5, 9)
        honest = list(res.proof.nodes)
        kinds = (dimtree.EXPANDED_INTERNAL, dimtree.EXPANDED_LEAF, (bytes(32), 0, 0))
        for i, node in enumerate(honest):
            for other in kinds:
                if type(other) is type(node) and other == node:
                    continue
                res.proof.nodes = honest[:i] + [other] + honest[i + 1:]
                assert not verify_range(t.root, 5, 9, res)

    def test_range_proof_has_one_encoding(self):
        # every single-bit flip of an honest range proof fails to parse or
        # to verify: no field (a leaf count or shape hint) is unbound
        t = build(range(100))
        blob = t.range_search(40, 45).to_bytes()
        assert verify_range(t.root, 40, 45, RangeSearchResult.from_bytes(blob))
        accepted = []
        for i in range(len(blob)):
            for bit in range(8):
                mutant = bytearray(blob)
                mutant[i] ^= 1 << bit
                try:
                    res = RangeSearchResult.from_bytes(bytes(mutant))
                except WireError:
                    continue
                if verify_range(t.root, 40, 45, res):
                    accepted.append((i, bit))
        assert accepted == []

    def test_expanded_node_missing_the_query_rejected(self):
        t = build(range(100))
        res = t.range_search(40, 45)
        nodes = res.proof.nodes
        i = next(i for i, n in enumerate(nodes) if isinstance(n, tuple) and n[1] < n[2])
        sub = _find_node(t, nodes[i][0])
        res.proof.nodes = nodes[:i] + [
            dimtree.EXPANDED_INTERNAL,
            (sub.left.hash, sub.left.min_key, sub.left.max_key),
            (sub.right.hash, sub.right.min_key, sub.right.max_key),
        ] + nodes[i + 1:]
        assert dimtree.reconstruct_range(40, 45, res) is None

    def test_opaque_node_meeting_the_query_rejected(self):
        t = build(range(100))
        res = t.range_search(40, 45)
        nodes = res.proof.nodes
        # the deepest expanded internal node that reveals only leaves
        i = max(
            i for i, n in enumerate(nodes[:-2])
            if n is dimtree.EXPANDED_INTERNAL
            and nodes[i + 1] is nodes[i + 2] is dimtree.EXPANDED_LEAF
        )
        first = sum(1 for n in nodes[:i] if n is dimtree.EXPANDED_LEAF)
        a, b = res.leaves[first], res.leaves[first + 1]
        sub = _find_node(t, dimtree._internal_hash(
            dimtree._leaf_hash(a.key, a.payload), dimtree._leaf_hash(b.key, b.payload),
            a.key, a.key, b.key, b.key,
        ))
        res.proof.nodes = nodes[:i] + [(sub.hash, sub.min_key, sub.max_key)] + nodes[i + 3:]
        del res.leaves[first:first + 2]
        # the summary is the real node's, so only the expand rule rejects
        assert dimtree.reconstruct_range(40, 45, res) is None

    def test_batch_verification_hash_cost(self):
        n, m = 2048, 1000
        t = build(range(n))
        res = t.range_search(100, 100 + m - 1)
        assert len(res.leaves) == m
        dimtree.counters.reset()
        assert verify_range(t.root, 100, 100 + m - 1, res)
        batch_ops = dimtree.counters.internal
        dimtree.counters.reset()
        import math

        logn = math.log2(n)
        for k in range(100, 100 + m):
            assert verify_path(t.root, "exact", k, t.search_exact(k))
        single_ops = dimtree.counters.internal
        assert batch_ops <= m + 4 * logn
        assert single_ops >= 0.5 * m * logn

    def test_range_wire_roundtrip(self):
        t = build(range(10))
        res = t.range_search(2, 6)
        again = RangeSearchResult.from_bytes(res.to_bytes())
        assert again.to_bytes() == res.to_bytes()
        assert verify_range(t.root, 2, 6, again)

    def test_point_range_equivalent_to_single_node(self):
        keys = [3, 7, 11, 19, 23]
        t = build(keys)
        res = t.range_search(11, 11)
        assert res.found and [l.key for l in res.leaves] == [11]
        assert verify_range(t.root, 11, 11, res)
        single = t.search_ge(11)
        assert single.found and single.leaf == res.leaves[0]
        assert verify_path(t.root, "ge", 11, single)


class TestHonestProofsProperty:
    @given(st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_search_verify_roundtrip(self, n, seed):
        rng = random.Random(seed)
        keys = sorted(rng.randrange(1000) for _ in range(n))
        t = build(keys)
        q = rng.randrange(-5, 1005)
        for rel, fn in (("le", t.search_le), ("ge", t.search_ge), ("exact", t.search_exact)):
            assert verify_path(t.root, rel, q, fn(q))
