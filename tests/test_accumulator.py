"""Two-level accumulator: registration, commits, proofs, adversarial checks."""

import random

import pytest

from vcause import accumulator as acc_mod
from vcause import dimtree
from vcause.accumulator import (
    Accumulator,
    EntityIdMismatch,
    NodeProofResult,
    NotCommitted,
    Relation,
    TimestampKey,
    UnknownEntity,
    UnknownKey,
    verify_node,
    verify_range,
)
from vcause.hashcore import hash_bytes

from .helpers import ceil_key_scan, floor_key_scan


class StubNode:
    """Minimal object satisfying register_node's and update_node's
    duck-typed contract."""

    def __init__(self, entity_ext, entity_id, key, blob=b""):
        self.entity_ext = entity_ext
        self.entity_id = entity_id
        self.key = key
        self.ref = (entity_id, key.encoded())
        self._blob = blob

    def leaf_digest(self):
        return hash_bytes(b"stub" + self.entity_ext.encode() + self.key.to_bytes() + self._blob)


def fill(acc: Accumulator, spec: dict[str, list[tuple[int, int]]]):
    """Register (entity -> [(ts, seq), ...]) in declaration order."""
    for ext, keys in spec.items():
        for ts, seq in keys:
            internal = acc.registry.get(ext, len(acc.registry_order))
            acc.register_node(StubNode(ext, internal, TimestampKey(ts, seq)))
    return acc


def le(t):
    return Relation(acc_mod.REL_LE, t)


def ge(t):
    return Relation(acc_mod.REL_GE, t)


class TestTimestampKey:
    def test_total_order(self):
        assert TimestampKey(1, 5) < TimestampKey(2, 0)
        assert TimestampKey(2, 0) < TimestampKey(2, 1)

    def test_encoding_roundtrip(self):
        k = TimestampKey(123456789, 42)
        assert TimestampKey.from_encoded(k.encoded()) == k

    def test_encoding_preserves_order(self):
        rng = random.Random(2)
        keys = [TimestampKey(rng.randrange(1 << 40), rng.randrange(1 << 32)) for _ in range(500)]
        assert sorted(keys) == sorted(keys, key=lambda k: k.encoded())


class TestRegistration:
    def test_first_node_creates_local_tree(self):
        acc = Accumulator()
        fill(acc, {"proc:1": [(5, 0)]})
        assert len(acc.registry_order) == 1
        assert len(acc.locals[0]) == 1

    def test_same_timestamp_tiebreak(self):
        acc = Accumulator()
        fill(acc, {"f": [(5, 0), (5, 1)]})
        assert [l.key for l in acc.locals[0].leaves] == [
            TimestampKey(5, 0).encoded(),
            TimestampKey(5, 1).encoded(),
        ]

    def test_id_mismatch_rejected(self):
        acc = Accumulator()
        with pytest.raises(EntityIdMismatch):
            acc.register_node(StubNode("a", 3, TimestampKey(1, 0)))

    def test_out_of_order_key_propagates(self):
        acc = Accumulator()
        fill(acc, {"a": [(5, 0)]})
        with pytest.raises(dimtree.OutOfOrderKey):
            acc.register_node(StubNode("a", 0, TimestampKey(4, 0)))


class TestCommit:
    def test_empty_commit_rejected(self):
        with pytest.raises(dimtree.EmptyTree):
            Accumulator().commit()

    def test_commit_idempotent(self):
        acc = fill(Accumulator(), {"a": [(1, 0)], "b": [(2, 0)]})
        assert acc.commit() == acc.commit()

    def test_commit_changes_with_new_node(self):
        acc = fill(Accumulator(), {"a": [(1, 0)]})
        r1 = acc.commit()
        acc.register_node(StubNode("a", 0, TimestampKey(2, 0)))
        assert acc.commit() != r1

    def test_update_node(self):
        acc = fill(Accumulator(), {"a": [(1, 0), (2, 0)]})
        r1 = acc.commit()
        acc.update_node(StubNode("a", 0, TimestampKey(1, 0), blob=b"new"))
        r2 = acc.commit()
        assert r1 != r2
        # updating back to the identical digest restores the root
        acc.update_node(StubNode("a", 0, TimestampKey(1, 0)))
        assert acc.commit() == r1

    def test_update_unknown(self):
        acc = fill(Accumulator(), {"a": [(1, 0)]})
        acc.commit()
        with pytest.raises(UnknownEntity):
            acc.update_node(StubNode("zzz", 0, TimestampKey(1, 0)))
        with pytest.raises(UnknownKey):
            acc.update_node(StubNode("a", 0, TimestampKey(9, 9)))

    def test_commit_equals_fresh_rebuild(self):
        rng = random.Random(9)
        acc = Accumulator()
        # interleave registers, updates and commits
        entities = [f"e{i}" for i in range(12)]
        latest = {}
        for step in range(400):
            ext = rng.choice(entities)
            internal = acc.registry.get(ext, len(acc.registry_order))
            prev = latest.get(ext)
            ts = (prev.timestamp if prev else 0) + rng.randrange(0, 3)
            seq = prev.seq + 1 if prev and prev.timestamp == ts else 0
            key = TimestampKey(ts, seq)
            acc.register_node(StubNode(ext, internal, key, blob=b"v1"))
            latest[ext] = key
            if rng.random() < 0.2 and prev is not None:
                acc.update_node(StubNode(ext, internal, prev, blob=rng.randbytes(32)))
            if rng.random() < 0.1:
                acc.commit()
        root = acc.commit()
        # rebuild from final leaf states only
        fresh = Accumulator()
        for ext in acc.registry_order:
            internal = acc.registry[ext]
            for leaf in acc.locals[internal].leaves:
                fresh._assign_id(ext)
                fresh.locals[internal].insert(leaf)
                fresh._dirty.add(internal)
        assert fresh.commit() == root


class TestNodeProofs:
    def _committed(self):
        acc = fill(
            Accumulator(),
            {
                "proc:init": [(1, 0), (3, 0), (5, 0)],
                "file:log": [(2, 0), (2, 1), (7, 0)],
                "sock:443": [(4, 0)],
            },
        )
        acc.commit()
        return acc

    def test_not_committed(self):
        acc = fill(Accumulator(), {"a": [(1, 0)]})
        with pytest.raises(NotCommitted):
            acc.prove_node("a", le(1))

    def test_member_roundtrip(self):
        acc = self._committed()
        res = acc.prove_node("proc:init", le(4))
        assert res.found and res.node_key == TimestampKey(3, 0)
        assert verify_node(acc.committed_root, "proc:init", le(4), res)

    def test_fig4_relations_give_different_leaves(self):
        # floor(2) vs ceil(2) over keys {1, 3, 5}
        acc = self._committed()
        fl = acc.prove_node("proc:init", le(2))
        ce = acc.prove_node("proc:init", ge(2))
        assert fl.node_key == TimestampKey(1, 0)
        assert ce.node_key == TimestampKey(3, 0)
        assert verify_node(acc.committed_root, "proc:init", le(2), fl)
        assert verify_node(acc.committed_root, "proc:init", ge(2), ce)

    def test_tie_resolution(self):
        acc = self._committed()
        fl = acc.prove_node("file:log", le(2))
        assert fl.node_key == TimestampKey(2, 1)  # latest seq for floor
        ce = acc.prove_node("file:log", ge(2))
        assert ce.node_key == TimestampKey(2, 0)  # earliest seq for ceil

    def test_unknown_entity_nonmembership(self):
        acc = self._committed()
        res = acc.prove_node("nope", le(100))
        assert not res.found
        assert res.proof.registry is not None and res.proof.local_proof is None
        assert verify_node(
            acc.committed_root, "nope", le(100), res, registry_digest=acc.registry_digest()
        )

    def test_unknown_entity_requires_registry_digest(self):
        acc = self._committed()
        res = acc.prove_node("nope", le(100))
        assert not verify_node(acc.committed_root, "nope", le(100), res)

    def test_local_nonmembership(self):
        acc = self._committed()
        res = acc.prove_node("sock:443", ge(5))
        assert not res.found
        assert res.proof.registry is None and res.proof.local_proof is not None
        assert verify_node(acc.committed_root, "sock:443", ge(5), res)

    def test_exact_key_relation(self):
        acc = self._committed()
        rel = Relation(acc_mod.REL_KEY, TimestampKey(2, 0).encoded())
        res = acc.prove_node("file:log", rel)
        assert res.found and res.node_key == TimestampKey(2, 0)
        assert verify_node(acc.committed_root, "file:log", rel, res)

    def test_random_queries_match_scan(self):
        rng = random.Random(21)
        acc = Accumulator()
        truth = {}
        for i in range(40):
            ext = f"e{i}"
            ts, keys = 0, []
            for _ in range(rng.randrange(1, 30)):
                ts += rng.randrange(0, 4)
                seq = keys[-1].seq + 1 if keys and keys[-1].timestamp == ts else 0
                keys.append(TimestampKey(ts, seq))
            truth[ext] = keys
            internal = len(acc.registry_order)
            for k in keys:
                acc.register_node(StubNode(ext, internal, k))
        root = acc.commit()
        for _ in range(400):
            ext = rng.choice(list(truth))
            t = rng.randrange(0, 40)
            enc_keys = [k.encoded() for k in truth[ext]]
            fl = acc.prove_node(ext, le(t))
            want = floor_key_scan(enc_keys, TimestampKey(t, acc_mod.MAX_SEQ).encoded())
            assert fl.found == (want is not None)
            if fl.found:
                assert fl.node_key.encoded() == want
            assert verify_node(root, ext, le(t), fl)
            ce = acc.prove_node(ext, ge(t))
            want = ceil_key_scan(enc_keys, TimestampKey(t, 0).encoded())
            assert ce.found == (want is not None)
            if ce.found:
                assert ce.node_key.encoded() == want
            assert verify_node(root, ext, ge(t), ce)


class TestAdversarialNodeProofs:
    def _two_entities(self):
        acc = fill(Accumulator(), {"a": [(1, 0), (5, 0)], "b": [(1, 0), (5, 0)]})
        acc.commit()
        return acc

    def test_swapped_local_proofs_rejected(self):
        # same key layout so only the entity binding differs
        acc = self._two_entities()
        ra = acc.prove_node("a", le(3))
        rb = acc.prove_node("b", le(3))
        # a's proof answers a query about b: the global leaf binds "a"
        assert not verify_node(acc.committed_root, "b", le(3), ra)
        forged = NodeProofResult(ra.proof)
        forged.proof.local_proof = rb.proof.local_proof  # same bytes, still fine
        # now claim a's global path under b's identity
        forged.proof.internal_id = acc.registry["b"]
        assert not verify_node(acc.committed_root, "b", le(3), forged)

    def test_false_empty_claim_rejected(self):
        # claim found=False while a satisfying node exists, reusing the
        # nonmember-local shape with a truncated path
        acc = self._two_entities()
        honest_miss = acc.prove_node("a", ge(6))  # genuinely empty
        assert not honest_miss.found
        forged = NodeProofResult(honest_miss.proof)
        assert not verify_node(acc.committed_root, "a", ge(4), forged)

    def test_stale_root_rejected(self):
        acc = self._two_entities()
        old_root = acc.committed_root
        res_old = acc.prove_node("a", le(3))
        acc.register_node(StubNode("a", 0, TimestampKey(9, 0)))
        new_root = acc.commit()
        res_new = acc.prove_node("a", le(3))
        assert verify_node(new_root, "a", le(3), res_new)
        assert not verify_node(new_root, "a", le(3), res_old)
        assert verify_node(old_root, "a", le(3), res_old)

    def test_wrong_local_proof_type_rejected(self):
        # a point answer carrying a range proof and a range answer carrying
        # a search proof are rejected, not crashed on
        acc = self._two_entities()
        point, span = acc.prove_node("a", le(3)), acc.prove_range("a", 1, 5)
        point.proof.local_proof, span.proof.local_proof = (
            span.proof.local_proof, point.proof.local_proof
        )
        assert not verify_node(acc.committed_root, "a", le(3), point)
        assert not verify_range(acc.committed_root, "a", 1, 5, span)

    def test_registry_lie_rejected(self):
        acc = self._two_entities()
        res = acc.prove_node("zz", le(3))
        res.proof.registry = list(res.proof.registry) + ["zz-decoy"]
        assert not verify_node(
            acc.committed_root, "zz", le(3), res, registry_digest=acc.registry_digest()
        )

    def test_wire_roundtrip(self):
        acc = self._two_entities()
        for query in (("a", le(3)), ("zz", le(1)), ("a", ge(9))):
            res = acc.prove_node(query[0], query[1])
            blob = res.to_bytes()
            from vcause.wire import Reader

            r = Reader(blob)
            again = NodeProofResult.read_from(r)
            r.finish()
            assert again.to_bytes() == blob


class TestRangeProofs:
    def _acc(self):
        acc = Accumulator()
        keys = []
        ts = 0
        rng = random.Random(33)
        for _ in range(64):
            ts += rng.randrange(0, 3)
            seq = keys[-1].seq + 1 if keys and keys[-1].timestamp == ts else 0
            keys.append(TimestampKey(ts, seq))
        fill(acc, {"main": [(k.timestamp, k.seq) for k in keys], "other": [(1, 0)]})
        acc.commit()
        return acc, keys

    def test_full_range(self):
        acc, keys = self._acc()
        res = acc.prove_range("main", 0, keys[-1].timestamp)
        assert res.found and len(res.leaves) == len(keys)
        assert verify_range(acc.committed_root, "main", 0, keys[-1].timestamp, res)

    def test_random_ranges_match_scan(self):
        acc, keys = self._acc()
        rng = random.Random(4)
        maxts = keys[-1].timestamp
        for _ in range(200):
            a = rng.randrange(0, maxts + 3)
            b = rng.randrange(a, maxts + 3)
            res = acc.prove_range("main", a, b)
            want = [k.encoded() for k in keys if a <= k.timestamp <= b]
            assert [l.key for l in res.leaves] == want
            assert res.found == bool(want)
            assert verify_range(acc.committed_root, "main", a, b, res)

    def test_invalid_range_rejected(self):
        acc, _ = self._acc()
        with pytest.raises(ValueError):
            acc.prove_range("main", 5, 4)

    def test_unknown_entity_range(self):
        acc, _ = self._acc()
        res = acc.prove_range("ghost", 0, 5)
        assert not res.found
        assert verify_range(
            acc.committed_root, "ghost", 0, 5, res, registry_digest=acc.registry_digest()
        )

    def test_dropped_leaf_rejected(self):
        acc, keys = self._acc()
        res = acc.prove_range("main", 1, keys[-1].timestamp - 1)
        assert len(res.leaves) > 3
        res.proof.local_proof.leaves.pop(1)
        assert not verify_range(acc.committed_root, "main", 1, keys[-1].timestamp - 1, res)

    def test_point_range_equals_single_node(self):
        acc, keys = self._acc()
        distinct = [k for k in keys if k.seq == 0][5]
        res = acc.prove_range("main", distinct.timestamp, distinct.timestamp)
        single = acc.prove_node("main", ge(distinct.timestamp))
        assert res.found and single.found
        assert [l.key for l in res.leaves][0] == single.node_key.encoded()
        assert verify_range(
            acc.committed_root, "main", distinct.timestamp, distinct.timestamp, res
        )


class TestExhaustiveHonestRoundtrip:
    def test_many_nodes_all_provable(self):
        rng = random.Random(55)
        acc = Accumulator()
        all_keys = {}
        for i in range(100):
            ext = f"ent{i}"
            internal = len(acc.registry_order)
            ts, keys = 0, []
            for _ in range(rng.randrange(1, 8)):
                ts += rng.randrange(0, 5)
                seq = keys[-1].seq + 1 if keys and keys[-1].timestamp == ts else 0
                key = TimestampKey(ts, seq)
                keys.append(key)
                acc.register_node(StubNode(ext, internal, key))
            all_keys[ext] = keys
        root = acc.commit()
        checked = 0
        for ext, keys in all_keys.items():
            for key in keys:
                res = acc.prove_node(ext, le(key.timestamp))
                assert res.found
                assert verify_node(root, ext, le(key.timestamp), res)
                checked += 1
        assert checked >= 100
