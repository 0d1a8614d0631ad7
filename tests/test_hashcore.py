"""Primitive-level tests: hashing, multiset group laws, edges, signatures."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcause import hashcore
from vcause.commitment import make_commitment

# SHA3-256 of the empty string, from the FIPS 202 test vectors.
SHA3_256_EMPTY = "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"


class TestHashBytes:
    def test_deterministic(self):
        assert hashcore.hash_bytes(b"abc") == hashcore.hash_bytes(b"abc")

    def test_empty_input_vector(self):
        assert hashcore.hash_bytes(b"").hex() == SHA3_256_EMPTY

    def test_width(self):
        assert len(hashcore.hash_bytes(b"x")) == 32

    def test_no_extension_collisions(self):
        rng = random.Random(7)
        for _ in range(10_000):
            x = rng.randbytes(rng.randrange(0, 64))
            assert hashcore.hash_bytes(x) != hashcore.hash_bytes(x + b"\x00")


class TestMsetDigest:
    def test_empty_is_identity(self):
        assert hashcore.mset_empty().value == 0
        assert hashcore.mset_hash_set([]) == hashcore.mset_empty()

    def test_add_then_sub_is_identity(self):
        d = hashcore.mset_add(hashcore.mset_empty(), b"e")
        assert hashcore.mset_sub(d, b"e") == hashcore.mset_empty()

    def test_singleton(self):
        assert hashcore.mset_hash_set([b"x"]) == hashcore.mset_add(hashcore.mset_empty(), b"x")

    def test_commutative(self):
        d0 = hashcore.mset_empty()
        ab = hashcore.mset_add(hashcore.mset_add(d0, b"a"), b"b")
        ba = hashcore.mset_add(hashcore.mset_add(d0, b"b"), b"a")
        assert ab == ba

    def test_subtract_inverts_elementwise(self):
        d = hashcore.mset_hash_set([b"a", b"b", b"c"])
        assert hashcore.mset_sub(d, b"b") == hashcore.mset_hash_set([b"a", b"c"])

    def test_order_invariance_large(self):
        rng = random.Random(11)
        elems = [rng.randbytes(rng.randrange(1, 40)) for _ in range(1000)]
        shuffled = elems[:]
        rng.shuffle(shuffled)
        a = hashcore.mset_hash_set(elems)
        b = hashcore.mset_empty()
        for e in shuffled:
            b = hashcore.mset_add(b, e)
        assert a == b

    def test_serialization_roundtrip(self):
        d = hashcore.mset_hash_set([b"x", b"y"])
        raw = d.to_bytes()
        assert len(raw) == hashcore.MSET_BYTES
        assert hashcore.MsetDigest.from_bytes(raw) == d

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            hashcore.MsetDigest.from_bytes(b"\x00" * 16)

    @given(st.lists(st.binary(min_size=0, max_size=32), max_size=20),
           st.lists(st.binary(min_size=0, max_size=32), max_size=20))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_union_law(self, a, b):
        """hash(A u B) equals folding B onto hash(A)."""
        combined = hashcore.mset_hash_set(a + b)
        folded = hashcore.mset_hash_set(a)
        for e in b:
            folded = hashcore.mset_add(folded, e)
        assert combined == folded

    def test_no_accidental_identity(self):
        # random walk through the group never returns to the identity
        rng = random.Random(13)
        d = hashcore.mset_add(hashcore.mset_empty(), b"start")
        for i in range(1_000_000):
            e = rng.randbytes(8)
            d = hashcore.mset_add(d, e) if i % 3 else hashcore.mset_sub(d, e)
            assert d.value != 0


def _ref(entity_id, timestamp, seq):
    """NodeRef: (entity id, encoded (timestamp, seq) key)."""
    return entity_id, (timestamp << 32) | seq


class _StubEdge:
    def __init__(self, kind, event_type, payload=b""):
        self.kind = kind
        self.event_type = event_type
        self.payload = payload


class TestEncodeEdge:
    def _encode(self, kind="dependency", event_type="write", payload=b""):
        return hashcore.encode_edge(
            _StubEdge(kind, event_type, payload),
            _ref(1, 10, 0),
            _ref(2, 11, 3),
        )

    def test_deterministic(self):
        assert self._encode() == self._encode()

    def test_event_type_injective(self):
        assert self._encode(event_type="read") != self._encode(event_type="write")

    def test_kind_injective(self):
        assert self._encode(kind="temporal") != self._encode(kind="dependency")

    def test_roundtrip(self):
        from .helpers import decode_edge

        fields = decode_edge(self._encode(event_type="exec", payload=b"\x01\x02"))
        assert fields == {
            "src_entity": 1, "src_ts": 10, "src_seq": 0,
            "dst_entity": 2, "dst_ts": 11, "dst_seq": 3,
            "kind": "dependency", "event_type": "exec", "payload": b"\x01\x02",
        }

    def test_prefix_free(self):
        rng = random.Random(3)
        encs = set()
        for _ in range(200):
            enc = hashcore.encode_edge(
                _StubEdge("dependency", "t" * rng.randrange(0, 6), rng.randbytes(rng.randrange(0, 5))),
                _ref(rng.randrange(4), rng.randrange(8), rng.randrange(2)),
                _ref(rng.randrange(4), rng.randrange(8), rng.randrange(2)),
            )
            encs.add(enc)
        encs = sorted(encs)
        for a, b in zip(encs, encs[1:]):
            assert not b.startswith(a) or a == b


def _commit(kp, root, t):
    return make_commitment(kp.signing_key, "ep0", 1, 1, root, hashcore.hash_bytes(b"reg"), t)


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        kp = hashcore.KeyPair.generate()
        root = hashcore.hash_bytes(b"root")
        assert _commit(kp, root, 42).verify(kp.verify_key)

    def test_flipped_root_rejected(self):
        kp = hashcore.KeyPair.generate()
        root = bytearray(hashcore.hash_bytes(b"root"))
        c = _commit(kp, bytes(root), 42)
        root[0] ^= 0x01
        assert not replace(c, root=bytes(root)).verify(kp.verify_key)

    def test_timestamp_binding(self):
        kp = hashcore.KeyPair.generate()
        c = _commit(kp, hashcore.hash_bytes(b"root"), 42)
        assert not replace(c, timestamp=43).verify(kp.verify_key)

    def test_any_signature_bitflip_rejected(self):
        kp = hashcore.KeyPair.generate()
        c = _commit(kp, hashcore.hash_bytes(b"r"), 1)
        payload = c.canonical_bytes()
        for i in range(0, 64, 7):
            bad = bytearray(c.signature)
            bad[i] ^= 0x40
            assert not hashcore.verify_payload(kp.verify_key, payload, bytes(bad))
            assert not replace(c, signature=bytes(bad)).verify(kp.verify_key)

    def test_malformed_signature_raises(self):
        kp = hashcore.KeyPair.generate()
        with pytest.raises(hashcore.SignatureError):
            hashcore.verify_payload(kp.verify_key, hashcore.hash_bytes(b"r"), b"short")

    def test_pem_roundtrip(self):
        kp = hashcore.KeyPair.generate()
        sk = hashcore.load_private_pem(kp.private_pem())
        vk = hashcore.load_public_pem(kp.public_pem())
        sig = hashcore.sign_payload(sk, b"msg")
        assert hashcore.verify_payload(vk, b"msg", sig)

    def test_malformed_pem_raises(self):
        with pytest.raises(hashcore.SignatureError):
            hashcore.load_public_pem(b"not a pem")
