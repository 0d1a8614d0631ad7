"""Cryptographic primitives: byte hashing, incremental multiset hashing,
the canonical edge encoding and its terminal markers, and signatures.

The byte hash is SHA3-256 (32-byte digests). The multiset hash maps each
element through SHAKE-256 to a 4096-bit group element and combines by
addition mod 2^4096; subtraction is the group inverse, so the digest is
ordering-invariant and incrementally updatable. 4096 bits keeps the
generalized-birthday (Wagner) attack above 2^128 work.

All operations are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
    load_pem_private_key,
    load_pem_public_key,
)

from .wire import NODE_REF, SEQ_MASK, Reader, WireError, decode, flag, node_ref

DIGEST_SIZE = 32

MSET_BITS = 4096
MSET_BYTES = MSET_BITS // 8
MSET_MASK = (1 << MSET_BITS) - 1

# Domain separation tags. Changing any of these changes every digest.
_TAG_MSET_ELEM = b"vc:mset-elem\x00"
_TAG_DIGEST = b"vc:mset-digest\x00"


def hash_bytes(data: bytes) -> bytes:
    """SHA3-256 of raw bytes; deterministic 32-byte output."""
    return hashlib.sha3_256(data).digest()


class MsetDigest:
    """Element of the additive group Z/2^4096 used for multiset hashing.

    The identity (value 0) equals the hash of the empty multiset.
    Subtracting an element that was never added still yields a valid group
    element; it simply will not compare equal to any honestly computed
    digest.

    Immutable. A digest keeps the one form it was built from, its value or
    its 512-byte big-endian encoding, and derives the other on each use:
    a decoded digest that is only compared or hashed never becomes an int.
    """

    __slots__ = ("_value", "_raw")  # exactly one of them is set

    def __init__(self, value: int):
        if not 0 <= value <= MSET_MASK:
            raise ValueError("an mset digest lies in [0, 2^4096)")
        self._value = value
        self._raw = None

    @property
    def value(self) -> int:
        value = self._value
        return int.from_bytes(self._raw, "big") if value is None else value

    def to_bytes(self) -> bytes:
        raw = self._raw
        return self._value.to_bytes(MSET_BYTES, "big") if raw is None else raw

    def hashed(self) -> bytes:
        """digest_hash of this digest."""
        return _hash_encoded_digest(self.to_bytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MsetDigest):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"MsetDigest(value={self.value})"

    @classmethod
    def read_from(cls, r: Reader) -> "MsetDigest":
        raw = r.take(MSET_BYTES)
        if raw == EMPTY_DIGEST_BYTES:
            return _EMPTY  # digests are immutable: every empty one is the same
        d = cls.__new__(cls)
        d._value = None
        d._raw = raw
        return d

    @classmethod
    def from_bytes(cls, data: bytes) -> "MsetDigest":
        return decode(data, cls.read_from)


_EMPTY = MsetDigest(0)
EMPTY_DIGEST_BYTES = _EMPTY.to_bytes()  # the empty multiset's digest, encoded


def digest_hash(value: int) -> bytes:
    """32-byte stand-in for a path digest, given as its group value:
    accumulator leaves bind it, and POI records and anchors carry it
    instead of the 512-byte digest."""
    return _hash_encoded_digest(value.to_bytes(MSET_BYTES, "big"))


def _hash_encoded_digest(raw: bytes) -> bytes:
    return hashlib.sha3_256(_TAG_DIGEST + raw).digest()


_shake_256 = hashlib.shake_256


def mset_element(elem: bytes) -> int:
    """Group element of one multiset member; digests are sums of these
    mod 2^4096."""
    return int.from_bytes(_shake_256(_TAG_MSET_ELEM + elem).digest(MSET_BYTES), "big")


def mset_empty() -> MsetDigest:
    """The group identity: the multiset hash of the empty set."""
    return _EMPTY


def mset_add(d: MsetDigest, elem: bytes) -> MsetDigest:
    return MsetDigest((d.value + mset_element(elem)) & MSET_MASK)


def mset_sub(d: MsetDigest, elem: bytes) -> MsetDigest:
    return MsetDigest((d.value - mset_element(elem)) & MSET_MASK)


def mset_hash_set(elems) -> MsetDigest:
    """Multiset hash of an iterable of byte strings, order-invariant: the
    sum of their mset_element values, computed inline."""
    total = 0
    for e in elems:
        total += int.from_bytes(_shake_256(_TAG_MSET_ELEM + e).digest(MSET_BYTES), "big")
    return MsetDigest(total & MSET_MASK)


_EDGE_KIND_TAGS = {"temporal": 0, "dependency": 1}
_EDGE_KIND_FROM_TAG = {v: k for k, v in _EDGE_KIND_TAGS.items()}
# src NodeRef || dst NodeRef || u8 kind || u32 len(event_type)
_EDGE_HEAD = struct.Struct(">" + 2 * NODE_REF.format.lstrip(">") + "BI")
# Terminal markers end the segment-view encoding of an edge: a plain
# destination, or a stub followed by its target's NodeRef.
_PLAIN_MARKER, _STUB_MARKER = flag(False), flag(True)


def encode_edge(edge, src_ref, dst_ref) -> bytes:
    """Canonical injective encoding of an edge between two NodeRefs, as
    digests hash it and as the wire carries it:

        NodeRef src || NodeRef dst || u8 kind || lp(event_type) || lp(payload)

    `edge` supplies kind, event_type and payload. Fixed-width big-endian
    integers plus length-prefixed variable fields make the encoding
    prefix-free over the fixed field count. The fixed fields and the event
    type's length are one struct pack.
    """
    (src_id, src_key), (dst_id, dst_key) = src_ref, dst_ref
    event_type = edge.event_type.encode("utf-8")
    payload = edge.payload
    return b"".join((
        _EDGE_HEAD.pack(
            src_id, src_key >> 32, src_key & SEQ_MASK,
            dst_id, dst_key >> 32, dst_key & SEQ_MASK,
            _EDGE_KIND_TAGS[edge.kind], len(event_type),
        ),
        event_type, len(payload).to_bytes(4, "big"), payload,  # lp(payload)
    ))


def read_edge(r: Reader) -> tuple:
    """Inverse of encode_edge: (kind, src_ref, dst_ref, event_type, payload)."""
    src_id, src_ts, src_seq, dst_id, dst_ts, dst_seq, tag, n = r.unpack(_EDGE_HEAD)
    kind = _EDGE_KIND_FROM_TAG.get(tag)
    if kind is None:
        raise WireError(f"unknown edge kind {tag}")
    try:
        event_type = r.take(n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError("invalid utf-8 in an edge event type") from exc
    return (
        kind, (src_id, (src_ts << 32) | src_seq), (dst_id, (dst_ts << 32) | dst_seq),
        event_type, r.bytes_lp(),
    )


def terminal_marker(target) -> bytes:
    """Suffix of a segment-view edge encoding: binds whether the
    destination is a terminal stub, and if so its target NodeRef."""
    return _PLAIN_MARKER if target is None else _STUB_MARKER + node_ref(target)


class SignatureError(ValueError):
    """Malformed key or signature material."""


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 signing/verification key pair."""

    signing_key: Ed25519PrivateKey
    verify_key: Ed25519PublicKey

    @classmethod
    def generate(cls) -> "KeyPair":
        sk = Ed25519PrivateKey.generate()
        return cls(sk, sk.public_key())

    def private_pem(self) -> bytes:
        return self.signing_key.private_bytes(
            Encoding.PEM, PrivateFormat.PKCS8, NoEncryption()
        )

    def public_pem(self) -> bytes:
        return self.verify_key.public_bytes(
            Encoding.PEM, PublicFormat.SubjectPublicKeyInfo
        )


def load_private_pem(data: bytes) -> Ed25519PrivateKey:
    try:
        key = load_pem_private_key(data, password=None)
    except (ValueError, TypeError) as exc:
        raise SignatureError(f"cannot decode private key: {exc}") from exc
    if not isinstance(key, Ed25519PrivateKey):
        raise SignatureError("not an Ed25519 private key")
    return key


def load_public_pem(data: bytes) -> Ed25519PublicKey:
    try:
        key = load_pem_public_key(data)
    except (ValueError, TypeError) as exc:
        raise SignatureError(f"cannot decode public key: {exc}") from exc
    if not isinstance(key, Ed25519PublicKey):
        raise SignatureError("not an Ed25519 public key")
    return key


def sign_payload(sk: Ed25519PrivateKey, payload: bytes) -> bytes:
    return sk.sign(payload)


def verify_payload(vk: Ed25519PublicKey, payload: bytes, sig: bytes) -> bool:
    if not isinstance(sig, (bytes, bytearray)) or len(sig) != 64:
        raise SignatureError("Ed25519 signatures are 64 bytes")
    try:
        vk.verify(bytes(sig), payload)
        return True
    except InvalidSignature:
        return False
