"""Cryptographic primitives: byte hashing, incremental multiset hashing,
canonical edge encoding, and signatures.

The byte hash is SHA3-256 (32-byte digests). The multiset hash maps each
element through SHAKE-256 to a 4096-bit group element and combines by
addition mod 2^4096; subtraction is the group inverse, so the digest is
ordering-invariant and incrementally updatable. 4096 bits keeps the
generalized-birthday (Wagner) attack above 2^128 work.

All operations are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import hashlib
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

from .wire import Reader, WireError, bytes_lp, decode, node_ref, str_lp, u8

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


@dataclass(frozen=True, slots=True)
class MsetDigest:
    """Element of the additive group Z/2^4096 used for multiset hashing.

    The identity (value 0) equals the hash of the empty multiset.
    Subtracting an element that was never added still yields a valid group
    element; it simply will not compare equal to any honestly computed
    digest.
    """

    value: int

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(MSET_BYTES, "big")

    @classmethod
    def read_from(cls, r: Reader) -> "MsetDigest":
        return cls(int.from_bytes(r.take(MSET_BYTES), "big"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "MsetDigest":
        return decode(data, cls.read_from)


def digest_hash(value: int) -> bytes:
    """32-byte stand-in for a path digest, given as its group value:
    accumulator leaves bind it, and POI records and anchors carry it
    instead of the 512-byte digest."""
    return hashlib.sha3_256(_TAG_DIGEST + value.to_bytes(MSET_BYTES, "big")).digest()


def mset_element(elem: bytes) -> int:
    """Group element of one multiset member; digests are sums of these
    mod 2^4096."""
    return int.from_bytes(
        hashlib.shake_256(_TAG_MSET_ELEM + elem).digest(MSET_BYTES), "big"
    )


def mset_empty() -> MsetDigest:
    """The group identity: the multiset hash of the empty set."""
    return MsetDigest(0)


def mset_add(d: MsetDigest, elem: bytes) -> MsetDigest:
    return MsetDigest((d.value + mset_element(elem)) & MSET_MASK)


def mset_sub(d: MsetDigest, elem: bytes) -> MsetDigest:
    return MsetDigest((d.value - mset_element(elem)) & MSET_MASK)


def mset_hash_set(elems) -> MsetDigest:
    """Multiset hash of an iterable of byte strings, order-invariant."""
    total = 0
    for e in elems:
        total += mset_element(e)
    return MsetDigest(total & MSET_MASK)


_EDGE_KIND_TAGS = {"temporal": 0, "dependency": 1}
_EDGE_KIND_BYTES = {k: u8(v) for k, v in _EDGE_KIND_TAGS.items()}
_EDGE_KIND_FROM_TAG = {v: k for k, v in _EDGE_KIND_TAGS.items()}


def edge_kind_bytes(kind: str) -> bytes:
    return _EDGE_KIND_BYTES[kind]


def read_edge_kind(r: Reader) -> str:
    kind = _EDGE_KIND_FROM_TAG.get(r.u8())
    if kind is None:
        raise WireError("unknown edge kind")
    return kind


def encode_edge(edge, src_ref, dst_ref) -> bytes:
    """Canonical injective encoding of an edge between two NodeRefs.

    Field order: src NodeRef, dst NodeRef, edge kind, event type, payload.
    Fixed-width big-endian integers plus length-prefixed variable fields
    make the encoding prefix-free over the fixed field count.
    """
    return b"".join((
        node_ref(src_ref),
        node_ref(dst_ref),
        edge_kind_bytes(edge.kind),
        str_lp(edge.event_type),
        bytes_lp(edge.payload),
    ))


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
