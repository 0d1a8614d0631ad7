"""Two-level graph accumulator.

A global DIM-Tree indexed by dense internal entity ids aggregates one local
DIM-Tree per entity, indexed by (timestamp, seq) keys. Each global leaf
payload binds the entity's external id together with its finalized local
root, so a membership proof authenticates the external-id mapping without
shipping the registry. Non-membership of an unknown entity is proven from
the committed registry snapshot (hashed against the signed registry digest)
plus a global absence path for the next dense id. Many committed leaves
are proven at once by one global multiproof over their entities and one
local multiproof per entity.

Proof generation runs against the committed snapshot; commit() is the
serialization point between the single writer and concurrent readers.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from . import dimtree
from .dimtree import DimTree, LeafRecord, MultiProof, RangeSearchResult, SearchProof
from .hashcore import hash_bytes
from .wire import SEQ_MASK, Reader, WireError, decode, flag, optional, seq, str_lp, u8, u64, u128

_GLOBAL_LEAF_TAG = b"vc:global-leaf\x00"
_REGISTRY_TAG = b"vc:registry\x00"

MAX_SEQ = SEQ_MASK  # a key's seq fills the seq half of its encoding

_KEY_PACK = struct.Struct(">QI")

KIND_MEMBER = "member"
KIND_NONMEMBER_GLOBAL = "nonmember_global"
KIND_NONMEMBER_LOCAL = "nonmember_local"

_KIND_TAGS = {KIND_MEMBER: 0, KIND_NONMEMBER_GLOBAL: 1, KIND_NONMEMBER_LOCAL: 2}
_KIND_FROM_TAG = {v: k for k, v in _KIND_TAGS.items()}

REL_LE = "le"  # nearest timestamp <= t (ties resolve to the latest seq)
REL_GE = "ge"  # nearest timestamp >= t (ties resolve to the earliest seq)
REL_KEY = "key"  # exact (timestamp, seq) key

_REL_TAGS = {REL_LE: 0, REL_GE: 1, REL_KEY: 2}
_REL_FROM_TAG = {v: k for k, v in _REL_TAGS.items()}


class UnknownEntity(KeyError):
    pass


class UnknownKey(KeyError):
    pass


class NotCommitted(RuntimeError):
    pass


class EntityIdMismatch(ValueError):
    """Node's internal id disagrees with the registry's dense assignment."""


@dataclass(frozen=True, slots=True, order=True)
class TimestampKey:
    """Total order over (timestamp, seq); encodes to a 96-bit tree key."""

    timestamp: int
    seq: int

    def encoded(self) -> int:
        return (self.timestamp << 32) | self.seq

    @classmethod
    def from_encoded(cls, value: int) -> "TimestampKey":
        return cls(value >> 32, value & MAX_SEQ)

    def to_bytes(self) -> bytes:
        return _KEY_PACK.pack(self.timestamp, self.seq)

    @classmethod
    def read_from(cls, r: Reader) -> "TimestampKey":
        return cls(*_KEY_PACK.unpack(r.take(_KEY_PACK.size)))


@dataclass(frozen=True, slots=True)
class Relation:
    op: str  # REL_LE / REL_GE / REL_KEY
    value: int  # timestamp for le/ge, encoded key for REL_KEY

    def local_bound(self) -> tuple[str, int]:
        """Map the timestamp relation to a local-tree key search."""
        if self.op == REL_LE:
            return dimtree.REL_LE, TimestampKey(self.value, MAX_SEQ).encoded()
        if self.op == REL_GE:
            return dimtree.REL_GE, TimestampKey(self.value, 0).encoded()
        return dimtree.REL_EXACT, self.value

    def to_bytes(self) -> bytes:
        return u8(_REL_TAGS[self.op]) + u128(self.value)

    @classmethod
    def read_from(cls, r: Reader) -> "Relation":
        op = _REL_FROM_TAG.get(r.u8())
        if op is None:
            raise WireError("unknown relation tag")
        return cls(op, r.u128())


def global_leaf_digest(entity_ext: str, local_root: bytes) -> bytes:
    """Payload of a global leaf: binds the external id to the local root."""
    return hash_bytes(_GLOBAL_LEAF_TAG + str_lp(entity_ext) + local_root)


def registry_digest_of(entities: list[str]) -> bytes:
    """Digest of the dense external-id registry, in internal-id order.

    Entries are length-prefixed (self-delimiting), so the registry is
    append-only hashable: the accumulator keeps a running hasher instead of
    rehashing the whole list at every commit.
    """
    h = hashlib.sha3_256(_REGISTRY_TAG)
    for e in entities:
        h.update(str_lp(e))
    return h.digest()


def registry_bytes(registry: list[str]) -> bytes:
    """External-id list as proofs carry it."""
    return seq(registry, str_lp)


def read_registry(r: Reader) -> list[str]:
    return r.seq(Reader.str_lp)


def _search_tail(internal_id, global_proof, local, registry) -> bytes:
    """Fields NodeProof and RangeProof share: the internal id (0 for an
    unknown entity), the optional global search proof, the optional local
    proof and the optional registry snapshot."""
    return b"".join((
        u64(internal_id or 0),
        optional(global_proof),
        optional(local),
        optional(registry, registry_bytes),
    ))


def _read_search_tail(r: Reader, read_local) -> tuple:
    """Inverse of _search_tail. Every proof carries a global proof and
    exactly one of a local proof and a registry; the registry marks an
    unknown entity, whose internal id travels as 0, and only as 0. So one
    answer has one accepted encoding."""
    internal_id = r.u64()
    gp = r.optional(SearchProof.read_from)
    local = r.optional(read_local)
    registry = r.optional(read_registry)
    if gp is None or (local is None) == (registry is None):
        raise WireError("a proof carries a global proof and a local proof or a registry")
    if registry is None:
        return internal_id, gp, local, None
    if internal_id != 0:
        raise WireError("internal id on an unknown-entity proof")
    return None, gp, None, registry


@dataclass(slots=True)
class NodeProof:
    """Evidence for a single-node query outcome.

    member / nonmember_local carry both a global and a local path, and no
    registry; nonmember_global carries the committed registry snapshot plus
    a global absence path for the next dense internal id, and no local path.
    """

    kind: str
    entity_ext: str
    internal_id: int | None
    global_proof: SearchProof | None
    local_proof: SearchProof | None
    registry: list[str] | None = None

    def to_bytes(self) -> bytes:
        return (
            u8(1)
            + u8(_KIND_TAGS[self.kind])
            + str_lp(self.entity_ext)
            + _search_tail(self.internal_id, self.global_proof, self.local_proof, self.registry)
        )

    @classmethod
    def read_from(cls, r: Reader) -> "NodeProof":
        if r.u8() != 1:
            raise WireError("unsupported node proof version")
        kind = _KIND_FROM_TAG.get(r.u8())
        if kind is None:
            raise WireError("unknown proof kind")
        entity_ext = r.str_lp()
        internal_id, gp, lp, registry = _read_search_tail(r, SearchProof.read_from)
        if (registry is not None) != (kind == KIND_NONMEMBER_GLOBAL):
            raise WireError("a registry travels with, and only with, a nonmember_global proof")
        return cls(kind, entity_ext, internal_id, gp, lp, registry)

    @classmethod
    def from_bytes(cls, data: bytes) -> "NodeProof":
        return decode(data, cls.read_from)


@dataclass(slots=True)
class NodeProofResult:
    found: bool
    node_key: TimestampKey | None
    proof: NodeProof

    def to_bytes(self) -> bytes:
        out = [flag(self.found)]
        if self.found:
            out.append(self.node_key.to_bytes())
        out.append(self.proof.to_bytes())
        return b"".join(out)

    @classmethod
    def read_from(cls, r: Reader) -> "NodeProofResult":
        found = r.flag()
        key = TimestampKey.read_from(r) if found else None
        return cls(found, key, NodeProof.read_from(r))


@dataclass(slots=True)
class RangeProof:
    """A global path plus either the local range search (known entity) or
    the registry snapshot (unknown entity)."""

    entity_ext: str
    internal_id: int | None
    global_proof: SearchProof | None
    local_range: RangeSearchResult | None
    registry: list[str] | None = None  # set when the entity itself is unknown

    def to_bytes(self) -> bytes:
        return (
            u8(1)
            + str_lp(self.entity_ext)
            + _search_tail(self.internal_id, self.global_proof, self.local_range, self.registry)
        )

    @classmethod
    def read_from(cls, r: Reader) -> "RangeProof":
        if r.u8() != 1:
            raise WireError("unsupported range proof version")
        return cls(r.str_lp(), *_read_search_tail(r, RangeSearchResult.read_from))


@dataclass(slots=True)
class RangeResult:
    found: bool
    leaves: list[LeafRecord]
    proof: RangeProof


class Accumulator:
    """Single-writer accumulator over one endpoint's version nodes."""

    def __init__(self):
        self.registry: dict[str, int] = {}
        self.registry_order: list[str] = []
        self.locals: dict[int, DimTree] = {}
        self.global_tree = DimTree()
        self._dirty: set[int] = set()
        self._registry_hasher = hashlib.sha3_256(_REGISTRY_TAG)
        self._committed_registry_digest = registry_digest_of([])
        self.sync_ops = 0  # register + update calls, for commitment batching tests

    def fork(self) -> "Accumulator":
        """Independent copy; cheap because DimTrees share internal nodes."""
        other = Accumulator()
        other.registry = dict(self.registry)
        other.registry_order = list(self.registry_order)
        other.locals = {k: t.fork() for k, t in self.locals.items()}
        other.global_tree = self.global_tree.fork()
        other._dirty = set(self._dirty)
        other._registry_hasher = self._registry_hasher.copy()
        other._committed_registry_digest = self._committed_registry_digest
        other.sync_ops = self.sync_ops
        return other

    # -- write side ----------------------------------------------------------

    def _assign_id(self, entity_ext: str) -> int:
        internal = self.registry.get(entity_ext)
        if internal is None:
            internal = len(self.registry_order)
            self.registry[entity_ext] = internal
            self.registry_order.append(entity_ext)
            self.locals[internal] = DimTree()
            self._registry_hasher.update(str_lp(entity_ext))
        return internal

    def register_node(self, node) -> None:
        """Insert a node's leaf into its entity's local tree.

        `node` provides entity_ext, entity_id, ref (entity id, encoded key)
        and leaf_digest(); first sight of an entity creates its registry
        entry.
        """
        internal = self.registry.get(node.entity_ext)
        if internal is None:
            internal = self._assign_id(node.entity_ext)
        if node.entity_id != internal:
            raise EntityIdMismatch(
                f"node carries id {node.entity_id}, registry assigned {internal}"
            )
        self.locals[internal].insert(LeafRecord(node.ref[1], node.leaf_digest()))
        self._dirty.add(internal)
        self.sync_ops += 1

    def update_node(self, entity_ext: str, key: TimestampKey, new_digest: bytes) -> None:
        internal = self.registry.get(entity_ext)
        if internal is None:
            raise UnknownEntity(entity_ext)
        tree = self.locals[internal]
        index = tree.find_index(key.encoded())
        if index is None:
            raise UnknownKey(f"{entity_ext}@{key}")
        tree.update(index, new_digest)
        self._dirty.add(internal)
        self.sync_ops += 1

    def commit(self) -> bytes:
        """Finalize dirty locals, fold them into the global tree, return R.

        Only commit() writes the global tree, so between commits its leaves
        are the committed entities and its finalized root is the committed R.
        """
        if not self.locals:
            raise dimtree.EmptyTree("nothing registered")
        for internal in sorted(self._dirty):
            local_root = self.locals[internal].finalize()
            payload = global_leaf_digest(self.registry_order[internal], local_root)
            if internal < len(self.global_tree):
                self.global_tree.update(internal, payload)
            else:  # dense ids: a new entity's leaf appends in id order
                self.global_tree.insert(LeafRecord(internal, payload))
        self._dirty.clear()
        self._committed_registry_digest = self._registry_hasher.copy().digest()
        return self.global_tree.finalize()

    @property
    def committed_root(self) -> bytes:
        if not self.global_tree.finalized:
            raise NotCommitted("commit() has not run")
        return self.global_tree.root

    def committed_registry(self) -> list[str]:
        return self.registry_order[: len(self.global_tree)]

    def registry_digest(self) -> bytes:
        return self._committed_registry_digest

    # -- proof side (reads the committed snapshot) ---------------------------

    def _committed_id(self, entity_ext: str) -> int | None:
        internal = self.registry.get(entity_ext)
        if internal is None or internal >= len(self.global_tree):
            return None
        return internal

    def prove_node(self, entity_ext: str, relation: Relation) -> NodeProofResult:
        if not self.global_tree.finalized:
            raise NotCommitted("commit() has not run")
        internal = self._committed_id(entity_ext)
        if internal is None:
            # absence of the next dense id doubles as a tree-bounds proof
            gp = self.global_tree.search_exact(len(self.global_tree))
            proof = NodeProof(
                KIND_NONMEMBER_GLOBAL, entity_ext, None, gp, None,
                registry=self.committed_registry(),
            )
            return NodeProofResult(False, None, proof)
        gp = self.global_tree.search_exact(internal)
        op, bound = relation.local_bound()
        lp = self.locals[internal].search(op, bound)
        kind = KIND_MEMBER if lp.found else KIND_NONMEMBER_LOCAL
        key = TimestampKey.from_encoded(lp.leaf.key) if lp.found else None
        return NodeProofResult(
            lp.found, key, NodeProof(kind, entity_ext, internal, gp, lp)
        )

    def prove_range(self, entity_ext: str, a: int, b: int) -> RangeResult:
        if not self.global_tree.finalized:
            raise NotCommitted("commit() has not run")
        if a > b:
            raise ValueError("invalid range: a > b")
        internal = self._committed_id(entity_ext)
        if internal is None:
            gp = self.global_tree.search_exact(len(self.global_tree))
            return RangeResult(
                False, [],
                RangeProof(entity_ext, None, gp, None, registry=self.committed_registry()),
            )
        gp = self.global_tree.search_exact(internal)
        lo = TimestampKey(a, 0).encoded()
        hi = TimestampKey(b, MAX_SEQ).encoded()
        local = self.locals[internal].range_search(lo, hi)
        return RangeResult(
            local.found, list(local.leaves) if local.found else [],
            RangeProof(entity_ext, internal, gp, local),
        )

    def prove_members(self, keys: dict[int, list[int]]) -> tuple[MultiProof, list[MultiProof]]:
        """Membership of committed leaves, given as {internal id: keys}: one
        global multiproof over the internal ids and one local multiproof
        per entity, in internal-id order."""
        if not self.global_tree.finalized:
            raise NotCommitted("commit() has not run")
        ids = sorted(keys)
        global_proof, _ = self.global_tree.multiproof(dimtree.key_set(ids))
        local = [self.locals[i].multiproof(dimtree.key_set(sorted(keys[i])))[0] for i in ids]
        return global_proof, local


# -- verification (pure, snapshot-free) --------------------------------------


def _verify_global_member(
    root: bytes, entity_ext: str, internal_id: int, local_root: bytes, gp: SearchProof
) -> bool:
    """The global path must tie (entity_ext, local_root) to the root."""
    if not gp.found or gp.leaf is None:
        return False
    if gp.leaf.key != internal_id:
        return False
    if gp.leaf.payload != global_leaf_digest(entity_ext, local_root):
        return False
    return dimtree.verify_path(root, dimtree.REL_EXACT, internal_id, gp)


def _verify_unknown(root: bytes, entity_ext: str, proof, registry_digest) -> bool:
    """Unknown entity: the shipped registry hashes to the signed digest and
    omits entity_ext, and the next dense id is absent from the global tree."""
    return (
        proof.registry is not None
        and proof.global_proof is not None
        and registry_digest is not None
        and registry_digest_of(proof.registry) == registry_digest
        and entity_ext not in proof.registry
        and dimtree.verify_path(
            root, dimtree.REL_EXACT, len(proof.registry), proof.global_proof
        )
    )


def verify_node(
    root: bytes,
    entity_ext: str,
    relation: Relation,
    result: NodeProofResult,
    registry_digest: bytes | None = None,
) -> bool:
    """Validate a node query outcome against a committed root.

    registry_digest (from the signed commitment) is required only to check
    unknown-entity non-membership.
    """
    proof = result.proof
    if proof.entity_ext != entity_ext:
        return False
    op, bound = relation.local_bound()

    if proof.kind == KIND_NONMEMBER_GLOBAL:
        return not result.found and _verify_unknown(root, entity_ext, proof, registry_digest)

    if proof.global_proof is None or proof.local_proof is None:
        return False
    lp = proof.local_proof

    if proof.kind == KIND_MEMBER:
        if not result.found or not lp.found or lp.leaf is None:
            return False
        if result.node_key is None or result.node_key.encoded() != lp.leaf.key:
            return False
    elif proof.kind == KIND_NONMEMBER_LOCAL:
        if result.found or lp.found:
            return False
    else:
        return False

    # reconstruct the local root from the local path, then tie it globally
    local_root = dimtree.reconstruct_path(op, bound, lp)
    if local_root is None:
        return False
    return _verify_global_member(
        root, entity_ext, proof.internal_id, local_root, proof.global_proof
    )


def verify_range(
    root: bytes,
    entity_ext: str,
    a: int,
    b: int,
    result: RangeResult,
    registry_digest: bytes | None = None,
) -> bool:
    if a > b:
        return False
    proof = result.proof
    if proof.entity_ext != entity_ext:
        return False
    if proof.registry is not None:
        return not (result.found or result.leaves) and _verify_unknown(
            root, entity_ext, proof, registry_digest
        )
    local = proof.local_range
    if local is None or proof.global_proof is None:
        return False
    if result.found != local.found or result.leaves != (local.leaves if local.found else []):
        return False
    lo = TimestampKey(a, 0).encoded()
    hi = TimestampKey(b, MAX_SEQ).encoded()
    local_root = dimtree.reconstruct_range(lo, hi, local)
    if local_root is None:
        return False
    return _verify_global_member(
        root, entity_ext, proof.internal_id, local_root, proof.global_proof
    )


def members_root(
    global_proof: MultiProof,
    members: list[tuple[int, str, list[LeafRecord], MultiProof]],
) -> bytes | None:
    """The root prove_members' proofs commit to, or None if invalid.

    `members` holds, in ascending internal-id order, each entity's internal
    id, external id, expected leaves in ascending key order and local
    multiproof. Each local root is rebuilt from its leaves and folded into
    the entity's global leaf, which binds the external id.
    """
    global_leaves = []
    for internal_id, entity_ext, leaves, local_proof in members:
        keys = [leaf.key for leaf in leaves]
        local_root = dimtree.fold_multiproof(local_proof, dimtree.key_set(keys), leaves)
        if local_root is None:
            return None
        global_leaves.append(LeafRecord(internal_id, global_leaf_digest(entity_ext, local_root)))
    ids = [leaf.key for leaf in global_leaves]
    return dimtree.fold_multiproof(global_proof, dimtree.key_set(ids), global_leaves)
