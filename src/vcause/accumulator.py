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
from .wire import SEQ_MASK, Reader, WireError, seq, str_lp, u8, u64, u128

_GLOBAL_LEAF_TAG = b"vc:global-leaf\x00"
_REGISTRY_TAG = b"vc:registry\x00"

MAX_SEQ = SEQ_MASK  # a key's seq fills the seq half of its encoding

_KEY_PACK = struct.Struct(">QI")

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


@dataclass(slots=True)
class EntityProof:
    """Evidence for a query about one entity's versions.

    The global proof is the entity's membership path under its internal id
    with a local proof of the query's outcome (a point search or a range),
    or, for an entity unknown at the commitment, the absence path of the
    next dense id with the committed registry snapshot. Whether an answer
    is a member, a local miss or an unknown entity follows from these
    fields, so one answer has one encoding.
    """

    global_proof: SearchProof
    internal_id: int | None  # None for an unknown entity
    local_proof: SearchProof | RangeSearchResult | None
    registry: list[str] | None = None  # set when the entity itself is unknown

    def to_bytes(self) -> bytes:
        gp = self.global_proof.to_bytes()
        if self.registry is not None:
            return gp + u8(1) + registry_bytes(self.registry)
        return gp + u8(0) + u64(self.internal_id) + self.local_proof.to_bytes()

    @classmethod
    def read_from(cls, r: Reader, read_local) -> "EntityProof":
        gp = SearchProof.read_from(r)
        if r.flag():
            return cls(gp, None, None, read_registry(r))
        return cls(gp, r.u64(), read_local(r))


@dataclass(slots=True)
class NodeProofResult:
    """A point query's answer: found and the node key follow from the
    local search proof."""

    proof: EntityProof

    @property
    def found(self) -> bool:
        lp = self.proof.local_proof
        return lp is not None and lp.found

    @property
    def node_key(self) -> TimestampKey | None:
        return TimestampKey.from_encoded(self.proof.local_proof.leaf.key) if self.found else None

    def to_bytes(self) -> bytes:
        return self.proof.to_bytes()

    @classmethod
    def read_from(cls, r: Reader) -> "NodeProofResult":
        return cls(EntityProof.read_from(r, SearchProof.read_from))


@dataclass(slots=True)
class RangeResult:
    """A range query's answer: found and the leaves follow from the local
    range proof."""

    proof: EntityProof

    @property
    def found(self) -> bool:
        local = self.proof.local_proof
        return local is not None and local.found

    @property
    def leaves(self) -> list[LeafRecord]:
        return self.proof.local_proof.leaves if self.found else []


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

    def update_node(self, node) -> None:
        """Set a registered node's leaf payload to its leaf_digest()."""
        internal = self.registry.get(node.entity_ext)
        if internal is None:
            raise UnknownEntity(node.entity_ext)
        tree = self.locals[internal]
        index = tree.find_index(node.ref[1])
        if index is None:
            raise UnknownKey(f"{node.entity_ext}@{TimestampKey.from_encoded(node.ref[1])}")
        tree.update(index, node.leaf_digest())
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

    def _prove_entity(self, entity_ext: str, prove_local) -> EntityProof:
        if not self.global_tree.finalized:
            raise NotCommitted("commit() has not run")
        internal = self._committed_id(entity_ext)
        if internal is None:
            # absence of the next dense id doubles as a tree-bounds proof
            gp = self.global_tree.search_exact(len(self.global_tree))
            return EntityProof(gp, None, None, self.committed_registry())
        gp = self.global_tree.search_exact(internal)
        return EntityProof(gp, internal, prove_local(self.locals[internal]))

    def prove_node(self, entity_ext: str, relation: Relation) -> NodeProofResult:
        op, bound = relation.local_bound()
        return NodeProofResult(self._prove_entity(entity_ext, lambda tree: tree.search(op, bound)))

    def prove_range(self, entity_ext: str, a: int, b: int) -> RangeResult:
        if a > b:
            raise ValueError("invalid range: a > b")
        lo = TimestampKey(a, 0).encoded()
        hi = TimestampKey(b, MAX_SEQ).encoded()
        return RangeResult(self._prove_entity(entity_ext, lambda tree: tree.range_search(lo, hi)))

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


def _verify_entity(
    root: bytes, entity_ext: str, proof: EntityProof, local_type, local_root_of, registry_digest
) -> bool:
    """An unknown entity: the shipped registry hashes to the signed digest
    and omits entity_ext, and the next dense id is absent from the global
    tree. A committed entity: the `local_type` local proof rebuilds a local
    root (None if invalid), and the global path ties (entity_ext, local
    root) to the root under the entity's internal id."""
    gp = proof.global_proof
    if proof.registry is not None:
        return (
            proof.internal_id is None
            and proof.local_proof is None
            and registry_digest is not None
            and registry_digest_of(proof.registry) == registry_digest
            and entity_ext not in proof.registry
            and dimtree.verify_path(root, dimtree.REL_EXACT, len(proof.registry), gp)
        )
    if not isinstance(proof.local_proof, local_type):
        return False
    local_root = local_root_of(proof.local_proof)
    if local_root is None or not gp.found or gp.leaf is None:
        return False
    return (
        gp.leaf.key == proof.internal_id
        and gp.leaf.payload == global_leaf_digest(entity_ext, local_root)
        and dimtree.verify_path(root, dimtree.REL_EXACT, proof.internal_id, gp)
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
    op, bound = relation.local_bound()
    return _verify_entity(
        root, entity_ext, result.proof, SearchProof,
        lambda lp: dimtree.reconstruct_path(op, bound, lp), registry_digest,
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
    lo = TimestampKey(a, 0).encoded()
    hi = TimestampKey(b, MAX_SEQ).encoded()
    return _verify_entity(
        root, entity_ext, result.proof, RangeSearchResult,
        lambda local: dimtree.reconstruct_range(lo, hi, local), registry_digest,
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
