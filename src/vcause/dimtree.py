"""Dynamic indexed Merkle tree (DIM-Tree).

An append-ordered Merkle forest of perfect binary subtrees. Leaves carry
monotone integer keys; every internal node stores the min/max key of its
subtree and binds them into its hash, so search-path proofs can also prove
that the matched leaf satisfies a keyword relation (exact match, floor,
ceiling) or that no leaf does, and one multiproof can reveal every leaf
that meets a key interval or a key set while proving that no other does.

Insertion is a subtree merge with O(1) amortized cost: after n inserts the
total number of internal-hash computations is exactly n - popcount(n).
An update only records the leaf. Finalize rehashes updated leaves with one
hash per touched node, then folds the subtree roots right to left into a
single root; the fold is cached until the next mutation.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from .wire import Reader, WireError, decode, flag, seq, u8, u16, u128

_LEAF_TAG = b"\x00"
_INTERNAL_TAG = b"\x01"

SIDE_LEFT = 0  # sibling sits to the left of the walk
SIDE_RIGHT = 1

REL_EXACT = "exact"
REL_LE = "le"  # greatest key <= bound
REL_GE = "ge"  # least key >= bound

_REL_TAGS = {REL_EXACT: 0, REL_LE: 1, REL_GE: 2}
_REL_FROM_TAG = {v: k for k, v in _REL_TAGS.items()}


class OutOfOrderKey(ValueError):
    """Insert key below the current maximum; appends must be monotone."""


class EmptyTree(ValueError):
    """Operation requires at least one leaf."""


class NotFinalized(RuntimeError):
    """Searches run against a finalized root; call finalize() first."""


class LeafIndexError(IndexError):
    """Leaf index outside the tree."""


class HashCounters:
    """Instrumentation for scaling tests: counts hash computations."""

    __slots__ = ("internal", "leaf")

    def __init__(self):
        self.internal = 0
        self.leaf = 0

    def reset(self) -> None:
        self.internal = 0
        self.leaf = 0


#: Module-wide counter covering both tree maintenance and proof verification.
counters = HashCounters()


@dataclass(frozen=True, slots=True)
class LeafRecord:
    key: int
    payload: bytes

    def to_bytes(self) -> bytes:
        return u128(self.key) + self.payload

    @classmethod
    def read_from(cls, r: Reader) -> "LeafRecord":
        return cls(r.u128(), r.take(32))


_LEAF_KEY = attrgetter("key")


class _Node:
    # min_bytes/max_bytes are u128(min_key)/u128(max_key), the interval as
    # a parent's hash preimage binds it; a parent shares its outer
    # children's objects, so a merge builds no bound bytes
    __slots__ = (
        "hash", "min_key", "max_key", "height", "count", "left", "right", "min_bytes", "max_bytes"
    )

    def __init__(self, hash_, min_key, max_key, height, count, left, right, min_bytes, max_bytes):
        self.hash = hash_
        self.min_key = min_key
        self.max_key = max_key
        self.height = height
        self.count = count
        self.left = left
        self.right = right
        self.min_bytes = min_bytes
        self.max_bytes = max_bytes


def _leaf_node(leaf: LeafRecord) -> _Node:
    counters.leaf += 1
    key = leaf.key
    kb = key.to_bytes(16, "big")  # u128(key)
    return _Node(
        hashlib.sha3_256(_LEAF_TAG + kb + leaf.payload).digest(), key, key, 1, 1, None, None, kb, kb
    )


def _leaf_hash(key: int, payload: bytes) -> bytes:
    """_leaf_node's hash, without the node."""
    counters.leaf += 1
    return hashlib.sha3_256(_LEAF_TAG + key.to_bytes(16, "big") + payload).digest()


_BOUNDS = struct.Struct(">8Q")  # four u128 bounds as eight u64 halves
_LOW64 = (1 << 64) - 1


def _internal_hash(
    left_hash: bytes,
    right_hash: bytes,
    l_min: int,
    l_max: int,
    r_min: int,
    r_max: int,
) -> bytes:
    # Both children's full intervals go into the preimage. Binding only the
    # node's own (min, max) would leave the inner boundaries (left child's
    # max, right child's min) unauthenticated, and those are exactly the
    # fields floor/ceiling and gap-absence checks rely on.
    counters.internal += 1
    return hashlib.sha3_256(_INTERNAL_TAG + left_hash + right_hash + _BOUNDS.pack(
        l_min >> 64, l_min & _LOW64, l_max >> 64, l_max & _LOW64,
        r_min >> 64, r_min & _LOW64, r_max >> 64, r_max & _LOW64,
    )).digest()


def _merge(left: _Node, right: _Node) -> _Node:
    """The parent of two subtree roots; its hash preimage is the one
    _internal_hash builds, from the children's stored bound bytes."""
    counters.internal += 1
    return _Node(
        hashlib.sha3_256(b"".join((
            _INTERNAL_TAG, left.hash, right.hash,
            left.min_bytes, left.max_bytes, right.min_bytes, right.max_bytes,
        ))).digest(),
        left.min_key,
        right.max_key,
        left.height + 1,
        left.count + right.count,
        left,
        right,
        left.min_bytes,
        right.max_bytes,
    )


@dataclass(frozen=True, slots=True)
class PathStep:
    """One sibling on the root-to-terminus walk."""

    side: int  # SIDE_LEFT or SIDE_RIGHT: where the sibling sits
    min_key: int
    max_key: int
    hash: bytes

    def to_bytes(self) -> bytes:
        return b"".join((
            u8(self.side), u128(self.min_key), u128(self.max_key), self.hash
        ))

    @classmethod
    def read_from(cls, r: Reader) -> "PathStep":
        return cls(r.u8(), r.u128(), r.u128(), r.take(32))


def _steps_bytes(steps: list[PathStep]) -> bytes:
    return u16(len(steps)) + b"".join(s.to_bytes() for s in steps)


def _read_steps(r: Reader) -> list[PathStep]:
    return [PathStep.read_from(r) for _ in range(r.u16())]


@dataclass(frozen=True, slots=True)
class Terminus:
    """Deepest node proving absence.

    Either a leaf (single-leaf tree mismatch) or an internal node exposed
    with both child summaries so the verifier can recompute its hash and
    check the key gap between the children.
    """

    leaf: LeafRecord | None
    left: tuple[bytes, int, int] | None  # (hash, min_key, max_key)
    right: tuple[bytes, int, int] | None

    @property
    def min_key(self) -> int:
        return self.leaf.key if self.leaf is not None else self.left[1]

    @property
    def max_key(self) -> int:
        return self.leaf.key if self.leaf is not None else self.right[2]


@dataclass(slots=True)
class SearchProof:
    relation: str
    key: int
    found: bool
    leaf: LeafRecord | None
    steps: list[PathStep]
    terminus: Terminus | None

    def to_bytes(self) -> bytes:
        out = [u8(1), u8(_REL_TAGS[self.relation]), u128(self.key), flag(self.found)]
        if self.found:
            out.append(self.leaf.to_bytes())
        out.append(_steps_bytes(self.steps))
        if not self.found:
            t = self.terminus
            if t.leaf is not None:
                out.extend((u8(0), t.leaf.to_bytes()))
            else:
                out.append(u8(1))
                for h, mn, mx in (t.left, t.right):
                    out.extend((h, u128(mn), u128(mx)))
        return b"".join(out)

    @classmethod
    def read_from(cls, r: Reader) -> "SearchProof":
        if r.u8() != 1:
            raise WireError("unsupported search proof version")
        relation = _REL_FROM_TAG.get(r.u8())
        if relation is None:
            raise WireError("unknown relation tag")
        key = r.u128()
        found = r.flag()
        leaf = LeafRecord.read_from(r) if found else None
        steps = _read_steps(r)
        terminus = None
        if not found:
            kind = r.u8()
            if kind == 0:
                terminus = Terminus(LeafRecord.read_from(r), None, None)
            elif kind == 1:
                left = (r.take(32), r.u128(), r.u128())
                right = (r.take(32), r.u128(), r.u128())
                terminus = Terminus(None, left, right)
            else:
                raise WireError("unknown terminus kind")
        return cls(relation, key, found, leaf, steps, terminus)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SearchProof":
        return decode(data, cls.read_from)


# Node kinds of a multiproof walk besides opaque (hash, min, max) summaries.
EXPANDED_INTERNAL = "internal"
EXPANDED_LEAF = "leaf"
_SUMMARY = struct.Struct(">32sQQQQ")  # opaque summary: hash || u128 min || u128 max
_MIN_MAX = struct.Struct(">QQQQ")  # its u128 min || u128 max


def interval(lo: int, hi: int):
    """Multiproof query: does a key interval [mn, mx] meet [lo, hi]?"""
    return lambda mn, mx: mn <= hi and lo <= mx


def key_set(keys: list[int]):
    """Multiproof query: does [mn, mx] hold one of these keys (ascending)?"""

    def meets(mn: int, mx: int) -> bool:
        i = bisect_left(keys, mn)
        return i < len(keys) and keys[i] <= mx

    return meets


@dataclass(slots=True)
class MultiProof:
    """One proof for every leaf that meets a query (compact Merkle
    multiproofs, Ramabaja & Avdullahu, arXiv 2002.07648).

    `nodes` is the root-first DFS walk of the tree: EXPANDED_INTERNAL (its
    two children follow), EXPANDED_LEAF (the next revealed leaf, which
    travels beside the proof) or an opaque (hash, min, max) summary. The
    root is always expanded, because nothing binds its own interval; below
    it a node is expanded iff its hash-bound interval meets the query, so
    one tree and one query give exactly one proof.
    """

    nodes: list

    def to_bytes(self) -> bytes:
        out = []
        for node in self.nodes:
            if node is EXPANDED_INTERNAL:
                out.append(b"\x01\x01")
            elif node is EXPANDED_LEAF:
                out.append(b"\x01\x00")
            else:
                h, mn, mx = node
                bounds = _MIN_MAX.pack(mn >> 64, mn & _LOW64, mx >> 64, mx & _LOW64)
                out.append(b"\x00" + h + bounds)
        return b"".join(out)

    @classmethod
    def read_from(cls, r: Reader) -> "MultiProof":
        nodes = []
        open_slots = 1
        while open_slots:
            open_slots -= 1
            if not r.flag():
                h, min_hi, min_lo, max_hi, max_lo = r.unpack(_SUMMARY)
                nodes.append((h, (min_hi << 64) | min_lo, (max_hi << 64) | max_lo))
            elif r.flag():
                nodes.append(EXPANDED_INTERNAL)
                open_slots += 2
            else:
                nodes.append(EXPANDED_LEAF)
        return cls(nodes)


@dataclass(slots=True)
class RangeSearchResult:
    """Every leaf with key in [lo, hi], proven by an interval multiproof.

    A one-leaf tree whose leaf misses the range reveals that leaf instead:
    it is the root, and the root is always expanded.
    """

    lo: int
    hi: int
    leaves: list[LeafRecord]
    proof: MultiProof

    @property
    def found(self) -> bool:
        return any(self.lo <= leaf.key <= self.hi for leaf in self.leaves)

    def to_bytes(self) -> bytes:
        return b"".join((
            u8(2), u128(self.lo), u128(self.hi),
            seq(self.leaves, LeafRecord.to_bytes), self.proof.to_bytes(),
        ))

    @classmethod
    def read_from(cls, r: Reader) -> "RangeSearchResult":
        if r.u8() != 2:
            raise WireError("unsupported range proof version")
        lo, hi = r.u128(), r.u128()
        return cls(lo, hi, r.seq(LeafRecord.read_from), MultiProof.read_from(r))

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeSearchResult":
        return decode(data, cls.read_from)


class DimTree:
    """Single-writer dynamic indexed Merkle tree.

    Leaves append in non-decreasing key order. Readers may search a
    finalized tree concurrently; callers serialize mutations.
    """

    def __init__(self):
        self.leaves: list[LeafRecord] = []
        self._stack: list[_Node] = []
        self._stale: set[int] = set()  # updated leaves that finalize() rehashes
        self._root: _Node | None = None

    def __len__(self) -> int:
        return len(self.leaves)

    @property
    def finalized(self) -> bool:
        return self._root is not None

    def insert(self, leaf: LeafRecord) -> None:
        if self.leaves and leaf.key < self.leaves[-1].key:
            raise OutOfOrderKey(
                f"key {leaf.key} below current max {self.leaves[-1].key}"
            )
        node = _leaf_node(leaf)
        while self._stack and self._stack[-1].height == node.height:
            node = _merge(self._stack.pop(), node)
        self._stack.append(node)
        self.leaves.append(leaf)
        self._root = None

    def update(self, leaf_index: int, new_payload: bytes) -> None:
        """Replace a leaf's payload; finalize() rehashes it and its path."""
        if not 0 <= leaf_index < len(self.leaves):
            raise LeafIndexError(f"leaf {leaf_index} of {len(self.leaves)}")
        self.leaves[leaf_index] = LeafRecord(self.leaves[leaf_index].key, new_payload)
        self._stale.add(leaf_index)
        self._root = None

    def fork(self) -> "DimTree":
        """O(leaves) copy sharing all internal nodes with this tree."""
        other = DimTree()
        other.leaves = list(self.leaves)
        other._stack = list(self._stack)
        other._stale = set(self._stale)
        other._root = self._root
        return other

    def finalize(self) -> bytes:
        """Rehash the updated leaves' paths, then fold the slots into the root."""
        if not self.leaves:
            raise EmptyTree("cannot finalize an empty tree")
        if self._root is None:
            stale = sorted(self._stale)
            self._stale.clear()
            base = 0
            for slot, node in enumerate(self._stack):
                cut = bisect_left(stale, base + node.count)
                if cut:
                    self._stack[slot] = self._rebuild(node, base, stale[:cut])
                    del stale[:cut]
                base += node.count
            acc = self._stack[-1]
            for node in self._stack[-2::-1]:
                acc = _merge(node, acc)
            self._root = acc
        return self._root.hash

    def _rebuild(self, node: _Node, first: int, stale: list[int]) -> _Node:
        # a path copy (forks share `node`) of the subtree whose first leaf is
        # `first`, rehashing the sorted leaf indices `stale` and their paths
        if node.height == 1:
            return _leaf_node(self.leaves[first])
        mid = first + node.count // 2
        cut = bisect_left(stale, mid)
        left = self._rebuild(node.left, first, stale[:cut]) if cut else node.left
        right = self._rebuild(node.right, mid, stale[cut:]) if cut < len(stale) else node.right
        return _merge(left, right)

    @property
    def root(self) -> bytes:
        if self._root is None:
            raise NotFinalized("tree has unfinalized changes")
        return self._root.hash

    def find_index(self, key: int) -> int | None:
        """Index of the leaf with exactly this key, if present."""
        i = bisect_left(self.leaves, key, key=_LEAF_KEY)
        if i < len(self.leaves) and self.leaves[i].key == key:
            return i
        return None

    # -- search / proofs ----------------------------------------------------

    def _require_root(self) -> _Node:
        if self._root is None:
            raise NotFinalized("tree has unfinalized changes")
        return self._root

    @staticmethod
    def _step_for(node: _Node, side: int) -> PathStep:
        return PathStep(side, node.min_key, node.max_key, node.hash)

    def search_exact(self, key: int) -> SearchProof:
        return self.search(REL_EXACT, key)

    def search_le(self, key: int) -> SearchProof:
        return self.search(REL_LE, key)

    def search_ge(self, key: int) -> SearchProof:
        return self.search(REL_GE, key)

    def search(self, relation: str, key: int) -> SearchProof:
        node = self._require_root()
        steps: list[PathStep] = []
        lo = 0
        while node.height > 1:
            l, r = node.left, node.right
            if relation == REL_EXACT:
                go_left = l.min_key <= key <= l.max_key
                go_right = (not go_left) and r.min_key <= key <= r.max_key
            elif relation == REL_LE:
                go_right = key >= r.min_key
                go_left = (not go_right) and key >= l.min_key
            else:  # REL_GE
                go_left = key <= l.max_key
                go_right = (not go_left) and key <= r.max_key
            if go_left:
                steps.append(self._step_for(r, SIDE_RIGHT))
                node = l
            elif go_right:
                steps.append(self._step_for(l, SIDE_LEFT))
                lo += l.count
                node = r
            else:
                terminus = Terminus(
                    None,
                    (l.hash, l.min_key, l.max_key),
                    (r.hash, r.min_key, r.max_key),
                )
                return SearchProof(relation, key, False, None, steps, terminus)
        leaf = self.leaves[lo]
        satisfied = (
            leaf.key == key
            if relation == REL_EXACT
            else leaf.key <= key
            if relation == REL_LE
            else leaf.key >= key
        )
        if not satisfied:
            # only reachable when the root itself is a leaf
            return SearchProof(relation, key, False, None, steps, Terminus(leaf, None, None))
        return SearchProof(relation, key, True, leaf, steps, None)

    def range_search(self, lo: int, hi: int) -> RangeSearchResult:
        """All leaves with key in [lo, hi], with one interval multiproof."""
        if lo > hi:
            raise ValueError("range lower bound above upper bound")
        proof, leaves = self.multiproof(interval(lo, hi))
        return RangeSearchResult(lo, hi, leaves, proof)

    def multiproof(self, meets) -> tuple[MultiProof, list[LeafRecord]]:
        """The multiproof for a query predicate (interval or key_set), and
        the leaves it reveals in key order."""
        root = self._require_root()
        nodes: list = []
        leaves: list[LeafRecord] = []
        stack = [(root, 0)]  # (node, index of its first leaf)
        while stack:
            node, first = stack.pop()
            if node is not root and not meets(node.min_key, node.max_key):
                nodes.append((node.hash, node.min_key, node.max_key))
            elif node.height == 1:
                nodes.append(EXPANDED_LEAF)
                leaves.append(self.leaves[first])
            else:
                nodes.append(EXPANDED_INTERNAL)
                stack.append((node.right, first + node.left.count))
                stack.append((node.left, first))
        return MultiProof(nodes), leaves


# -- verification (pure functions, no tree access) --------------------------


def _fold_steps(leaf_hash: bytes, leaf_min: int, leaf_max: int, steps) -> tuple | None:
    """Recombine a terminus summary with its siblings bottom-up.

    Returns (hash, min, max) of the reconstructed root, or None if sibling
    intervals are inconsistent with the recorded sides.
    """
    cur_hash, cur_min, cur_max = leaf_hash, leaf_min, leaf_max
    for s in reversed(steps):
        if s.min_key > s.max_key:
            return None
        if s.side == SIDE_LEFT:
            if s.max_key > cur_min:
                return None
            cur_hash = _internal_hash(
                s.hash, cur_hash, s.min_key, s.max_key, cur_min, cur_max
            )
            cur_min = s.min_key
        elif s.side == SIDE_RIGHT:
            if s.min_key < cur_max:
                return None
            cur_hash = _internal_hash(
                cur_hash, s.hash, cur_min, cur_max, s.min_key, s.max_key
            )
            cur_max = s.max_key
        else:
            return None
    return cur_hash, cur_min, cur_max


def reconstruct_path(relation: str, key: int, proof: SearchProof) -> bytes | None:
    """Reconstruct the root a search proof commits to, or None if invalid.

    Performs every check except root equality: the path must recombine
    consistently and the index fields must prove the claimed outcome (for
    membership that the leaf satisfies the relation and, for le/ge, that no
    better leaf was skipped; for absence that the terminus interval
    excludes every satisfying key).
    """
    if proof.relation != relation or proof.key != key:
        return None
    if proof.found:
        if proof.leaf is None:
            return None
        leaf = proof.leaf
        folded = _fold_steps(_leaf_hash(leaf.key, leaf.payload), leaf.key, leaf.key, proof.steps)
        if folded is None:
            return None
        if relation == REL_EXACT:
            ok = leaf.key == key
        elif relation == REL_LE:
            ok = leaf.key <= key and all(
                s.min_key > key for s in proof.steps if s.side == SIDE_RIGHT
            )
        elif relation == REL_GE:
            ok = leaf.key >= key and all(
                s.max_key < key for s in proof.steps if s.side == SIDE_LEFT
            )
        else:
            ok = False
        return folded[0] if ok else None
    # absence
    t = proof.terminus
    if t is None:
        return None
    if t.leaf is not None:
        if proof.steps:
            return None  # a leaf terminus is only ever the root itself
        if relation == REL_EXACT:
            ok = t.leaf.key != key
        else:
            ok = t.leaf.key > key if relation == REL_LE else t.leaf.key < key
        return _leaf_hash(t.leaf.key, t.leaf.payload) if ok else None
    (lh, lmin, lmax), (rh, rmin, rmax) = t.left, t.right
    if lmin > lmax or rmin > rmax or lmax > rmin:
        return None
    node_hash = _internal_hash(lh, rh, lmin, lmax, rmin, rmax)
    folded = _fold_steps(node_hash, lmin, rmax, proof.steps)
    if folded is None:
        return None
    if relation == REL_EXACT:
        ok = (lmax < key < rmin) or (not proof.steps and (key < lmin or key > rmax))
    elif relation == REL_LE:
        ok = not proof.steps and lmin > key
    elif relation == REL_GE:
        ok = not proof.steps and rmax < key
    else:
        ok = False
    return folded[0] if ok else None


def verify_path(root: bytes, relation: str, key: int, proof: SearchProof) -> bool:
    """Check a search proof against a committed root."""
    return reconstruct_path(relation, key, proof) == root


def fold_multiproof(proof: MultiProof, meets, leaves: list[LeafRecord]) -> bytes | None:
    """Reconstruct the root a multiproof commits to, or None if invalid.

    `leaves` are the revealed leaves in key order, consumed one per
    EXPANDED_LEAF. Checks the expand rule at every node: no opaque summary
    meets the query (so no matching leaf is left out) and every expanded
    node below the root meets it (so nothing else is revealed). Child
    intervals must not overlap.
    """
    nodes = proof.nodes
    last = len(nodes) - 1
    pending = iter(leaves)
    # per expanded node above the walk: None, or its left child's summary
    stack: list = []
    for i, node in enumerate(nodes):
        if node is EXPANDED_INTERNAL:
            stack.append(None)
            continue
        if node is EXPANDED_LEAF:
            leaf = next(pending, None)
            if leaf is None:
                return None
            key = leaf.key
            if stack and not meets(key, key):
                return None
            cur = (_leaf_hash(key, leaf.payload), key, key)
        else:
            _, mn, mx = node
            if not stack or mn > mx or meets(mn, mx):
                return None  # an opaque root or a hidden match
            cur = node
        while stack:
            left = stack.pop()
            if left is None:
                stack.append(cur)
                break
            lh, lmin, lmax = left
            rh, rmin, rmax = cur
            if lmax > rmin or (stack and not meets(lmin, rmax)):
                return None
            cur = (_internal_hash(lh, rh, lmin, lmax, rmin, rmax), lmin, rmax)
        else:
            if i != last or next(pending, None) is not None:
                return None
            return cur[0]
    return None


def reconstruct_range(lo: int, hi: int, result: RangeSearchResult) -> bytes | None:
    """Reconstruct the root a range proof commits to, or None if invalid.

    The interval multiproof proves completeness: every subtree it leaves
    opaque lies, by its hash-bound interval, outside [lo, hi].
    """
    if result.lo != lo or result.hi != hi or lo > hi:
        return None
    return fold_multiproof(result.proof, interval(lo, hi), result.leaves)


def verify_range(root: bytes, lo: int, hi: int, result: RangeSearchResult) -> bool:
    """Check a range proof against a committed root."""
    return reconstruct_range(lo, hi, result) == root
