"""Tamper controls: mutated copies of an honest proof bundle.

Each mutant must be rejected by the administrator. A benchmark run counts
an accepted mutant as a failed operation, so a build that gets faster by
checking less fails the benchmark instead of winning it.
"""

from __future__ import annotations

import dataclasses

from vcause.causality import ProofBundle
from vcause.hashcore import MSET_BYTES, MsetDigest


def _proof_steps(bundle: ProofBundle) -> list[tuple[list, int]]:
    """(step list, index) of every search-path step in the POI proof."""
    proof = bundle.poi_proof.proof
    out = []
    for sp in (proof.global_proof, proof.local_proof):
        if sp is not None:
            out.extend((sp.steps, i) for i in range(len(sp.steps)))
    return out


def _flip(data: bytes, rng) -> bytes:
    out = bytearray(data)
    out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
    return bytes(out)


def flip_digest(data: bytes, rng) -> ProofBundle | None:
    """Flip one byte of one component digest. An answer without components
    gets one byte flipped in a proof-path hash, or in the hash at the end of
    its global absence path."""
    bundle = ProofBundle.from_bytes(data)
    nodes = list(bundle.backward_nodes or [])
    for seg in bundle.forward_segments or []:
        nodes.extend(seg.nodes)
    if nodes:
        node = rng.choice(nodes)
        mask = rng.randrange(1, 256) << (8 * rng.randrange(MSET_BYTES))
        node.pi = MsetDigest(node.pi.value ^ mask)
        return bundle
    steps = _proof_steps(bundle)
    if steps:
        seq, i = rng.choice(steps)
        seq[i] = dataclasses.replace(seq[i], hash=_flip(seq[i].hash, rng))
        return bundle
    gp = bundle.poi_proof.proof.global_proof
    end = gp.terminus if gp is not None else None
    if end is None:
        return None
    if end.leaf is not None:
        leaf = dataclasses.replace(end.leaf, payload=_flip(end.leaf.payload, rng))
        gp.terminus = dataclasses.replace(end, leaf=leaf)
    else:
        gp.terminus = dataclasses.replace(end, left=(_flip(end.left[0], rng),) + end.left[1:])
    return bundle


def drop_edge(data: bytes, rng) -> ProofBundle | None:
    """Drop one component edge; an answer without edges loses one registry
    entry (unknown entity) or one proof-path step instead."""
    bundle = ProofBundle.from_bytes(data)
    edge_lists = [bundle.backward_edges or []]
    edge_lists.extend(seg.edges for seg in bundle.forward_segments or [])
    slots = [(edges, i) for edges in edge_lists for i in range(len(edges))]
    if not slots:
        registry = bundle.poi_proof.proof.registry
        if registry:
            slots = [(registry, rng.randrange(len(registry)))]
        else:
            slots = _proof_steps(bundle)
    if not slots:
        return None
    seq, i = rng.choice(slots)
    del seq[i]
    return bundle


def stale_commitment(data: bytes, earlier) -> ProofBundle:
    """The honest answer presented under an earlier, validly signed epoch."""
    bundle = ProofBundle.from_bytes(data)
    bundle.commitment = earlier
    return bundle


def mutants(data: bytes, earlier, rng) -> list[tuple[str, ProofBundle]]:
    out = [
        ("flip-digest", flip_digest(data, rng)),
        ("drop-edge", drop_edge(data, rng)),
        ("stale-commitment", stale_commitment(data, earlier)),
    ]
    return [(kind, b) for kind, b in out if b is not None]
