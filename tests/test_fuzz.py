"""Mutation fuzzing of honest proofs and snapshots: decoders raise only
WireError, verifiers never raise, no mutant that differs from the honest
bytes is accepted, and a snapshot that loads saves back to its own bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcause.accumulator import EntityProof, RangeResult, verify_range
from vcause.causality import BOTH, CausalityQuery, ProofBundle, analyze, verify_bundle
from vcause.dimtree import RangeSearchResult
from vcause import protocol
from vcause.protocol import load_state, save_state
from vcause.wire import WireError, decode

from .test_codec import le, synth_logger

# (kind, position, byte): position is taken modulo the length
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "set", "insert", "delete", "truncate"]),
        st.integers(min_value=0, max_value=1 << 32),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for kind, pos, byte in edits:
        if not out:
            break
        i = pos % len(out)
        if kind == "flip":
            out[i] ^= 1 << (byte % 8)
        elif kind == "set":
            out[i] = byte
        elif kind == "insert":
            out.insert(i, byte)
        elif kind == "delete":
            del out[i]
        else:
            del out[i:]
    return bytes(out)


@pytest.fixture(scope="module")
def logger():
    return synth_logger(seed=5, n_events=40, n_entities=5, interval=10**9)


@pytest.fixture(scope="module")
def anchored_bundle(logger):
    q = CausalityQuery("e3", le(logger.state.graph.last_ts // 2), BOTH)
    bundle = analyze(logger.state.graph, logger.state.acc, logger.commitments[-1], q)
    assert bundle.root_proofs and bundle.anchor_global is not None
    return q, bundle.to_bytes()


@pytest.fixture(scope="module")
def range_proof(logger):
    acc = logger.state.acc
    ext = max(acc.registry_order, key=lambda e: len(acc.locals[acc.registry[e]]))
    keys = [leaf.key >> 32 for leaf in acc.locals[acc.registry[ext]].leaves]
    a, b = keys[1], keys[-2]
    res = acc.prove_range(ext, a, b)
    assert len(res.leaves) >= 3
    return ext, a, b, res.proof.to_bytes()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    logger = synth_logger(seed=5, n_events=20, n_entities=5, interval=8)
    path = tmp_path_factory.mktemp("snapshot") / "state.bin"
    save_state(str(path), "ep0", logger.state, logger.commitments)
    return logger.keypair.verify_key, path, path.read_bytes()


@given(edits=_EDITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bundle_mutants_rejected(logger, anchored_bundle, edits):
    q, blob = anchored_bundle
    mutant = _mutate(blob, edits)
    if mutant == blob:
        return
    try:
        bundle = ProofBundle.from_bytes(mutant)
    except WireError:
        return
    report = verify_bundle(logger.keypair.verify_key, q, bundle)
    assert not report.accepted


@given(edits=_EDITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_range_proof_mutants_rejected(logger, range_proof, edits):
    ext, a, b, blob = range_proof
    mutant = _mutate(blob, edits)
    if mutant == blob:
        return
    try:
        proof = decode(mutant, lambda r: EntityProof.read_from(r, RangeSearchResult.read_from))
    except WireError:
        return
    result = RangeResult(proof)
    acc = logger.state.acc
    assert not verify_range(acc.committed_root, ext, a, b, result, acc.registry_digest())


@given(edits=_EDITS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_snapshot_mutants_refused_or_canonical(snapshot, edits):
    vk, path, blob = snapshot
    mutant = _mutate(blob, edits)
    path.write_bytes(mutant)
    try:
        endpoint_id, state, commitments = load_state(str(path), vk)
    except WireError:
        return
    save_state(str(path), endpoint_id, state, commitments)
    assert path.read_bytes() == mutant
    # only commit_interval, which no commitment signs, may differ
    at = len(protocol._SNAP_MAGIC) + 2 + 4
    assert len(mutant) == len(blob) and mutant[:at] + mutant[at + 4:] == blob[:at] + blob[at + 4:]
