"""Shared record codecs: strict flags, NodeRefs, canonical bundles and
byte-identical formats."""

import hashlib

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from vcause import accumulator as acc_mod
from vcause.accumulator import Accumulator, EntityProof, Relation, verify_node, verify_range
from vcause.causality import BOTH, CausalityQuery, ProofBundle, analyze
from vcause.dimtree import RangeSearchResult, SearchProof
from vcause.hashcore import KeyPair
from vcause.ingest import SynthConfig, synth
from vcause.protocol import Admin, EndpointLogger, StateConfig, save_state
from vcause.wire import Reader, WireError, decode, flag, node_ref

from .test_accumulator import fill

# SHA3-256 of the golden bundle and snapshot below: leaves bind the hashes
# of both path digests, the anchor section is one global multiproof plus
# one local multiproof per entity, the commitment signs its epoch's event
# count, the bundle (version 4) writes each edge as its canonical encoding
# and the POI proof as an entity proof without derivable fields, and the
# snapshot (version 5) stores the config, the commitments and the
# events.
GOLDEN_BUNDLE_SHA3 = "1d732d132057e1fc0ea8a948d1a22538bb36819e802afda9c665b8f1299a7eea"
GOLDEN_SNAPSHOT_SHA3 = "45a012f1b86aea80f3f7f2d82994a47621038f9c575185e8caa7ba563ea47e76"


def fixed_keypair() -> KeyPair:
    sk = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
    return KeyPair(sk, sk.public_key())


def synth_logger(seed, n_events, n_entities, interval):
    logger = EndpointLogger("ep0", fixed_keypair(), StateConfig("segmented", 1, interval))
    for ev in synth(SynthConfig(seed=seed, n_events=n_events, n_entities=n_entities)):
        logger.ingest(ev)
    if logger.state.events_since_commit:
        logger.commit()
    return logger


def le(t):
    return Relation(acc_mod.REL_LE, t)


class TestPrimitives:
    @pytest.mark.parametrize("value", [False, True])
    def test_flag_roundtrip(self, value):
        assert decode(flag(value), Reader.flag) is value

    @pytest.mark.parametrize("byte", [2, 0x80, 0xFF])
    def test_flag_rejects_other_bytes(self, byte):
        with pytest.raises(WireError):
            decode(bytes([byte]), Reader.flag)

    def test_node_ref_roundtrip(self):
        ref = (7, (123 << 32) | 4)
        blob = node_ref(ref)
        assert len(blob) == 20
        assert decode(blob, Reader.node_ref) == ref

    def test_optional_rejects_bad_presence_flag(self):
        with pytest.raises(WireError):
            decode(b"\x02" + node_ref((1, 2)), lambda r: r.optional(Reader.node_ref))


def _read_node_proof(r: Reader) -> EntityProof:
    return EntityProof.read_from(r, SearchProof.read_from)


def _read_range_proof(r: Reader) -> EntityProof:
    return EntityProof.read_from(r, RangeSearchResult.read_from)


class TestUnknownEntityIds:
    """An unknown-entity proof has no internal-id field: an id set on the
    object changes no byte, and the verifier refuses the object."""

    def _acc(self):
        acc = fill(Accumulator(), {"a": [(1, 0), (2, 0)], "b": [(3, 0)]})
        acc.commit()
        return acc

    def test_node_proof_roundtrip_keeps_no_id(self):
        proof = self._acc().prove_node("zz", le(5)).proof
        assert proof.registry is not None and proof.local_proof is None
        again = decode(proof.to_bytes(), _read_node_proof)
        assert again.internal_id is None
        assert again.to_bytes() == proof.to_bytes()

    def test_node_proof_nonzero_id_rejected(self):
        acc = self._acc()
        res = acc.prove_node("zz", le(5))
        honest = res.proof.to_bytes()
        assert verify_node(acc.committed_root, "zz", le(5), res, acc.registry_digest())
        res.proof.internal_id = 1
        assert res.proof.to_bytes() == honest
        assert not verify_node(acc.committed_root, "zz", le(5), res, acc.registry_digest())

    def test_range_proof_nonzero_id_rejected(self):
        acc = self._acc()
        res = acc.prove_range("zz", 0, 9)
        assert res.proof.registry is not None
        honest = res.proof.to_bytes()
        assert decode(honest, _read_range_proof).internal_id is None
        assert verify_range(acc.committed_root, "zz", 0, 9, res, acc.registry_digest())
        res.proof.internal_id = 1
        assert res.proof.to_bytes() == honest
        assert not verify_range(acc.committed_root, "zz", 0, 9, res, acc.registry_digest())

    def test_member_id_zero_kept(self):
        res = self._acc().prove_node("a", le(5))
        assert decode(res.proof.to_bytes(), _read_node_proof).internal_id == 0


class TestGoldenBytes:
    def test_bundle_and_snapshot_unchanged(self, tmp_path):
        logger = synth_logger(seed=3, n_events=300, n_entities=40, interval=100)
        q = CausalityQuery("e2", le(logger.state.graph.last_ts // 2), BOTH)
        bundle = analyze(logger.state.graph, logger.state.acc, logger.commitments[-1], q)
        blob = bundle.to_bytes()
        assert hashlib.sha3_256(blob).hexdigest() == GOLDEN_BUNDLE_SHA3
        assert ProofBundle.from_bytes(blob).to_bytes() == blob
        path = tmp_path / "state.bin"
        save_state(str(path), "ep0", logger.state, logger.commitments)
        assert hashlib.sha3_256(path.read_bytes()).hexdigest() == GOLDEN_SNAPSHOT_SHA3


@pytest.fixture(scope="module")
def honest_bundle():
    """A small `both` bundle whose forward answer has anchors of two
    entities, so it carries a global and two local multiproofs."""
    logger = synth_logger(seed=5, n_events=40, n_entities=5, interval=10**9)
    q = CausalityQuery("e3", le(logger.state.graph.last_ts // 2), BOTH)
    bundle = analyze(logger.state.graph, logger.state.acc, logger.commitments[-1], q)
    assert len(bundle.root_proofs) == 2 and bundle.anchor_global is not None
    blob = bundle.to_bytes()
    admin = Admin()
    admin.register_endpoint("ep0", logger.keypair.verify_key)
    assert admin.verify(q, ProofBundle.from_bytes(blob)).accepted
    return q, blob, admin


def test_bundle_is_canonical(honest_bundle):
    """Set every 0 or 1 byte of a small honest `both` bundle to 2, one at a
    time, multiproof flag bytes included: each mutant must fail to parse or
    be rejected."""
    q, blob, admin = honest_bundle
    candidates = [i for i, b in enumerate(blob) if b in (0, 1)]
    assert len(candidates) > 1000
    accepted = []
    for i in candidates:
        mutant = bytearray(blob)
        mutant[i] = 2
        try:
            bundle = ProofBundle.from_bytes(bytes(mutant))
        except WireError:
            continue
        if admin.verify(q, bundle).accepted:
            accepted.append(i)
    assert accepted == []


def test_search_step_heights_are_canonical(honest_bundle):
    """A search-path step carries only hashed fields: side, key interval
    and hash, with no height byte beside them."""
    _, blob, _ = honest_bundle
    proof = ProofBundle.from_bytes(blob).poi_proof.proof
    steps = proof.global_proof.steps + proof.local_proof.steps
    assert steps
    assert all(len(step.to_bytes()) == 1 + 16 + 16 + 32 for step in steps)


class TestProofFieldsFollowTheKind:
    """Whether a POI or range proof is about a member, a local miss or an
    unknown entity follows from its fields: a registry marks an unknown
    entity, and the layout has no room for a stray field beside it. A stray
    field set on the object either changes the bytes into another answer's
    layout or changes none, and the verifier refuses the object either way
    (synth seed 5, 300 events, 20 entities, interval 1000)."""

    @pytest.fixture(scope="class")
    def world(self):
        logger = synth_logger(seed=5, n_events=300, n_entities=20, interval=1000)
        admin = Admin()
        admin.register_endpoint("ep0", logger.keypair.verify_key)
        return logger, admin

    @staticmethod
    def _answer(world, entity_ext, t):
        logger, admin = world
        q = CausalityQuery(entity_ext, le(t), BOTH)
        bundle = analyze(logger.state.graph, logger.state.acc, logger.commitments[-1], q)
        assert admin.verify(q, ProofBundle.from_bytes(bundle.to_bytes())).accepted
        return q, bundle

    def test_member_proof_with_a_registry(self, world):
        q, bundle = self._answer(world, "e3", world[0].state.graph.last_ts)
        assert bundle.poi_proof.found
        _assert_stray_field_refused(world, q, bundle, "registry", ["e0", "e1"])

    def test_nonmember_local_proof_with_a_registry(self, world):
        q, bundle = self._answer(world, "e3", 0)
        assert bundle.poi_proof.proof.local_proof is not None and not bundle.poi_proof.found
        _assert_stray_field_refused(world, q, bundle, "registry", ["e0", "e1"])

    def test_nonmember_global_proof_with_a_local_proof(self, world):
        stray = self._answer(world, "e3", 0)[1].poi_proof.proof.local_proof
        q, bundle = self._answer(world, "zz", 0)
        assert bundle.poi_proof.proof.registry is not None
        _assert_stray_field_refused(world, q, bundle, "local_proof", stray)

    def test_unknown_entity_range_proof_with_a_local_range(self, world):
        logger, _ = world
        acc, c = logger.state.acc, logger.commitments[-1]
        last = logger.state.graph.last_ts
        res = acc.prove_range("zz", 0, last)
        assert acc_mod.verify_range(c.root, "zz", 0, last, res, c.registry_digest)
        honest = res.proof.to_bytes()
        res.proof.local_proof = acc.prove_range("e3", 0, last).proof.local_proof
        assert res.proof.to_bytes() == honest
        assert not acc_mod.verify_range(c.root, "zz", 0, last, res, c.registry_digest)

    def test_entity_proof_tag_other_than_0_or_1_refused(self, world):
        _, bundle = self._answer(world, "e3", world[0].state.graph.last_ts)
        blob = bundle.to_bytes()
        gp = bundle.poi_proof.proof.global_proof.to_bytes()
        at = blob.index(gp) + len(gp)
        assert blob[at] == 0
        with pytest.raises(WireError):
            ProofBundle.from_bytes(blob[:at] + b"\x02" + blob[at + 1:])


def _assert_stray_field_refused(world, q, bundle, field, value):
    _, admin = world
    honest = bundle.to_bytes()
    setattr(bundle.poi_proof.proof, field, value)
    assert not admin.verify(q, bundle).accepted
    mutant = bundle.to_bytes()
    if mutant != honest:
        try:
            parsed = ProofBundle.from_bytes(mutant)
        except WireError:
            return
        assert not admin.verify(q, parsed).accepted
