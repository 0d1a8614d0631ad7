"""Component record codecs: the struct-packed WireNode, WireEdge (the edge
preimage itself) and multiproof encodings equal their documented
field-by-field layouts; their decoders are strict and total; and the
verifiers build every preimage from a record's current fields, not from
what was parsed."""

import pytest

from vcause import accumulator as acc_mod
from vcause.accumulator import Relation, TimestampKey
from vcause.causality import (
    BACKWARD,
    BOTH,
    FORWARD,
    CausalityQuery,
    ProofBundle,
    WireEdge,
    WireNode,
    analyze,
    verify_bundle,
)
from vcause.dimtree import EXPANDED_INTERNAL, EXPANDED_LEAF, MultiProof
from vcause.hashcore import MSET_BYTES, MsetDigest, encode_edge
from vcause.ingest import SynthConfig, synth
from vcause.protocol import EndpointLogger, StateConfig
from vcause.wire import WireError, bytes_lp, decode, flag, node_ref, optional, str_lp, u8, u64

from .test_codec import fixed_keypair

_KIND_TAGS = {"temporal": 0, "dependency": 1}  # docs/formats.md


def _logger(mode, depth, seed=5, n_events=150, n_entities=8):
    logger = EndpointLogger("ep0", fixed_keypair(), StateConfig(mode, depth, 10**9))
    for ev in synth(SynthConfig(seed=seed, n_events=n_events, n_entities=n_entities)):
        logger.ingest(ev)
    logger.commit()
    return logger


def _bundles(logger):
    """Answers to le and ge queries in every direction, about several
    entities at several times; all are found."""
    graph = logger.state.graph
    last = graph.last_ts
    out = []
    for ext in sorted(graph.entity_ids)[:4]:
        for op in (acc_mod.REL_LE, acc_mod.REL_GE):
            for t in (last // 3, last // 2, 2 * last // 3):
                for direction in (BACKWARD, FORWARD, BOTH):
                    q = CausalityQuery(ext, Relation(op, t), direction)
                    b = analyze(graph, logger.state.acc, logger.commitments[-1], q)
                    if b.poi is not None:
                        out.append(b)
    return out


def _node_layout(n: WireNode) -> bytes:
    return (
        u64(n.entity_id) + n.key.to_bytes() + flag(n.is_terminal)
        + optional(n.terminal_target, node_ref) + n.pi.value.to_bytes(MSET_BYTES, "big")
    )


def _preimage_layout(e: WireEdge) -> bytes:
    return (
        node_ref(e.src_ref) + node_ref(e.dst_ref) + u8(_KIND_TAGS[e.kind])
        + str_lp(e.event_type) + bytes_lp(e.payload)
    )


def _records(bundle: ProofBundle):
    nodes = list(bundle.backward_nodes or [])
    edges = list(bundle.backward_edges or [])
    for seg in bundle.forward_segments or []:
        nodes.extend(seg.nodes)
        edges.extend(seg.edges)
    proofs = [p.local_proof for p in bundle.root_proofs or []]
    if bundle.anchor_global is not None:
        proofs.append(bundle.anchor_global)
    return nodes, edges, proofs


@pytest.mark.parametrize("mode,depth", [
    ("segmented", 1), ("segmented", 2), ("segmented", 3),
    ("unsegmented", 1), ("unsegmented", 2), ("unsegmented", 3),
])
def test_struct_codecs_equal_documented_layouts(mode, depth):
    bundles = _bundles(_logger(mode, depth))
    assert len(bundles) >= 20
    seen_terminal = seen_proof = False
    for bundle in bundles:
        nodes, edges, proofs = _records(bundle)
        for n in nodes:
            blob = n.to_bytes()
            assert blob == _node_layout(n)
            assert decode(blob, WireNode.read_from) == n
            seen_terminal |= n.is_terminal
        for e in edges:
            blob = e.to_bytes()
            assert blob == _preimage_layout(e)
            assert decode(blob, WireEdge.read_from) == e
            assert encode_edge(e, e.src_ref, e.dst_ref) == blob
        for proof in proofs:
            blob = proof.to_bytes()
            again = decode(blob, MultiProof.read_from)
            assert again.nodes == proof.nodes and again.to_bytes() == blob
            seen_proof = True
        blob = bundle.to_bytes()
        parsed = ProofBundle.from_bytes(blob)
        assert parsed.to_bytes() == blob
        # the wire edge is the preimage the verifiers hash
        _, parsed_edges, _ = _records(parsed)
        assert [e.to_bytes() for e in parsed_edges] == [_preimage_layout(e) for e in edges]
    # only segmented answers have stubs, and anchors with multiproofs
    assert seen_terminal == seen_proof == (mode == "segmented")


@pytest.fixture(scope="module")
def small_both():
    """A small honest `both` answer with forward stubs and anchors."""
    logger = _logger("segmented", 1, n_events=40, n_entities=5)
    q = CausalityQuery("e3", Relation(acc_mod.REL_LE, logger.state.graph.last_ts // 2), BOTH)
    bundle = analyze(logger.state.graph, logger.state.acc, logger.commitments[-1], q)
    nodes, edges, proofs = _records(bundle)
    assert bundle.backward_edges and proofs and any(n.is_terminal for n in nodes)
    vk = logger.keypair.verify_key
    blob = bundle.to_bytes()
    assert verify_bundle(vk, q, ProofBundle.from_bytes(blob)).accepted
    return q, blob, vk


def test_every_truncation_is_a_wire_error(small_both):
    _, blob, _ = small_both
    for end in range(len(blob)):
        with pytest.raises(WireError):
            ProofBundle.from_bytes(blob[:end])


def _offsets(blob, monkeypatch):
    """Where each WireNode, WireEdge and MultiProof record of the bundle
    starts, and the decoded MultiProofs, from one recording parse."""
    found = {"node": [], "edge": [], "proof": []}
    for cls, kind in ((WireNode, "node"), (WireEdge, "edge"), (MultiProof, "proof")):
        read = cls.read_from.__func__

        def recording(c, r, read=read, kind=kind):
            start = r._pos
            value = read(c, r)
            found[kind].append((start, value))
            return value

        monkeypatch.setattr(cls, "read_from", classmethod(recording))
    ProofBundle.from_bytes(blob)
    monkeypatch.undo()
    return found


def _proof_flag_offsets(start, proof):
    at, out = start, []
    for node in proof.nodes:
        if node is EXPANDED_INTERNAL or node is EXPANDED_LEAF:
            out += [at, at + 1]
            at += 2
        else:
            out.append(at)
            at += 1 + 32 + 16 + 16
    return out


def _edited(blob, at, byte):
    out = bytearray(blob)
    out[at] = byte
    return bytes(out)


def test_bad_flags_kinds_and_event_types_are_wire_errors(small_both, monkeypatch):
    _, blob, _ = small_both
    found = _offsets(blob, monkeypatch)
    edits = []
    for start, node in found["node"]:
        edits += [(start + 20, 2), (start + 21, 2)]  # is_terminal, has_target
        # a target without the terminal flag, or the flag without a target
        edits.append((start + 20, 0 if node.is_terminal else 1))
        edits.append((start + 21, 0 if node.is_terminal else 1))
    for start, edge in found["edge"]:
        kind_at = start + 20 + 20  # after the two NodeRefs
        edits += [(kind_at, 2), (kind_at, 0xFF)]  # unknown edge kinds
        assert edge.event_type
        edits.append((kind_at + 1 + 4, 0xFF))  # not UTF-8
    for start, proof in found["proof"]:
        edits += [(at, 2) for at in _proof_flag_offsets(start, proof)]
    assert len(found["node"]) > 10 and len(found["proof"]) >= 2
    for at, byte in edits:
        assert blob[at] != byte
        with pytest.raises(WireError):
            ProofBundle.from_bytes(_edited(blob, at, byte))


def version_3_bytes(blob: bytes) -> bytes:
    """The same answer in bundle version 3, whose POI proof wrote a found
    flag, the node key, a version byte, a kind tag, the entity's external
    id, the internal id (0 for an unknown entity) and a presence flag before
    each of the global proof, the local proof and the registry."""
    bundle = ProofBundle.from_bytes(blob)
    res, proof = bundle.poi_proof, bundle.poi_proof.proof
    kind = 1 if proof.registry is not None else 0 if res.found else 2
    old_poi = b"".join((
        flag(res.found), res.node_key.to_bytes() if res.found else b"",
        u8(1), u8(kind), str_lp(bundle.query.entity_ext), u64(proof.internal_id or 0),
        optional(proof.global_proof), optional(proof.local_proof),
        optional(proof.registry, acc_mod.registry_bytes),
    ))
    poi_proof = res.to_bytes()
    at = blob.index(poi_proof)  # right after the POI record
    return u8(3) + blob[1:at] + old_poi + blob[at + len(poi_proof):]


def version_2_bytes(blob: bytes, monkeypatch) -> bytes:
    """The same answer in bundle version 2, which also wrote each edge's
    kind byte before its two NodeRefs: the length of version 3."""
    v3 = version_3_bytes(blob)
    shift = len(v3) - len(blob)  # the POI proof precedes every edge
    out = bytearray(v3)
    out[0] = 2
    for start, _ in _offsets(blob, monkeypatch)["edge"]:
        at = start + shift
        out[at:at + 41] = v3[at + 40:at + 41] + v3[at:at + 40]
    return bytes(out)


def test_version_2_bundle_is_a_wire_error(small_both, monkeypatch):
    _, blob, _ = small_both
    assert blob[0] == 4
    old = version_2_bytes(blob, monkeypatch)
    assert len(old) == len(version_3_bytes(blob)) and old != version_3_bytes(blob)
    with pytest.raises(WireError, match="unsupported bundle version"):
        ProofBundle.from_bytes(old)


def test_version_3_bundle_is_a_wire_error(small_both):
    """Version 3 carried the POI proof's derivable fields: 21 bytes plus
    the external id's length more for a found answer."""
    q, blob, _ = small_both
    old = version_3_bytes(blob)
    assert len(old) == len(blob) + 21 + len(q.entity_ext.encode())
    with pytest.raises(WireError, match="unsupported bundle version"):
        ProofBundle.from_bytes(old)


def test_backward_node_with_a_target_is_refused(small_both):
    """A backward node is never terminal, so it carries no target: the
    decoder refuses the 20 extra bytes and the verifier the in-memory node."""
    q, blob, vk = small_both
    bundle = ProofBundle.from_bytes(blob)
    bundle.backward_nodes[0].terminal_target = (1, 5)
    assert not verify_bundle(vk, q, bundle).accepted
    with pytest.raises(WireError):
        ProofBundle.from_bytes(bundle.to_bytes())


def test_forward_flag_and_target_must_agree(small_both):
    q, blob, vk = small_both
    bundle = ProofBundle.from_bytes(blob)
    stub = next(n for seg in bundle.forward_segments for n in seg.nodes if n.is_terminal)
    stub.terminal_target = None
    assert not verify_bundle(vk, q, bundle).accepted
    with pytest.raises(WireError):
        ProofBundle.from_bytes(bundle.to_bytes())


def _forward_edge(bundle):
    return next(e for seg in bundle.forward_segments for e in seg.edges)


def _edit_event_type(bundle, section):
    edge = bundle.backward_edges[0] if section == "backward" else _forward_edge(bundle)
    edge.event_type += "x"


def _edit_payload(bundle, section):
    edge = bundle.backward_edges[0] if section == "backward" else _forward_edge(bundle)
    edge.payload += b"\x01"


def _node(bundle, section):
    if section == "backward":
        return bundle.backward_nodes[-1]
    return next(n for seg in bundle.forward_segments for n in seg.nodes if not n.is_terminal)


def _edit_key(bundle, section):
    node = _node(bundle, section)
    node.key = TimestampKey(node.key.timestamp, node.key.seq + 1)


def _edit_pi(bundle, section):
    node = _node(bundle, section)
    node.pi = MsetDigest(node.pi.value ^ 1)


def _edit_stub_target(bundle, section):
    """Point one forward stub at another supplied non-terminal node."""
    nodes = [n for seg in bundle.forward_segments for n in seg.nodes]
    stub = next(n for n in nodes if n.is_terminal)
    stub.terminal_target = next(
        n.ref for n in nodes if not n.is_terminal and n.ref != stub.terminal_target
    )


@pytest.mark.parametrize("edit,section", [
    (_edit_event_type, "backward"), (_edit_event_type, "forward"),
    (_edit_payload, "backward"), (_edit_payload, "forward"),
    (_edit_key, "backward"), (_edit_key, "forward"),
    (_edit_pi, "backward"), (_edit_pi, "forward"),
    (_edit_stub_target, "forward"),
])
def test_in_place_edits_of_parsed_records_are_rejected(small_both, edit, section):
    q, blob, vk = small_both
    bundle = ProofBundle.from_bytes(blob)
    edit(bundle, section)
    assert not verify_bundle(vk, q, bundle).accepted
