"""The library keeps every name the benchmark in perfbench/ looks up: the
traced functions and what the tamper controls read and write."""

import random
import sys
from pathlib import Path

import pytest

from vcause import dimtree, protocol
from vcause.accumulator import REL_GE, Relation
from vcause.causality import BOTH, CausalityQuery, ProofBundle, analyze
from vcause.hashcore import KeyPair
from vcause.ingest import SynthConfig, synth
from vcause.protocol import Admin, Cloud

from .test_codec import le, synth_logger

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tamper  # noqa: E402
import workloads  # noqa: E402


def test_traced_functions_live_where_the_benchmark_patches_them():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in workloads.TRACED
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_replay_and_flush_keep_the_shape_the_benchmark_calls():
    """The benchmark patches EndpointState.flush on the class to log roots,
    and calls Cloud.replay(endpoint_id, events, commitments, config)."""
    assert "flush" in protocol.EndpointState.__dict__
    logger = synth_logger(seed=5, n_events=40, n_entities=5, interval=20)
    events = list(synth(SynthConfig(seed=5, n_events=40, n_entities=5)))
    ep = Cloud().replay("ep0", events, logger.commitments, logger.state.config)
    assert ep.state.acc.committed_root == logger.commitments[-1].root


def test_replay_flushes_once_per_commitment_through_the_class(monkeypatch):
    """The benchmark's RootLog wraps EndpointState.flush on the class and
    expects one root per commitment from Cloud.replay."""
    logger = synth_logger(seed=5, n_events=50, n_entities=5, interval=20)
    events = list(synth(SynthConfig(seed=5, n_events=50, n_entities=5)))
    flush = protocol.EndpointState.flush
    roots = []

    def logged_flush(state):
        roots.append(flush(state))
        return roots[-1]

    monkeypatch.setattr(protocol.EndpointState, "flush", logged_flush)
    Cloud().replay("ep0", events, logger.commitments, logger.state.config)
    assert roots == [c.root for c in logger.commitments] and len(roots) == 3


def test_events_since_commit_counts_events_since_the_last_flush():
    """The benchmark commits a trailing partial epoch when
    logger.state.events_since_commit is nonzero."""
    logger = protocol.EndpointLogger("ep0", KeyPair.generate(), protocol.StateConfig())
    events = list(synth(SynthConfig(seed=5, n_events=7, n_entities=5)))
    for n, ev in enumerate(events, 1):
        logger.ingest(ev)
        assert logger.state.events_since_commit == n
    logger.commit()
    assert logger.state.events_since_commit == 0


def test_ingest_keeps_the_state_the_benchmark_reads():
    """After an ingest the benchmark reads the DIM-Tree hash counters, the
    graph's digest-update total, the accumulator's sync ops and registry,
    and every node's terminal flag."""
    counters = dimtree.counters
    leaf0, internal0 = counters.leaf, counters.internal
    logger = synth_logger(seed=5, n_events=40, n_entities=5, interval=20)
    assert counters.leaf > leaf0 and counters.internal > internal0
    graph, acc = logger.state.graph, logger.state.acc
    assert isinstance(graph.total_digest_updates, int) and graph.total_digest_updates >= 40
    real = [node for node in graph.nodes.values() if node.is_terminal is False]
    stubs = [node for node in graph.nodes.values() if node.is_terminal is True]
    assert real and stubs and len(real) + len(stubs) == len(graph.nodes)
    assert isinstance(acc.sync_ops, int) and acc.sync_ops >= len(real)
    assert acc.registry_order == graph.entity_exts


def test_tamper_controls_reject_every_mutant_of_a_forward_bundle():
    logger = synth_logger(seed=5, n_events=40, n_entities=5, interval=20)
    assert len(logger.commitments) >= 2
    q = CausalityQuery("e3", le(logger.state.graph.last_ts // 2), BOTH)
    bundle = analyze(logger.state.graph, logger.state.acc, logger.commitments[-1], q)
    assert bundle.root_proofs and bundle.anchor_global is not None
    data = bundle.to_bytes()
    admin = Admin()
    admin.register_endpoint("ep0", logger.keypair.verify_key)
    assert admin.verify(q, ProofBundle.from_bytes(data)).accepted
    mutants = tamper.mutants(data, logger.commitments[-2], random.Random(1))
    assert [kind for kind, _ in mutants] == ["flip-digest", "drop-edge", "stale-commitment"]
    accepted = [kind for kind, mutant in mutants if admin.verify(q, mutant).accepted]
    assert accepted == []


@pytest.mark.parametrize("entity_ext", ["zz", "e3"], ids=["unknown-entity", "ge-past-last"])
def test_tamper_controls_reject_every_mutant_of_an_empty_answer(entity_ext):
    """An answer without components sends flip-digest to a search-path
    hash (the absence terminus when no path has steps), and drop-edge to
    the shipped registry (unknown entity) or a search-path step (local
    miss): the fallbacks read the POI proof's global_proof, local_proof,
    steps, terminus and registry."""
    logger = synth_logger(seed=5, n_events=40, n_entities=5, interval=20)
    q = CausalityQuery(entity_ext, Relation(REL_GE, logger.state.graph.last_ts + 1), BOTH)
    bundle = analyze(logger.state.graph, logger.state.acc, logger.commitments[-1], q)
    assert bundle.poi is None
    assert (bundle.poi_proof.proof.registry is not None) == (entity_ext == "zz")
    data = bundle.to_bytes()
    admin = Admin()
    admin.register_endpoint("ep0", logger.keypair.verify_key)
    assert admin.verify(q, ProofBundle.from_bytes(data)).accepted
    mutants = tamper.mutants(data, logger.commitments[-2], random.Random(1))
    assert [kind for kind, _ in mutants] == ["flip-digest", "drop-edge", "stale-commitment"]
    accepted = [kind for kind, mutant in mutants if admin.verify(q, mutant).accepted]
    assert accepted == []
