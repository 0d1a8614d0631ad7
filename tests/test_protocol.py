"""Logger/cloud/admin workflow: commitments, replay, freshness, snapshots."""

import dataclasses
import random

import pytest

from vcause import accumulator as acc_mod
from vcause.accumulator import Relation
from vcause.causality import BOTH, CausalityQuery, analyze
from vcause.commitment import Commitment, make_commitment
from vcause.hashcore import KeyPair
from vcause import dimtree, protocol, wire
from vcause.protocol import (
    Admin,
    Cloud,
    EndpointLogger,
    PendingChanges,
    RootMismatch,
    StateConfig,
    TAMPER_KINDS,
    UnknownEndpoint,
    load_state,
    save_state,
    tamper,
)
from vcause.ingest import SynthConfig, synth
from vcause.provgraph import STUB_ID_BIT, ClockRegression, EventRecord
from vcause.wire import WireError

from .helpers import simple_stream
from .test_codec import synth_logger


def le(t):
    return Relation(acc_mod.REL_LE, t)


def _swap_event_times(a, b):
    """Swap the timestamps save_state writes for two events: each event's
    time is its dependency edge's destination key."""
    (a_id, a_key), (b_id, b_key) = a.dst_ref, b.dst_ref
    a.dst_ref, b.dst_ref = (a_id, b_key), (b_id, a_key)


def make_logger(interval=1000, mode="segmented", depth=1, endpoint="ep0"):
    return EndpointLogger(endpoint, KeyPair.generate(), StateConfig(mode, depth, interval))


class TestLogger:
    def test_no_commitment_before_interval(self):
        rng = random.Random(1)
        logger = make_logger(interval=1000)
        for e in simple_stream(rng, 999, 10):
            assert logger.ingest(e) is None

    def test_commitment_on_interval_boundary(self):
        rng = random.Random(1)
        logger = make_logger(interval=1000)
        stream = simple_stream(rng, 1000, 10)
        results = [logger.ingest(e) for e in stream]
        assert all(r is None for r in results[:-1])
        c = results[-1]
        assert isinstance(c, Commitment) and c.epoch == 1

    def test_epoch_increments(self):
        rng = random.Random(2)
        logger = make_logger(interval=100)
        commitments = [c for e in simple_stream(rng, 350, 8) if (c := logger.ingest(e))]
        assert [c.epoch for c in commitments] == [1, 2, 3]

    def test_commit_without_changes_same_root_new_epoch(self):
        rng = random.Random(3)
        logger = make_logger(interval=10**9)
        for e in simple_stream(rng, 50, 5):
            logger.ingest(e)
        c1 = logger.commit()
        c2 = logger.commit()
        assert c1.root == c2.root
        assert c2.epoch == c1.epoch + 1
        assert c1.signature != c2.signature or c1.timestamp != c2.timestamp

    def test_commitment_signature_verifies(self):
        rng = random.Random(4)
        logger = make_logger(interval=10**9)
        for e in simple_stream(rng, 20, 4):
            logger.ingest(e)
        c = logger.commit()
        assert c.verify(logger.keypair.verify_key)

    def test_altered_event_count_fails_its_signature(self):
        logger = make_logger(interval=10**9)
        for e in simple_stream(random.Random(4), 20, 4):
            logger.ingest(e)
        c = logger.commit()
        assert c.event_count == 20
        for count in (19, 21):
            assert not dataclasses.replace(c, event_count=count).verify(logger.keypair.verify_key)

    def test_commitment_size_constant(self):
        sizes = set()
        for n in (50, 500, 2000):
            rng = random.Random(5)
            logger = make_logger(interval=10**9)
            for e in simple_stream(rng, n, 20):
                logger.ingest(e)
            sizes.add(len(logger.commit().to_bytes()))
        assert len(sizes) == 1

    def test_node_touched_many_times_syncs_once(self):
        # one hot entity touched repeatedly: per-commit accumulator ops stay
        # bounded by distinct touched nodes, not touch counts
        logger = make_logger(interval=10**9, mode="unsegmented")
        for i in range(50):
            logger.ingest(EventRecord("a", "w", "b", i + 1))
        state = logger.state
        distinct = len(state.pending_new) + len(state.pending_dirty)
        before = state.acc.sync_ops
        logger.commit()
        assert state.acc.sync_ops - before == distinct

    def test_clock_regression_propagates(self):
        logger = make_logger()
        logger.ingest(EventRecord("a", "w", "b", 10))
        with pytest.raises(ClockRegression):
            logger.ingest(EventRecord("a", "w", "b", 9))


class TestTerminalStubs:
    """Stubs are graph-only: the registry and the accumulator hold exactly
    the real entities and their versions."""

    @pytest.fixture(scope="class")
    def logger(self):
        logger = make_logger(interval=500)
        for e in synth(SynthConfig(seed=7, n_events=2000, n_entities=200)):
            logger.ingest(e)
        if logger.state.events_since_commit:
            logger.commit()
        return logger

    def test_accumulator_holds_only_real_nodes(self, logger):
        graph, acc = logger.state.graph, logger.state.acc
        stubs = [n for n in graph.nodes.values() if n.is_terminal]
        assert stubs and all(n.entity_id & STUB_ID_BIT for n in stubs)
        assert acc.registry_order == graph.entity_exts
        leaves = sum(len(tree.leaves) for tree in acc.locals.values())
        assert leaves == len(graph.nodes) - len(stubs)

    def test_unknown_entity_registry_lists_only_real_entities(self, logger):
        q = CausalityQuery("no-such-entity", le(logger.state.graph.last_ts), BOTH)
        bundle = analyze(logger.state.graph, logger.state.acc, logger.commitments[-1], q)
        assert bundle.poi_proof.proof.registry == logger.state.graph.entity_exts
        admin = Admin()
        admin.register_endpoint("ep0", logger.keypair.verify_key)
        report = admin.verify(q, bundle)
        assert report.accepted and report.provably_empty

    def test_snapshot_stores_no_accumulator_leaves(self, logger, tmp_path):
        path = tmp_path / "state.bin"
        save_state(str(path), "ep0", logger.state, logger.commitments)
        blob = path.read_bytes()
        tree = logger.state.acc.locals[0]
        assert all(leaf.payload not in blob for leaf in tree.leaves)
        _, state, _ = load_state(str(path), logger.keypair.verify_key)
        assert state.acc.registry_order == state.graph.entity_exts
        assert state.acc.committed_root == logger.commitments[-1].root


class TestCloudReplay:
    def _run_logger(self, stream, interval=100):
        logger = make_logger(interval=interval)
        for e in stream:
            logger.ingest(e)
        if logger.state.events_since_commit:
            logger.commit()
        return logger

    def test_honest_replay_matches_all_epochs(self):
        rng = random.Random(6)
        stream = simple_stream(rng, 730, 12)
        logger = self._run_logger(stream)
        cloud = Cloud()
        ep = cloud.replay("ep0", stream, logger.commitments, logger.state.config)
        assert ep.commitments[-1].root == logger.commitments[-1].root

    def test_replay_determinism_roots_equal(self):
        rng = random.Random(7)
        stream = simple_stream(rng, 500, 9)
        logger = self._run_logger(stream, interval=125)
        cloud = Cloud()
        cloud.replay("ep0", stream, logger.commitments, logger.state.config)
        assert len(logger.commitments) == 4

    def test_deleted_event_detected(self):
        rng = random.Random(8)
        stream = simple_stream(rng, 300, 10)
        logger = self._run_logger(stream)
        broken = stream[:150] + stream[151:]
        with pytest.raises(RootMismatch) as exc:
            Cloud().replay("ep0", broken, logger.commitments, logger.state.config)
        assert exc.value.epoch <= 2

    def test_modified_event_detected(self):
        rng = random.Random(9)
        stream = simple_stream(rng, 300, 10)
        logger = self._run_logger(stream)
        broken = list(stream)
        broken[42] = EventRecord(broken[42].src, "forged", broken[42].dst, broken[42].ts)
        with pytest.raises(RootMismatch) as exc:
            Cloud().replay("ep0", broken, logger.commitments, logger.state.config)
        assert exc.value.epoch == 1

    def test_reordered_tie_events_detected(self):
        # same-timestamp events of different entities: reorder changes seq
        # assignment and therefore the root
        logger = make_logger(interval=4)
        stream = [
            EventRecord("a", "w", "b", 1),
            EventRecord("c", "w", "b", 2),
            EventRecord("d", "w", "b", 2),
            EventRecord("a", "w", "e", 3),
        ]
        for e in stream:
            logger.ingest(e)
        broken = [stream[0], stream[2], stream[1], stream[3]]
        with pytest.raises(RootMismatch):
            Cloud().replay("ep0", broken, logger.commitments, logger.state.config)

    def test_analyze_requires_known_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            Cloud().analyze("nope", CausalityQuery("x", le(1), BOTH))

    def test_analyze_without_commitments_is_not_committed(self):
        cloud = Cloud()
        cloud.replay("ep0", [], [], StateConfig())
        with pytest.raises(acc_mod.NotCommitted):
            cloud.analyze("ep0", CausalityQuery("x", le(1), BOTH))


class TestReplayRules:
    """Cloud.replay and load_state replay a log under the same rules."""

    interval = 50

    def _logged(self, n_events, extra=0):
        """A logger over the first n_events of a stream, all committed, and
        the stream with `extra` more events."""
        stream = simple_stream(random.Random(15), n_events + extra, 6)
        logger = make_logger(interval=self.interval)
        for e in stream[:n_events]:
            logger.ingest(e)
        if logger.state.events_since_commit:
            logger.commit()
        return stream, logger

    def _load(self, tmp_path, logger):
        path = str(tmp_path / "state.bin")
        save_state(path, "ep0", logger.state, logger.commitments)
        return load_state(path, logger.keypair.verify_key)

    @pytest.mark.parametrize("trailing", [1, interval - 1])
    def test_events_past_the_last_commitment_rejected(self, tmp_path, trailing):
        stream, logger = self._logged(2 * self.interval, trailing)
        with pytest.raises(RootMismatch, match="past the last commitment"):
            Cloud().replay("ep0", stream, logger.commitments, logger.state.config)
        for ev in stream[2 * self.interval:]:
            logger.state.apply_event(ev)
        logger.state.flush()  # quiescent, but no commitment signs these events
        with pytest.raises(WireError, match="past the last commitment"):
            self._load(tmp_path, logger)

    def test_final_commitment_without_new_events_accepted(self, tmp_path):
        stream, logger = self._logged(120)
        logger.commit()
        assert len(logger.commitments) == 4
        ep = Cloud().replay("ep0", stream, logger.commitments, logger.state.config)
        assert ep.state.acc.committed_root == logger.commitments[-1].root
        _, state, commitments = self._load(tmp_path, logger)
        assert [c.event_count for c in logger.commitments] == [50, 100, 120, 120]
        assert [c.to_bytes() for c in commitments] == [c.to_bytes() for c in logger.commitments]

    def test_commitments_off_the_interval_accepted(self, tmp_path):
        """Where the logger commits is signed, not derived from the interval:
        a commit after 30 events, then one at the interval, 50 events on."""
        stream = simple_stream(random.Random(15), 80, 6)
        logger = make_logger(interval=self.interval)
        for e in stream[:30]:
            logger.ingest(e)
        logger.commit()
        committed = [logger.ingest(e) for e in stream[30:]]
        assert committed[-1] is not None and committed[:-1] == [None] * 49
        assert [c.event_count for c in logger.commitments] == [30, 80]
        ep = Cloud().replay("ep0", stream, logger.commitments, logger.state.config)
        assert ep.state.acc.committed_root == logger.commitments[-1].root
        _, state, _ = self._load(tmp_path, logger)
        assert state.acc.committed_root == logger.commitments[-1].root

    def test_truncated_upload_refused_by_its_count(self):
        stream, logger = self._logged(2 * self.interval)
        with pytest.raises(RootMismatch, match="ends at event 100, outside 50..99") as exc:
            Cloud().replay("ep0", stream[:-1], logger.commitments, logger.state.config)
        assert exc.value.epoch == 2

    def test_rejected_upload_leaves_the_endpoints_as_they_were(self):
        """An upload that fails its replay registers nothing and replaces
        nothing: the cloud serves no half-built state."""
        stream, logger = self._logged(2 * self.interval)
        cloud = Cloud()
        good = cloud.replay("ep0", stream, logger.commitments, logger.state.config)
        for endpoint in ("ep0", "ep1"):
            with pytest.raises(RootMismatch) as exc:
                cloud.replay(endpoint, stream[:-1], logger.commitments, logger.state.config)
            assert exc.value.epoch == 2
        assert list(cloud.endpoints) == ["ep0"] and cloud.endpoints["ep0"] is good
        with pytest.raises(UnknownEndpoint):
            cloud.analyze("ep1", CausalityQuery("0", le(1), BOTH))

    def test_clock_regression_rejected(self, tmp_path):
        stream, logger = self._logged(2 * self.interval)
        i = next(i for i in range(len(stream) - 1) if stream[i].ts < stream[i + 1].ts)
        broken = list(stream)
        broken[i], broken[i + 1] = stream[i + 1], stream[i]
        with pytest.raises(RootMismatch, match="high-water mark"):
            Cloud().replay("ep0", broken, logger.commitments, logger.state.config)
        edges = [e for e in logger.state.graph.edges if e.kind == "dependency"]
        _swap_event_times(edges[i], edges[i + 1])
        with pytest.raises(WireError, match="high-water mark"):
            self._load(tmp_path, logger)


class TestWritePathWork:
    """The write path's hardware-independent work on a fixed stream: synth
    seed 7, 2,000 events, 500 entities, segmented L=1, interval 1000. A
    faster write path must do exactly this work, and every replay of the
    stream must sign these roots."""

    def test_counts_and_roots(self):
        counters = dimtree.counters
        leaf0, internal0 = counters.leaf, counters.internal
        logger = make_logger(interval=1000)
        for ev in synth(SynthConfig(seed=7, n_events=2000, n_entities=500)):
            logger.ingest(ev)
        assert (counters.leaf - leaf0, counters.internal - internal0) == (3079, 3038)
        assert logger.state.graph.total_digest_updates == 5365
        assert logger.state.acc.sync_ops == 2438
        assert [c.root.hex() for c in logger.commitments] == [
            "9cb3ab705972d97a6627e97688ab193d0a068e1c1bab24262d541da5b36e32c5",
            "a10961ce614c29924ccd4864465ebf45e68c22d251d17b21b1c206ef5fac2ffd",
        ]


class TestAdmin:
    def _world(self, seed=10, n=300, interval=100):
        rng = random.Random(seed)
        stream = simple_stream(rng, n, 10)
        logger = make_logger(interval=interval)
        for e in stream:
            logger.ingest(e)
        if logger.state.events_since_commit:
            logger.commit()
        cloud = Cloud()
        cloud.replay("ep0", stream, logger.commitments, logger.state.config)
        admin = Admin()
        admin.register_endpoint("ep0", logger.keypair.verify_key)
        return rng, logger, cloud, admin

    def test_end_to_end_accept(self):
        rng, logger, cloud, admin = self._world()
        q = CausalityQuery("3", le(logger.state.graph.last_ts), BOTH)
        bundle = cloud.analyze("ep0", q)
        report = admin.verify(q, bundle)
        assert report.accepted, report.first_failure

    def test_unknown_endpoint_rejected(self):
        rng, logger, cloud, admin = self._world()
        q = CausalityQuery("3", le(10), BOTH)
        bundle = cloud.analyze("ep0", q)
        stranger = Admin()
        assert not stranger.verify(q, bundle).accepted

    def test_rollback_replay_rejected_by_freshness(self):
        rng, logger, cloud, admin = self._world()
        ep = cloud.endpoints["ep0"]
        q = CausalityQuery("3", le(logger.state.graph.last_ts), BOTH)
        fresh = cloud.analyze("ep0", q)
        assert admin.verify(q, fresh).accepted
        tamper(ep, "rollback-commitment", rng)
        stale = cloud.analyze("ep0", q)
        report = admin.verify(q, stale)
        assert report.freshness_ok is False and not report.accepted

    @pytest.mark.parametrize("kind", [k for k in TAMPER_KINDS if k != "rollback-commitment"])
    def test_tampered_cloud_state_rejected(self, kind):
        # a fixed seed per kind, so that a failing world can be replayed
        rng, logger, cloud, admin = self._world(seed=TAMPER_KINDS.index(kind))
        ep = cloud.endpoints["ep0"]
        receipt = tamper(ep, kind, rng)
        q = CausalityQuery(receipt.entity_ext, le(receipt.timestamp), BOTH)
        try:
            bundle = cloud.analyze("ep0", q)
        except Exception:
            return  # tampered state failed to even produce a bundle: detected
        report = admin.verify(q, bundle)
        assert not report.accepted, (kind, receipt.description)


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(11)
        stream = simple_stream(rng, 400, 10)
        logger = make_logger(interval=100)
        for e in stream:
            logger.ingest(e)
        if logger.state.events_since_commit:
            logger.commit()
        path = str(tmp_path / "state.bin")
        save_state(path, "ep0", logger.state, logger.commitments)
        endpoint_id, state, commitments = load_state(path, logger.keypair.verify_key)
        assert endpoint_id == "ep0"
        assert [c.to_bytes() for c in commitments] == [
            c.to_bytes() for c in logger.commitments
        ]
        assert state.acc.committed_root == logger.state.acc.committed_root
        # the reloaded state keeps evolving identically
        more = simple_stream(rng, 100, 10)
        base_ts = logger.state.graph.last_ts
        for e in more:
            shifted = EventRecord(e.src, e.action, e.dst, e.ts + base_ts)
            logger.ingest(shifted)
            state.apply_event(shifted)
        assert logger.state.flush() == state.flush()

    def test_snapshot_requires_quiescence(self, tmp_path):
        logger = make_logger(interval=10**9)
        logger.ingest(EventRecord("a", "w", "b", 1))
        with pytest.raises(PendingChanges):
            save_state(str(tmp_path / "x.bin"), "ep0", logger.state, [])

    def test_query_after_reload(self, tmp_path):
        rng = random.Random(12)
        stream = simple_stream(rng, 200, 8)
        logger = make_logger(interval=10**9)
        for e in stream:
            logger.ingest(e)
        logger.commit()
        path = str(tmp_path / "state.bin")
        save_state(path, "ep0", logger.state, logger.commitments)
        _, state, commitments = load_state(path, logger.keypair.verify_key)
        from vcause.causality import analyze, verify_bundle

        q = CausalityQuery("2", le(state.graph.last_ts), BOTH)
        bundle = analyze(state.graph, state.acc, commitments[-1], q)
        assert verify_bundle(logger.keypair.verify_key, q, bundle).accepted

    def _saved(self, tmp_path, commitments=None):
        rng = random.Random(13)
        logger = make_logger(interval=50)
        for e in simple_stream(rng, 120, 6):
            logger.ingest(e)
        if logger.state.events_since_commit:
            logger.commit()
        path = tmp_path / "state.bin"
        kept = logger.commitments if commitments is None else commitments(logger.commitments)
        save_state(str(path), "ep0", logger.state, kept)
        return logger, path

    def test_unknown_mode_tag_is_wire_error(self, tmp_path):
        logger, path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(protocol._SNAP_MAGIC) + 1] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(WireError):
            load_state(str(path), logger.keypair.verify_key)

    def test_flipped_event_byte_fails_at_load(self, tmp_path):
        logger, path = self._saved(tmp_path)
        edge = logger.state.graph.edges[-1]
        blob = bytearray(path.read_bytes())
        action = wire.str_lp(edge.event_type)
        i = blob.rfind(action) + len(action) - 1
        blob[i] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(WireError, match="do not replay"):
            load_state(str(path), logger.keypair.verify_key)

    def test_clock_regression_in_stored_events_is_wire_error(self, tmp_path):
        logger, path = self._saved(tmp_path)
        edges = [e for e in logger.state.graph.edges if e.kind == "dependency"]
        assert edges[0].dst_ref[1] < edges[-1].dst_ref[1]
        _swap_event_times(edges[0], edges[-1])
        save_state(str(path), "ep0", logger.state, logger.commitments)
        with pytest.raises(WireError, match="timestamp"):
            load_state(str(path), logger.keypair.verify_key)

    def test_first_epoch_without_events_is_wire_error(self, tmp_path):
        logger, path = self._saved(tmp_path)
        first = logger.commitments[0]
        empty = make_commitment(logger.keypair.signing_key, "ep0", 1, 0, first.root,
                                first.registry_digest, first.timestamp)
        save_state(str(path), "ep0", logger.state, [empty] + logger.commitments[1:])
        with pytest.raises(WireError, match="ends at event 0"):
            load_state(str(path), logger.keypair.verify_key)

    @pytest.mark.parametrize("field, offset", [("depth", 0), ("commit_interval", 4)])
    def test_zero_config_field_is_wire_error(self, tmp_path, field, offset):
        logger, path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        at = len(protocol._SNAP_MAGIC) + 2 + offset  # after version and mode
        blob[at:at + 4] = bytes(4)
        path.write_bytes(bytes(blob))
        with pytest.raises(WireError, match="invalid state config"):
            load_state(str(path), logger.keypair.verify_key)

    def test_root_must_match_last_commitment(self, tmp_path):
        logger, path = self._saved(tmp_path, commitments=lambda cs: cs[:-1])
        with pytest.raises(WireError):
            load_state(str(path), logger.keypair.verify_key)

    def test_nodes_without_commitment_fail_at_load(self, tmp_path):
        logger, path = self._saved(tmp_path, commitments=lambda cs: [])
        with pytest.raises(WireError):
            load_state(str(path), logger.keypair.verify_key)

    def test_flipped_signature_byte_fails_at_load(self, tmp_path):
        logger, path = self._saved(tmp_path)
        signature = logger.commitments[0].signature
        blob = bytearray(path.read_bytes())
        assert blob.count(signature) == 1
        blob[blob.find(signature) + 10] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(WireError):
            load_state(str(path), logger.keypair.verify_key)

    def test_commitments_must_name_the_endpoint(self, tmp_path):
        logger, path = self._saved(tmp_path)
        save_state(str(path), "ep1", logger.state, logger.commitments)
        with pytest.raises(WireError):
            load_state(str(path), logger.keypair.verify_key)

    def test_commitments_must_verify_under_the_key(self, tmp_path):
        _, path = self._saved(tmp_path)
        with pytest.raises(WireError):
            load_state(str(path), KeyPair.generate().verify_key)


class TestSnapshotEpochs:
    def _logger(self):
        logger = make_logger(interval=50)
        for e in simple_stream(random.Random(14), 120, 6):
            logger.ingest(e)
        if logger.state.events_since_commit:
            logger.commit()
        assert len(logger.commitments) >= 2
        return logger

    def test_epoch_is_the_commitment_count(self, tmp_path):
        """A logger rebuilt from a snapshot signs its next commitment as
        epoch n + 1, n being the stored commitment count."""
        logger = self._logger()
        path = str(tmp_path / "state.bin")
        save_state(path, "ep0", logger.state, logger.commitments)
        endpoint_id, state, commitments = load_state(path, logger.keypair.verify_key)
        reloaded = EndpointLogger(endpoint_id, logger.keypair, state.config)
        reloaded.state, reloaded.commitments = state, commitments
        assert reloaded.commit().epoch == len(logger.commitments) + 1 == logger.commit().epoch

    def test_skipped_commitment_epoch_refused(self, tmp_path):
        logger = self._logger()
        last = logger.commitments[-1]
        skipped = make_commitment(
            logger.keypair.signing_key, "ep0", last.epoch + 1, last.event_count, last.root,
            last.registry_digest, last.timestamp,
        )
        commitments = logger.commitments[:-1] + [skipped]
        path = str(tmp_path / "state.bin")
        save_state(path, "ep0", logger.state, commitments)
        with pytest.raises(WireError, match="carries epoch"):
            load_state(path, logger.keypair.verify_key)
        events = simple_stream(random.Random(14), 120, 6)  # the stream _logger ingests
        with pytest.raises(RootMismatch, match="carries epoch"):
            Cloud().replay("ep0", events, commitments, logger.state.config)

    def test_version_2_snapshot_refused(self, tmp_path):
        """Versions 1 to 3 stored the derived graph and version 4 an
        unsigned event count per commitment; all are refused."""
        logger = self._logger()
        path = tmp_path / "state.bin"
        save_state(str(path), "ep0", logger.state, logger.commitments)
        honest = path.read_bytes()
        for version in (1, 2, 3, 4):
            blob = bytearray(honest)
            blob[len(protocol._SNAP_MAGIC)] = version
            path.write_bytes(bytes(blob))
            with pytest.raises(WireError, match="unsupported snapshot version"):
                load_state(str(path), logger.keypair.verify_key)


class TestSnapshotCanonicity:
    def test_every_single_bit_flip_is_refused(self, tmp_path):
        """Every single-bit flip of a small segmented snapshot raises
        WireError, except in commit_interval: that is the endpoint's local
        policy, which no commitment signs."""
        logger = synth_logger(seed=5, n_events=20, n_entities=5, interval=8)
        logger.commit()  # an epoch without new events
        path = tmp_path / "state.bin"
        save_state(str(path), "ep0", logger.state, logger.commitments)
        blob = path.read_bytes()
        interval_at = len(protocol._SNAP_MAGIC) + 2 + 4
        loaded, other = [], []
        for i in range(len(blob)):
            for bit in range(8):
                mutant = bytearray(blob)
                mutant[i] ^= 1 << bit
                path.write_bytes(bytes(mutant))
                try:
                    load_state(str(path), logger.keypair.verify_key)
                except WireError:
                    continue
                except Exception as exc:  # any other exception type fails the test
                    other.append((i, bit, repr(exc)))
                    continue
                loaded.append(i)
        assert other == []
        assert all(interval_at <= i < interval_at + 4 for i in loaded), loaded
