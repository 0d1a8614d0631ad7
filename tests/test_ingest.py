"""Log parsing, round-trips, and synthetic workload statistics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcause.ingest import (
    ParseError,
    ParseStats,
    SynthConfig,
    emit_jsonl,
    parse_jsonl,
    synth,
)
from vcause.provgraph import EventRecord


class TestParseJsonl:
    def test_basic_line(self):
        events = list(parse_jsonl(['{"src":"1","action":"write","dst":"2","ts":5}']))
        assert events == [EventRecord("1", "write", "2", 5)]

    def test_empty_input(self):
        assert list(parse_jsonl([])) == []
        assert list(parse_jsonl(["", "  ", "\n"])) == []

    def test_payload_hex(self):
        events = list(
            parse_jsonl(['{"src":"a","action":"w","dst":"b","ts":1,"payload":"0a0b"}'])
        )
        assert events[0].payload == b"\x0a\x0b"

    def test_strict_error_carries_line_number(self):
        lines = ['{"src":"a","action":"w","dst":"b","ts":1}', "not json"]
        with pytest.raises(ParseError) as exc:
            list(parse_jsonl(lines))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("bad", [
        '{"src":"","action":"w","dst":"b","ts":1}',
        '{"src":"a","action":"w","dst":"b","ts":-1}',
        '{"src":"a","action":"w","dst":"b","ts":18446744073709551616}',
        '{"src":"a","action":"w","dst":"b","ts":1.5}',
        '{"src":"a","action":"w","dst":"b"}',
        '{"src":"a","action":"w","dst":"b","ts":true}',
        '{"src":"a\\u0000x","action":"w","dst":"b","ts":1}',
        '[1,2,3]',
    ])
    def test_bad_lines_rejected(self, bad):
        with pytest.raises(ParseError):
            list(parse_jsonl([bad]))

    def test_largest_u64_timestamp_parses(self):
        line = '{"src":"a","action":"w","dst":"b","ts":18446744073709551615}'
        assert list(parse_jsonl([line])) == [EventRecord("a", "w", "b", 2**64 - 1)]

    def test_lenient_counts(self):
        lines = [
            '{"src":"a","action":"w","dst":"b","ts":1}',
            "garbage",
            '{"src":"a","action":"w","dst":"b","ts":2}',
            '{"ts":3}',
        ]
        stats = ParseStats()
        events = list(parse_jsonl(lines, strict=False, stats=stats))
        assert len(events) == 2
        assert stats.accepted == 2 and stats.skipped == 2

    def test_never_raises_on_arbitrary_bytes_lenient(self):
        rng = random.Random(1)
        lines = [rng.randbytes(rng.randrange(0, 60)) for _ in range(500)]
        stats = ParseStats()
        events = list(parse_jsonl(lines, strict=False, stats=stats))
        assert stats.accepted == len(events)
        blank = 0
        for raw in lines:
            try:
                if not raw.decode("utf-8").strip():
                    blank += 1
            except UnicodeDecodeError:
                pass
        assert stats.accepted + stats.skipped + blank == len(lines)

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_single_arbitrary_line_never_crashes_lenient(self, raw):
        list(parse_jsonl([raw], strict=False))

    def test_roundtrip(self):
        rng = random.Random(2)
        events = [
            EventRecord(f"e{rng.randrange(5)}", "w", f"e{rng.randrange(5)}",
                        i, payload=rng.randbytes(rng.randrange(0, 4)))
            for i in range(200)
        ]
        text = emit_jsonl(events)
        again = list(parse_jsonl(text.splitlines()))
        assert again == events
        assert emit_jsonl(again) == text




class TestSynth:
    def test_deterministic(self):
        cfg = SynthConfig(seed=42, n_events=500, n_entities=20)
        assert list(synth(cfg)) == list(synth(cfg))

    def test_different_seeds_differ(self):
        a = list(synth(SynthConfig(seed=1, n_events=100)))
        b = list(synth(SynthConfig(seed=2, n_events=100)))
        assert a != b

    def test_timestamps_non_decreasing(self):
        events = list(synth(SynthConfig(seed=3, n_events=2000, tie_prob=0.3)))
        assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))

    def test_single_entity_chain(self):
        events = list(synth(SynthConfig(seed=4, n_events=50, n_entities=1)))
        assert all(e.src == e.dst == "e0" for e in events)

    def test_invalid_configs_rejected(self):
        for bad in (
            SynthConfig(fanout=0.5),
            SynthConfig(tie_prob=1.0),
            SynthConfig(n_entities=0),
            SynthConfig(max_step=0),
            SynthConfig(actions=()),
        ):
            with pytest.raises(ValueError):
                bad.validate()

    def test_statistics_match_config(self):
        cfg = SynthConfig(seed=5, n_events=100_000, n_entities=100,
                          fanout=3.0, tie_prob=0.2)
        events = list(synth(cfg))
        assert len(events) == cfg.n_events
        ties = sum(1 for a, b in zip(events, events[1:]) if a.ts == b.ts)
        tie_rate = ties / (len(events) - 1)
        assert abs(tie_rate - cfg.tie_prob) / cfg.tie_prob < 0.05
        # mean burst length: runs of identical src entities
        bursts = 1
        for a, b in zip(events, events[1:]):
            if a.src != b.src:
                bursts += 1
        mean_burst = len(events) / bursts
        assert abs(mean_burst - cfg.fanout) / cfg.fanout < 0.05

    def test_stream_ingests_cleanly(self):
        from vcause.hashcore import KeyPair
        from vcause.protocol import EndpointLogger, StateConfig

        cfg = SynthConfig(seed=6, n_events=5000, n_entities=50, tie_prob=0.2)
        logger = EndpointLogger("ep", KeyPair.generate(), StateConfig("segmented", 1, 1000))
        count = 0
        for ev in synth(cfg):
            logger.ingest(ev)
            count += 1
        assert count == 5000
        assert len(logger.commitments) == 5
