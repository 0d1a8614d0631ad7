"""CLI subcommands end to end against temporary state directories."""

import gc
import json
import sys
import warnings

import pytest
from click.testing import CliRunner

from vcause.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


class TestGen:
    def test_writes_jsonl(self, runner, tmp_path):
        out = tmp_path / "log.jsonl"
        res = run(runner, ["gen", "--seed", "42", "--events", "1000", "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1000
        assert json.loads(lines[0])["ts"] >= 0

    def test_same_seed_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(runner, ["gen", "--seed", "7", "--events", "500", "--out", str(a)])
        run(runner, ["gen", "--seed", "7", "--events", "500", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_mode(self, runner):
        res = run(runner, ["gen", "--events", "3"])
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 3

    def test_bad_config(self, runner):
        res = run(runner, ["gen", "--fanout", "0.1"])
        assert res.exit_code != 0


class TestIngest:
    def _gen(self, runner, tmp_path, events=1000, seed=42):
        log = tmp_path / "log.jsonl"
        run(runner, ["gen", "--seed", str(seed), "--events", str(events),
                     "--out", str(log)])
        return log

    def test_single_interval_single_commitment(self, runner, tmp_path):
        log = self._gen(runner, tmp_path, events=1000)
        state = tmp_path / "state"
        res = run(runner, ["-s", str(state), "--format", "json", "ingest", str(log),
                           "--interval", "1000"])
        assert res.exit_code == 0, res.output
        lines = [json.loads(l) for l in res.output.strip().splitlines()]
        epochs = [l["epoch"] for l in lines if "epoch" in l]
        assert epochs == [1]
        assert (state / "state.bin").exists()
        assert (state / "commitments.jsonl").exists()

    def test_second_ingest_into_one_state_dir_is_refused(self, runner, tmp_path):
        """A second ingest would sign a second, different epoch 1 with the
        same key and drop the earlier state."""
        state = tmp_path / "state"
        first = self._gen(runner, tmp_path, events=300, seed=1)
        assert run(runner, ["-s", str(state), "ingest", str(first)]).exit_code == 0
        snap = (state / "state.bin").read_bytes()
        log = (state / "commitments.jsonl").read_bytes()
        second = tmp_path / "second.jsonl"
        run(runner, ["gen", "--seed", "2", "--events", "200", "--out", str(second)])
        res = runner.invoke(main, ["-s", str(state), "ingest", str(second)])
        assert res.exit_code != 0
        assert "state.bin" in res.output
        assert (state / "state.bin").read_bytes() == snap
        assert (state / "commitments.jsonl").read_bytes() == log

    def test_reingest_same_root(self, runner, tmp_path):
        log = self._gen(runner, tmp_path)
        r1 = run(runner, ["-s", str(tmp_path / "s1"), "--format", "json",
                          "ingest", str(log)])
        r2 = run(runner, ["-s", str(tmp_path / "s2"), "--format", "json",
                          "ingest", str(log)])
        root1 = json.loads(r1.output.strip().splitlines()[-1])["final_root"]
        root2 = json.loads(r2.output.strip().splitlines()[-1])["final_root"]
        assert root1 == root2

    def test_modes_give_different_roots_both_verify(self, runner, tmp_path):
        log = self._gen(runner, tmp_path, events=400)
        roots = {}
        for mode in ("segmented", "unsegmented"):
            state = tmp_path / mode
            res = run(runner, ["-s", str(state), "--format", "json", "ingest",
                               str(log), "--mode", mode])
            roots[mode] = json.loads(res.output.strip().splitlines()[-1])["final_root"]
            qres = run(runner, ["-s", str(state), "--format", "json", "query", "e1",
                                "--at", "99999", "--out", str(state / "b.bin")])
            assert qres.exit_code == 0
            vres = runner.invoke(main, ["-s", str(state), "verify", str(state / "b.bin")])
            assert vres.exit_code == 0, vres.output
        assert roots["segmented"] != roots["unsegmented"]

    def test_clock_regression_aborts(self, runner, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text(
            '{"src":"a","action":"w","dst":"b","ts":5}\n'
            '{"src":"a","action":"w","dst":"b","ts":4}\n'
        )
        res = run(runner, ["-s", str(tmp_path / "s"), "ingest", str(log)])
        assert res.exit_code != 0
        assert "event 2" in res.output

    @pytest.mark.parametrize("option", ["--depth", "--interval"])
    def test_zero_depth_or_interval_is_a_usage_error(self, runner, tmp_path, option):
        log = self._gen(runner, tmp_path, events=10)
        state = tmp_path / "state"
        res = runner.invoke(main, ["-s", str(state), "ingest", str(log), option, "0"])
        assert res.exit_code == 2, res.output
        assert "x>=1" in res.output
        assert not (state / "state.bin").exists()

    def test_missing_log_is_a_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["-s", str(tmp_path / "s"), "ingest",
                                   str(tmp_path / "nosuch.jsonl")])
        assert res.exit_code == 2, res.output
        assert "nosuch.jsonl" in res.output and "No such file" in res.output

    def test_log_from_stdin(self, runner, tmp_path):
        res = run(runner, ["-s", str(tmp_path / "s"), "--format", "json", "ingest", "-"],
                  input='{"src":"a","action":"w","dst":"b","ts":5}\n')
        assert res.exit_code == 0, res.output
        assert json.loads(res.output.strip().splitlines()[-1])["events"] == 1

    def test_timestamp_past_u64_is_refused_before_ingest(self, runner, tmp_path):
        log = tmp_path / "big.jsonl"
        log.write_text('{"src":"a","action":"w","dst":"b","ts":18446744073709551616}\n')
        res = runner.invoke(main, ["-s", str(tmp_path / "s"), "ingest", str(log)])
        assert res.exit_code == 1, res.output
        assert "line 1: ts must be an integer" in res.output
        assert not (tmp_path / "s" / "state.bin").exists()

    def test_lenient_skips(self, runner, tmp_path):
        log = tmp_path / "messy.jsonl"
        log.write_text(
            '{"src":"a","action":"w","dst":"b","ts":5}\n'
            "garbage\n"
            '{"src":"b","action":"w","dst":"c","ts":6}\n'
        )
        res = run(runner, ["-s", str(tmp_path / "s"), "--format", "json",
                           "ingest", str(log), "--lenient"])
        assert res.exit_code == 0
        summary = json.loads(res.output.strip().splitlines()[-1])
        assert summary["events"] == 2 and summary["skipped"] == 1


class TestQueryVerify:
    @pytest.fixture
    def state(self, runner, tmp_path):
        log = tmp_path / "log.jsonl"
        run(runner, ["gen", "--seed", "11", "--events", "600", "--entities", "30",
                     "--out", str(log)])
        state = tmp_path / "state"
        res = run(runner, ["-s", str(state), "ingest", str(log), "--interval", "200"])
        assert res.exit_code == 0
        return state

    def test_query_and_verify_roundtrip(self, runner, state, tmp_path):
        bundle = tmp_path / "bundle.bin"
        res = run(runner, ["-s", str(state), "--format", "json", "query", "e2",
                           "--at", "999999", "--out", str(bundle)])
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output.strip())
        assert summary["found"] is True
        vres = runner.invoke(main, ["-s", str(state), "--format", "json",
                                    "verify", str(bundle)])
        assert vres.exit_code == 0, vres.output
        report = json.loads(vres.output.strip())
        assert report["accepted"] is True

    def test_verify_closes_the_key_file(self, runner, state, tmp_path, monkeypatch):
        """With ResourceWarning raised as an error, an unclosed key file
        raises it in the file's finalizer, where it reaches the
        unraisable-exception hook."""
        bundle = tmp_path / "bundle.bin"
        run(runner, ["-s", str(state), "query", "e2", "--at", "999999", "--out", str(bundle)])
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            vres = runner.invoke(main, ["-s", str(state), "verify", str(bundle)])
            gc.collect()
        assert vres.exit_code == 0, vres.output
        assert [str(u.exc_value) for u in unraisable] == []

    def test_query_absent_entity_provably_empty(self, runner, state, tmp_path):
        bundle = tmp_path / "empty.bin"
        res = run(runner, ["-s", str(state), "--format", "json", "query",
                           "no-such-entity", "--at", "5", "--out", str(bundle)])
        assert res.exit_code == 0
        assert json.loads(res.output.strip())["found"] is False
        vres = runner.invoke(main, ["-s", str(state), "--format", "json",
                                    "verify", str(bundle)])
        assert vres.exit_code == 0
        assert json.loads(vres.output.strip())["provably_empty"] is True

    def test_flipped_byte_rejected(self, runner, state, tmp_path):
        bundle = tmp_path / "bundle.bin"
        run(runner, ["-s", str(state), "query", "e2", "--at", "999999",
                     "--out", str(bundle)])
        blob = bytearray(bundle.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        bundle.write_bytes(bytes(blob))
        vres = runner.invoke(main, ["-s", str(state), "verify", str(bundle)])
        assert vres.exit_code in (1, 2)  # rejected or malformed, never accepted

    def test_wrong_vk_rejected(self, runner, state, tmp_path):
        from vcause.hashcore import KeyPair

        bundle = tmp_path / "bundle.bin"
        run(runner, ["-s", str(state), "query", "e2", "--at", "999999",
                     "--out", str(bundle)])
        other = tmp_path / "other.pub.pem"
        other.write_bytes(KeyPair.generate().public_pem())
        vres = runner.invoke(main, ["-s", str(state), "--format", "json", "verify",
                                    str(bundle), "--vk", str(other)])
        assert vres.exit_code == 1
        assert json.loads(vres.output.strip())["commitment_ok"] is False

    def test_malformed_bundle_distinct_exit(self, runner, state, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x99not a bundle")
        vres = runner.invoke(main, ["-s", str(state), "verify", str(bad)])
        assert vres.exit_code == 2

    def test_commit_advances_epoch(self, runner, state):
        res = run(runner, ["-s", str(state), "--format", "json", "commit"])
        assert res.exit_code == 0
        assert json.loads(res.output.strip())["epoch"] == 4  # 600/200 + 1

    def test_commits_after_reload_continue_the_epochs(self, runner, state):
        # the snapshot stores no epoch: each load derives it from the
        # signed commitments, so every commit signs the next one
        for want in (4, 5):
            res = run(runner, ["-s", str(state), "--format", "json", "commit"])
            assert json.loads(res.output.strip())["epoch"] == want
        lines = (state / "commitments.jsonl").read_text().splitlines()
        log = [json.loads(line) for line in lines]
        assert [row["epoch"] for row in log] == [1, 2, 3, 4, 5]
        assert [row["event_count"] for row in log] == [200, 400, 600, 600, 600]

    @pytest.mark.parametrize("at", ["-1", str(2**64), str(10**29)])
    @pytest.mark.parametrize("command", ["query", "verify"])
    def test_at_out_of_range_is_a_usage_error(self, runner, state, tmp_path, command, at):
        bundle = tmp_path / "bundle.bin"
        run(runner, ["-s", str(state), "query", "e2", "--at", "5", "--out", str(bundle)])
        args = ["e2"] if command == "query" else [str(bundle)]
        res = runner.invoke(main, ["-s", str(state), command, *args, "--at", at])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--at'" in res.output

    def test_query_summary_counts_anchors(self, runner, state, tmp_path):
        res = run(runner, ["-s", str(state), "--format", "json", "query", "e2",
                           "--at", "300", "--direction", "forward",
                           "--out", str(tmp_path / "bundle.bin")])
        summary = json.loads(res.output.strip())
        assert "root_proofs" not in summary
        assert summary["anchors"] >= summary["anchor_entities"] >= 0
        assert summary["forward_segments"] == summary["anchors"] + 1


class TestMissingKey:
    @pytest.fixture
    def state(self, runner, tmp_path):
        log = tmp_path / "log.jsonl"
        run(runner, ["gen", "--seed", "4", "--events", "200", "--out", str(log)])
        state = tmp_path / "state"
        assert run(runner, ["-s", str(state), "ingest", str(log)]).exit_code == 0
        return state

    def test_state_without_key_fails_loudly(self, runner, state):
        (state / "key.pem").unlink()
        res = runner.invoke(main, ["-s", str(state), "commit"])
        assert res.exit_code == 1
        assert "key.pem" in res.output
        assert not (state / "key.pem").exists()

    def test_query_needs_only_the_public_key(self, runner, state, tmp_path):
        (state / "key.pem").unlink()
        bundle = tmp_path / "bundle.bin"
        res = runner.invoke(main, ["-s", str(state), "query", "e1", "--at", "999999",
                                   "--out", str(bundle)])
        assert res.exit_code == 0, res.output
        vres = runner.invoke(main, ["-s", str(state), "verify", str(bundle)])
        assert vres.exit_code == 0, vres.output
        assert not (state / "key.pem").exists()

    def test_query_without_public_key_fails_loudly(self, runner, state):
        (state / "key.pub.pem").unlink()
        res = runner.invoke(main, ["-s", str(state), "query", "e1", "--at", "999999"])
        assert res.exit_code == 1
        assert "public key" in res.output


class TestTamper:
    def test_tamper_demo_rejects(self, runner, tmp_path):
        log = tmp_path / "log.jsonl"
        run(runner, ["gen", "--seed", "3", "--events", "400", "--out", str(log)])
        state = tmp_path / "state"
        run(runner, ["-s", str(state), "ingest", str(log), "--interval", "100"])
        for kind in ("delete-edge", "forge-digest", "rollback-commitment"):
            res = runner.invoke(main, ["-s", str(state), "--format", "json", "tamper",
                                       "--kind", kind, "--seed", "5"])
            assert res.exit_code == 0, (kind, res.output)
            out = json.loads(res.output.strip())
            assert out["detected"] is True

    def test_unknown_kind(self, runner, tmp_path):
        res = runner.invoke(main, ["-s", str(tmp_path), "tamper", "--kind", "nope"])
        assert res.exit_code != 0


class TestBench:
    def test_insertion_csv(self, runner, tmp_path):
        out = tmp_path / "ins.csv"
        res = run(runner, ["bench", "--workload", "insertion",
                           "--sizes", "1024,2048", "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "leaves,seconds,merges"
        rows = [l.split(",") for l in lines[1:]]
        assert int(rows[0][2]) == 1024 - 1  # merges for a power of two
        assert int(rows[1][2]) == 2048 - 1

    def test_digest_updates_csv(self, runner):
        res = run(runner, ["bench", "--workload", "digest-updates", "--sizes", "300,600"])
        lines = res.output.strip().splitlines()
        assert lines[0].startswith("events,")
        rows = [l.split(",") for l in lines[1:]]
        seg = [float(r[1]) for r in rows]
        unseg = [float(r[2]) for r in rows]
        assert all(s < u for s, u in zip(seg, unseg))

    def test_commitment_size_csv(self, runner):
        res = run(runner, ["bench", "--workload", "commitment-size", "--sizes", "100,400"])
        rows = [l.split(",") for l in res.output.strip().splitlines()[1:]]
        assert rows[0][1] == rows[1][1]  # constant size
