"""The three benchmark workloads and the metrics they report.

Every workload drives vcause's public API in-process from one client
thread, as a closed loop: each operation starts after the previous one has
been checked. perfbench/README.md explains why each workload exists and
defines every metric.
"""

from __future__ import annotations

import bisect
import gc
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from vcause import (
    Admin,
    CausalityQuery,
    Cloud,
    EndpointLogger,
    KeyPair,
    ProofBundle,
    Relation,
    RootMismatch,
    StateConfig,
    SynthConfig,
    parse_jsonl,
    synth,
)
from vcause import accumulator, causality, commitment, dimtree, protocol, provgraph
from vcause.ingest import emit_jsonl

import tamper
from tracing import Tracer

ENDPOINT = "host-1"
ENTITIES = 500  # the ROADMAP baseline shape
CONFIG = StateConfig(provgraph.SEGMENTED, 1, 1000)
INGEST_EVENTS = 5000  # one ingest pass, the ROADMAP baseline size
# Query states are smaller than an ingest pass so that a run completes at
# least QUERY_MIN["query-heavy"] heavy queries; their answers still carry
# thousands of component nodes and MB-sized bundles.
QUERY_STATE_EVENTS = 2000
# A query workload builds its state twice before the timed phase and four
# times during it, between five equal segments of the query loop, so that
# its set-up time and its ingest and replay rates are sampled across the run.
BUILDS_BEFORE = 2
BUILDS_DURING = 4
# Queries drawn per run, and how many of them every run completes: counts
# and bundle sizes are taken over those, so they do not depend on speed.
QUERY_DRAWN = {"query-heavy": 400, "query-point": 5000}
QUERY_MIN = {"query-heavy": 100, "query-point": 1000}
PROBE_QUERIES = 200  # untimed point-mix probe on ingest and query-heavy states
TAMPER_SHARE = 10  # one query in this many gets tamper controls
EMPTY_KINDS = ("ge-past-last", "unknown")

clock = time.perf_counter

# Where the program looks each traced function up, and the layer it counts
# towards. Functions imported by name are wrapped in the importing module.
TRACED = (
    (provgraph.Graph, "record_event", "provgraph.record"),
    (provgraph.VersionNode, "leaf_digest", "provgraph.leaf_digest"),
    (provgraph.Graph, "collect_backward", "provgraph.collect"),
    (provgraph.Graph, "collect_forward", "provgraph.collect"),
    (accumulator.Accumulator, "register_node", "accumulator.sync"),
    (accumulator.Accumulator, "update_node", "accumulator.sync"),
    (accumulator.Accumulator, "commit", "accumulator.commit"),
    (accumulator.Accumulator, "prove_node", "accumulator.prove"),
    (accumulator.Accumulator, "prove_range", "accumulator.prove"),
    (accumulator, "verify_node", "accumulator.verify"),
    (accumulator, "verify_range", "accumulator.verify"),
    (dimtree.DimTree, "finalize", "dimtree.finalize"),
    (protocol, "make_commitment", "commitment.sign"),
    (commitment.Commitment, "verify", "commitment.verify"),
    (causality, "analyze", "causality.analyze"),
    (causality, "verify_backward", "causality.verify_backward"),
    (causality, "verify_forward", "causality.verify_forward"),
    (causality, "mset_hash_set", "hashcore.mset_hash_set"),
)

# per-layer metrics: ingest-side ones are per logger event, query-side ones
# per query; see README.md
INGEST_LAYERS = (
    "ingest.parse_jsonl",
    "provgraph.record",
    "provgraph.leaf_digest",
    "accumulator.sync",
    "accumulator.commit",
    "dimtree.finalize",
    "commitment.sign",
)
QUERY_LAYERS = (
    "accumulator.prove",
    "provgraph.collect",
    "causality.analyze",
    "commitment.verify",
    "accumulator.verify",
    "causality.verify_backward",
    "causality.verify_forward",
    "hashcore.mset_hash_set",
    "wire.serialize",
    "wire.parse",
)
SECTIONS = ("commitment", "poi", "poi_proof", "backward", "forward", "root_proofs")


class TracedRun:
    """Patch the traced functions in and record while the block runs."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        for owner, attr, name in TRACED:
            self.tracer.patch(owner, attr, name)
        self.tracer.active = True
        return self.tracer

    def __exit__(self, *exc):
        self.tracer.active = False
        self.tracer.restore()


class RootLog:
    """Record the root every EndpointState.flush returns, per state, so that
    logger and cloud roots can be compared at every epoch."""

    def __enter__(self):
        self._flush = flush = protocol.EndpointState.flush
        self._roots: dict[int, list[bytes]] = {}
        roots = self._roots

        def logged_flush(state):
            root = flush(state)
            roots.setdefault(id(state), []).append(root)
            return root

        protocol.EndpointState.flush = logged_flush
        return self

    def __exit__(self, *exc):
        protocol.EndpointState.flush = self._flush

    def take(self, state) -> list[bytes]:
        return self._roots.pop(id(state), [])


class GcWatch:
    """Collections and pause time, read through gc.callbacks."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = clock()
        else:
            self.collections += 1
            self.pause_s += clock() - self._start

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


# -- inputs -----------------------------------------------------------------


def render_stream(seed: int, n_events: int) -> tuple[list, str]:
    events = list(synth(SynthConfig(seed=seed, n_events=n_events, n_entities=ENTITIES)))
    return events, emit_jsonl(events)


def keypair(seed: int) -> KeyPair:
    sk = Ed25519PrivateKey.from_private_bytes(random.Random(seed).randbytes(32))
    return KeyPair(sk, sk.public_key())


@dataclass(frozen=True)
class Query:
    kind: str
    query: CausalityQuery


def draw_heavy(events, rng, n: int) -> list[Query]:
    """`both` queries: popularity-weighted entities, uniform mid-stream time."""
    names = [f"e{rank}" for rank in range(ENTITIES)]
    skew = SynthConfig().popularity_skew
    weights = [1.0 / (rank + 1) ** skew for rank in range(ENTITIES)]
    lo, hi = events[0].ts, events[-1].ts
    quarter = (hi - lo) // 4
    out = []
    for _ in range(n):
        ext = rng.choices(names, weights)[0]
        op = rng.choice((accumulator.REL_LE, accumulator.REL_GE))
        t = rng.randint(lo + quarter, hi - quarter)
        out.append(Query("both", CausalityQuery(ext, Relation(op, t), causality.BOTH)))
    return out


def draw_point(events, rng, n: int) -> list[Query]:
    """Blocks of ten: three early-stream backward, three late-stream forward,
    three `ge` past the entity's last version, one unknown entity."""
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for ev in events:
        first.setdefault(ev.src, ev.ts)
        last.setdefault(ev.src, ev.ts)
        first.setdefault(ev.dst, ev.ts)
        last[ev.dst] = ev.ts
    by_first = sorted((ts, e) for e, ts in first.items())
    by_last = sorted((ts, e) for e, ts in last.items())
    first_ts = [ts for ts, _ in by_first]
    last_ts = [ts for ts, _ in by_last]
    known = sorted(first)
    lo, hi = events[0].ts, events[-1].ts
    tenth = max(1, (hi - lo) // 10)
    block = ["backward-early"] * 3 + ["forward-late"] * 3 + ["ge-past-last"] * 3 + ["unknown"]
    out: list[Query] = []
    while len(out) < n:
        rng.shuffle(block)
        for kind in block:
            if kind == "backward-early":
                t = rng.randint(lo, lo + tenth)
                ext = by_first[rng.randrange(bisect.bisect_right(first_ts, t))][1]
                q = CausalityQuery(ext, Relation(accumulator.REL_LE, t), causality.BACKWARD)
            elif kind == "forward-late":
                t = rng.randint(hi - tenth, hi)
                ext = by_last[rng.randrange(bisect.bisect_left(last_ts, t), len(by_last))][1]
                q = CausalityQuery(ext, Relation(accumulator.REL_GE, t), causality.FORWARD)
            elif kind == "ge-past-last":
                ext = rng.choice(known)
                q = CausalityQuery(ext, Relation(accumulator.REL_GE, last[ext] + 1), causality.BOTH)
            else:
                t = rng.randint(lo, hi)
                q = CausalityQuery(f"u{rng.randrange(ENTITIES)}", Relation(accumulator.REL_LE, t),
                                   causality.BOTH)
            out.append(Query(kind, q))
    return out[:n]


# -- write path ---------------------------------------------------------------


@dataclass
class WritePass:
    events: list
    logger: EndpointLogger
    cloud: Cloud
    parse_s: float
    ingest_s: float
    replay_s: float
    latencies: list[float]
    leaf_hashes: int
    internal_hashes: int
    roots_ok: bool

    @property
    def ingest_rate(self) -> float:
        return len(self.events) / (self.parse_s + self.ingest_s)

    @property
    def replay_rate(self) -> float:
        return len(self.events) / self.replay_s


def write_pass(jsonl: str, kp: KeyPair, tracer: Tracer, roots: RootLog, label: str) -> WritePass:
    """parse_jsonl -> EndpointLogger.ingest (commit + sign every interval)
    -> Cloud.replay; the logger's roots must equal the cloud's at every epoch."""
    lines = jsonl.splitlines()
    t0 = clock()
    with tracer.span("ingest.parse_jsonl"):
        events = list(parse_jsonl(lines))
    t1 = clock()
    logger = EndpointLogger(ENDPOINT, kp, CONFIG)
    counters = dimtree.counters
    leaf0, internal0 = counters.leaf, counters.internal
    latencies: list[float] = []
    record = latencies.append
    interval = CONFIG.commit_interval
    for i, ev in enumerate(events):
        if i % interval == 0:
            tracer.op = f"{label}.e{i // interval + 1}"  # the epoch this event commits in
        a = clock()
        logger.ingest(ev)
        record(clock() - a)
    tracer.op = None
    if logger.state.events_since_commit:
        logger.commit()
    t2 = clock()
    leaf, internal = counters.leaf - leaf0, counters.internal - internal0
    cloud = Cloud()
    with tracer.paused():
        try:
            cloud.replay(ENDPOINT, events, logger.commitments, CONFIG)
            replayed = True
        except RootMismatch:
            replayed = False
    t3 = clock()
    logger_roots = roots.take(logger.state)
    cloud_roots = roots.take(cloud.endpoints[ENDPOINT].state)
    signed = [c.root for c in logger.commitments]
    ok = replayed and bool(signed) and logger_roots == cloud_roots == signed
    return WritePass(events, logger, cloud, t1 - t0, t2 - t1, t3 - t2, latencies,
                     leaf, internal, ok)


# -- query path ---------------------------------------------------------------


@dataclass
class QueryStats:
    """Per-query latencies, plus counts over the first `n_min` queries."""

    latencies: list[float] = field(default_factory=list)
    bundle_bytes: list[int] = field(default_factory=list)
    empty_bytes: list[int] = field(default_factory=list)
    sections: dict[str, int] = field(default_factory=lambda: dict.fromkeys(SECTIONS, 0))
    component_nodes: int = 0
    root_proof_entries: int = 0
    verify_leaf_hashes: int = 0
    verify_internal_hashes: int = 0
    attempted: int = 0
    failed: int = 0
    mutants: int = 0
    accepted_mutants: list[str] = field(default_factory=list)

    @property
    def counted(self) -> int:
        return len(self.bundle_bytes)

    def count(self, bundle: ProofBundle, size: int, kind: str, leaf: int, internal: int) -> None:
        self.bundle_bytes.append(size)
        if kind == "unknown":
            self.empty_bytes.append(size)
        sections = self.sections
        sections["commitment"] += len(bundle.commitment.to_bytes())
        if bundle.poi is not None:
            sections["poi"] += len(bundle.poi.to_bytes())
        sections["poi_proof"] += len(bundle.poi_proof.to_bytes())
        for n in bundle.backward_nodes or ():
            sections["backward"] += len(n.to_bytes())
            self.component_nodes += 1
        for e in bundle.backward_edges or ():
            sections["backward"] += len(e.to_bytes())
        for seg in bundle.forward_segments or ():
            sections["forward"] += len(seg.to_bytes())
            self.component_nodes += len(seg.nodes)
        for p in bundle.root_proofs or ():
            sections["root_proofs"] += len(p.to_bytes())
            self.root_proof_entries += 1
        self.verify_leaf_hashes += leaf
        self.verify_internal_hashes += internal


class QueryRunner:
    """Cloud.analyze -> ProofBundle.to_bytes -> ProofBundle.from_bytes ->
    Admin.verify, timed as one operation; checks run untimed after it."""

    def __init__(self, cloud: Cloud, admin: Admin, earlier, tracer: Tracer, seed: int):
        self.cloud = cloud
        self.admin = admin
        self.earlier = earlier  # a validly signed, stale commitment
        self.tracer = tracer
        self.seed = seed
        self.rng = random.Random(seed)  # mutant choices

    def run(self, queries: list[Query], n_count: int, seconds: float,
            stats: QueryStats | None = None, finish: bool = True) -> QueryStats:
        """Run queries in order until `seconds` have passed, continuing
        `stats` if given. The first n_count queries are counted and a
        seed-chosen tenth of them get tamper controls; with `finish` the
        run goes on until all n_count are done."""
        tampered = set(random.Random(self.seed).sample(range(n_count), n_count // TAMPER_SHARE))
        stats = QueryStats() if stats is None else stats
        deadline = clock() + seconds
        i = len(stats.latencies)
        while clock() < deadline or (finish and i < n_count):
            self._one(i, queries[i % len(queries)], stats, i < n_count, i in tampered)
            i += 1
        return stats

    def _one(self, i: int, item: Query, stats: QueryStats, counted: bool,
             tampered: bool) -> None:
        tracer = self.tracer
        query = item.query
        counters = dimtree.counters
        leaf0, internal0 = counters.leaf, counters.internal
        tracer.op = i
        t0 = clock()
        with tracer.span("stage.analyze"):
            bundle = self.cloud.analyze(ENDPOINT, query)
        with tracer.span("stage.serialize"):
            data = bundle.to_bytes()
        with tracer.span("stage.parse"):
            parsed = ProofBundle.from_bytes(data)
        with tracer.span("stage.verify"):
            report = self.admin.verify(query, parsed)
        stats.latencies.append(clock() - t0)
        tracer.op = None
        leaf, internal = counters.leaf - leaf0, counters.internal - internal0

        with tracer.paused():
            stats.attempted += 1
            ok = report.accepted and parsed.to_bytes() == data
            if item.kind in EMPTY_KINDS:
                ok = ok and report.provably_empty
            stats.failed += not ok
            if counted:
                stats.count(parsed, len(data), item.kind, leaf, internal)
            if tampered:
                for kind, mutant in tamper.mutants(data, self.earlier, self.rng):
                    stats.attempted += 1
                    stats.mutants += 1
                    if self.admin.verify(query, mutant).accepted:
                        stats.failed += 1
                        stats.accepted_mutants.append(f"{kind}@{i}")


def make_runner(wp: WritePass, kp: KeyPair, tracer: Tracer, seed: int) -> QueryRunner:
    admin = Admin()
    admin.register_endpoint(ENDPOINT, kp.verify_key)
    return QueryRunner(wp.cloud, admin, wp.logger.commitments[-2], tracer, seed)


# -- metrics --------------------------------------------------------------------


def percentiles(latencies: list[float]) -> dict:
    """p50 and p90 in ms; p99 only when at least ten samples lie beyond it."""
    out = {
        "samples": len(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
    }
    if len(latencies) >= 1000:
        out["p99_ms"] = statistics.quantiles(latencies, n=100)[-1] * 1e3
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def state_counts(wp: WritePass) -> dict:
    graph = wp.logger.state.graph
    acc = wp.logger.state.acc
    n = len(wp.events)
    stubs = sum(1 for node in graph.nodes.values() if node.is_terminal)
    return {
        "events": n,
        "epochs": len(wp.logger.commitments),
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "terminal_nodes": stubs,
        "registry_entries": len(acc.registry_order),
        "stub_entries": sum(1 for ext in acc.registry_order if ext.startswith("\x00")),
        "digest_updates_per_ev": graph.total_digest_updates / n,
        "sync_ops_per_ev": acc.sync_ops / n,
        "leaf_hashes_per_ev": wp.leaf_hashes / n,
        "internal_hashes_per_ev": wp.internal_hashes / n,
    }


def query_counts(stats: QueryStats) -> dict:
    n = stats.counted
    out = {
        "queries": n,
        "component_nodes_per_query": stats.component_nodes / n,
        "root_proof_entries_per_query": stats.root_proof_entries / n,
        "verify_leaf_hashes_per_query": stats.verify_leaf_hashes / n,
        "verify_internal_hashes_per_query": stats.verify_internal_hashes / n,
        "bundle_bytes_per_query": sum(stats.bundle_bytes) / n,
        "bundle_bytes_max": max(stats.bundle_bytes),
    }
    out.update({f"{s}_bytes_per_query": v / n for s, v in stats.sections.items()})
    return out


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    info: dict
    tracer: Tracer | None = None


@dataclass
class PassLog:
    """Rates and latencies of write passes; callers keep only the last
    state alive."""

    ingest_rates: list[float] = field(default_factory=list)
    replay_rates: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    events: int = 0
    failed_events: int = 0
    last: WritePass | None = None

    def add(self, wp: WritePass) -> None:
        self.ingest_rates.append(wp.ingest_rate)
        self.replay_rates.append(wp.replay_rate)
        self.latencies.extend(wp.latencies)
        self.events += len(wp.events)
        self.failed_events += 0 if wp.roots_ok else len(wp.events)
        self.last = wp


def slow_quartile(rates: list[float]) -> float:
    """The rate that three passes in four reach.

    The host alternates between two speeds about 2x apart for seconds at a
    time, so a median over passes jumps with the share of fast passes in a
    run; the slower quartile stays with the usual, slower speed."""
    return statistics.quantiles(rates, n=4)[0] if len(rates) > 1 else rates[0]


def end_to_end(log: PassLog, op_latencies: list[float], bundle_bytes: list[int],
               empty_bytes: list[int], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    lat = percentiles(op_latencies)
    return {
        "ingest_ev_per_s": (slow_quartile(log.ingest_rates), "ev/s"),
        "replay_ev_per_s": (slow_quartile(log.replay_rates), "ev/s"),
        "op_p50_ms": (lat["p50_ms"], "ms"),
        "op_p90_ms": (lat["p90_ms"], "ms"),
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "bundle_bytes_p50": (statistics.median(bundle_bytes), "B"),
        "bundle_bytes_p90": (statistics.quantiles(bundle_bytes, n=10)[-1], "B"),
        "empty_proof_bytes": (statistics.median(empty_bytes), "B"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(tracer: Tracer, ingest_slice, ingest_events: int, query_slice, stats: QueryStats,
              state: dict, gcw: GcWatch, n_ops: int, overhead_pct: float,
              coverage_pct: float) -> dict[str, tuple[float, str]]:
    ing_self, _ = tracer.self_times(*ingest_slice)
    q_self, q_total = tracer.self_times(*query_slice)
    n_q = len(stats.latencies)
    counts = query_counts(stats)
    m: dict[str, tuple[float, str]] = {}
    for name in INGEST_LAYERS:
        m[f"{name}.s"] = (ing_self.get(name, 0.0) / ingest_events, "s/ev")
    m["provgraph.digest_updates"] = (state["digest_updates_per_ev"], "count/ev")
    m["provgraph.nodes"] = (state["nodes"], "count")
    m["provgraph.terminal_nodes"] = (state["terminal_nodes"], "count")
    m["accumulator.sync_ops"] = (state["sync_ops_per_ev"], "count/ev")
    m["accumulator.registry_entries"] = (state["registry_entries"], "count")
    m["accumulator.stub_entries"] = (state["stub_entries"], "count")
    m["dimtree.ingest.leaf_hashes"] = (state["leaf_hashes_per_ev"], "count/ev")
    m["dimtree.ingest.internal_hashes"] = (state["internal_hashes_per_ev"], "count/ev")
    for stage in ("analyze", "verify"):
        m[f"stage.{stage}.s"] = (q_total.get(f"stage.{stage}", 0.0) / n_q, "s/query")
    q_self["wire.serialize"] = q_self.get("stage.serialize", 0.0)
    q_self["wire.parse"] = q_self.get("stage.parse", 0.0)
    for name in QUERY_LAYERS:
        m[f"{name}.s"] = (q_self.get(name, 0.0) / n_q, "s/query")
    mset_calls = tracer.count(*query_slice, "hashcore.mset_hash_set", op_below=stats.counted)
    m["hashcore.mset_hash_set.calls"] = (mset_calls / stats.counted, "count/query")
    m["causality.component_nodes"] = (counts["component_nodes_per_query"], "count/query")
    m["causality.root_proof_entries"] = (counts["root_proof_entries_per_query"], "count/query")
    for s in SECTIONS:
        m[f"wire.bytes.{s}"] = (counts[f"{s}_bytes_per_query"], "B/query")
    m["dimtree.verify.leaf_hashes"] = (counts["verify_leaf_hashes_per_query"], "count/query")
    m["dimtree.verify.internal_hashes"] = (
        counts["verify_internal_hashes_per_query"], "count/query")
    m["gc.collections"] = (gcw.collections / n_ops, "count/op")
    m["gc.pause_s"] = (gcw.pause_s / n_ops, "s/op")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.span_coverage_pct"] = (coverage_pct, "%")
    return m


def _overhead_pct(untraced: list[float], traced: list[float]) -> float:
    """Traced vs untraced mean time of the same operations."""
    k = min(len(untraced), len(traced))
    return (sum(traced[:k]) / sum(untraced[:k]) - 1.0) * 100.0


def _info(workload: str, sizes: dict, state: dict, op_lat: list[float], stats: QueryStats,
          gcw: GcWatch, setup_times: list[float]) -> dict:
    return {
        "workload": workload,
        "sizes": sizes,
        "op_latency": percentiles(op_lat),
        "state": state,
        "queries": query_counts(stats),
        "checks": {
            "mutants": stats.mutants,
            "accepted_mutants": stats.accepted_mutants,
        },
        "gc": {"collections": gcw.collections, "pause_s": gcw.pause_s},
        "setup_s_all": setup_times,
    }


# -- workloads ----------------------------------------------------------------


def _ingest_passes(seed: int, seconds: float, tracer: Tracer, roots: RootLog,
                   setup_times: list[float]) -> tuple[PassLog, KeyPair]:
    """Write passes until `seconds` have passed. Each pass first renders its
    inputs again; that set-up is timed on its own, so set-up time is sampled
    across the whole run and not only at its start."""
    log = PassLog()
    deadline = clock() + seconds
    while not log.events or clock() < deadline:
        log.last = None  # free the previous state
        t0 = clock()
        _, jsonl = render_stream(seed, INGEST_EVENTS)
        kp = keypair(seed)
        setup_times.append(clock() - t0)
        gc.collect()
        log.add(write_pass(jsonl, kp, tracer, roots, f"p{len(log.ingest_rates)}"))
    return log, kp


def run_ingest(seed: int, seconds: float, trace: bool) -> Result:
    tracer = Tracer()
    setup_times: list[float] = []
    with RootLog() as roots:
        with GcWatch() as gcw:
            log, kp = _ingest_passes(seed, seconds / 2 if trace else seconds, tracer, roots,
                                     setup_times)
        logs = [log]
        if trace:
            untraced = log.latencies
            with TracedRun(tracer):
                log, kp = _ingest_passes(seed, seconds / 2, tracer, roots, setup_times)
            logs.append(log)
            ingest_slice = (0, len(tracer.spans))
        last = log.last
        probe = draw_point(last.events, random.Random(seed), PROBE_QUERIES)
        runner = make_runner(last, kp, tracer, seed)
        q_lo = len(tracer.spans)
        with TracedRun(tracer) if trace else nullcontext():
            stats = runner.run(probe, PROBE_QUERIES, 0.0)
        query_slice = (q_lo, len(tracer.spans))

    state = state_counts(last)
    attempted = sum(x.events for x in logs) + stats.attempted
    failed = sum(x.failed_events for x in logs) + stats.failed
    sizes = {"events_per_pass": INGEST_EVENTS, "entities": ENTITIES,
             "passes": len(log.ingest_rates), "probe_queries": PROBE_QUERIES}
    info = _info("ingest", sizes, state, log.latencies, stats, gcw, setup_times)
    if not trace:
        metrics = end_to_end(log, log.latencies, stats.bundle_bytes, stats.empty_bytes,
                             setup_times)
        return Result(metrics, attempted, failed, info)
    coverage = tracer.top_level_time(*ingest_slice) / sum(log.latencies) * 100.0
    metrics = per_layer(tracer, ingest_slice, log.events, query_slice, stats, state, gcw,
                        len(untraced), _overhead_pct(untraced, log.latencies), coverage)
    return Result(metrics, attempted, failed, info, tracer)


def _query_state(workload: str, seed: int, tracer: Tracer, roots: RootLog, log: PassLog,
                 setup_times: list[float], label: str) -> tuple[list, KeyPair, list[Query]]:
    """Set-up of a query workload: render, parse, ingest and replay the
    state, and draw the query list."""
    log.last = None  # free the previous state
    gc.collect()
    t0 = clock()
    events, jsonl = render_stream(seed, QUERY_STATE_EVENTS)
    kp = keypair(seed)
    log.add(write_pass(jsonl, kp, tracer, roots, label))
    draw = draw_heavy if workload == "query-heavy" else draw_point
    queries = draw(events, random.Random(seed), QUERY_DRAWN[workload])
    setup_times.append(clock() - t0)
    return events, kp, queries


def run_query(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    n_min = QUERY_MIN[workload]
    tracer = Tracer()
    setup_times: list[float] = []
    log = PassLog()
    with RootLog() as roots:
        # in a traced run the ingest-side layers are measured on these builds
        with TracedRun(tracer) if trace else nullcontext():
            for rep in range(BUILDS_BEFORE):
                events, kp, queries = _query_state(workload, seed, tracer, roots, log,
                                                   setup_times, f"setup{rep}")
        ingest_slice = (0, len(tracer.spans))
        runner = make_runner(log.last, kp, tracer, seed)
        state = state_counts(log.last)

        gcw = GcWatch()
        checked = []
        if trace:
            gc.collect()
            with gcw:
                checked.append(runner.run(queries, 0, seconds / 2))
            untraced = checked[0].latencies
            q_lo = len(tracer.spans)
            with TracedRun(tracer):
                stats = runner.run(queries, n_min, seconds / 2)
            query_slice = (q_lo, len(tracer.spans))
        else:
            stats = QueryStats()
            segments = BUILDS_DURING + 1
            for k in range(segments):
                if k:
                    _query_state(workload, seed, tracer, roots, log, setup_times, f"build{k}")
                gc.collect()
                with gcw:
                    runner.run(queries, n_min, seconds / segments, stats, k == segments - 1)
        checked.append(stats)
        if workload == "query-heavy":
            # heavy answers are never empty: size the empty proof on a probe
            probe = runner.run(draw_point(events, random.Random(seed), PROBE_QUERIES),
                               PROBE_QUERIES, 0.0)
            checked.append(probe)
            empty_bytes = probe.empty_bytes
        else:
            empty_bytes = stats.empty_bytes

    attempted = log.events + sum(s.attempted for s in checked)
    failed = log.failed_events + sum(s.failed for s in checked)
    sizes = {"state_events": QUERY_STATE_EVENTS, "entities": ENTITIES,
             "queries_drawn": QUERY_DRAWN[workload], "queries_counted": n_min}
    info = _info(workload, sizes, state, stats.latencies, stats, gcw, setup_times)
    if not trace:
        metrics = end_to_end(log, stats.latencies, stats.bundle_bytes, empty_bytes, setup_times)
        return Result(metrics, attempted, failed, info)
    coverage = tracer.top_level_time(*query_slice) / sum(stats.latencies) * 100.0
    metrics = per_layer(tracer, ingest_slice, log.events, query_slice, stats, state, gcw,
                        len(untraced), _overhead_pct(untraced, stats.latencies), coverage)
    return Result(metrics, attempted, failed, info, tracer)
