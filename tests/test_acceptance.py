"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Scale parameters follow the stated criteria; instrumented
counters (insertion merges, internal hash recomputations, digest updates
per attachment) make the scaling claims machine-checkable independent of
hardware.
"""

import functools
import math
import random
import time

import pytest

from vcause import accumulator as acc_mod
from vcause import causality, dimtree
from vcause.accumulator import Accumulator, Relation, TimestampKey
from vcause.causality import BACKWARD, BOTH, FORWARD, CausalityQuery, ProofBundle
from vcause.dimtree import DimTree, LeafRecord
from vcause.hashcore import KeyPair, MsetDigest, hash_bytes, mset_add
from vcause.ingest import SynthConfig, synth
from vcause.protocol import Cloud, EndpointLogger, EndpointState, StateConfig, admin_verify
from vcause.provgraph import SEGMENTED, UNSEGMENTED, EventRecord, Graph

from .helpers import (
    attachment_counts,
    backward_reachable,
    flatten_forward,
    forward_reachable,
    recompute_pi_out,
    simple_stream,
)


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} FAIL  {title}")
                raise
            print(f"\nACCEPTANCE {num:02d} PASS  {title} "
                  f"({time.perf_counter() - start:.1f}s)")
        return wrapper
    return deco


def le(t):
    return Relation(acc_mod.REL_LE, t)


def ge(t):
    return Relation(acc_mod.REL_GE, t)


@pytest.fixture(scope="module")
def world_10k():
    """10^4-event pipeline shared by the soundness and completeness runs."""
    cfg = SynthConfig(seed=101, n_events=10_000, n_entities=2500,
                      fanout=2.0, tie_prob=0.1)
    logger = EndpointLogger("ep-accept", KeyPair.generate(),
                            StateConfig(SEGMENTED, 1, 2000))
    for ev in synth(cfg):
        logger.ingest(ev)
    if logger.state.events_since_commit:
        logger.commit()
    return logger


@pytest.fixture(scope="module")
def world_100k():
    """10^5-event log + logger, shared by commitment-size and replay runs."""
    cfg = SynthConfig(seed=202, n_events=100_000, n_entities=600,
                      fanout=2.0, tie_prob=0.15)
    events = list(synth(cfg))
    logger = EndpointLogger("ep-accept", KeyPair.generate(),
                            StateConfig(SEGMENTED, 1, 1000))
    for ev in events:
        logger.ingest(ev)
    assert logger.state.events_since_commit == 0  # 100 full epochs
    return events, logger


# -- criterion 1: tamper detection -------------------------------------------


def _bundle_components(bundle):
    n = len(bundle.backward_nodes or [])
    n += sum(len(s.nodes) for s in bundle.forward_segments or [])
    return n


def _base_bundles(logger, rng, want=24):
    """Verified honest bundles with moderate component sizes.

    Mutation throughput matters more than bundle size, so mix directions:
    late-timestamp backward and early-timestamp forward queries stay small
    even on well-connected graphs.
    """
    graph = logger.state.graph
    commitment = logger.commitments[-1]
    vk = logger.keypair.verify_key
    bases = []
    exts = [e for e in graph.entity_exts if not e.startswith("\x00")]
    rng.shuffle(exts)
    directions = [BOTH, BACKWARD, FORWARD]
    for i, ext in enumerate(exts):
        if len(bases) >= want:
            break
        t = rng.randrange(1, graph.last_ts + 1)
        q = CausalityQuery(ext, le(t), directions[i % 3])
        bundle = causality.analyze(graph, logger.state.acc, commitment, q)
        if bundle.poi is None:
            continue
        if not 4 <= _bundle_components(bundle) <= 400:
            continue
        report = causality.verify_bundle(vk, q, bundle)
        assert report.accepted, report.first_failure
        bases.append((q, bundle.to_bytes()))
    both_count = sum(1 for q, _ in bases if q.direction == BOTH)
    assert len(bases) >= 20 and both_count >= 4, (len(bases), both_count)
    return bases


def _ref_of(node):
    return (node.entity_id, node.key.encoded())


def _mutate_node(node, variant, rng):
    if variant == 0:
        node.key = TimestampKey(node.key.timestamp + 1, node.key.seq)
    elif variant == 1:
        node.key = TimestampKey(node.key.timestamp, node.key.seq + 1)
    elif variant == 2:
        node.entity_id += 1
    elif variant == 3:
        node.pi = mset_add(node.pi, b"mut")
    else:
        node.is_terminal = not node.is_terminal
        node.terminal_target = node.ref if node.is_terminal else None


def _mutate_edge(edge, variant, pool_refs, rng):
    if variant == 0:
        edge.event_type += "?"
    elif variant == 1:
        edge.kind = "temporal" if edge.kind == "dependency" else "dependency"
    elif variant == 2:
        edge.payload += b"\x01"
    elif variant == 3:
        edge.src_ref = rng.choice(pool_refs)
    else:
        edge.dst_ref = rng.choice(pool_refs)


def _flip_byte(data, rng):
    out = bytearray(data)
    out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
    return bytes(out)


def _gen_mutants(bases, rng, target_total):
    """Yield (class_name, query, mutated_bundle, min_epoch) tuples."""
    count = 0
    round_no = 0
    while count < target_total:
        round_no += 1
        for b_idx, (q, blob) in enumerate(bases):
            if count >= target_total:
                return

            def fresh():
                return ProofBundle.from_bytes(blob)

            # node mutations, backward and forward
            bundle = fresh()
            for list_getter, where in (
                (lambda b: b.backward_nodes, "b"),
                (lambda b: (b.forward_segments[rng.randrange(len(b.forward_segments))]
                            .nodes if b.forward_segments else None), "f"),
            ):
                for variant in range(5):
                    bundle = fresh()
                    nodes = list_getter(bundle)
                    if not nodes:
                        continue
                    idx = rng.randrange(len(nodes))
                    _mutate_node(nodes[idx], (variant + round_no) % 5, rng)
                    yield "node-modify", q, bundle, 0
                    count += 1
                bundle = fresh()
                nodes = list_getter(bundle)
                if nodes and len(nodes) > 1:
                    nodes.pop(rng.randrange(len(nodes)))
                    yield "node-delete", q, bundle, 0
                    count += 1
                bundle = fresh()
                nodes = list_getter(bundle)
                if nodes is not None:
                    nodes.append(causality.WireNode(
                        10**6 + rng.randrange(1000), TimestampKey(rng.randrange(100), 0),
                        False, None, MsetDigest(0),
                    ))
                    yield "node-add", q, bundle, 0
                    count += 1

            # edge mutations
            for list_getter in (
                lambda b: (b.backward_edges, b.backward_nodes),
                lambda b: ((seg := b.forward_segments[rng.randrange(len(b.forward_segments))])
                           .edges, seg.nodes) if b.forward_segments else (None, None),
            ):
                for variant in range(5):
                    bundle = fresh()
                    edges, nodes = list_getter(bundle)
                    if not edges:
                        continue
                    idx = rng.randrange(len(edges))
                    pool_refs = [n.ref for n in nodes]
                    before = edges[idx].to_bytes()
                    _mutate_edge(edges[idx], (variant + round_no) % 5, pool_refs, rng)
                    if edges[idx].to_bytes() == before:
                        edges[idx].event_type += "!"
                    yield "edge-modify", q, bundle, 0
                    count += 1
                bundle = fresh()
                edges, _ = list_getter(bundle)
                if edges:
                    edges.pop(rng.randrange(len(edges)))
                    yield "edge-delete", q, bundle, 0
                    count += 1
                bundle = fresh()
                edges, nodes = list_getter(bundle)
                if edges is not None and nodes:
                    refs = [n.ref for n in nodes]
                    edges.append(causality.WireEdge(
                        "dependency", rng.choice(refs), rng.choice(refs), "mut",
                    ))
                    yield "edge-add", q, bundle, 0
                    count += 1

            # digest forgery on the POI record and the anchor entries: one
            # byte of a shipped 32-byte digest hash flipped
            for which in range(3):
                bundle = fresh()
                if which == 0:
                    bundle.poi.pi_in_hash = _flip_byte(bundle.poi.pi_in_hash, rng)
                elif which == 1:
                    bundle.poi.pi_out_hash = _flip_byte(bundle.poi.pi_out_hash, rng)
                elif bundle.root_proofs:
                    entry = bundle.root_proofs[rng.randrange(len(bundle.root_proofs))]
                    entry.pi_in_hashes[0] = _flip_byte(entry.pi_in_hashes[0], rng)
                else:
                    continue
                yield "digest-forgery", q, bundle, 0
                count += 1

            # POI swap and proof splicing across queries; splices that do
            # not change the bundle bytes are no-ops, not mutants
            other_q, other_blob = bases[(b_idx + 1) % len(bases)]
            other = ProofBundle.from_bytes(other_blob)
            bundle = fresh()
            bundle.poi = other.poi
            bundle.poi_proof = other.poi_proof
            if bundle.to_bytes() != blob:
                yield "poi-swap", q, bundle, 0
                count += 1
            bundle = fresh()
            bundle.backward_nodes = other.backward_nodes
            bundle.backward_edges = other.backward_edges
            if bundle.to_bytes() != blob:
                yield "proof-splice", q, bundle, 0
                count += 1
            bundle = fresh()
            if bundle.forward_segments is not None:
                bundle.root_proofs = (
                    other.root_proofs if other.root_proofs is not None else []
                )
                bundle.anchor_global = other.anchor_global
                if bundle.to_bytes() != blob:
                    yield "proof-splice", q, bundle, 0
                    count += 1
            bundle = fresh()
            if bundle.poi_proof.proof.local_proof.steps:
                bundle.poi_proof.proof.local_proof.steps.pop()
                yield "proof-splice", q, bundle, 0
                count += 1


@criterion(1, "tamper detection: >=10^4 mutants across all classes rejected")
def test_01_tamper_detection(world_10k):
    logger = world_10k
    rng = random.Random(555)
    vk = logger.keypair.verify_key
    latest_epoch = logger.commitments[-1].epoch
    bases = _base_bundles(logger, rng)

    accepted = []
    per_class = {}
    total = 0
    for name, q, bundle, min_epoch in _gen_mutants(bases, rng, 9_900):
        report = admin_verify(vk, q, bundle, min_epoch)
        total += 1
        per_class[name] = per_class.get(name, 0) + 1
        if report.accepted:
            accepted.append((name, q))

    # commitment rollback: old commitment, old components, fresh admin state
    old_commitment = logger.commitments[0]
    graph = logger.state.graph
    for ext in [e for e in graph.entity_exts if not e.startswith("\x00")][:100]:
        q = CausalityQuery(ext, le(graph.last_ts), BOTH)
        bundle = causality.analyze(graph, logger.state.acc, logger.commitments[-1], q)
        stale = ProofBundle(
            q, old_commitment, bundle.poi, bundle.poi_proof,
            bundle.backward_nodes, bundle.backward_edges,
            bundle.forward_segments, bundle.root_proofs, bundle.anchor_global,
        )
        report = admin_verify(vk, q, stale, latest_epoch)
        total += 1
        per_class["commitment-rollback"] = per_class.get("commitment-rollback", 0) + 1
        if report.accepted:
            accepted.append(("commitment-rollback", q))

    assert total >= 10_000, total
    want_classes = {
        "node-add", "node-delete", "node-modify",
        "edge-add", "edge-delete", "edge-modify",
        "poi-swap", "digest-forgery", "proof-splice", "commitment-rollback",
    }
    assert want_classes <= set(per_class), per_class
    assert accepted == [], f"{len(accepted)} mutants accepted: {accepted[:5]}"


# -- criterion 2: completeness -------------------------------------------------


@criterion(2, "completeness: 10^3 honest queries all verify")
def test_02_completeness(world_10k):
    logger = world_10k
    rng = random.Random(777)
    graph = logger.state.graph
    commitment = logger.commitments[-1]
    vk = logger.keypair.verify_key
    failures = []
    empties = 0
    for i in range(1000):
        if i % 19 == 0:
            ext = f"ghost-{i}"  # provably-empty query
        else:
            ext = f"e{rng.randrange(2600)}"  # some beyond the entity range
        t = rng.randrange(0, graph.last_ts + 10)
        rel = le(t) if rng.random() < 0.5 else ge(t)
        direction = (BACKWARD, FORWARD, BOTH)[i % 3]
        q = CausalityQuery(ext, rel, direction)
        bundle = causality.analyze(graph, logger.state.acc, commitment, q)
        report = causality.verify_bundle(vk, q, bundle)
        if not report.accepted:
            failures.append((q, report.first_failure))
        if report.provably_empty:
            empties += 1
    assert failures == [], failures[:5]
    assert empties > 0


# -- criterion 3: oracle equivalence ------------------------------------------


@criterion(3, "oracle equivalence: component sets equal BFS, all POIs")
def test_03_oracle_equivalence():
    cfg = SynthConfig(seed=303, n_events=600, n_entities=40, tie_prob=0.0)
    logger = EndpointLogger("ep3", KeyPair.generate(), StateConfig(SEGMENTED, 1, 10**9))
    for ev in synth(cfg):
        logger.ingest(ev)
    commitment = logger.commit()
    graph = logger.state.graph
    vk = logger.keypair.verify_key
    real_nodes = [n for n in graph.nodes.values() if not n.is_terminal]
    assert len(real_nodes) <= 1000
    for node in real_nodes:
        # a node is addressable as the floor of its timestamp unless a
        # same-timestamp sibling shadows it; then it is the ceiling
        q = CausalityQuery(node.entity_ext, le(node.key.timestamp), BOTH)
        bundle = causality.analyze(graph, logger.state.acc, commitment, q)
        if bundle.poi is not None and bundle.poi.ref != node.ref:
            q = CausalityQuery(node.entity_ext, ge(node.key.timestamp), BOTH)
            bundle = causality.analyze(graph, logger.state.acc, commitment, q)
        assert bundle.poi is not None and bundle.poi.ref == node.ref
        report = causality.verify_bundle(vk, q, bundle)
        assert report.accepted, (node.ref, report.first_failure)
        want_b_nodes, want_b_edges = backward_reachable(graph, node.ref)
        assert {n.ref for n in bundle.backward_nodes} == want_b_nodes
        assert len(bundle.backward_edges) == len(want_b_edges)
        want_f_nodes, want_f_edges = forward_reachable(graph, node.ref)
        got_f = {n.ref for seg in bundle.forward_segments
                 for n in seg.nodes if not n.is_terminal}
        assert got_f == want_f_nodes
        got_f_edges = sum(len(s.edges) for s in bundle.forward_segments)
        assert got_f_edges == len(want_f_edges)


# -- criterion 4: digest maintenance ------------------------------------------


@criterion(4, "digest maintenance: incremental == from-scratch at 50 prefixes")
def test_04_digest_maintenance():
    rng = random.Random(404)
    stream = simple_stream(rng, 500, 15, tie_prob=0.15)
    checkpoints = set(rng.sample(range(1, 501), 50))
    configs = [(UNSEGMENTED, 1), (SEGMENTED, 1), (SEGMENTED, 2), (SEGMENTED, 4)]
    for mode, depth in configs:
        g = Graph(mode=mode, depth=depth)
        for i, ev in enumerate(stream, 1):
            g.record_event(ev)
            if i in checkpoints:
                want = recompute_pi_out(g)
                for ref, node in g.nodes.items():
                    assert node.pi_out == want[ref], (mode, depth, i, ref)


# -- criterion 5: segmentation equivalence ------------------------------------


@criterion(5, "segmentation equivalence: flattened forward == unsegmented")
def test_05_segmentation_equivalence():
    rng = random.Random(505)
    stream = simple_stream(rng, 600, 25, tie_prob=0.1)
    unseg = Graph(mode=UNSEGMENTED)
    for ev in stream:
        unseg.record_event(ev)
    assert len(unseg.nodes) <= 1000
    for depth in (1, 2, 4):
        seg = Graph(mode=SEGMENTED, depth=depth)
        for ev in stream:
            seg.record_event(ev)
            for node in seg.nodes.values():
                if not node.is_terminal:
                    assert node.depth <= depth
        for ref, node in unseg.nodes.items():
            seg_ref = (seg.entity_ids[node.entity_ext], node.key.encoded())
            refs, edge_ids = flatten_forward(seg.collect_forward(seg_ref))
            want_refs, want_edges = flatten_forward(unseg.collect_forward(ref))
            got_ext = {(seg.nodes[r].entity_ext, seg.nodes[r].key) for r in refs}
            want_ext = {(unseg.nodes[r].entity_ext, unseg.nodes[r].key) for r in want_refs}
            assert got_ext == want_ext, (depth, ref)
            assert edge_ids == want_edges


# -- criterion 6: amortized insertion ------------------------------------------


@criterion(6, "DIM-Tree insertion: merges == n - popcount(n); linear wall time")
def test_06_amortized_insertion():
    import gc

    payload = b"\x00" * 32
    # wall-time scaling first, on a quiet heap, GC paused during the timed
    # section: three rounds over all sizes, best time per size, so a host
    # speed change that spans one round's largest build leaves two others
    sizes = [1 << k for k in range(10, 21, 2)]
    times = [float("inf")] * len(sizes)
    for _ in range(3):
        for j, size in enumerate(sizes):
            gc.collect()
            gc.disable()
            t = DimTree()
            t0 = time.perf_counter()
            for i in range(size):
                t.insert(LeafRecord(i, payload))
            times[j] = min(times[j], time.perf_counter() - t0)
            gc.enable()
            del t

    # an insertion hashes one internal node per merge
    tree = DimTree()
    before = dimtree.counters.internal
    for n in range(1, 4097):
        tree.insert(LeafRecord(n, payload))
        assert dimtree.counters.internal - before == n - bin(n).count("1")
    big = DimTree()
    n = 1 << 20
    before = dimtree.counters.internal
    for i in range(n):
        big.insert(LeafRecord(i, payload))
    assert dimtree.counters.internal - before == n - 1
    del big
    gc.collect()
    # least-squares fit time ~ a*n + b
    xs, ys = sizes, times
    n_pts = len(xs)
    mx, my = sum(xs) / n_pts, sum(ys) / n_pts
    a = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    b = my - a * mx
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1 - ss_res / ss_tot
    assert r2 > 0.99, (r2, times)


# -- criterion 7: range-proof batching -----------------------------------------


class _AccNode:
    def __init__(self, ext, internal, key):
        self.entity_ext = ext
        self.entity_id = internal
        self.key = key
        self.ref = (internal, key.encoded())

    def leaf_digest(self):
        return hash_bytes(b"acc7" + self.entity_ext.encode() + self.key.to_bytes())


@criterion(7, "range batching: one proof ~m internal hashes vs m*log(N) singles")
def test_07_range_batching():
    acc = Accumulator()
    n, m = 2048, 1000
    for i in range(n):
        acc.register_node(_AccNode("main", 0, TimestampKey(i + 1, 0)))
    for j in range(10):
        acc.register_node(_AccNode(f"other{j}", j + 1, TimestampKey(1, 0)))
    root = acc.commit()
    registry_digest = acc.registry_digest()

    a, b = 500, 500 + m - 1
    res = acc.prove_range("main", a, b)
    assert len(res.leaves) == m
    dimtree.counters.reset()
    assert acc_mod.verify_range(root, "main", a, b, res, registry_digest)
    batch_ops = dimtree.counters.internal

    dimtree.counters.reset()
    for t in range(a, b + 1):
        single = acc.prove_node("main", Relation(acc_mod.REL_KEY, TimestampKey(t, 0).encoded()))
        assert acc_mod.verify_node(root, "main",
                                   Relation(acc_mod.REL_KEY, TimestampKey(t, 0).encoded()),
                                   single)
    single_ops = dimtree.counters.internal

    logn = math.log2(n)
    assert batch_ops <= m + 8 * logn, (batch_ops, m + 8 * logn)
    assert single_ops >= 0.5 * m * logn, (single_ops, 0.5 * m * logn)


# -- criterion 8: segmented update overhead ------------------------------------


@criterion(8, "segmented updates bounded (L=1 <= 3); unsegmented grows")
def test_08_update_overhead():
    cfg = SynthConfig(seed=808, n_events=100_000, n_entities=600,
                      fanout=2.0, tie_prob=0.15)
    g = Graph(mode=SEGMENTED, depth=1)
    attachments = attachment_counts(g)  # per-attachment digest-update counts
    worst = 0
    for ev in synth(cfg):
        attachments.clear()
        g.record_event(ev)
        if attachments:
            worst = max(worst, max(attachments))
            assert max(attachments) <= 3
    assert worst >= 2  # the bound is exercised, not vacuous

    # unsegmented counts grow with graph size: monotone trend over buckets
    # (scaled down: per-event cost is O(ancestors), quadratic overall)
    cfg_u = SynthConfig(seed=809, n_events=2400, n_entities=50,
                        fanout=2.0, tie_prob=0.1)
    gu = Graph(mode=UNSEGMENTED)
    counts = []
    for ev in synth(cfg_u):
        before = gu.total_digest_updates
        gu.record_event(ev)
        counts.append(gu.total_digest_updates - before)
    bucket = 400
    means = [sum(counts[i:i + bucket]) / bucket for i in range(0, len(counts), bucket)]
    assert all(b > a for a, b in zip(means, means[1:])), means


# -- criterion 9: commitment size constancy -------------------------------------


@criterion(9, "commitment size constant across 10^2..10^5 events")
def test_09_commitment_size(world_100k):
    _, logger_100k = world_100k
    sizes = {len(logger_100k.commitments[-1].to_bytes())}
    for n_events in (100, 1000, 10_000):
        cfg = SynthConfig(seed=909, n_events=n_events, n_entities=60)
        logger = EndpointLogger("ep-accept", KeyPair.generate(),
                                StateConfig(SEGMENTED, 1, 10**9))
        for ev in synth(cfg):
            logger.ingest(ev)
        sizes.add(len(logger.commit().to_bytes()))
    assert len(sizes) == 1, sizes
    # documented layout: tag + len-prefixed endpoint id + epoch + event count +
    # root + registry digest + timestamp + len-prefixed Ed25519 signature
    expected = len(b"VCAUSE1") + 4 + len("ep-accept") + 8 + 8 + 32 + 32 + 8 + 2 + 64
    assert sizes == {expected}, (sizes, expected)


# -- criterion 10: replay determinism -------------------------------------------


@criterion(10, "replay determinism + 100 single-event tampers all detected")
def test_10_replay_determinism(world_100k):
    events, logger = world_100k
    config = logger.state.config
    interval = config.commit_interval
    commitments = logger.commitments
    assert len(commitments) == len(events) // interval

    # API-level replay sanity over a prefix; the lockstep pass below checks
    # every epoch of the full log through the same code path
    cloud = Cloud()
    prefix_epochs = 10
    cloud.replay("ep-accept", events[: prefix_epochs * interval],
                 commitments[:prefix_epochs], config)

    rng = random.Random(1010)
    kinds = ("delete", "modify", "reorder")
    tampers = []  # (window, kind, position)
    while len(tampers) < 100:
        kind = kinds[len(tampers) % 3]
        p = rng.randrange(len(events))
        w = p // interval
        if kind == "reorder":
            # need an adjacent same-timestamp pair of differing events
            # inside one window
            found = None
            for i in range(w * interval, (w + 1) * interval - 1):
                if events[i].ts == events[i + 1].ts and events[i] != events[i + 1]:
                    found = i
                    break
            if found is None:
                continue
            p = found
        tampers.append((w, kind, p))

    def tampered_window(w, kind, p):
        lo, hi = w * interval, (w + 1) * interval
        if kind == "delete":
            return events[lo:p] + events[p + 1:hi + 1]
        window = list(events[lo:hi])
        if kind == "modify":
            ev = window[p - lo]
            window[p - lo] = EventRecord(ev.src, ev.action + "~", ev.dst, ev.ts, ev.payload)
        else:
            window[p - lo], window[p - lo + 1] = window[p - lo + 1], window[p - lo]
        return window

    by_window = {}
    for w, kind, p in tampers:
        by_window.setdefault(w, []).append((kind, p))

    state = EndpointState(config)
    missed = []
    for w in range(len(commitments)):
        for kind, p in by_window.get(w, ()):
            probe = state.fork()
            for ev in tampered_window(w, kind, p):
                probe.apply_event(ev)
            root = probe.flush()
            detected = (root != commitments[w].root
                        or probe.acc.registry_digest() != commitments[w].registry_digest)
            if not detected:
                missed.append((w, kind, p))
        for ev in events[w * interval:(w + 1) * interval]:
            state.apply_event(ev)
        root = state.flush()
        assert root == commitments[w].root  # pristine stays in lockstep
    assert missed == [], missed
