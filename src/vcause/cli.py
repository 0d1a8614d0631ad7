"""Operator CLI: generate, ingest, commit, query, verify, tamper, bench.

State lives in a directory (--state-dir or VCAUSE_STATE_DIR): key pair,
canonical event log, commitment log, and a binary state snapshot. The
ingest command plays the logger and cloud roles in one process; query and
verify exercise the cloud and administrator sides against that state.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

import click

from . import __version__
from . import accumulator as acc_mod
from . import causality, ingest, protocol
from .accumulator import Relation
from .causality import CausalityQuery, ProofBundle, verify_bundle
from .hashcore import KeyPair, load_private_pem, load_public_pem
from .provgraph import SEGMENTED, UNSEGMENTED, ClockRegression, Graph
from .wire import WireError

_RELATIONS = {"le": acc_mod.REL_LE, "ge": acc_mod.REL_GE}

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_MALFORMED = 2

_TIMESTAMP = click.IntRange(0, ingest.U64_MAX)


class CliState:
    def __init__(self, state_dir: str, fmt: str):
        self.state_dir = state_dir
        self.fmt = fmt

    def emit(self, payload: dict, human: str) -> None:
        if self.fmt == "json":
            click.echo(json.dumps(payload, sort_keys=True))
        else:
            click.echo(human)

    def path(self, name: str) -> str:
        return os.path.join(self.state_dir, name)


@click.group()
@click.option(
    "--state-dir", "-s", envvar="VCAUSE_STATE_DIR", default="./vcause-state",
    show_default=True, help="Directory holding keys, logs and snapshots.",
)
@click.option("--format", "fmt", type=click.Choice(["human", "json"]), default="human",
              show_default=True)
@click.version_option(__version__)
@click.pass_context
def main(ctx, state_dir, fmt):
    """Verifiable causality analysis over versioned provenance graphs."""
    ctx.obj = CliState(state_dir, fmt)


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("--events", default=1000, show_default=True)
@click.option("--entities", default=50, show_default=True)
@click.option("--fanout", default=2.0, show_default=True)
@click.option("--tie-prob", default=0.1, show_default=True)
@click.option("--max-step", default=3, show_default=True)
@click.option("--actions", default="read,write,exec,connect", show_default=True)
@click.option("--out", default="-", show_default=True, help="Output file ('-' = stdout).")
@click.pass_obj
def gen(cli, seed, events, entities, fanout, tie_prob, max_step, actions, out):
    """Generate a deterministic synthetic JSONL event stream."""
    try:
        cfg = ingest.SynthConfig(
            seed=seed, n_events=events, n_entities=entities, fanout=fanout,
            tie_prob=tie_prob, max_step=max_step,
            actions=tuple(a for a in actions.split(",") if a),
        )
        cfg.validate()
    except ValueError as exc:
        raise click.ClickException(str(exc))
    text = ingest.emit_jsonl(ingest.synth(cfg))
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)
        cli.emit({"written": out, "events": events}, f"wrote {events} events to {out}")


def _read_keys(cli) -> KeyPair:
    with open(cli.path("key.pem"), "rb") as fh:
        sk = load_private_pem(fh.read())
    return KeyPair(sk, sk.public_key())


def _load_or_create_keys(cli) -> KeyPair:
    if os.path.exists(cli.path("key.pem")):
        return _read_keys(cli)
    kp = KeyPair.generate()
    os.makedirs(cli.state_dir, exist_ok=True)
    with open(cli.path("key.pem"), "wb") as fh:
        fh.write(kp.private_pem())
    with open(cli.path("key.pub.pem"), "wb") as fh:
        fh.write(kp.public_pem())
    return kp


def _write_commitment_log(cli, commitments) -> None:
    with open(cli.path("commitments.jsonl"), "w") as fh:
        for c in commitments:
            fh.write(json.dumps({
                "endpoint_id": c.endpoint_id,
                "epoch": c.epoch,
                "event_count": c.event_count,
                "root": c.root.hex(),
                "registry_digest": c.registry_digest.hex(),
                "timestamp": c.timestamp,
                "signature": c.signature.hex(),
            }, sort_keys=True) + "\n")


def _save_endpoint(cli, logger: protocol.EndpointLogger) -> None:
    protocol.save_state(
        cli.path("state.bin"), logger.endpoint_id, logger.state, logger.commitments
    )
    cfg = logger.state.config
    with open(cli.path("config.json"), "w") as fh:
        json.dump({
            "endpoint_id": logger.endpoint_id,
            "mode": cfg.mode,
            "depth": cfg.depth,
            "interval": cfg.commit_interval,
        }, fh, sort_keys=True, indent=2)
    _write_commitment_log(cli, logger.commitments)


def _read_vk(cli):
    try:
        with open(cli.path("key.pub.pem"), "rb") as fh:
            return load_public_pem(fh.read())
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"cannot load the endpoint's public key: {exc}")


def _load_snapshot(cli, vk) -> tuple[str, protocol.EndpointState, list]:
    """Load state.bin; its commitments must verify under vk."""
    snap = cli.path("state.bin")
    if not os.path.exists(snap):
        raise click.ClickException(f"no state snapshot in {cli.state_dir}; run ingest first")
    try:
        return protocol.load_state(snap, vk)
    except WireError as exc:
        raise click.ClickException(f"corrupt state snapshot {snap}: {exc}")


def _load_endpoint(cli) -> protocol.EndpointLogger:
    if not os.path.exists(cli.path("key.pem")):
        # a fresh key would sign new epochs that no administrator trusts
        raise click.ClickException(
            f"{cli.path('key.pem')} is missing; the endpoint key is required to sign"
        )
    endpoint_id, state, commitments = _load_snapshot(cli, _read_vk(cli))
    logger = protocol.EndpointLogger(endpoint_id, _read_keys(cli), state.config)
    logger.state = state
    logger.commitments = commitments
    return logger


def _emit_commitment(cli, c, note: str = "") -> None:
    size = len(c.to_bytes())
    cli.emit({"epoch": c.epoch, "root": c.root.hex(), "bytes": size},
             f"epoch {c.epoch}  root {c.root.hex()}  {size} bytes{note}")


@main.command("ingest")
@click.argument("log", type=click.File("r"))
@click.option("--mode", type=click.Choice([SEGMENTED, UNSEGMENTED]), default=SEGMENTED,
              show_default=True)
@click.option("--depth", type=click.IntRange(min=1), default=1, show_default=True,
              help="Segmentation depth L.")
@click.option("--interval", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Commit every N events.")
@click.option("--endpoint-id", default="endpoint-0", show_default=True)
@click.option("--lenient", is_flag=True, help="Skip malformed lines instead of aborting.")
@click.pass_obj
def ingest_cmd(cli, log, mode, depth, interval, endpoint_id, lenient):
    """Ingest a JSONL event log: record, commit periodically, persist state."""
    snap = cli.path("state.bin")
    if os.path.exists(snap):
        # a second ingest would sign a second, different epoch 1 with the same key
        raise click.ClickException(f"{snap} already holds an ingested state; use a new state dir")
    os.makedirs(cli.state_dir, exist_ok=True)
    kp = _load_or_create_keys(cli)
    config = protocol.StateConfig(mode, depth, interval)
    logger = protocol.EndpointLogger(endpoint_id, kp, config)
    stats = ingest.ParseStats()
    events = []
    try:
        for i, ev in enumerate(ingest.parse_jsonl(log, strict=not lenient, stats=stats)):
            try:
                commitment = logger.ingest(ev)
            except ClockRegression as exc:
                raise click.ClickException(f"event {i + 1}: {exc}")
            events.append(ev)
            if commitment is not None:
                _emit_commitment(cli, commitment)
    except ingest.ParseError as exc:
        raise click.ClickException(str(exc))
    if logger.state.events_since_commit or not logger.commitments:
        if logger.state.graph.event_count == 0:
            raise click.ClickException("no events ingested")
        _emit_commitment(cli, logger.commit(), " (final)")
    with open(cli.path("log.jsonl"), "w") as fh:
        fh.write(ingest.emit_jsonl(events))
    _save_endpoint(cli, logger)
    cli.emit(
        {"events": len(events), "skipped": stats.skipped,
         "epochs": len(logger.commitments), "final_root": logger.commitments[-1].root.hex()},
        f"ingested {len(events)} events ({stats.skipped} skipped), "
        f"{len(logger.commitments)} epochs, final root {logger.commitments[-1].root.hex()}",
    )


@main.command()
@click.pass_obj
def commit(cli):
    """Force a fresh signed commitment over the current state."""
    logger = _load_endpoint(cli)
    c = logger.commit()
    _save_endpoint(cli, logger)
    _emit_commitment(cli, c)


def _parse_query(entity, at, relation, direction) -> CausalityQuery:
    return CausalityQuery(entity, Relation(_RELATIONS[relation], at), direction)


@main.command()
@click.argument("entity")
@click.option("--at", required=True, type=_TIMESTAMP, help="Query timestamp t.")
@click.option("--relation", type=click.Choice(["le", "ge"]), default="le", show_default=True,
              help="le: nearest version at or before t; ge: at or after.")
@click.option("--direction", type=click.Choice(["backward", "forward", "both"]),
              default="both", show_default=True)
@click.option("--out", default=None, help="Bundle output path (default: state dir).")
@click.pass_obj
def query(cli, entity, at, relation, direction, out):
    """Run a causality query; write the proof bundle and a summary."""
    _, state, commitments = _load_snapshot(cli, _read_vk(cli))
    q = _parse_query(entity, at, relation, direction)
    bundle = causality.analyze(state.graph, state.acc, commitments[-1], q)
    blob = bundle.to_bytes()
    out = out or cli.path("bundle.bin")
    with open(out, "wb") as fh:
        fh.write(blob)
    if bundle.poi is None:
        cli.emit(
            {"found": False, "provable": "empty", "bundle": out, "bytes": len(blob)},
            f"provably empty result; bundle {out} ({len(blob)} bytes)",
        )
        return
    summary = {
        "found": True,
        "poi_timestamp": bundle.poi.key.timestamp,
        "poi_seq": bundle.poi.key.seq,
        "bundle": out,
        "bytes": len(blob),
    }
    human = [f"POI {entity} @ ({bundle.poi.key.timestamp},{bundle.poi.key.seq})"]
    if bundle.backward_nodes is not None:
        summary["backward_nodes"] = len(bundle.backward_nodes)
        summary["backward_edges"] = len(bundle.backward_edges)
        human.append(f"backward: {len(bundle.backward_nodes)} nodes "
                     f"{len(bundle.backward_edges)} edges")
    if bundle.forward_segments is not None:
        n_nodes = sum(len(s.nodes) for s in bundle.forward_segments)
        n_edges = sum(len(s.edges) for s in bundle.forward_segments)
        summary["forward_segments"] = len(bundle.forward_segments)
        summary["forward_nodes"] = n_nodes
        summary["forward_edges"] = n_edges
        n_anchors = sum(len(e.pi_in_hashes) for e in bundle.root_proofs)
        summary["anchors"] = n_anchors
        summary["anchor_entities"] = len(bundle.root_proofs)
        human.append(
            f"forward: {len(bundle.forward_segments)} segments, {n_nodes} nodes "
            f"{n_edges} edges, {n_anchors} anchors of {len(bundle.root_proofs)} entities"
        )
    human.append(f"bundle {out} ({len(blob)} bytes)")
    cli.emit(summary, "; ".join(human))


@main.command()
@click.argument("bundle_path", type=str)
@click.option("--vk", default=None, help="Verification key PEM (default: state dir key).")
@click.option("--entity", default=None)
@click.option("--at", type=_TIMESTAMP, default=None)
@click.option("--relation", type=click.Choice(["le", "ge"]), default=None)
@click.option("--direction", type=click.Choice(["backward", "forward", "both"]), default=None)
@click.option("--min-epoch", type=int, default=0, show_default=True,
              help="Reject commitments older than this epoch.")
@click.pass_obj
def verify(cli, bundle_path, vk, entity, at, relation, direction, min_epoch):
    """Validate a proof bundle; exit 0 accept, 1 reject, 2 malformed."""
    try:
        with open(bundle_path, "rb") as fh:
            bundle = ProofBundle.from_bytes(fh.read())
    except (OSError, WireError, ValueError) as exc:
        click.echo(f"malformed bundle: {exc}", err=True)
        sys.exit(EXIT_MALFORMED)
    vk_path = vk or cli.path("key.pub.pem")
    try:
        with open(vk_path, "rb") as fh:
            verify_key = load_public_pem(fh.read())
    except (OSError, ValueError) as exc:
        click.echo(f"cannot load verification key: {exc}", err=True)
        sys.exit(EXIT_MALFORMED)
    q = bundle.query
    if entity is not None or at is not None or relation is not None or direction is not None:
        q = _parse_query(
            entity if entity is not None else bundle.query.entity_ext,
            at if at is not None else bundle.query.relation.value,
            relation if relation is not None else
            ("le" if bundle.query.relation.op == acc_mod.REL_LE else "ge"),
            direction if direction is not None else bundle.query.direction,
        )
    report = protocol.admin_verify(verify_key, q, bundle, min_epoch)
    cli.emit(
        report.as_dict(),
        ("ACCEPTED" if report.accepted else f"REJECTED ({report.first_failure})")
        + (" [provably empty]" if report.provably_empty else ""),
    )
    sys.exit(EXIT_OK if report.accepted else EXIT_REJECTED)


@main.command()
@click.option("--kind", type=click.Choice(protocol.TAMPER_KINDS), required=True)
@click.option("--seed", default=0, show_default=True)
@click.pass_obj
def tamper(cli, kind, seed):
    """Apply a mutation to the cloud state and show the rejection."""
    vk = _read_vk(cli)
    _, state, commitments = _load_snapshot(cli, vk)
    latest_epoch = commitments[-1].epoch
    ep = protocol.CloudEndpoint(state, list(commitments))
    rng = random.Random(seed)
    try:
        receipt = protocol.tamper(ep, kind, rng)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if receipt.entity_ext is None:
        ext = state.graph.entity_exts[0]
        q = CausalityQuery(ext, Relation(acc_mod.REL_LE, state.graph.last_ts), "both")
    else:
        q = CausalityQuery(receipt.entity_ext, Relation(acc_mod.REL_LE, receipt.timestamp), "both")
    try:
        bundle = causality.analyze(ep.state.graph, ep.state.acc, ep.commitments[-1], q)
    except Exception as exc:
        cli.emit(
            {"tamper": receipt.description, "detected": True, "stage": "analysis",
             "error": str(exc)},
            f"{receipt.description}: detected during analysis ({exc})",
        )
        return
    report = protocol.admin_verify(vk, q, bundle, latest_epoch)
    detected = not report.accepted
    cli.emit(
        {"tamper": receipt.description, "detected": detected,
         "failure": report.first_failure},
        f"{receipt.description}: " +
        (f"REJECTED by validation ({report.first_failure})" if detected
         else "NOT DETECTED (unexpected)"),
    )
    sys.exit(EXIT_OK if detected else EXIT_REJECTED)


@main.command()
@click.option("--workload", type=click.Choice(
    ["insertion", "digest-updates", "proof", "commitment-size"]), required=True)
@click.option("--out", default="-", show_default=True, help="CSV output path.")
@click.option("--sizes", default=None, help="Comma-separated sizes (workload-specific).")
@click.option("--seed", default=0, show_default=True)
@click.pass_obj
def bench(cli, workload, out, sizes, seed):
    """Emit CSV scaling measurements (operation counts and wall time)."""
    rows = _run_bench(workload, sizes, seed)
    lines = [",".join(rows[0])] + [",".join(str(v) for v in row) for row in rows[1:]]
    text = "\n".join(lines) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)
        cli.emit({"workload": workload, "rows": len(rows) - 1, "out": out},
                 f"{workload}: {len(rows) - 1} rows -> {out}")


def _run_bench(workload, sizes, seed):
    from .dimtree import DimTree, LeafRecord, counters

    if workload == "insertion":
        ns = [int(s) for s in sizes.split(",")] if sizes else [2 ** k for k in range(10, 21, 2)]
        rows = [("leaves", "seconds", "merges")]
        for n in ns:
            tree = DimTree()
            payload = b"\x00" * 32
            merges0 = counters.internal  # insertion hashes one internal node per merge
            t0 = time.perf_counter()
            for i in range(n):
                tree.insert(LeafRecord(i, payload))
            rows.append((n, round(time.perf_counter() - t0, 6), counters.internal - merges0))
        return rows

    if workload == "digest-updates":
        ns = [int(s) for s in sizes.split(",")] if sizes else [500, 1000, 2000, 4000]
        rows = [("events", "segmented_updates_per_event", "unsegmented_updates_per_event")]
        for n in ns:
            cfg = ingest.SynthConfig(seed=seed, n_events=n, n_entities=max(10, n // 50))
            seg = Graph(mode=SEGMENTED, depth=1)
            unseg = Graph(mode=UNSEGMENTED)
            for ev in ingest.synth(cfg):
                seg.record_event(ev)
            for ev in ingest.synth(cfg):
                unseg.record_event(ev)
            rows.append((
                n,
                round(seg.total_digest_updates / n, 3),
                round(unseg.total_digest_updates / n, 3),
            ))
        return rows

    if workload == "proof":
        n = int(sizes) if sizes else 4000
        cfg = ingest.SynthConfig(seed=seed, n_events=n, n_entities=max(10, n // 40))
        from .hashcore import KeyPair

        logger = protocol.EndpointLogger(
            "bench", KeyPair.generate(), protocol.StateConfig(SEGMENTED, 1, 10 ** 9)
        )
        for ev in ingest.synth(cfg):
            logger.ingest(ev)
        commitment = logger.commit()
        rng = random.Random(seed)
        rows = [("component_nodes", "prove_ms", "verify_ms", "bundle_bytes")]
        for _ in range(30):
            ext = f"e{rng.randrange(cfg.n_entities)}"
            q = CausalityQuery(ext, Relation(acc_mod.REL_LE, logger.state.graph.last_ts), "both")
            t0 = time.perf_counter()
            bundle = causality.analyze(
                logger.state.graph, logger.state.acc, commitment, q
            )
            t1 = time.perf_counter()
            verify_bundle(logger.keypair.verify_key, q, bundle)
            t2 = time.perf_counter()
            n_nodes = (len(bundle.backward_nodes or [])
                       + sum(len(s.nodes) for s in bundle.forward_segments or []))
            rows.append((n_nodes, round((t1 - t0) * 1e3, 3), round((t2 - t1) * 1e3, 3),
                         len(bundle.to_bytes())))
        rows[1:] = sorted(rows[1:], key=lambda r: r[0])
        return rows

    # commitment-size
    ns = [int(s) for s in sizes.split(",")] if sizes else [100, 1000, 10_000]
    from .hashcore import KeyPair

    rows = [("events", "commitment_bytes")]
    for n in ns:
        cfg = ingest.SynthConfig(seed=seed, n_events=n, n_entities=max(10, n // 50))
        logger = protocol.EndpointLogger(
            "bench", KeyPair.generate(), protocol.StateConfig(SEGMENTED, 1, 10 ** 9)
        )
        for ev in ingest.synth(cfg):
            logger.ingest(ev)
        rows.append((n, len(logger.commit().to_bytes())))
    return rows


if __name__ == "__main__":
    main()
