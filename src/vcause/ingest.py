"""Log ingestion and synthetic workload generation.

The canonical input is JSONL, one event per line with keys src, action,
dst, ts and an optional hex payload. Kernel-logger formats (auditd,
Falco) are out of scope; adapting them means emitting this JSONL shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .provgraph import EventRecord

U64_MAX = 2**64 - 1  # TimestampKey packs a timestamp as a u64


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ParseStats:
    accepted: int = 0
    skipped: int = 0


def _event_from_obj(obj, line_no: int) -> EventRecord:
    if not isinstance(obj, dict):
        raise ParseError(line_no, "expected a JSON object")
    try:
        src, action, dst, ts = obj["src"], obj["action"], obj["dst"], obj["ts"]
    except KeyError as exc:
        raise ParseError(line_no, f"missing key {exc.args[0]!r}") from None
    if not isinstance(src, str) or not src:
        raise ParseError(line_no, "src must be a non-empty string")
    if not isinstance(dst, str) or not dst:
        raise ParseError(line_no, "dst must be a non-empty string")
    # ids are length-prefixed everywhere; a NUL in one marks a capture fault
    if "\x00" in src or "\x00" in dst:
        raise ParseError(line_no, "entity ids must not contain NUL bytes")
    if not isinstance(action, str):
        raise ParseError(line_no, "action must be a string")
    if not isinstance(ts, int) or isinstance(ts, bool) or not 0 <= ts <= U64_MAX:
        raise ParseError(line_no, f"ts must be an integer in 0..{U64_MAX}")
    payload = b""
    if "payload" in obj and obj["payload"] is not None:
        try:
            payload = bytes.fromhex(obj["payload"])
        except (TypeError, ValueError):
            raise ParseError(line_no, "payload must be a hex string") from None
    return EventRecord(src, action, dst, ts, payload)


def parse_jsonl(stream, strict: bool = True, stats: ParseStats | None = None):
    """Yield EventRecords from an iterable of JSONL lines.

    strict mode aborts on the first bad line with its line number; lenient
    mode skips bad lines and counts them in `stats`.
    """
    for line_no, raw in enumerate(stream, 1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                if strict:
                    raise ParseError(line_no, "invalid utf-8")
                if stats:
                    stats.skipped += 1
                continue
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            event = _event_from_obj(obj, line_no)
        except (json.JSONDecodeError, ParseError) as exc:
            if strict:
                if isinstance(exc, ParseError):
                    raise
                raise ParseError(line_no, f"invalid JSON: {exc.msg}") from None
            if stats:
                stats.skipped += 1
            continue
        if stats:
            stats.accepted += 1
        yield event


def emit_jsonl(events) -> str:
    """Canonical JSONL for a sequence of events; parse(emit(x)) == x."""
    lines = []
    for ev in events:
        obj = {"src": ev.src, "action": ev.action, "dst": ev.dst, "ts": ev.ts}
        if ev.payload:
            obj["payload"] = ev.payload.hex()
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class SynthConfig:
    """Deterministic workload shape.

    Events come in bursts: a popularity-weighted source entity emits
    `fanout` events on average before the next source is drawn. Timestamps
    advance by 1..max_step units except for ties, which repeat the previous
    timestamp to exercise seq tie-breaking.
    """

    seed: int = 0
    n_events: int = 1000
    n_entities: int = 50
    actions: tuple[str, ...] = ("read", "write", "exec", "connect")
    fanout: float = 2.0
    tie_prob: float = 0.1
    max_step: int = 3
    popularity_skew: float = 1.0  # Zipf exponent over entity ranks
    self_prob: float = 0.02

    def validate(self) -> None:
        if self.n_events < 0 or self.n_entities < 1:
            raise ValueError("n_events/n_entities out of range")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if not 0 <= self.tie_prob < 1:
            raise ValueError("tie_prob must be in [0, 1)")
        if self.max_step < 1:
            raise ValueError("max_step must be >= 1")
        if not self.actions:
            raise ValueError("need at least one action")


def _poisson(rng, lam: float) -> int:
    if lam <= 0:
        return 0
    limit = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def synth(cfg: SynthConfig):
    """Generate a deterministic event stream shaped by cfg."""
    import random

    cfg.validate()
    rng = random.Random(cfg.seed)
    weights = [1.0 / (rank + 1) ** cfg.popularity_skew for rank in range(cfg.n_entities)]
    entities = [f"e{i}" for i in range(cfg.n_entities)]
    ts = 1
    emitted = 0
    prev_src = None
    while emitted < cfg.n_events:
        src = rng.choices(entities, weights)[0]
        while src == prev_src and cfg.n_entities > 1:
            src = rng.choices(entities, weights)[0]  # keep bursts measurable
        prev_src = src
        burst = 1 + _poisson(rng, cfg.fanout - 1.0)
        for _ in range(burst):
            if emitted >= cfg.n_events:
                return
            if emitted > 0 and rng.random() < cfg.tie_prob:
                pass  # tie: reuse the previous timestamp
            else:
                ts += rng.randrange(1, cfg.max_step + 1)
            if rng.random() < cfg.self_prob or cfg.n_entities == 1:
                dst = src
            else:
                dst = rng.choices(entities, weights)[0]
            yield EventRecord(src, rng.choice(cfg.actions), dst, ts)
            emitted += 1
