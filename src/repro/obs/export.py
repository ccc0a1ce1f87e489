"""Exporters: JSONL span dumps, timelines, BENCH_*.json, telemetry.

Four consumers, four formats:

* **machines** get :func:`spans_to_jsonl` — one flattened span per line
  (``span_id``/``parent_id`` restore the tree), attributes made
  JSON-safe and each phase's request trace kept as rounds of
  ``[op, nbytes]``;
* **humans** get :func:`explain` — an indented flame-style timeline
  (:func:`render_timeline`) with per-span request/byte counts, the
  query's bill and its critical path;
* **the perf trajectory** gets the ``BENCH_*.json`` schema
  (:data:`BENCH_SCHEMA`): a stable envelope every benchmark writes via
  :func:`update_bench_json`, so successive PRs produce machine-diffable
  before/after numbers instead of free-form text;
* **offline SLO/dashboard evaluation** gets the
  ``TELEMETRY_<name>.json`` schema (:data:`TELEMETRY_SCHEMA`): one
  :class:`~repro.obs.timeseries.TelemetryHub` snapshot — every windowed
  series, per-window quantile sketch and tail sample —
  written by a benchmark or serving process via
  :func:`write_telemetry_json` and rehydrated by ``repro slo-check`` /
  ``repro dashboard`` via :func:`load_telemetry_json`.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from repro.errors import FormatError, ReproError
from repro.obs.attribution import DEFAULT_INSTANCE, attribute
from repro.obs.critical_path import critical_path, render_critical_path
from repro.obs.store import check_envelope
from repro.obs.timeseries import TelemetryHub
from repro.obs.trace import Span
from repro.storage.costs import CostModel
from repro.storage.latency import LatencyModel
from repro.storage.stats import Request, RequestTrace

#: Version tag inside every BENCH_*.json payload; bump on breaking change.
BENCH_SCHEMA = "repro.bench/v1"

#: Version tag inside every telemetry snapshot; bump on breaking change.
TELEMETRY_SCHEMA = "repro.telemetry/v1"


# ---------------------------------------------------------------------
# span dumps
# ---------------------------------------------------------------------
def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, bytes):
        return value.hex()
    return repr(value)


def span_to_dict(span: Span) -> dict:
    """One span as a flat JSON-safe dict (children by parent_id)."""
    out: dict[str, object] = {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "thread": span.thread,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "duration_s": span.duration_s,
        "attributes": {k: _json_safe(v) for k, v in span.attributes.items()},
    }
    if span.trace is not None:
        # Rounds of [op, nbytes]: all the latency and cost models read.
        out["trace"] = [
            [[r.op, r.nbytes] for r in round_] for round_ in span.trace.rounds
        ]
    return out


def span_tree_from_dicts(rows: Iterable[dict]) -> Span:
    """Rebuild one span tree from :func:`span_to_dict` rows.

    The inverse the flight recorder needs: a retained trace is stored
    as flat rows and must come back as a tree :func:`explain` can
    render and price. Rows must contain exactly one root
    (``parent_id is None``) and parents must precede children (the
    depth-first order ``spans_to_jsonl`` writes). Each phase span's
    ``RequestTrace`` comes back round for round (request keys are not
    kept), so :func:`~repro.obs.attribution.attribute` and
    :func:`~repro.obs.critical_path.critical_path` of the rebuilt tree
    equal those of the live one. The ``events`` of rows written before
    requests were kept only in traces are ignored.
    """
    by_id: dict[int, Span] = {}
    root: Span | None = None
    for row in rows:
        parent_id = row.get("parent_id")
        parent = by_id.get(parent_id) if parent_id is not None else None
        span = Span(
            str(row["name"]),
            parent=parent,
            start_s=float(row["start_s"]),
        )
        span.span_id = int(row["span_id"])
        if row.get("end_s") is not None:
            span.end_s = float(row["end_s"])
        span.attributes = dict(row.get("attributes", {}))
        span.thread = str(row.get("thread", ""))
        if row.get("trace") is not None:
            span.trace = RequestTrace()
            span.trace.rounds = [
                [Request(op=str(op), key="", nbytes=int(n)) for op, n in round_]
                for round_ in row["trace"]
            ]
        if parent is not None:
            parent.children.append(span)
        elif root is not None:
            raise ValueError("span rows contain more than one root")
        else:
            root = span
        by_id[span.span_id] = span
    if root is None:
        raise ValueError("span rows contain no root span")
    return root


def spans_to_jsonl(roots: Iterable[Span]) -> str:
    """Flattened depth-first JSONL dump of one or more span trees."""
    lines = [
        json.dumps(span_to_dict(span), sort_keys=True)
        for root in roots
        for span in root.walk()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_spans_jsonl(path: str, roots: Iterable[Span]) -> None:
    with open(path, "w") as f:
        f.write(spans_to_jsonl(roots))


# ---------------------------------------------------------------------
# text timeline / flame view
# ---------------------------------------------------------------------
def render_timeline(
    root: Span, *, width: int = 32, max_requests: int = 4
) -> str:
    """Indented flame view of one span tree.

    Bars are positioned/scaled against the root span's wall-clock
    window; under a SimClock only simulated time (e.g. retry backoff)
    moves, so bars may be empty while the request counts still tell the
    story. A span with a trace shows its ``N req / B`` total; up to
    ``max_requests`` of a span's :attr:`~repro.obs.trace.Span.own_requests`
    follow as ``GET key [bytes]`` leaves, in round order (a stored
    flight keeps no keys, so its leaves read ``GET [bytes]``). A
    chaos-injected crash is the loud ``‼ CRASH`` leaf.
    """
    window = max(root.duration_s, 1e-12)
    lines: list[str] = []

    def bar(span: Span) -> str:
        start = int((span.start_s - root.start_s) / window * width)
        length = max(1, int(span.duration_s / window * width))
        start = min(start, width - 1)
        length = min(length, width - start)
        return " " * start + "█" * length + " " * (width - start - length)

    def walk(span: Span, depth: int) -> None:
        label = f"{'  ' * depth}{span.name}"
        extra = ""
        if span.trace is not None:
            extra = (
                f"  {span.trace.total_requests} req / {span.trace.total_bytes} B"
            )
        lines.append(
            f"{label:<36} |{bar(span)}| {span.duration_s * 1000:9.3f} ms{extra}"
        )
        indent = "  " * (depth + 1)
        requests = span.own_requests
        for request in requests[:max_requests]:
            key = f" {request.key}" if request.key else ""
            lines.append(f"{indent}· {request.op}{key} [{request.nbytes} B]")
        if len(requests) > max_requests:
            lines.append(
                f"{indent}· … {len(requests) - max_requests} more request(s)"
            )
        if "crash" in span.attributes:
            # On a doomed run's timeline the crash boundary is the one
            # line that matters.
            lines.append(f"{indent}‼ CRASH {span.attributes['crash']}")
        for child in span.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def explain(
    root: Span,
    *,
    latency: LatencyModel | None = None,
    costs: CostModel | None = None,
    instance_type: str = DEFAULT_INSTANCE,
) -> str:
    """One span tree as text: its timeline, its bill priced by the
    given models, then its critical path. ``repro profile`` prints it
    for a live query and ``repro traces`` for a retained one."""
    bill = attribute(root, latency=latency, costs=costs, instance_type=instance_type)
    return "\n\n".join(
        [render_timeline(root), bill.describe(costs), render_critical_path(critical_path(root))]
    )


# ---------------------------------------------------------------------
# BENCH_*.json
# ---------------------------------------------------------------------
def bench_payload(bench: str) -> dict:
    """Empty envelope for one benchmark's machine-readable results."""
    return {"schema": BENCH_SCHEMA, "bench": bench, "measurements": {}}


def validate_bench(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` follows the schema."""
    check_envelope(payload, BENCH_SCHEMA)
    if not isinstance(payload.get("bench"), str):
        raise ValueError("missing 'bench' name")
    measurements = payload.get("measurements")
    if not isinstance(measurements, dict):
        raise ValueError("missing 'measurements' mapping")
    for key, entry in measurements.items():
        if not isinstance(entry, dict) or "metrics" not in entry:
            raise ValueError(f"measurement {key!r} lacks a 'metrics' mapping")
        if not isinstance(entry["metrics"], dict):
            raise ValueError(f"measurement {key!r}: 'metrics' must be a dict")
        if not isinstance(entry.get("params", {}), dict):
            raise ValueError(f"measurement {key!r}: 'params' must be a dict")


def update_bench_json(
    path: str,
    bench: str,
    measurement: str,
    *,
    metrics: dict,
    params: dict | None = None,
) -> dict:
    """Merge one measurement into ``BENCH_<bench>.json`` at ``path``.

    Read-modify-write so independent benchmark tests can each
    contribute their measurement to one file; returns the full payload
    written. Metrics/params must be JSON-serializable scalars (floats,
    ints, strings) — the point is diffable perf trajectories.
    """
    payload = bench_payload(bench)
    if os.path.exists(path):
        try:
            with open(path) as f:
                existing = json.load(f)
            validate_bench(existing)
            if existing["bench"] == bench:
                payload = existing
        except (json.JSONDecodeError, ValueError):
            pass  # malformed / foreign file: start a fresh envelope
    payload["measurements"][measurement] = {
        "params": {k: _json_safe(v) for k, v in (params or {}).items()},
        "metrics": {k: _json_safe(v) for k, v in metrics.items()},
    }
    validate_bench(payload)
    return _write_json(path, payload)


def _write_json(path: str, payload: dict) -> dict:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return payload


# ---------------------------------------------------------------------
# TELEMETRY_*.json
# ---------------------------------------------------------------------
def telemetry_payload(hub: TelemetryHub, *, source: str = "") -> dict:
    """A hub snapshot wrapped in the versioned telemetry envelope."""
    return {
        "schema": TELEMETRY_SCHEMA,
        "source": source,
        "hub": hub.snapshot(),
    }


def write_telemetry_json(
    path: str, hub: TelemetryHub, *, source: str = ""
) -> dict:
    """Persist ``hub`` so another process can evaluate/plot it."""
    return _write_json(path, telemetry_payload(hub, source=source))


def load_telemetry_json(path: str) -> TelemetryHub:
    """Rehydrate a hub from a :func:`write_telemetry_json` snapshot.

    A file that cannot be read is a :class:`ReproError`; content that
    is not a telemetry snapshot (corrupt JSON, a foreign schema, a
    malformed hub) is a :class:`FormatError`.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ReproError(f"cannot read telemetry {path}: {exc.strerror or exc}") from None
    try:
        payload = check_envelope(json.loads(data), TELEMETRY_SCHEMA)
        if not isinstance(payload.get("hub"), dict):
            raise ValueError("missing 'hub' snapshot")
        return TelemetryHub.from_snapshot(payload["hub"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"unreadable telemetry {path}: {exc}") from None
