"""Rendering: the per-run summary, ``latest.json`` and ``layers.md``."""

from __future__ import annotations

from benchmarks.e2e import spec

LAYER_TABLE_ROWS = 14


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.4g}"


def render_run(run) -> str:
    """Human-readable summary of one run (``run`` is a ``harness.Run``
    or its ``as_dict()``)."""
    d = run if isinstance(run, dict) else run.as_dict()
    kind = "traced" if d["traced"] else "end-to-end"
    lines = [
        f"== {d['workload']} ({kind}, seed {d['seed']}) — "
        f"{d['attempted']} operations attempted, {d['failed']} failed"
        + ("  [NOISY: calibration moved >10%]" if d["noisy"] else ""),
        f"   rounds {d['notes']['rounds']}, "
        f"{d['notes']['queries_per_round']} queries/round, calibration "
        f"{d['calibration_ms'][0]:.0f} -> {d['calibration_ms'][1]:.0f} ms",
    ]
    for name, cell in d["metrics"].items():
        if d["traced"] and cell["value"] == 0 and not name.startswith("bench."):
            continue  # layers this workload bypasses
        line = f"   {name:<44}{_fmt(cell['value']):>12} {cell['unit']}"
        detail = d["detail"].get(name)
        if detail is not None:
            line += f"   (spread {detail['spread']:.1%}, n={detail['n']})"
        lines.append(line)
    if d["traced"]:
        lines.append(_layer_rows(d["layer_table"], indent="   "))
    return "\n".join(lines)


def _layer_rows(table: list[dict], indent: str = "") -> str:
    head = f"{indent}{'span':<26}{'calls/op':>10}{'self ms/op':>12}{'share':>8}"
    rows = [head]
    for row in table[:LAYER_TABLE_ROWS]:
        rows.append(
            f"{indent}{row['span']:<26}{row['calls_per_op']:>10.2f}"
            f"{row['self_ms_per_op']:>12.4f}{row['share']:>8.1%}"
        )
    rest = table[LAYER_TABLE_ROWS:]
    if rest:
        rows.append(
            f"{indent}{'(' + str(len(rest)) + ' more)':<26}{'':>10}"
            f"{sum(r['self_ms_per_op'] for r in rest):>12.4f}"
            f"{sum(r['share'] for r in rest):>8.1%}"
        )
    return "\n".join(rows)


def latest(end_to_end: list[dict], traced: list[dict], *, seed: int) -> dict:
    """The committed record of a full run."""
    return {
        "claim": None,
        "seed": seed,
        "run_seconds": spec.RUN_SECONDS,
        "end_to_end": {d["workload"]: d for d in end_to_end},
        "per_layer": {d["workload"]: d for d in traced},
    }


def layers_md(record: dict) -> str:
    """The per-layer table of a full run, as markdown."""
    out = [
        "# Per-layer table",
        "",
        f"Seed {record['seed']}, {record['run_seconds']} s measured per "
        "workload per pass. Self time = span duration minus the part its "
        "children cover; a value is the median over the operations in "
        "which the layer ran. Regenerate with `python -m benchmarks.e2e run`.",
        "",
        "## End to end (tracing off)",
        "",
        "| metric | unit | " + " | ".join(spec.WORKLOAD_NAMES) + " |",
        "|---|---|" + "---:|" * len(spec.WORKLOAD_NAMES),
    ]
    for metric in spec.END_TO_END:
        cells = []
        for workload in spec.WORKLOAD_NAMES:
            d = record["end_to_end"].get(workload)
            if d is None:
                cells.append("")
                continue
            cell = _fmt(d["metrics"][metric["name"]]["value"])
            detail = d["detail"].get(metric["name"])
            if detail is not None:
                cell += f" (±{detail['spread']:.1%}, n={detail['n']})"
            cells.append(cell)
        out.append(f"| `{metric['name']}` | {metric['unit']} | " + " | ".join(cells) + " |")
    out += [
        "",
        "## Per layer (traced pass)",
        "",
        "| metric | unit | " + " | ".join(spec.WORKLOAD_NAMES) + " |",
        "|---|---|" + "---:|" * len(spec.WORKLOAD_NAMES),
    ]
    for metric in spec.PER_LAYER:
        cells = [
            _fmt(record["per_layer"][w]["metrics"][metric["name"]]["value"])
            if w in record["per_layer"]
            else ""
            for w in spec.WORKLOAD_NAMES
        ]
        out.append(f"| `{metric['name']}` | {metric['unit']} | " + " | ".join(cells) + " |")
    for workload in spec.WORKLOAD_NAMES:
        d = record["per_layer"].get(workload)
        if d is None:
            continue
        out += [
            "",
            f"## Where the time goes: `{workload}`",
            "",
            f"{d['notes']['operations_traced']} operations traced; "
            f"Σ self time reconciles with Σ operation time to "
            f"{d['metrics']['bench.self_time_gap_share']['value']:.2%}; "
            f"SpanStore vs IOStats mismatch "
            f"{d['metrics']['bench.io_count_mismatch']['value']:.0f}.",
            "",
            "```",
            _layer_rows(d["layer_table"]),
            "```",
        ]
    return "\n".join(out) + "\n"
