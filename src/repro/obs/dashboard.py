"""Self-contained HTML dashboard for a running (or replayed) deployment.

One :class:`~repro.obs.timeseries.TelemetryHub` in, one dependency-free
HTML file out — inline CSS and SVG only, no scripts, no external
assets — so the report can be written from a benchmark run or a live
server and opened anywhere. Sections:

* headline stat tiles (queries, windowed p50/p99, availability,
  measured cost per query);
* windowed latency percentiles and query-rate timelines;
* the tail-attribution table from :func:`~repro.obs.critical_path
  .tail_attribution` — which phase owns p99 vs p50;
* when the hub holds ``router.*`` series, a scatter-gather router panel
  (routed queries, hedge counts, per-shard latency/failure table);
* SLO status (each objective with its two-horizon burn rates);
* when a flight-recorder ring is passed in, a **retained traces** panel
  whose rows anchor the p99 stat tile's exemplar link — the dashboard's
  p99 is one click away from the span tree that produced it;
* when a crack heat map is passed in, the top-N hottest files/cells
  with their decay age;
* when prior snapshot payloads are passed in (``history``), a
  cross-run trend panel — p99 and cost-per-query per snapshot — giving
  the TCO story a time-travel axis;
* the centerpiece: the deployment's **measured position and
  trajectory on the TCO phase diagram**. The cost ledger's observed
  serve/maintain/index dollars (a fold of the hub's cost series) are
  folded into an :class:`~repro.tco.model.ApproachCost` (measured cost-per-query,
  measured monthly burn, measured index spend) and plotted over the
  winner regions of :func:`~repro.tco.phase.compute_phase_diagram`
  against the brute-force and copy-data frontiers priced at the
  deployment's own data size — paper §VI's diagram, with this
  deployment as a point moving across it.

Colors follow the repo's validated dashboard palette: three
all-pairs-safe categorical slots (blue/orange/aqua) for series and
phase-diagram regions, reserved status colors paired with icon + label
for SLO verdicts, and dark-mode values selected per-surface rather than
auto-inverted.
"""

from __future__ import annotations

import html
import math
import re
from dataclasses import dataclass

from repro.obs.critical_path import TailReport, tail_attribution
from repro.obs.slo import SLO, SLOReport, default_slo
from repro.obs.timeseries import TelemetryHub
from repro.storage.costs import CostModel
from repro.tco.model import ApproachCost
from repro.tco.phase import PhaseDiagram, compute_phase_diagram
from repro.tco.throughput import SECONDS_PER_MONTH

#: Phase-diagram grid resolution (cells per axis) for the SVG map.
MAP_RESOLUTION = 48


# ---------------------------------------------------------------------
# measured TCO position
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredDeployment:
    """The cost ledger folded into phase-diagram coordinates."""

    approach: ApproachCost  # measured coefficients, name="measured"
    months: float  # observed operating duration
    queries: float  # observed total queries
    trajectory: tuple[tuple[float, float], ...]  # (months, queries) path

    @property
    def tco_usd(self) -> float:
        return self.approach.tco(self.months, self.queries)


def measured_deployment(
    hub: TelemetryHub, *, costs: CostModel | None = None
) -> MeasuredDeployment | None:
    """Fold the hub's cost ledger into a measured :class:`ApproachCost`.

    ``cost_per_query`` is observed serve dollars over observed queries;
    ``cost_per_month`` is S3 storage of the recorded data+index bytes
    plus observed maintenance dollars amortized over the observed
    duration; ``index_cost`` is the ledger's one-time index-build
    bucket. Returns ``None`` until at least one query has been billed.
    """
    ledger = hub.ledger
    if ledger.serve_queries == 0:
        return None
    costs = costs or CostModel()
    elapsed_s = max(ledger.elapsed_s, hub.window_s)
    months = elapsed_s / SECONDS_PER_MONTH
    storage_monthly = (
        costs.storage_monthly(ledger.data_bytes + ledger.index_bytes)
        if ledger.data_bytes
        else 0.0
    )
    maintain_monthly = ledger.maintain_usd / months if months > 0 else 0.0
    approach = ApproachCost(
        name="measured",
        cost_per_month=storage_monthly + maintain_monthly,
        cost_per_query=ledger.cost_per_query_usd,
        index_cost=ledger.index_build_usd,
    )

    trajectory: list[tuple[float, float]] = []
    points = hub.series("serve.queries").points()
    if points and ledger.first_at_s is not None:
        cumulative = 0
        for point in points:
            cumulative += point.count
            window_end_s = (point.index + 1) * hub.window_s
            m = max(window_end_s - ledger.first_at_s, hub.window_s)
            trajectory.append((m / SECONDS_PER_MONTH, float(cumulative)))
    return MeasuredDeployment(
        approach=approach,
        months=months,
        queries=float(ledger.serve_queries),
        trajectory=tuple(trajectory),
    )


def comparison_approaches(
    hub: TelemetryHub, *, costs: CostModel | None = None
) -> list[ApproachCost]:
    """Copy-data and brute-force frontiers priced at the deployment's
    own observed data size (§VI coefficients, this lake's bytes)."""
    from repro.engines.bruteforce import BruteForceModel
    from repro.engines.dedicated import OPENSEARCH_MODEL

    costs = costs or CostModel()
    data_bytes = max(hub.ledger.data_bytes, 1)
    brute_model = BruteForceModel()
    workers = 8
    copy = ApproachCost(
        name="copy-data",
        cost_per_month=OPENSEARCH_MODEL.monthly_cost(data_bytes, costs),
        min_latency_s=OPENSEARCH_MODEL.query_latency_s,
    )
    brute = ApproachCost(
        name="brute-force",
        cost_per_month=costs.storage_monthly(data_bytes),
        cost_per_query=brute_model.cost_per_query(data_bytes, workers, costs),
        min_latency_s=brute_model.latency(data_bytes, workers),
    )
    return [copy, brute]


def measured_phase_diagram(
    measured: MeasuredDeployment,
    rivals: list[ApproachCost],
    *,
    resolution: int = MAP_RESOLUTION,
) -> PhaseDiagram:
    """Winner grid over ranges that include the measured position."""
    months_lo = min(0.03, max(measured.months / 3.0, 1e-9))
    months_hi = 120.0
    queries_lo = 1.0
    queries_hi = max(1e9, measured.queries * 10.0)
    return compute_phase_diagram(
        [*rivals, measured.approach],
        months_range=(months_lo, months_hi),
        queries_range=(queries_lo, queries_hi),
        resolution=resolution,
    )


# ---------------------------------------------------------------------
# SVG helpers (stdlib string assembly only)
# ---------------------------------------------------------------------
def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _scale(v: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi <= lo:
        return out_lo
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f} ms"


def _log_ticks(lo: float, hi: float) -> list[float]:
    start = math.ceil(math.log10(lo))
    stop = math.floor(math.log10(hi))
    return [10.0**e for e in range(start, stop + 1)]


def _pow_label(value: float) -> str:
    exponent = round(math.log10(value))
    if -3 <= exponent <= 3:
        return f"{value:g}"
    return f"1e{exponent}"


def _line_chart(
    series: list[tuple[str, str, list[tuple[float, float]]]],
    *,
    y_label: str,
    x_label: str,
    width: int = 640,
    height: int = 220,
) -> str:
    """Multi-series line chart; points carry ``<title>`` tooltips."""
    pad_l, pad_r, pad_t, pad_b = 58, 14, 12, 34
    xs = [x for _, _, pts in series for x, _ in pts]
    ys = [y for _, _, pts in series for _, y in pts]
    if not xs:
        return _muted("no data yet")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.15 or 1.0
    plot_r, plot_b = width - pad_r, height - pad_b

    parts = [
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        f"aria-label='{_esc(y_label)} over {_esc(x_label)}'>"
    ]
    for i in range(5):
        gy = _scale(i / 4, 0, 1, plot_b, pad_t)
        value = _scale(i / 4, 0, 1, y_lo, y_hi)
        parts.append(
            f"<line x1='{pad_l}' y1='{gy:.1f}' x2='{plot_r}' y2='{gy:.1f}' "
            f"class='grid'/>"
            f"<text x='{pad_l - 6}' y='{gy + 4:.1f}' class='tick' "
            f"text-anchor='end'>{value:.0f}</text>"
        )
    parts.append(
        f"<line x1='{pad_l}' y1='{plot_b}' x2='{plot_r}' y2='{plot_b}' "
        f"class='axis'/>"
        f"<text x='{(pad_l + plot_r) / 2:.0f}' y='{height - 8}' "
        f"class='tick' text-anchor='middle'>{_esc(x_label)}</text>"
        f"<text x='14' y='{(pad_t + plot_b) / 2:.0f}' class='tick' "
        f"text-anchor='middle' "
        f"transform='rotate(-90 14 {(pad_t + plot_b) / 2:.0f})'>"
        f"{_esc(y_label)}</text>"
    )
    for label, color_var, pts in series:
        if not pts:
            continue
        coords = [
            (
                _scale(x, x_lo, x_hi, pad_l, plot_r) if x_hi > x_lo
                else (pad_l + plot_r) / 2,
                _scale(y, y_lo, y_hi, plot_b, pad_t),
            )
            for x, y in pts
        ]
        path = " ".join(f"{px:.1f},{py:.1f}" for px, py in coords)
        parts.append(
            f"<polyline points='{path}' fill='none' "
            f"stroke='var({color_var})' stroke-width='2' "
            f"stroke-linejoin='round'/>"
        )
        for (px, py), (x, y) in zip(coords, pts):
            parts.append(
                f"<circle cx='{px:.1f}' cy='{py:.1f}' r='4' "
                f"fill='var({color_var})' stroke='var(--surface-1)' "
                f"stroke-width='2'>"
                f"<title>{_esc(label)} @ {x:.1f} min: {y:.1f}</title>"
                f"</circle>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _legend(entries: list[tuple[str, str]]) -> str:
    chips = "".join(
        f"<span class='legend-item'><span class='chip' "
        f"style='background:var({color_var})'></span>{_esc(label)}</span>"
        for label, color_var in entries
    )
    return f"<div class='legend'>{chips}</div>"


def _phase_map_svg(
    diagram: PhaseDiagram,
    measured: MeasuredDeployment,
    *,
    width: int = 640,
    height: int = 420,
) -> str:
    """Winner-region map with the measured trajectory overlaid."""
    pad_l, pad_r, pad_t, pad_b = 64, 14, 12, 40
    plot_r, plot_b = width - pad_r, height - pad_b
    months = diagram.months
    queries = diagram.queries
    m_lo, m_hi = math.log10(months[0]), math.log10(months[-1])
    q_lo, q_hi = math.log10(queries[0]), math.log10(queries[-1])
    color_by_name = {
        "copy-data": "--series-1",
        "brute-force": "--series-2",
        "measured": "--series-3",
    }

    def px(month_log: float) -> float:
        return _scale(month_log, m_lo, m_hi, pad_l, plot_r)

    def py(query_log: float) -> float:
        return _scale(query_log, q_lo, q_hi, plot_b, pad_t)

    parts = [
        f"<svg viewBox='0 0 {width} {height}' role='img' "
        f"aria-label='TCO phase diagram with measured position'>"
    ]
    nm, nq = len(months), len(queries)
    cell_w = (plot_r - pad_l) / nm
    cell_h = (plot_b - pad_t) / nq
    for qi in range(nq):
        for mi in range(nm):
            approach = diagram.approaches[int(diagram.winner[qi, mi])]
            color = color_by_name.get(approach.name, "--series-3")
            x = pad_l + mi * cell_w
            y = plot_b - (qi + 1) * cell_h
            parts.append(
                f"<rect x='{x:.1f}' y='{y:.1f}' width='{cell_w + 0.5:.1f}' "
                f"height='{cell_h + 0.5:.1f}' fill='var({color})' "
                f"fill-opacity='0.5'/>"
            )
    for tick in _log_ticks(months[0], months[-1]):
        tx = px(math.log10(tick))
        parts.append(
            f"<line x1='{tx:.1f}' y1='{plot_b}' x2='{tx:.1f}' "
            f"y2='{plot_b + 4}' class='axis'/>"
            f"<text x='{tx:.1f}' y='{plot_b + 16}' class='tick' "
            f"text-anchor='middle'>{_esc(_pow_label(tick))}</text>"
        )
    for tick in _log_ticks(queries[0], queries[-1]):
        ty = py(math.log10(tick))
        parts.append(
            f"<text x='{pad_l - 6}' y='{ty + 4:.1f}' class='tick' "
            f"text-anchor='end'>{_esc(_pow_label(tick))}</text>"
        )
    parts.append(
        f"<rect x='{pad_l}' y='{pad_t}' width='{plot_r - pad_l:.1f}' "
        f"height='{plot_b - pad_t:.1f}' fill='none' class='axis'/>"
        f"<text x='{(pad_l + plot_r) / 2:.0f}' y='{height - 6}' "
        f"class='tick' text-anchor='middle'>operating months (log)</text>"
        f"<text x='16' y='{(pad_t + plot_b) / 2:.0f}' class='tick' "
        f"text-anchor='middle' "
        f"transform='rotate(-90 16 {(pad_t + plot_b) / 2:.0f})'>"
        f"total queries (log)</text>"
    )
    if len(measured.trajectory) > 1:
        coords = [
            (px(math.log10(max(m, months[0]))), py(math.log10(max(q, queries[0]))))
            for m, q in measured.trajectory
        ]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        parts.append(
            f"<polyline points='{path}' fill='none' "
            f"stroke='var(--text-primary)' stroke-width='2' "
            f"stroke-dasharray='4 3'/>"
        )
    mx = px(math.log10(max(measured.months, months[0])))
    my = py(math.log10(max(measured.queries, queries[0])))
    parts.append(
        f"<g stroke='var(--text-primary)' stroke-width='2.5'>"
        f"<line x1='{mx - 6:.1f}' y1='{my - 6:.1f}' "
        f"x2='{mx + 6:.1f}' y2='{my + 6:.1f}'/>"
        f"<line x1='{mx - 6:.1f}' y1='{my + 6:.1f}' "
        f"x2='{mx + 6:.1f}' y2='{my - 6:.1f}'/>"
        f"<title>measured: {measured.months:.2e} months, "
        f"{measured.queries:.0f} queries, "
        f"${measured.tco_usd:.3e} total</title></g>"
        f"<text x='{mx + 10:.1f}' y='{my - 8:.1f}' class='map-label'>"
        f"you are here</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------
# HTML assembly
# ---------------------------------------------------------------------
_CSS = """
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --status-good: #0ca30c; --status-critical: #d03b3b;
  --border: rgba(11,11,11,0.10);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --border: rgba(255,255,255,0.10);
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7;
  --grid: #2c2c2a; --baseline: #383835;
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --border: rgba(255,255,255,0.10);
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 0 0 10px; }
.viz-root .sub { color: var(--text-secondary); margin: 0 0 20px; font-size: 13px; }
.viz-root section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin-bottom: 16px;
}
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.viz-root .tile { min-width: 132px; }
.viz-root .tile .value { font-size: 22px; font-weight: 600; }
.viz-root .tile .label { color: var(--text-secondary); font-size: 12px; }
.viz-root svg { display: block; width: 100%; height: auto;
  background: var(--surface-1); }
.viz-root svg .grid { stroke: var(--grid); stroke-width: 1; }
.viz-root svg .axis { stroke: var(--baseline); stroke-width: 1; fill: none; }
.viz-root svg .tick { fill: var(--muted); font-size: 11px;
  font-family: inherit; }
.viz-root svg .map-label { fill: var(--text-primary); font-size: 12px;
  font-weight: 600; font-family: inherit; }
.viz-root .legend { display: flex; gap: 16px; margin: 8px 0 0;
  font-size: 12px; color: var(--text-secondary); }
.viz-root .legend-item { display: inline-flex; align-items: center; gap: 6px; }
.viz-root .chip { width: 10px; height: 10px; border-radius: 2px;
  display: inline-block; }
.viz-root table { border-collapse: collapse; width: 100%; font-size: 13px; }
.viz-root th { text-align: left; color: var(--text-secondary);
  font-weight: 600; border-bottom: 1px solid var(--baseline);
  padding: 6px 10px 6px 0; }
.viz-root td { border-bottom: 1px solid var(--grid);
  padding: 6px 10px 6px 0; font-variant-numeric: tabular-nums; }
.viz-root .slo-row { display: flex; align-items: baseline; gap: 10px;
  padding: 6px 0; font-size: 13px; }
.viz-root .slo-ok { color: var(--status-good); font-weight: 600; }
.viz-root .slo-bad { color: var(--status-critical); font-weight: 600; }
.viz-root .muted { color: var(--muted); font-size: 13px; }
.viz-root a.exemplar { color: var(--series-1); text-decoration: underline
  dotted; }
.viz-root tr:target td { background: var(--grid); }
.viz-root details summary { cursor: pointer; color: var(--text-secondary);
  font-size: 12px; margin-top: 8px; }
"""


def _section(title: str, *parts: str) -> str:
    return f"<section><h2>{title}</h2>{''.join(parts)}</section>"


def _muted(text: str) -> str:
    return f"<p class='muted'>{text}</p>"


def _tiles(tiles: list[tuple[str, str]]) -> str:
    """A row of stat tiles from ``(label, value HTML)`` pairs."""
    body = "".join(
        f"<div class='tile'><div class='value'>{value}</div>"
        f"<div class='label'>{_esc(label)}</div></div>"
        for label, value in tiles
    )
    return f"<div class='tiles'>{body}</div>"


def _table(headers: list[str], rows: list[list], ids: list[str] | None = None) -> str:
    """An HTML table: a header row, then one row per list of cell HTML
    in ``rows``, carrying the matching ``id`` of ``ids`` if given."""
    head = "".join(f"<th>{h}</th>" for h in headers)
    body = "".join(
        (f"<tr id='{row_id}'>" if row_id else "<tr>")
        + "".join(f"<td>{cell}</td>" for cell in cells)
        + "</tr>"
        for cells, row_id in zip(rows, ids or [None] * len(rows))
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _quantile(sketch, q: float, fmt) -> str:
    """``fmt`` of a merged sketch's ``q`` quantile; a dash when empty."""
    return fmt(sketch.quantile(q)) if sketch.count else "—"


def _windowed_chart(wq, *, scale: float, y_label: str):
    """p50/p99 lines (with legend) over a windowed sketch's windows,
    and the two ``(minute, value × scale)`` point lists drawn."""
    windows = wq.windows()
    first = windows[0][0]
    minutes = [(i - first) * wq.window_s / 60.0 for i, _ in windows]
    p50, p99 = (
        [(m, sketch.quantile(q) * scale) for m, (_, sketch) in zip(minutes, windows)]
        for q in (0.5, 0.99)
    )
    chart = _line_chart(
        [("p50", "--series-1", p50), ("p99", "--series-2", p99)],
        y_label=y_label,
        x_label="minutes since start",
    )
    return chart + _legend([("p50", "--series-1"), ("p99", "--series-2")]), p50, p99


def _stat_tiles(hub: TelemetryHub, flight_ids: frozenset[str]) -> str:
    ledger = hub.ledger
    merged = hub.quantiles("serve.latency_s").merged()
    queries = hub.series("serve.queries").count()
    degraded = hub.series("serve.degraded").count()
    availability = 1.0 - degraded / queries if queries else 1.0
    # The exemplar link: when the sketch's worst observation carries a
    # trace id that the flight recorder retained, the p99 tile links
    # straight to that trace's row in the retained-traces panel.
    p99_html = _esc(_quantile(merged, 0.99, _fmt_ms))
    if merged.exemplar is not None and merged.exemplar[1] in flight_ids:
        p99_html = (
            f"<a class='exemplar' href='#flight-{_esc(merged.exemplar[1])}' "
            f"title='open retained trace {_esc(merged.exemplar[1])}'>"
            f"{p99_html}</a>"
        )
    tiles = [
        ("queries served", _esc(f"{queries}")),
        ("p50 latency", _esc(_quantile(merged, 0.5, _fmt_ms))),
        ("p99 latency", p99_html),
        ("availability", _esc(f"{availability:.3%}")),
        (
            "cost / query",
            _esc(
                f"${ledger.cost_per_query_usd:.3e}"
                if ledger.serve_queries
                else "—"
            ),
        ),
        ("maintenance $", _esc(f"${ledger.maintain_usd:.3e}")),
        ("index build $", _esc(f"${ledger.index_build_usd:.3e}")),
    ]
    return f"<section>{_tiles(tiles)}</section>"


def _latency_section(hub: TelemetryHub) -> str:
    title = "Windowed latency percentiles"
    wq = hub.quantiles("serve.latency_s")
    if not wq.windows():
        return _section(title, _muted("no latency observations yet"))
    chart, p50, p99 = _windowed_chart(wq, scale=1000, y_label="latency (ms)")
    rows = [[f"{m:.1f}", f"{v50:.1f}", f"{v99:.1f}"] for (m, v50), (_, v99) in zip(p50, p99)]
    table = _table(["minute", "p50 ms", "p99 ms"], rows)
    return _section(title, chart, f"<details><summary>data table</summary>{table}</details>")


def _rate_section(hub: TelemetryHub) -> str:
    series = hub.series("serve.queries")
    points = series.points()
    if not points:
        return _section("Query rate", _muted("no queries yet"))
    first = points[0].index
    pts = [
        ((p.index - first) * series.window_s / 60.0, float(p.count))
        for p in points
    ]
    chart = _line_chart(
        [("queries/window", "--series-1", pts)],
        y_label=f"queries per {series.window_s:.0f}s window",
        x_label="minutes since start",
    )
    return _section("Query rate", chart)


def _tail_section(report: TailReport) -> str:
    if not report.rows:
        return _section("Tail attribution", _muted("no phase-tagged query samples yet"))
    rows = [
        [_esc(row.phase), f"{row.mid_mean_s * 1000:.2f}", f"{row.mid_share:.1%}",
         f"{row.tail_mean_s * 1000:.2f}", f"{row.tail_share:.1%}",
         f"{row.amplification:.1f}×" if row.amplification != float("inf") else "∞"]
        for row in report.rows
    ]
    return _section(
        "Tail attribution",
        f"<p class='sub'>{_esc(report.headline())}</p>",
        _table(
            ["phase", "p50-cohort mean ms", "p50 share", "tail-cohort mean ms",
             "tail share", "amplification"],
            rows,
        ),
        _muted(
            f"median cohort n={report.mid_count}, tail cohort "
            f"n={report.tail_count} (&ge; p{report.tail_q * 100:g} = "
            f"{report.tail_threshold_s * 1000:.1f} ms) of "
            f"{report.sample_count} samples"
        ),
    )


def _router_section(hub: TelemetryHub) -> str:
    """Scatter-gather router panel: fleet tiles + per-shard table.

    Rendered only when the hub holds ``router.*`` series (a sharded
    deployment reported here); single-server hubs skip the section
    entirely rather than show an empty box.
    """
    shard_ids = sorted(
        int(match.group(1))
        for name in hub.quantile_names()
        if (match := re.fullmatch(r"router\.shard(\d+)\.latency_s", name))
    )
    routed = hub.series("router.queries").count()
    if not shard_ids and not routed:
        return ""
    merged = hub.quantiles("router.latency_s").merged()
    tiles = [
        ("routed queries", f"{routed}"),
        ("router p99", _quantile(merged, 0.99, _fmt_ms)),
        ("hedges", f"{hub.series('router.hedges').count()}"),
        ("hedge wins", f"{hub.series('router.hedge_wins').count()}"),
        (
            "routed cost $",
            f"${hub.series('router.cost_usd').total():.3e}",
        ),
    ]
    rows = []
    for shard_id in shard_ids:
        sketch = hub.quantiles(f"router.shard{shard_id}.latency_s").merged()
        rows.append([
            f"shard {shard_id}",
            hub.series(f"router.shard{shard_id}.queries").count(),
            hub.series(f"router.shard{shard_id}.failed").count(),
            f"{sketch.quantile(0.5) * 1000:.1f}", f"{sketch.quantile(0.99) * 1000:.1f}",
        ])
    table = (
        _table(["shard", "queries", "failed", "p50 ms", "p99 ms"], rows)
        if rows
        else _muted("no per-shard latency sketches yet")
    )
    return _section(
        "Scatter-gather router",
        _tiles([(label, _esc(value)) for label, value in tiles]),
        table,
    )


def _ingest_section(hub: TelemetryHub) -> str:
    """Real-time ingest panel: freshness lag sketch + drain counters.

    Rendered only when the hub holds ``ingest.*`` telemetry (a drainer
    or a fresh-tier server reported here); lake-only deployments skip
    the section entirely rather than show an empty box.
    """
    lag = hub.quantiles("ingest.freshness_lag_s")
    merged = lag.merged()
    drains = hub.series("ingest.drains").count()
    fresh_matches = hub.series("ingest.fresh_matches").total()
    if not merged.count and not drains and not fresh_matches:
        return ""
    tiles = [
        ("drains", f"{drains}"),
        ("rows drained", f"{hub.series('ingest.drained_rows').total():.0f}"),
        ("fresh matches served", f"{fresh_matches:.0f}"),
        ("freshness lag p50", _quantile(merged, 0.5, "{:.1f} s".format)),
        ("freshness lag p99", _quantile(merged, 0.99, "{:.1f} s".format)),
    ]
    chart = (
        _windowed_chart(lag, scale=1.0, y_label="freshness lag (s)")[0]
        if lag.windows()
        else _muted("no drained segments yet")
    )
    return _section(
        "Real-time ingest freshness",
        _tiles([(label, _esc(value)) for label, value in tiles]),
        chart,
        _muted(
            "lag = lake commit time &minus; WAL segment PUT "
            "time, observed by the drainer per drained segment"
        ),
    )


def _flight_section(flights) -> str:
    """Retained traces panel — the flight recorder's ring, slowest
    first. Each row carries an ``id='flight-<trace_id>'`` anchor so
    exemplar links (the p99 stat tile, sketch tooltips) land on it.
    Rendered only when a recorder/flight list was passed in.
    """
    flights = list(flights or ())
    if not flights:
        return ""
    flights.sort(key=lambda f: (-f.latency_s, f.trace_id))
    rows = []
    for flight in flights:
        slow, cost = flight.summary()
        rows.append([
            f"<code>{_esc(flight.trace_id)}</code>", _esc(flight.reason),
            f"{flight.latency_s * 1000:.2f}", _esc(slow or "—"),
            _esc(flight.query or "—"), f"${cost:.3e}",
        ])
    return _section(
        "Retained traces (flight recorder)",
        "<p class='sub'>tail-sampled complete span trees — errors, SLO "
        "breaches, and latencies above the live tail threshold; render "
        "one with <code>repro traces &lt;id&gt;</code></p>",
        _table(
            ["trace", "reason", "latency ms", "slow phase", "query", "cost"],
            rows,
            ids=[f"flight-{_esc(flight.trace_id)}" for flight in flights],
        ),
    )


def _heat_section(heat, *, limit: int = 12) -> str:
    """Crack heat-map panel: the top-``limit`` hottest files/cells.

    Decay age is measured against the map's freshest observation, so
    the panel is self-contained (no clock needed) and deterministic.
    Rendered only when a heat map was passed in and is non-empty.
    """
    if heat is None or not len(heat):
        return ""
    data = heat.to_dict()
    stamps = {
        (scope, column, kind): float(stamp)
        for scope, column, kind, _value, stamp in data["cells"]
    }
    newest = max(stamps.values())
    rows = [
        [f"<code>{_esc(key.scope)}</code>", _esc(key.column), _esc(key.kind),
         f"{hotness:.3f}", f"{newest - stamps[(key.scope, key.column, key.kind)]:.0f}"]
        for key, hotness in heat.hottest(at_s=newest, limit=limit)
    ]
    return _section(
        "Crack heat map",
        f"<p class='sub'>top {len(rows)} of {len(heat)} heat cells by "
        "decayed hotness — what the cracking controller will act on "
        "next (age relative to the freshest observation)</p>",
        _table(["scope", "column", "kind", "heat", "age s"], rows),
    )


def _trend_section(history) -> str:
    """Cross-run trends from durable snapshot payloads.

    ``history`` is a chronology of snapshot payloads (one per commit,
    e.g. ``SnapshotStore.snapshots()``): each becomes one point of p99
    latency and cost-per-query, turning the dashboard's headline
    numbers into a trajectory across processes and runs.
    """
    history = list(history or ())
    if not history:
        return ""
    rows, p99_pts = [], []
    for payload in sorted(
        history, key=lambda p: (p.get("at_s", 0.0), p.get("sources", []))
    ):
        if not payload.get("hub"):
            continue
        hub = TelemetryHub.from_snapshot(payload["hub"])
        merged = hub.quantiles("serve.latency_s").merged()
        if merged.count:
            p99_pts.append((float(len(rows)), merged.quantile(0.99) * 1000))
        ledger = hub.ledger  # a fold of the cost series: read it once
        rows.append([
            len(rows), _esc(", ".join(payload.get("sources", [])) or "—"),
            f"{payload.get('at_s', 0.0):.0f}", hub.series("serve.queries").count(),
            _quantile(merged, 0.99, lambda v: f"{v * 1000:.1f}"),
            f"${ledger.cost_per_query_usd:.3e}" if ledger.serve_queries else "—",
        ])
    if not rows:
        return ""
    chart = (
        _line_chart(
            [("p99 (ms)", "--series-2", p99_pts)],
            y_label="p99 latency (ms)",
            x_label="snapshot (chronological)",
        )
        if p99_pts
        else ""
    )
    return _section(
        "Cross-run trends (snapshot store)",
        "<p class='sub'>each point is one durable telemetry snapshot — "
        "this run plotted against prior runs and processes</p>",
        chart,
        _table(["#", "sources", "at s", "queries", "p99 ms", "cost/query"], rows),
    )


def _slo_section(report: SLOReport) -> str:
    rows = []
    for status in report.statuses:
        # Icon + label, never color alone.
        badge = (
            "<span class='slo-ok'>&#10003; OK</span>"
            if status.ok
            else "<span class='slo-bad'>&#10007; BREACH</span>"
        )
        rows.append(
            f"<div class='slo-row'>{badge}"
            f"<span>{_esc(status.name)}</span>"
            f"<span class='muted'>{_esc(status.detail)} — burn long "
            f"{status.burn.long_burn:.2f} / short "
            f"{status.burn.short_burn:.2f}</span></div>"
        )
    overall = (
        "<span class='slo-ok'>&#10003; all objectives met</span>"
        if report.ok
        else "<span class='slo-bad'>&#10007; SLO breached</span>"
    )
    return _section("SLO status", *rows, f"<div class='slo-row'>{overall}</div>")


def _tco_section(hub: TelemetryHub, costs: CostModel | None) -> str:
    measured = measured_deployment(hub, costs=costs)
    if measured is None:
        return _section(
            "Measured TCO position",
            _muted("no billed queries yet — the phase diagram needs at least one attributed query"),
        )
    rivals = comparison_approaches(hub, costs=costs)
    diagram = measured_phase_diagram(measured, rivals)
    winner = diagram.winner_at(measured.months, measured.queries)
    svg = _phase_map_svg(diagram, measured)
    a = measured.approach
    return _section(
        "Measured TCO position",
        f"<p class='sub'>measured coefficients: cost/query "
        f"${a.cost_per_query:.3e}, monthly ${a.cost_per_month:.3e}, "
        f"index build ${a.index_cost:.3e} — cheapest approach at the "
        f"measured position: <strong>{_esc(winner.name)}</strong></p>",
        svg,
        _legend([('copy-data', '--series-1'), ('brute-force', '--series-2'), ('measured (this deployment)', '--series-3')]),
        _muted(
            "winner regions over (operating months × total "
            "queries); &#10005; marks this deployment's observed position, "
            "the dashed path its trajectory"
        ),
    )


def render_dashboard(
    hub: TelemetryHub,
    *,
    slo: SLO | None = None,
    costs: CostModel | None = None,
    source: str = "",
    title: str = "Rottnest deployment dashboard",
    flights=None,
    heat=None,
    history=None,
) -> str:
    """The full self-contained HTML document for one hub.

    ``flights`` (an iterable of :class:`~repro.obs.flight.FlightTrace`
    or a :class:`~repro.obs.flight.FlightRecorder`), ``heat`` (a
    :class:`~repro.crack.heat.HeatMap`) and ``history`` (snapshot
    payloads, e.g. ``SnapshotStore.snapshots()``) are optional; their
    sections render only when data is present.
    """
    slo = slo or default_slo()
    slo_report = slo.evaluate(hub)
    tail_report = tail_attribution(hub.tail.samples())
    source_line = f" — source: {_esc(source)}" if source else ""
    if flights is not None and hasattr(flights, "traces"):
        flights = flights.traces()
    flight_list = list(flights or ())
    flight_ids = frozenset(f.trace_id for f in flight_list)
    sections = "".join(
        [
            _stat_tiles(hub, flight_ids),
            _slo_section(slo_report),
            _latency_section(hub),
            _flight_section(flight_list),
            _router_section(hub),
            _ingest_section(hub),
            _rate_section(hub),
            _tail_section(tail_report),
            _heat_section(heat),
            _trend_section(history),
            _tco_section(hub, costs),
        ]
    )
    return (
        "<!DOCTYPE html>\n"
        "<html lang='en'><head><meta charset='utf-8'>\n"
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        "<body class='viz-root'>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f"<p class='sub'>windowed telemetry, {hub.window_s:.0f}s windows"
        f"{source_line}</p>\n"
        f"{sections}\n"
        "</body></html>\n"
    )


def write_dashboard(path: str, hub: TelemetryHub, **options) -> str:
    """Write :func:`render_dashboard` of ``hub`` (same keyword
    options); returns ``path``."""
    document = render_dashboard(hub, **options)
    with open(path, "w") as f:
        f.write(document)
    return path
