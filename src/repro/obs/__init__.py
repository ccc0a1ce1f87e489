"""Unified observability: spans, time-series, SLOs, bills.

The paper's argument is quantitative — latency/cost decompositions
(Fig. 8) and the TCO phase diagram (§VI) — so the reproduction needs
first-class telemetry to prove any perf claim against:

* :mod:`repro.obs.trace` — hierarchical spans with SimClock-aware
  timing and context propagation across the serve executor's worker
  threads;
* :mod:`repro.obs.attribution` — joins a finished span tree with the
  storage latency/cost models into a per-query dollar/latency bill
  whose totals reconcile exactly with IOStats;
* :mod:`repro.obs.timeseries` — the one telemetry store: every named
  fact is a labeled windowed series (rate, cumulative counter, gauge)
  or a mergeable quantile sketch in one process-wide
  :class:`~repro.obs.timeseries.TelemetryHub`. Each bill is stored
  once, as a cost series; the observed-dollars
  :class:`~repro.obs.timeseries.CostLedger` is a read-only fold of them;
* :mod:`repro.obs.metrics` — the Prometheus text exposition of a hub
  (``repro metrics``);
* :mod:`repro.obs.critical_path` — per-trace critical paths and
  aggregate p50-vs-p99 tail attribution over many queries;
* :mod:`repro.obs.slo` — declarative latency/availability/cost
  objectives evaluated as multi-window burn rates (``repro slo-check``
  turns the verdict into an exit code);
* :mod:`repro.obs.dashboard` — a dependency-free HTML report with the
  deployment's measured position on the TCO phase diagram;
* :mod:`repro.obs.export` — JSONL span dumps, the one text renderer
  of a span tree (:func:`~repro.obs.export.explain`: timeline, bill,
  critical path — what ``repro profile`` and ``repro traces`` print),
  the stable ``BENCH_*.json`` schema benchmarks emit, and the
  ``TELEMETRY_*.json`` hub snapshots the SLO gate evaluates;
* :mod:`repro.obs.flight` — the tail-sampling flight recorder: a
  bounded ring of *complete span trees* for exactly the queries worth
  debugging (errors, SLO breaches, latencies above a live p99), each
  persisted content-addressed through the :class:`ObjectStore`. A
  flight stores only its spans; its bill is computed when it is read;
* :mod:`repro.obs.store` — durable, mergeable telemetry snapshots
  (hub series + crack heat map + SLO verdicts)
  whose fold is commutative and associative, so dashboards gain a
  cross-process, cross-run time-travel axis.

Any later PR claiming a speedup demonstrates it through this module:
``repro profile`` for one query, ``BENCH_*.json`` for the trajectory,
``repro slo-check`` for the gate.
"""

from repro.obs.attribution import (
    PhaseBill,
    QueryBill,
    attribute,
    price_iostats,
)
from repro.obs.critical_path import (
    CriticalStep,
    TailRecorder,
    TailReport,
    TailSample,
    critical_path,
    render_critical_path,
    tail_attribution,
)
from repro.obs.dashboard import (
    MeasuredDeployment,
    measured_deployment,
    render_dashboard,
    write_dashboard,
)
from repro.obs.export import (
    BENCH_SCHEMA,
    TELEMETRY_SCHEMA,
    explain,
    load_telemetry_json,
    render_timeline,
    span_to_dict,
    span_tree_from_dicts,
    spans_to_jsonl,
    update_bench_json,
    validate_bench,
    write_spans_jsonl,
    write_telemetry_json,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    FlightTrace,
    flight_key,
    get_flight_recorder,
    list_flights,
    load_flight,
    load_flights,
    set_flight_recorder,
    use_flight_recorder,
)
from repro.obs.metrics import get_registry
from repro.obs.slo import (
    SLO,
    AvailabilityObjective,
    CostObjective,
    LatencyObjective,
    SLOReport,
    default_slo,
)
from repro.obs.store import (
    SNAPSHOT_SCHEMA,
    SnapshotStore,
    fold_snapshots,
    load_snapshots,
    snapshot_key,
    snapshot_payload,
    validate_snapshot,
)
from repro.obs.timeseries import (
    CostLedger,
    QuantileSketch,
    TelemetryHub,
    WindowedQuantiles,
    WindowedSeries,
    get_hub,
    set_hub,
    use_hub,
)
from repro.obs.trace import (
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "BENCH_SCHEMA",
    "FLIGHT_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "TELEMETRY_SCHEMA",
    "AvailabilityObjective",
    "CostLedger",
    "CostObjective",
    "CriticalStep",
    "FlightRecorder",
    "FlightTrace",
    "LatencyObjective",
    "MeasuredDeployment",
    "PhaseBill",
    "QuantileSketch",
    "QueryBill",
    "SLO",
    "SLOReport",
    "SnapshotStore",
    "Span",
    "TailRecorder",
    "TailReport",
    "TailSample",
    "TelemetryHub",
    "Tracer",
    "WindowedQuantiles",
    "WindowedSeries",
    "attribute",
    "critical_path",
    "default_slo",
    "explain",
    "flight_key",
    "fold_snapshots",
    "get_flight_recorder",
    "get_hub",
    "get_registry",
    "get_tracer",
    "list_flights",
    "load_flight",
    "load_flights",
    "load_snapshots",
    "load_telemetry_json",
    "measured_deployment",
    "price_iostats",
    "render_critical_path",
    "render_dashboard",
    "render_timeline",
    "set_flight_recorder",
    "set_hub",
    "set_tracer",
    "snapshot_key",
    "snapshot_payload",
    "span_to_dict",
    "span_tree_from_dicts",
    "spans_to_jsonl",
    "tail_attribution",
    "update_bench_json",
    "use_flight_recorder",
    "use_hub",
    "use_tracer",
    "validate_bench",
    "validate_snapshot",
    "write_dashboard",
    "write_spans_jsonl",
    "write_telemetry_json",
]
