"""Prometheus text exposition of a :class:`TelemetryHub`.

There is no second store: :func:`render` walks the hub's families and
prints each as a ``counter`` (a series' all-time total), a ``gauge``
(a series whose value was ``set`` — its last value) or a ``summary``
(a sketch: ``quantile="0.5|0.9|0.99"`` over the retained windows,
all-time ``_sum`` / ``_count``, the sketch's exemplar in OpenMetrics
syntax on the p99 line). ``.`` in a hub name renders as ``_``; HELP text
and label values are escaped per the text exposition format.
"""

from __future__ import annotations

from repro.obs.timeseries import (
    TelemetryHub,
    WindowedQuantiles,
    format_labels,
    get_hub,
)

#: ``# HELP`` text by hub name (names without an entry render no HELP).
HELP = {
    "store_requests_total": "Object-store requests by operation",
    "store_bytes_total": "Object-store payload bytes by direction",
    "store_retries_total": "Transient store errors retried, by operation",
    "store_backoff_seconds_total": "Cumulative retry backoff wait time",
    "io_merged_gets_total": "Coalesced GETs dispatched by the batch scheduler",
    "io_coalesced_subranges_total": "Caller byte-ranges served through a coalesced GET",
    "io_coalesced_waste_bytes_total": "Gap bytes fetched by coalesced GETs that no caller asked for",
    "cache_lookups_total": "Serving-cache lookups by outcome",
    "cache_evictions_total": "Serving-cache entries evicted by the byte budget",
    "cache_invalidations_total": "Serving-cache entries dropped by writes",
    "cache_cached_bytes": "Bytes currently held by the serving cache",
    "searches_total": "Searches by query kind",
    "serve.queries": "Queries answered (leader or deduplicated; shed ones excluded)",
    "serve.latency_s": "Modeled end-to-end query latency",
    "serve.degraded": "Queries answered by brute-force fallback after an index read failure",
    "serve_inflight_queries": "Queries currently holding an admission slot",
    "maintenance_ticks_total": "Maintenance daemon ticks by policy and outcome",
    "maintain_worker_tasks_total": "Worker tasks the pipeline fanned out, by verb",
    "ingest_fresh_searches_total": "Fresh-tier probes served from memtables",
    "router_shards_pruned_total": "Shards skipped by hash/min-max/partition pruning",
}


def render(hub: TelemetryHub) -> str:
    """Every sampled instrument of ``hub`` in the text exposition
    format, one family per name; ``""`` when nothing holds a sample."""
    lines: list[str] = []
    for name, members in hub.families().items():
        members = {k: m for k, m in members.items() if m.count()}
        if not members:
            continue
        first = next(iter(members.values()))
        if isinstance(first, WindowedQuantiles):
            kind = "summary"
        else:
            kind = "counter" if first.last is None else "gauge"
        flat = name.replace(".", "_")
        if name in HELP:
            text = HELP[name].replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {flat} {text}")
        lines.append(f"# TYPE {flat} {kind}")
        for labels, member in members.items():
            braces = f"{{{format_labels(labels)}}}" if labels else ""
            if kind != "summary":
                value = member.total() if kind == "counter" else member.last
                lines.append(f"{flat}{braces} {value:g}")
                continue
            sketch = member.merged()
            for q in ("0.5", "0.9", "0.99"):
                quantile = format_labels((*labels, ("quantile", q)))
                lines.append(f"{flat}{{{quantile}}} {sketch.quantile(float(q)):g}")
            if sketch.exemplar is not None:
                value, trace_id = sketch.exemplar
                lines[-1] += f' # {{trace_id="{trace_id}"}} {value:g}'
            lines.append(f"{flat}_sum{braces} {member.total():g}")
            lines.append(f"{flat}_count{braces} {member.count()}")
    return "\n".join(lines)


def get_registry() -> TelemetryHub:
    """The current hub, under the name ``repro metrics`` and
    ``benchmarks/e2e`` import; render it with :func:`render`."""
    return get_hub()
