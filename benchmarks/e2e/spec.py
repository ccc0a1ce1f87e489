"""The benchmark's contract: workloads, metric names, units, bounds.

Single source of truth — ``BENCHMARK.json`` at the repo root is
:func:`benchmark_json` written out (``python -m benchmarks.e2e spec``),
and the self-test fails when the two disagree. Later issues refer to
these names verbatim.
"""

from __future__ import annotations

import re

RUN_SECONDS = 12
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = [
    {
        "name": "cold_search",
        "why": "stateless searcher, unique keys, no cache: the whole read path "
        "(log replay, index open, probe, page fetch, decode, verify) per query; "
        "serve/obs/ingest do nothing",
    },
    {
        "name": "hot_serve",
        "why": "same lake behind SearchServer with Zipf-repeated keys, an "
        "undersized byte cache, telemetry hub and flight recorder: cache, "
        "executor, single-flight and obs are on the path",
    },
    {
        "name": "build_maintain",
        "why": "write side: append, index, compact, vacuum, fsck, then search "
        "the compacted lake; index build/merge cost and index bytes trade "
        "against probe speed here",
    },
    {
        "name": "ingest_mixed",
        "why": "WAL acks beside reads on one client: memtables, drains, lazy "
        "index ticks, uncovered-file scans and fresh/lazy merge; ack implies "
        "searchable before and after recover",
    },
]


def _metric(name: str, unit: str, better: str, bound: float | None = None) -> dict:
    out = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        out["bound"] = bound
    return out


#: Every workload reports every one of these (the driver's contract), so
#: the set is the part of the user-visible surface all four share; the
#: per-kind and write-side figures the issue also names are first-class
#: rows of PER_LAYER below.
END_TO_END = [
    _metric("setup_s", "s", "lower", 0.25),
    _metric("round_wall_s", "s", "lower", 0.15),
    _metric("query_wall_p50_ms", "ms", "lower", 0.15),
    _metric("query_wall_p95_ms", "ms", "lower", 0.15),
    _metric("queries_per_s", "1/s", "higher", 0.15),
    _metric("query_modeled_mean_ms", "ms", "lower", 0.10),
    _metric("requests_per_query", "count", "lower", 0.15),
    _metric("recall_at_k", "ratio", "higher", 0.02),
    _metric("index_bytes_per_data_byte", "ratio", "lower", 0.05),
    _metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: End-to-end metrics that are pure functions of (seed, workload) on the
#: single-threaded workloads: ``repeat-check`` demands they repeat
#: bit-for-bit there (the bound above only absorbs seed-to-seed spread).
#: ``index_bytes_per_data_byte`` is not among them: index files embed the
#: data-file names, which carry a nonce the lake draws from the OS, so
#: their compressed size moves in the fifth digit.
EXACT = ("query_modeled_mean_ms", "requests_per_query", "recall_at_k")
SINGLE_THREADED = ("cold_search", "build_maintain", "ingest_mixed")

PER_LAYER = [
    # Per-kind and write-side user-visible figures (untraced rounds).
    _metric("substring_wall_p50_ms", "ms", "lower"),
    _metric("uuid_wall_p50_ms", "ms", "lower"),
    _metric("vector_wall_p50_ms", "ms", "lower"),
    _metric("build_mb_per_s", "MB/s", "higher"),
    _metric("compact_mb_per_s", "MB/s", "higher"),
    _metric("ingest_rows_per_s", "rows/s", "higher"),
    _metric("ack_wall_p50_ms", "ms", "lower"),
    # storage (SpanStore beneath everything)
    _metric("storage.get.calls_per_op", "count", "lower"),
    _metric("storage.list.calls_per_op", "count", "lower"),
    _metric("storage.put.calls_per_op", "count", "lower"),
    _metric("storage.rounds_per_op", "count", "lower"),
    _metric("storage.bytes_read_per_op", "bytes", "lower"),
    _metric("storage.bytes_written_per_op", "bytes", "lower"),
    _metric("storage.self_ms_per_op", "ms", "lower"),
    _metric("storage.coalesce_waste_share", "ratio", "lower"),
    # lake / meta
    _metric("lake.snapshot.self_ms_per_op", "ms", "lower"),
    _metric("meta.records.self_ms_per_op", "ms", "lower"),
    # core
    _metric("core.search.self_ms_per_op", "ms", "lower"),
    _metric("core.index_open.self_ms_per_op", "ms", "lower"),
    _metric("core.component_read.self_ms_per_op", "ms", "lower"),
    # indices (probe side)
    _metric("indices.trie.probe_ms_per_op", "ms", "lower"),
    _metric("indices.fm.probe_ms_per_op", "ms", "lower"),
    _metric("indices.ivfpq.probe_ms_per_op", "ms", "lower"),
    _metric("indices.candidate_pages_per_op", "count", "lower"),
    _metric("indices.false_positive_page_share", "ratio", "lower"),
    # formats
    _metric("formats.fetch_pages.self_ms_per_op", "ms", "lower"),
    _metric("formats.pages_per_op", "count", "lower"),
    _metric("formats.scan_column.self_ms_per_op", "ms", "lower"),
    # serve
    _metric("serve.cache.hit_rate", "ratio", "higher"),
    _metric("serve.cache.evictions_per_op", "count", "lower"),
    _metric("serve.cache.self_ms_per_op", "ms", "lower"),
    _metric("serve.executor.self_ms_per_op", "ms", "lower"),
    _metric("serve.server.self_ms_per_op", "ms", "lower"),
    _metric("serve.singleflight.dedup_share", "ratio", "higher"),
    # obs
    _metric("obs.attribute.self_ms_per_op", "ms", "lower"),
    _metric("obs.flight.record.self_ms_per_op", "ms", "lower"),
    _metric("obs.tracer_overhead_ratio", "ratio", "lower"),
    _metric("obs.flight_overhead_ratio", "ratio", "lower"),
    # ingest
    _metric("ingest.wal.append.self_ms_per_batch", "ms", "lower"),
    _metric("ingest.memtable.insert.self_ms_per_batch", "ms", "lower"),
    _metric("ingest.wal.bytes_per_user_byte", "ratio", "lower"),
    _metric("ingest.search_fresh.self_ms_per_op", "ms", "lower"),
    _metric("ingest.drain.self_ms_per_row", "ms", "lower"),
    _metric("ingest.recover.rows_per_s", "rows/s", "higher"),
    # indices (build side) / maintain
    _metric("indices.fm.build_mb_per_s", "MB/s", "higher"),
    _metric("indices.trie.build_mb_per_s", "MB/s", "higher"),
    _metric("indices.ivfpq.build_mb_per_s", "MB/s", "higher"),
    _metric("indices.fm.merge_mb_per_s", "MB/s", "higher"),
    _metric("indices.ivfpq.merge_mb_per_s", "MB/s", "higher"),
    _metric("maintain.extract.self_ms_per_file", "ms", "lower"),
    _metric("formats.write.self_ms_per_file", "ms", "lower"),
    _metric("maintain.commit.self_ms_per_call", "ms", "lower"),
    _metric("maintain.vacuum.ms", "ms", "lower"),
    _metric("maintain.write_amp", "ratio", "lower"),
    _metric("maintain.index_bytes.fm_per_data_byte", "ratio", "lower"),
    _metric("maintain.index_bytes.trie_per_data_byte", "ratio", "lower"),
    _metric("maintain.index_bytes.ivfpq_per_data_byte", "ratio", "lower"),
    # validity of the run itself
    _metric("bench.trace_overhead_ratio", "ratio", "lower"),
    _metric("bench.round_drift_ratio", "ratio", "lower"),
    _metric("bench.calibration_ms", "ms", "lower"),
    _metric("bench.self_time_gap_share", "ratio", "lower"),
    _metric("bench.io_count_mismatch", "count", "lower"),
]

WORKLOAD_NAMES = tuple(w["name"] for w in WORKLOADS)
END_TO_END_NAMES = tuple(m["name"] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m["name"] for m in PER_LAYER)
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def format_metrics(values: dict[str, float]) -> dict:
    """``{name: value}`` -> the contract's ``{name: {value, unit}}``."""
    return {
        name: {"value": float(value), "unit": UNITS[name]}
        for name, value in values.items()
    }
