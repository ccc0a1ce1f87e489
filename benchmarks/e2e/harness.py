"""One workload run: set-up, warm-up, measured rounds, metrics.

Run shape: ``SETUP_REPEATS`` timed set-ups (``setup_s`` is their
median; the last one is kept) → one warm-up round, discarded →
measured rounds until ``--seconds`` have passed (at least
``MIN_ROUNDS``). A wall metric is computed per round and reported as
the median across rounds, with the inter-quartile spread and the round
count beside it. Count metrics are means over the first ``MIN_ROUNDS``
rounds only: those always run and their operations are a pure function
of the seed, so the counts repeat bit-for-bit on the single-threaded
workloads however many rounds the clock allowed.

The end-to-end wall metrics are in **calibrated time**: a fixed loop
(``stats.calibrate``) is read beside every set-up and at most 0.4 s
from every operation (``stats.Pacer``), and each wall time is scaled by
``REFERENCE_MS / (mean of the two readings around it)``. The box this
runs on changes speed by up to 2x for seconds or minutes at a time; the
loop changes with it, the ratio much less. Per-layer figures stay in
raw milliseconds, with ``bench.calibration_ms`` beside them.

The traced pass cycles the workload's round variants (``plain``,
``traced``, and on ``hot_serve`` the two obs A/B variants) so every
ratio it reports is taken inside one process.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry
from repro.storage.stats import IOStats

from benchmarks.e2e import spec, stats
from benchmarks.e2e.trace import Analysis, SpanRecorder, install, uninstall
from benchmarks.e2e.workloads import SMOKE, WORKLOADS, Round, Sizes, Workload

SETUP_REPEATS = 3
MIN_ROUNDS = 3
NOISY_CALIBRATION_GAP = 0.10

STORAGE_SPANS = (
    "storage.get",
    "storage.get_many",
    "storage.list",
    "storage.head",
    "storage.put",
    "storage.delete",
)
QUERY = ("query",)
MAINTAIN_OPS = ("index", "compact")
INDEX_TYPES = {"fm": "fm", "trie": "uuid_trie", "ivfpq": "ivf_pq"}
IO_KEYS = ("gets", "puts", "lists", "heads", "deletes", "bytes_read", "bytes_written")


@dataclass
class Run:
    """Everything one workload run produced."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    #: from the untraced ("plain") rounds — of either pass
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: traced pass only
    per_layer: dict[str, float] = field(default_factory=dict)
    #: name -> {"median", "spread", "n"} for metrics taken per round
    detail: dict[str, dict] = field(default_factory=dict)
    layer_table: list[dict] = field(default_factory=list)
    calibration_ms: tuple[float, float] = (0.0, 0.0)
    noisy: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def metrics(self) -> dict[str, float]:
        """The set the contract asks of this pass."""
        return self.per_layer if self.traced else self.end_to_end

    def result_line(self) -> dict:
        """The contract's last stdout line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": spec.format_metrics(self.metrics),
        }

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "noisy": self.noisy,
            "calibration_ms": list(self.calibration_ms),
            "metrics": spec.format_metrics(self.metrics),
            "detail": self.detail,
            "layer_table": self.layer_table,
            "notes": self.notes,
        }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    traced: bool,
    smoke: bool = False,
    spans_path: str | None = None,
) -> Run:
    sizes = SMOKE if smoke else Sizes()
    repeats = 1 if smoke else SETUP_REPEATS
    min_rounds = 1 if smoke else MIN_ROUNDS
    recorder = SpanRecorder() if traced else None
    run = Run(workload=name, seed=seed, traced=traced)

    pacer = stats.Pacer()
    setups: list[float] = []
    workload: Workload | None = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[name](seed, sizes, pacer, recorder)
        slot = pacer.lap()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        pacer.lap()
        setups.append(elapsed * pacer.speed(slot))

    undo = install(recorder) if traced else []
    try:
        if not smoke:
            workload.round(0, "plain")  # warm-up, discarded
        counters_start = workload.counters()
        rounds, io = _measure(workload, recorder, seconds, min_rounds)
        counters_end = workload.counters()
        finished = workload.finish()
    finally:
        uninstall(undo)
        workload.close()
    every = [r for group in rounds.values() for r in group]
    run.attempted = sum(r.attempted for r in every) + finished[0]
    run.failed = sum(r.failed for r in every) + finished[1]
    run.calibration_ms = (pacer.readings[0], pacer.readings[-1])
    run.noisy = (
        abs(pacer.readings[-1] - pacer.readings[0]) / pacer.readings[0]
        > NOISY_CALIBRATION_GAP
    )
    run.notes = {
        "rounds": {variant: len(group) for variant, group in rounds.items()},
        "setup_s": setups,
        "queries_per_round": len(rounds["plain"][0].queries),
        "calibration_readings_ms": pacer.readings,
        "cache_budget_bytes": getattr(workload, "cache_budget_bytes", None),
    }
    _end_to_end(run, setups, rounds["plain"], min_rounds)
    if traced:
        counters = {
            key: counters_end[key] - counters_start[key] for key in counters_end
        }
        _per_layer(run, recorder, rounds, io, counters)
        if spans_path is not None:
            recorder.write_jsonl(spans_path)
    return run


def _measure(workload: Workload, recorder, seconds: float, min_rounds: int):
    """Cycle the round variants until the clock and the minimum are met."""
    variants = workload.variants if recorder is not None else ("plain",)
    if recorder is not None:
        min_rounds = 1
    rounds: dict[str, list[Round]] = {variant: [] for variant in variants}
    io = {"span": dict.fromkeys(IO_KEYS, 0), "stats": dict.fromkeys(IO_KEYS, 0), "waste": 0}
    index = 1
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds or len(rounds["plain"]) < min_rounds
    ):
        for variant in variants:
            # Same collector state at every round start; the program's
            # own garbage inside a round is still its to collect.
            gc.collect()
            if variant == "traced":
                rounds[variant].append(_traced_round(workload, recorder, index, io))
            else:
                rounds[variant].append(workload.round(index, variant))
            index += 1
    return rounds, io


def _waste_bytes() -> float:
    counter = get_registry().get("io_coalesced_waste_bytes_total")
    return counter.total() if counter is not None else 0.0


def _traced_round(workload: Workload, recorder: SpanRecorder, index: int, io: dict) -> Round:
    """One round with spans on, plus both sides of the IO reconciliation:
    what the SpanStores counted and what their inner stores billed."""
    before = {id(s): (s.stats.snapshot(), dict(s.counts)) for s in workload.span_stores}
    waste = _waste_bytes()
    recorder.active = True
    try:
        out = workload.round(index, "traced")
    finally:
        recorder.active = False
    io["waste"] += _waste_bytes() - waste
    for store in workload.span_stores:
        base_stats, base_counts = before.get(
            id(store), (IOStats(), dict.fromkeys(IO_KEYS, 0))
        )
        billed = store.stats.snapshot().delta(base_stats)
        for key in IO_KEYS:
            io["stats"][key] += getattr(billed, key)
            io["span"][key] += store.counts[key] - base_counts[key]
    return out


# -- end-to-end metrics ----------------------------------------------------
def _per_round(run: Run, name: str, values) -> float:
    run.detail[name] = stats.summarize(values)
    return run.detail[name]["median"]


def _query_percentile(
    rounds, q: float, kind: str | None = None, *, calibrated: bool = False
) -> list[float]:
    """Per-round percentile of query wall time in ms (rounds where the
    sample supports it)."""
    out = []
    for r in rounds:
        walls = [
            s.wall_s * 1000.0 * (s.speed if calibrated else 1.0)
            for s in r.queries
            if kind in (None, s.kind)
        ]
        try:
            out.append(stats.percentile(walls, q))
        except stats.TooFewSamples:
            continue
    return out


def _index_share(rounds) -> dict[str, float]:
    """Index bytes per lake data byte by index type, over ``rounds``."""
    data_bytes = sum(r.index_sizes["data"] for r in rounds)
    kinds = {k for r in rounds for k in r.index_sizes if k != "data"}
    return {
        k: sum(r.index_sizes.get(k, 0) for r in rounds) / data_bytes for k in kinds
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _end_to_end(run: Run, setups, rounds, min_rounds: int) -> None:
    m = run.end_to_end
    m["setup_s"] = _per_round(run, "setup_s", setups)
    m["round_wall_s"] = _per_round(
        run, "round_wall_s", [r.cal_wall_s for r in rounds]
    )
    m["query_wall_p50_ms"] = _per_round(
        run, "query_wall_p50_ms", _query_percentile(rounds, 0.50, calibrated=True)
    )
    m["query_wall_p95_ms"] = _per_round(
        run, "query_wall_p95_ms", _query_percentile(rounds, 0.95, calibrated=True)
    )
    m["queries_per_s"] = _per_round(
        run, "queries_per_s", [r.cal_queries_per_s for r in rounds]
    )
    # Counts: the rounds that always run, so they repeat exactly for a
    # seed — except where two client threads make exactness moot and
    # every round is worth having (cache hits are a heavy-tailed count).
    if run.workload in spec.SINGLE_THREADED:
        rounds = rounds[:min_rounds]
    counted = [q for r in rounds for q in r.queries]
    m["query_modeled_mean_ms"] = _mean(q.modeled_ms for q in counted)
    m["requests_per_query"] = _mean(q.requests for q in counted)
    m["recall_at_k"] = _mean(q.recall for q in counted)
    m["index_bytes_per_data_byte"] = sum(_index_share(rounds).values())
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics -------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_extra(rounds, key: str) -> float:
    values = [r.extra[key] for r in rounds if key in r.extra]
    return stats.median(values) if values else 0.0


def _p50(rounds, kind: str | None = None) -> float:
    values = _query_percentile(rounds, 0.50, kind)
    return stats.median(values) if values else 0.0


def _per_layer(run: Run, recorder, rounds, io, counters) -> None:
    plain, traced = rounds["plain"], rounds["traced"]
    a = Analysis(recorder)
    n_ops = max(1, len(a.ops))
    traced_queries = [q for r in traced for q in r.queries]
    exact_queries = [q for q in traced_queries if q.kind != "vector"]
    m = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)

    # User-visible figures the shared end-to-end set cannot carry.
    for kind in ("substring", "uuid", "vector"):
        m[f"{kind}_wall_p50_ms"] = _p50(plain, kind)
    user_mb = _median_extra(plain, "user_bytes") / 1e6
    m["build_mb_per_s"] = _ratio(user_mb, _median_extra(plain, "index_s"))
    m["compact_mb_per_s"] = _ratio(user_mb, _median_extra(plain, "compact_s"))
    if any("rows_acked" in r.extra for r in plain):
        m["ingest_rows_per_s"] = stats.median(
            r.extra["rows_acked"] / r.wall_s for r in plain
        )
        m["ack_wall_p50_ms"] = stats.median(
            stats.percentile(r.extra["ack_walls"], 0.5) * 1000.0 for r in plain
        )

    span = io["span"]
    m["storage.get.calls_per_op"] = span["gets"] / n_ops
    m["storage.list.calls_per_op"] = span["lists"] / n_ops
    m["storage.put.calls_per_op"] = span["puts"] / n_ops
    m["storage.rounds_per_op"] = _mean(q.depth for q in traced_queries)
    m["storage.bytes_read_per_op"] = span["bytes_read"] / n_ops
    m["storage.bytes_written_per_op"] = span["bytes_written"] / n_ops
    m["storage.self_ms_per_op"] = a.self_ms_per_op(STORAGE_SPANS)
    m["storage.coalesce_waste_share"] = _ratio(io["waste"], span["bytes_read"])

    for metric, names in {
        "lake.snapshot.self_ms_per_op": ("lake.snapshot",),
        "meta.records.self_ms_per_op": ("meta.records",),
        "core.search.self_ms_per_op": ("core.search",),
        "core.index_open.self_ms_per_op": ("core.index_open",),
        "core.component_read.self_ms_per_op": ("core.component_read",),
        "indices.trie.probe_ms_per_op": ("indices.trie.probe",),
        "indices.fm.probe_ms_per_op": ("indices.fm.probe",),
        "indices.ivfpq.probe_ms_per_op": ("indices.ivfpq.probe",),
        "formats.fetch_pages.self_ms_per_op": ("formats.fetch_pages",),
        "formats.scan_column.self_ms_per_op": ("formats.read_chunk",),
        "serve.cache.self_ms_per_op": ("serve.cache",),
        "serve.executor.self_ms_per_op": ("serve.executor",),
        "serve.server.self_ms_per_op": ("serve.server", "serve.singleflight"),
        "obs.attribute.self_ms_per_op": ("obs.attribute",),
        "obs.flight.record.self_ms_per_op": ("obs.flight.record",),
        "ingest.search_fresh.self_ms_per_op": ("ingest.search_fresh",),
    }.items():
        m[metric] = a.self_ms_per_op(names, QUERY)
    m["indices.candidate_pages_per_op"] = _mean(q.candidates for q in traced_queries)
    m["indices.false_positive_page_share"] = _ratio(
        sum(q.false_positives for q in exact_queries),
        sum(q.pages for q in exact_queries),
    )
    m["formats.pages_per_op"] = _mean(q.pages for q in traced_queries)

    if counters:
        lookups = counters["cache_hits"] + counters["cache_misses"]
        m["serve.cache.hit_rate"] = _ratio(counters["cache_hits"], lookups)
        m["serve.cache.evictions_per_op"] = _ratio(
            counters["cache_evictions"], counters["queries"]
        )
        m["serve.singleflight.dedup_share"] = _ratio(
            counters["deduplicated"], counters["queries"]
        )
    if "tracer_off" in rounds:
        m["obs.tracer_overhead_ratio"] = _ratio(_p50(plain), _p50(rounds["tracer_off"]))
        m["obs.flight_overhead_ratio"] = _ratio(_p50(plain), _p50(rounds["flight_off"]))

    m["ingest.wal.append.self_ms_per_batch"] = a.self_ms_per_op(
        ("ingest.wal.append",), ("ack",)
    )
    m["ingest.memtable.insert.self_ms_per_batch"] = a.self_ms_per_op(
        ("ingest.ack",), ("ack",)
    )
    m["ingest.wal.bytes_per_user_byte"] = _ratio(
        _median_extra(plain, "wal_bytes"), _median_extra(plain, "user_bytes")
    )
    m["ingest.drain.self_ms_per_row"] = _ratio(
        a.total_self_ms(("ingest.drain",), ("drain",)),
        sum(r.extra.get("drained_rows", 0) for r in traced),
    )
    m["ingest.recover.rows_per_s"] = _ratio(
        _median_extra(plain, "recover_rows"), _median_extra(plain, "recover_s")
    )

    index_share = _index_share(traced)
    for short, index_type in INDEX_TYPES.items():
        built = sum(r.extra.get(f"built_bytes.{index_type}", 0) for r in traced)
        merged = sum(r.extra.get(f"merged_bytes.{index_type}", 0) for r in traced)
        build_spans = (f"indices.{short}.build", f"indices.{short}.write")
        merge_spans = build_spans + (f"indices.{short}.merge",)
        m[f"indices.{short}.build_mb_per_s"] = _ratio(
            built / 1e3, a.total_self_ms(build_spans, ("index",))
        )
        if short != "trie":
            m[f"indices.{short}.merge_mb_per_s"] = _ratio(
                merged / 1e3, a.total_self_ms(merge_spans, ("compact",))
            )
        m[f"maintain.index_bytes.{short}_per_data_byte"] = index_share.get(
            index_type, 0.0
        )
    m["maintain.extract.self_ms_per_file"] = _ratio(
        a.total_self_ms(("formats.read_chunk",), MAINTAIN_OPS),
        a.calls(("formats.read_chunk",), MAINTAIN_OPS),
    )
    m["formats.write.self_ms_per_file"] = _ratio(
        a.total_self_ms(("formats.write",)), a.calls(("formats.write",))
    )
    m["maintain.commit.self_ms_per_call"] = _ratio(
        a.total_self_ms(("meta.insert",), MAINTAIN_OPS),
        a.calls(("meta.insert",), MAINTAIN_OPS),
    )
    m["maintain.vacuum.ms"] = _median_extra(plain, "vacuum_ms")
    m["maintain.write_amp"] = _ratio(
        _median_extra(plain, "bytes_put"), _median_extra(plain, "user_bytes")
    )

    first, last = _query_percentile(plain[:1], 0.5), _query_percentile(plain[-1:], 0.5)
    m["bench.trace_overhead_ratio"] = _ratio(_p50(traced), _p50(plain))
    m["bench.round_drift_ratio"] = _ratio(last[0], first[0]) if first and last else 0.0
    m["bench.calibration_ms"] = stats.median(run.notes["calibration_readings_ms"])
    m["bench.self_time_gap_share"] = a.gap_share
    m["bench.io_count_mismatch"] = float(
        sum(abs(span[key] - io["stats"][key]) for key in IO_KEYS)
    )
    run.per_layer = m
    run.layer_table = a.layer_table()
    run.notes["sibling_overlap_ms"] = a.overlap_s * 1000.0
    run.notes["operations_traced"] = len(a.ops)
