"""Serving benchmark: the `repro.serve` subsystem end to end.

Three measurements:

* **cold vs warm** — repeated-query latency through the caching store:
  the first query pays every metadata/index/page round trip; repeats
  are served from the LRU, so modeled latency drops strictly below the
  cold query and the cache reports a nonzero hit rate.
* **executor scaling (Fig. 8c/8d shape)** — one query fanned across
  1..16 searchers: latency falls until the plan's width saturates, is
  ~flat beyond it (depth-bound), while cost per query grows ~linearly
  with searcher count.
* **concurrent clients** — many clients over one server: admission
  control holds, single-flight dedup collapses identical queries, and
  the ServeStats report feeds the §VII-D3 throughput model a measured
  requests-per-query value.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.client import RottnestClient
from repro.core.queries import UuidQuery
from repro.lake.table import LakeTable, TableConfig
from repro.formats.schema import ColumnType, Field, Schema
from repro.obs import TelemetryHub, use_hub, write_telemetry_json
from repro.serve import CachingObjectStore, SearchExecutor, SearchServer
from repro.storage.costs import CostModel
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads.uuids import UuidWorkload

from benchmarks.common import (
    SEARCHER_INSTANCE,
    build_uuid_scenario,
    results_path,
    write_bench,
    write_result,
)

COSTS = CostModel()
LAT = LatencyModel()
SEARCHER_HOURLY = COSTS.instance_hourly(SEARCHER_INSTANCE)


def _serving_stack(scenario, **server_kwargs):
    """Re-open a scenario's lake + client through a caching store and
    put a SearchServer in front."""
    cached = CachingObjectStore(scenario.store)
    lake = LakeTable.open(cached, scenario.lake.root)
    client = RottnestClient(cached, scenario.client.index_dir, lake)
    return SearchServer(client, **server_kwargs)


@pytest.fixture(scope="module")
def uuid_scenario():
    return build_uuid_scenario(keys_per_file=6000, files=3)


def test_cold_vs_warm_repeated_query(uuid_scenario, benchmark):
    """Warm-cache repeated queries beat the cold query strictly."""
    scenario = uuid_scenario
    measured_key = scenario.uuid_gen.present_queries(1)[0]
    server = _serving_stack(scenario, max_searchers=4, max_inflight=4)
    with server:
        query = UuidQuery(measured_key)
        cold_result = server.query(scenario.column, query, k=5)
        cold = server.stats.last_latency_s
        warm_latencies = []
        for _ in range(5):
            warm_result = server.query(scenario.column, query, k=5)
            warm_latencies.append(server.stats.last_latency_s)
        # Benchmark wall-clock of the (warm) serve path itself.
        benchmark(lambda: server.query(scenario.column, query, k=5))
        stats = server.stats
        lines = [
            "=== serving: cold vs warm repeated query (modeled) ===",
            f"cold:  {cold * 1000:8.1f} ms",
            f"warm:  {max(warm_latencies) * 1000:8.1f} ms (worst of 5)",
            stats.describe(server.max_inflight),
        ]
        text = "\n".join(lines)
        print(text)
        write_result("serving_cold_warm.txt", text)
        write_bench(
            "serving",
            "cold_vs_warm",
            params={"max_searchers": 4, "warm_repeats": 5},
            metrics={
                "cold_modeled_ms": cold * 1000,
                "warm_worst_modeled_ms": max(warm_latencies) * 1000,
                "cache_hit_rate": stats.cache_hit_rate,
                "requests_per_query": stats.requests_per_query,
            },
        )
        # Acceptance: warm strictly below cold, nonzero hit rate,
        # identical results.
        assert max(warm_latencies) < cold
        assert stats.cache_hit_rate > 0
        assert [(m.file, m.row) for m in warm_result.matches] == [
            (m.file, m.row) for m in cold_result.matches
        ]
        # The measured requests/query feeds the §VII-D3 model.
        model = stats.throughput_model()
        assert model.rottnest_requests_per_query == pytest.approx(
            stats.requests_per_query
        )
        assert model.rottnest_max_qps > 0


def _incremental_uuid_deployment(files: int = 3, keys_per_file: int = 4000):
    """A lake indexed file-by-file, so one query probes ``files``
    independent index files — the parallel width Fig. 8c exploits."""
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("uuid", ColumnType.BINARY))
    lake = LakeTable.create(
        store, "lake/uuid", schema,
        TableConfig(row_group_rows=2000, page_target_bytes=64 * 1024),
    )
    gen = UuidWorkload(seed=3, nbytes=128)
    client = RottnestClient(store, "idx/uuid", lake)
    for _ in range(files):
        lake.append({"uuid": gen.batch(keys_per_file)})
        client.index("uuid", "uuid_trie")
    return client, gen


def test_executor_scaling_fig8cd_shape(benchmark):
    """Latency ~flat once searchers cover the plan's width; cost grows
    ~linearly with searchers (Fig. 8c/8d)."""
    client, gen = _incremental_uuid_deployment(files=3)
    query = UuidQuery(gen.present_queries(1)[0])
    benchmark(lambda: client.search("uuid", query, k=5))
    sequential = client.search("uuid", query, k=5)
    widths = [1, 2, 4, 8, 16]
    rows = []
    for width in widths:
        with SearchExecutor(client, max_searchers=width) as executor:
            result = executor.search("uuid", query, k=5)
        assert [(m.file, m.row) for m in result.matches] == [
            (m.file, m.row) for m in sequential.matches
        ]
        latency = result.stats.estimated_latency(LAT)
        cost = latency * width * SEARCHER_HOURLY / 3600.0
        rows.append((width, latency, cost))
    lines = ["=== serving: executor scaling with max_searchers ==="]
    for width, latency, cost in rows:
        lines.append(
            f"  searchers={width:>2}: latency={latency * 1000:7.1f} ms  "
            f"cost/query=${cost:.2e}"
        )
    text = "\n".join(lines)
    print(text)
    write_result("serving_scaling.txt", text)
    write_bench(
        "serving",
        "executor_scaling",
        params={"files": 3, "widths": list(widths)},
        metrics={
            **{
                f"latency_ms_{width}_searchers": latency * 1000
                for width, latency, _ in rows
            },
            **{
                f"cost_usd_{width}_searchers": cost
                for width, _, cost in rows
            },
        },
    )
    latencies = {w: l for w, l, _ in rows}
    costs = {w: c for w, _, c in rows}
    # More searchers never hurt latency...
    for earlier, later in zip(widths, widths[1:]):
        assert latencies[later] <= latencies[earlier] * 1.001
    # ...but once the plan's width is covered, latency is flat
    # (depth-bound) while cost keeps growing linearly with searchers.
    flat = [latencies[w] for w in (4, 8, 16)]
    assert max(flat) == pytest.approx(min(flat), rel=0.05)
    assert costs[16] / costs[4] == pytest.approx(4.0, rel=0.05)
    assert costs[16] > costs[1]


def test_concurrent_clients(uuid_scenario, benchmark):
    """Many clients through one server: everything stays correct and
    the dedup/admission counters add up."""
    scenario = uuid_scenario
    keys = scenario.uuid_gen.present_queries(4)
    server = _serving_stack(
        scenario, max_searchers=2, max_inflight=8
    )
    hub = TelemetryHub()
    with use_hub(hub), server:
        server.warmup()
        benchmark(lambda: server.query(scenario.column, UuidQuery(keys[0]), k=3))
        baseline_queries = server.stats.queries
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def client_loop(client_id: int) -> None:
            try:
                out = []
                for repeat in range(3):
                    query = UuidQuery(keys[(client_id + repeat) % len(keys)])
                    result = server.query(scenario.column, query, k=3)
                    out.append([(m.file, m.row) for m in result.matches])
                results[client_id] = out
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = server.stats
        lines = [
            "=== serving: 6 concurrent clients x 3 queries ===",
            stats.describe(server.max_inflight),
        ]
        text = "\n".join(lines)
        print(text)
        write_result("serving_concurrent.txt", text)
        write_bench(
            "serving",
            "concurrent_clients",
            params={"clients": 6, "repeats": 3, "max_inflight": 8},
            metrics={
                "queries": stats.queries,
                "deduplicated": stats.deduplicated,
                "cache_hit_rate": stats.cache_hit_rate,
                "p50_modeled_ms": stats.p50_s * 1000,
                "p99_modeled_ms": stats.p99_s * 1000,
                "qps_ceiling": stats.qps_estimate(server.max_inflight),
            },
        )
        assert len(results) == 6
        # Every client sees the same answer for the same key.
        reference = {}
        for client_id, out in results.items():
            for repeat, matches in enumerate(out):
                key = keys[(client_id + repeat) % len(keys)]
                reference.setdefault(key, matches)
                assert reference[key] == matches
        assert stats.queries == baseline_queries + 6 * 3
        assert stats.cache_hit_rate > 0
        assert stats.qps_estimate(server.max_inflight) > 0
        # Persist the hub so the CI slo-gate job (and `repro dashboard`)
        # can evaluate exactly what this run observed.
        snap = server.client.lake.snapshot()
        hub.series("storage.data_bytes").set(snap.total_bytes)
        hub.series("storage.index_bytes").set(
            sum(r.size for r in server.client.meta.records())
        )
        payload = write_telemetry_json(
            results_path("TELEMETRY_serving.json"),
            hub,
            source="bench_serving.test_concurrent_clients",
        )
        # Every caller lands in the series; dedup means fewer flights
        # are billed than callers, but never zero.
        assert hub.series("serve.queries").count() >= 6 * 3
        assert 1 <= payload["hub"]["series"]["serve.cost_usd"]["count"] <= stats.queries


def test_flight_recorder_overhead(uuid_scenario, benchmark):
    """The tail-sampling flight recorder stays off the serve path's
    critical path: modeled p50 with the recorder armed (and actually
    retaining traces) is within 5% of the recorder-off baseline.

    The latency model prices store round trips, so any recorder cost
    that leaked into modeled time — an extra fetch, a synchronous
    persist — would move this ratio. Wall-clock bookkeeping overhead
    is measured by the `benchmark` fixture on the recorder-on path.
    """
    from repro.obs.flight import FlightRecorder, use_flight_recorder
    from repro.obs.slo import default_slo

    scenario = uuid_scenario
    # Distinct keys: a repeated key is served from the LRU at modeled
    # zero, which would collapse p50 and hide the recorder entirely.
    keys = scenario.uuid_gen.present_queries(12)

    def run(recorder):
        server = _serving_stack(scenario, max_searchers=2, max_inflight=4)
        hub = TelemetryHub()
        with use_hub(hub), use_flight_recorder(recorder), server:
            server.warmup()
            for key in keys:
                server.query(scenario.column, UuidQuery(key), k=3)
            # Snapshot p50 BEFORE the wall-clock loop: benchmark()
            # replays one (cached) query many times and would drag the
            # recorder-on percentile toward zero asymmetrically.
            p50 = server.stats.p50_s
            if recorder is not None:
                benchmark(
                    lambda: server.query(
                        scenario.column, UuidQuery(keys[0]), k=3
                    )
                )
            return p50

    baseline_p50 = run(None)
    # An impossibly tight SLO forces retention on every query, so the
    # measured path includes the recorder's worst case: evaluate SLO,
    # absorb the sample, serialize the span tree into the ring.
    recorder = FlightRecorder(
        scenario.store,
        slo=default_slo(latency_p99_s=1e-6),
        min_samples=5,
    )
    flight_p50 = run(recorder)
    ratio = flight_p50 / baseline_p50
    lines = [
        "=== serving: flight recorder overhead on modeled p50 ===",
        f"baseline p50: {baseline_p50 * 1000:8.3f} ms",
        f"recorder p50: {flight_p50 * 1000:8.3f} ms",
        f"ratio:        {ratio:8.4f}  (gate <= 1.05)",
        f"retained:     {len(recorder)} trace(s), {recorder.observed} observed",
    ]
    text = "\n".join(lines)
    print(text)
    write_result("serving_flight_overhead.txt", text)
    write_bench(
        "serving",
        "flight_overhead",
        params={"repeats": 12, "max_searchers": 2, "min_samples": 5},
        metrics={
            "baseline_p50_modeled_ms": baseline_p50 * 1000,
            "flight_p50_modeled_ms": flight_p50 * 1000,
            "overhead_ratio": ratio,
            "retained_traces": float(len(recorder)),
        },
    )
    # Gate: the recorder must not perturb the modeled serve path.
    assert recorder.observed > 0 and len(recorder) > 0
    assert ratio <= 1.05, (
        f"flight recorder moved modeled p50 by {ratio:.3f}x (> 1.05)"
    )
