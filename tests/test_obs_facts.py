"""Every fact once, and telemetry equals the accounting it mirrors.

Each scenario runs under a fresh hub and asserts *exact* deltas: the
hub series a subsystem reports against the per-instance accounting the
system bills from (``IOStats``, ``CacheStats``, ``ServeStats``, pipeline
and drain reports). A fact reported twice, or to a second store, shows
up here as a doubled delta or an unexpected name.

The closing AST check keeps it that way: no module outside ``obs/``
binds an instrument at import time — a series is looked up in the
*current* hub where the fact happens.
"""

from __future__ import annotations

import ast
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.client import RottnestClient
from repro.core.daemon import MaintenanceDaemon
from repro.core.queries import SubstringQuery, UuidQuery
from repro.errors import InjectedFault, ServerOverloaded, ShardUnavailable
from repro.ingest import IngestDrainer, IngestTier
from repro.lake.table import LakeTable
from repro.maintain import MaintenancePipeline
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.serve import CachingObjectStore, SearchServer
from repro.shard import QueryRouter, ShardPlan
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.retry import RetryingObjectStore
from repro.storage.sched import RangeRequest, execute_plan, plan_reads

from tests.conftest import event_batch, event_uuid
from tests.test_serve_server import _gate_executor, _serving_stack

NEEDLE = event_batch(1, seed=1)["text"][0][:6]  # in the event lake's first file
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture
def hub():
    """A fresh current hub. Request it *last*: fixtures before it in a
    signature (lakes, indexes) are built outside it."""
    with use_hub(TelemetryHub()) as hub:
        yield hub


def _total(hub, name: str, **labels) -> float:
    """All-time total of one member; 0 when it was never reported."""
    members = hub.families().get(name, {})
    member = members.get(tuple(sorted(labels.items())))
    return member.total() if member is not None else 0


def _assert_io_mirrors(hub, delta) -> None:
    """``store_requests_total`` / ``store_bytes_total`` == the IOStats
    delta of the only store that served requests under ``hub``."""
    for op, n in (
        ("GET", delta.gets),
        ("PUT", delta.puts),
        ("LIST", delta.lists),
        ("HEAD", delta.heads),
        ("DELETE", delta.deletes),
    ):
        assert _total(hub, "store_requests_total", op=op) == n, op
    assert _total(hub, "store_bytes_total", direction="read") == delta.bytes_read
    assert (
        _total(hub, "store_bytes_total", direction="write") == delta.bytes_written
    )


class TestServedQueries:
    def test_leader_and_shared_callers(self, indexed_client):
        query = UuidQuery(event_uuid(1, 5))
        server = _serving_stack(indexed_client, max_inflight=4)
        with server, use_hub(TelemetryHub()) as hub:
            before = indexed_client.store.stats.snapshot()
            opened = replace(server.stats.cache)  # LakeTable.open's lookups
            started, release = _gate_executor(server)
            threads = [
                threading.Thread(target=server.query, args=("uuid", query))
                for _ in range(3)
            ]
            for t in threads:
                t.start()
            assert started.wait(timeout=30)
            deadline = time.monotonic() + 30
            while server._flights.shared < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert hub.series("serve_inflight_queries").last == 3
            release.set()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            delta = indexed_client.store.stats.snapshot().delta(before)
            cache = server.stats.cache

        # One count per answered query, one latency per caller, in the
        # one distribution the hub holds; the spend once.
        assert hub.series("serve.queries").total() == server.stats.queries == 3
        assert hub.series("serve.deduplicated").total() == 2
        assert hub.quantile_names() == ["serve.latency_s"]
        assert hub.quantiles("serve.latency_s").count() == 3
        assert hub.series("serve.cost_usd").count() == 1
        assert hub.ledger.serve_queries == 1
        assert _total(hub, "searches_total", kind="exact") == 1
        assert hub.series("serve_inflight_queries").last == 0
        assert "serve.degraded" not in hub.series_names()
        assert "serve.rejected" not in hub.series_names()
        # The mirrors: store and cache telemetry == their accounting.
        _assert_io_mirrors(hub, delta)
        assert delta.total_requests == server.stats.total_requests
        hits, misses = cache.hits - opened.hits, cache.misses - opened.misses
        assert _total(hub, "cache_lookups_total", outcome="hit") == hits
        assert _total(hub, "cache_lookups_total", outcome="miss") == misses > 0

    def test_degraded_query(self, indexed_client):
        faulty = FaultyObjectStore(indexed_client.store)
        cached = CachingObjectStore(faulty)
        client = RottnestClient(
            cached,
            indexed_client.index_dir,
            LakeTable.open(cached, indexed_client.lake.root),
        )
        with use_hub(TelemetryHub()) as hub, SearchServer(client) as server:
            faulty.fail_next("GET", key_substring=f"{client.index_dir}/files")
            before = faulty.stats.snapshot()
            result = server.query("uuid", UuidQuery(event_uuid(1, 5)))
            delta = faulty.stats.snapshot().delta(before)
        assert result.degraded and len(result.matches) == 1
        assert hub.series("serve.degraded").total() == server.stats.degraded == 1
        assert hub.series("serve.queries").total() == 1
        assert hub.quantiles("serve.latency_s").count() == 1
        # Only the brute-force retry finished a search.
        assert _total(hub, "searches_total", kind="exact") == 1
        # ...but the failed first attempt's requests count too.
        assert server.stats.total_requests == delta.total_requests

    @pytest.mark.parametrize("countdown", range(4))
    def test_degraded_query_over_four_index_files(self, indexed_client, countdown):
        """The uuid index in four files; the ``countdown``-th index read
        fails. The tasks that finished before it, and earlier waves,
        made requests too: the served count is the store's."""
        for seed in (3, 4, 5):
            indexed_client.lake.append(event_batch(50, seed=seed))
            indexed_client.index("uuid", "uuid_trie")
        faulty = FaultyObjectStore(indexed_client.store)
        cached = CachingObjectStore(faulty)
        client = RottnestClient(
            cached,
            indexed_client.index_dir,
            LakeTable.open(cached, indexed_client.lake.root),
        )
        uuid_files = [r for r in client.meta.records() if r.column == "uuid"]
        assert len(uuid_files) == 4
        with use_hub(TelemetryHub()), SearchServer(client) as server:
            faulty.fail_next(
                "GET", key_substring=f"{client.index_dir}/files", countdown=countdown
            )
            before = faulty.stats.snapshot()
            result = server.query("uuid", UuidQuery(event_uuid(5, 7)))
            delta = faulty.stats.snapshot().delta(before)
        assert result.degraded and len(result.matches) == 1
        assert server.stats.total_requests == delta.total_requests

    def test_shed_query_is_not_an_answered_query(self, indexed_client):
        with use_hub(TelemetryHub()) as hub, _serving_stack(
            indexed_client, max_inflight=1, shed_on_overload=True
        ) as server:
            started, release = _gate_executor(server)
            first = threading.Thread(
                target=server.query, args=("uuid", UuidQuery(event_uuid(1, 5)))
            )
            first.start()
            assert started.wait(timeout=30)
            with pytest.raises(ServerOverloaded):
                server.query("uuid", UuidQuery(event_uuid(1, 6)))
            release.set()
            first.join(timeout=30)
            assert not first.is_alive()
        assert hub.series("serve.rejected").total() == server.stats.rejected == 1
        # The availability SLO's denominator saw only the answered one.
        assert hub.series("serve.queries").total() == server.stats.queries == 1
        assert hub.quantiles("serve.latency_s").count() == 1


class TestStorageAndCache:
    def test_cold_client_search(self, indexed_client, hub):
        before = indexed_client.store.stats.snapshot()
        store = indexed_client.store
        lake = LakeTable.open(store, indexed_client.lake.root)
        client = RottnestClient(store, indexed_client.index_dir, lake)
        result = client.search("text", SubstringQuery(NEEDLE), k=5)
        assert result.matches
        _assert_io_mirrors(hub, store.stats.snapshot().delta(before))
        assert _total(hub, "searches_total", kind="exact") == 1
        assert _total(hub, "searches_total", kind="scoring") == 0
        # Nothing served, cached, ingested or maintained: no such series.
        assert not [
            name
            for name in hub.series_names() + hub.quantile_names()
            if name.startswith(("serve", "cache", "ingest", "maint", "router"))
        ]

    def test_coalesced_reads(self, store, hub):
        store.put("a", bytes(range(32)))
        before = store.stats.snapshot()
        requests = [RangeRequest("a", 0, 4), RangeRequest("a", 10, 4)]
        assert execute_plan(store, requests, plan_reads(requests, 8)) == [
            bytes(range(4)),
            bytes(range(10, 14)),
        ]
        assert hub.series("io_merged_gets_total").total() == 1
        assert hub.series("io_coalesced_subranges_total").total() == 2
        assert hub.series("io_coalesced_waste_bytes_total").total() == 6
        delta = store.stats.snapshot().delta(before)
        assert _total(hub, "store_requests_total", op="GET") == delta.gets == 1

    def test_retries_and_backoff(self, store, hub):
        store.put("k", b"v")
        faulty = FaultyObjectStore(store)
        retrying = RetryingObjectStore(faulty, max_attempts=3)
        faulty.fail_next("GET")
        faulty.fail_next("GET")
        started = store.clock.now()
        assert retrying.get("k") == b"v"
        assert _total(hub, "store_retries_total", op="GET") == retrying.retries == 2
        assert hub.series("store_backoff_seconds_total").total() == pytest.approx(
            store.clock.now() - started
        )
        faulty.fail_next("GET")
        faulty.fail_next("GET")
        faulty.fail_next("GET")
        with pytest.raises(InjectedFault):
            retrying.get("k")
        assert _total(hub, "store_retries_total", op="GET") == retrying.retries == 5

    def test_cache_events(self, store, hub):
        cached = CachingObjectStore(store, budget_bytes=8, max_entry_bytes=6)
        cached.put("a", b"aaaa")
        cached.put("b", b"bbbbbb")
        cached.put("big", b"x" * 7)
        cached.get("a")  # miss, admitted
        cached.get("a")  # hit
        cached.get("b")  # miss, admitted: evicts "a"
        cached.get("big")  # miss, rejected (above max_entry_bytes)
        cached.put("b", b"bb")  # invalidates "b"
        stats = cached.cache_stats
        assert (stats.hits, stats.misses, stats.rejected) == (1, 3, 1)
        assert (stats.evictions, stats.invalidations) == (1, 1)
        for field, outcome in (
            ("hits", "hit"),
            ("misses", "miss"),
            ("rejected", "rejected"),
        ):
            assert _total(hub, "cache_lookups_total", outcome=outcome) == getattr(
                stats, field
            )
        assert hub.series("cache_evictions_total").total() == stats.evictions
        assert hub.series("cache_invalidations_total").total() == stats.invalidations
        assert hub.series("cache_cached_bytes").last == cached.cached_bytes == 0


class TestWriteSide:
    def test_ingest_and_drain(self, store, event_lake, hub):
        client = RottnestClient(store, "idx/events", event_lake)
        tier = IngestTier(store, "ingest/events", event_lake)
        client.fresh_tier = tier
        tier.ingest(event_batch(10, seed=7))
        tier.ingest(event_batch(5, seed=8))
        assert hub.series("ingest.rows").total() == 15
        assert hub.series("ingest.batches").total() == 2
        found = client.search("uuid", UuidQuery(event_uuid(7, 3)))
        assert len(found.matches) == 1
        assert hub.series("ingest_fresh_searches_total").total() == 1
        report = IngestDrainer(tier).drain()
        assert hub.series("ingest.drains").total() == 1
        assert hub.series("ingest.drained_rows").total() == report.rows == 15
        assert hub.quantiles("ingest.freshness_lag_s").count() == len(
            report.segments
        )
        assert IngestDrainer(tier).drain().empty
        assert hub.series("ingest.drains").total() == 1

    def test_pipeline_index_then_compact(self, store, event_lake, hub):
        client = RottnestClient(store, "idx/events", event_lake)
        before = store.stats.snapshot()
        with MaintenancePipeline(client, workers=2) as pipe:
            first = pipe.index("uuid", "uuid_trie")
            event_lake.append(event_batch(50, seed=3))
            second = pipe.index("uuid", "uuid_trie")
            noop = pipe.index("uuid", "uuid_trie")
            compacted = pipe.compact(
                "uuid", "uuid_trie", threshold_bytes=1 << 30
            )
        assert [r.outcome for r in (first, second, noop, compacted)] == [
            "committed",
            "committed",
            "noop",
            "committed",
        ]
        assert _total(hub, "maintain.index.runs", outcome="committed") == 2
        assert _total(hub, "maintain.index.runs", outcome="noop") == 1
        assert _total(hub, "maintain.compact.runs", outcome="committed") == 1
        assert hub.series("maintain.index.modeled_s").count() == 3
        assert hub.series("maintain.compact.modeled_s").count() == 1
        assert hub.series("maintain.index.cost_usd").count() == 3
        assert hub.series("maintain.compact.cost_usd").count() == 1
        assert _total(hub, "maintain_worker_tasks_total", op="index") == (
            first.worker_tasks + second.worker_tasks + noop.worker_tasks
        )
        assert _total(hub, "maintain_worker_tasks_total", op="compact") == (
            compacted.worker_tasks
        )
        assert hub.ledger.index_build_usd > 0 and hub.ledger.maintain_usd > 0
        _assert_io_mirrors(hub, store.stats.snapshot().delta(before))

    def test_daemon_ticks(self, store, event_lake, hub):
        client = RottnestClient(store, "idx/events", event_lake)
        with MaintenanceDaemon(client, [("uuid", "uuid_trie")]) as daemon:
            acted = daemon.tick()
            idle = daemon.tick()
        assert not acted.idle and idle.idle
        policy = daemon.policy.name
        for outcome in ("acted", "idle"):
            assert (
                _total(
                    hub, "maintenance_ticks_total", policy=policy, outcome=outcome
                )
                == 1
            )
        assert _total(hub, "maintain.index.runs", outcome="committed") == 1
        # Planning reads are billed, but a plan is not a verb run.
        assert hub.series("maintain.plan.modeled_s").count() > 0
        assert hub.get("maintain.plan.runs") is None


class TestRoutedQuery:
    def test_one_failed_shard(self, store, event_lake, hub):
        deployment = ShardPlan(n_shards=2).materialize(
            event_lake,
            "uuid",
            indexes=[("uuid", "uuid_trie", {})],
            store_factory=lambda shard_id: FaultyObjectStore(
                InMemoryObjectStore(clock=store.clock)
            ),
            cache_budget_bytes=1,
        )
        needle = SubstringQuery(NEEDLE[:2])
        with deployment:
            healthy_key = next(
                key
                for key in (event_uuid(1, i) for i in range(50))
                if deployment.assign(key) == 1
            )
            for i in range(400):  # shard 0's data reads all fail
                deployment.groups[0].store.fail_next(
                    "GET", key_substring="lake/shard/data", countdown=i
                )
            with QueryRouter(
                deployment, hedge=None, on_shard_failure="partial"
            ) as router:
                partial = router.query("text", needle, k=10_000)
                pruned = router.query("uuid", UuidQuery(healthy_key))
            with QueryRouter(deployment, hedge=None) as strict:
                with pytest.raises(ShardUnavailable):
                    strict.query("text", needle, k=10_000)
        assert partial.failed_shards == [0]
        assert pruned.complete and pruned.shards_pruned == 1
        # Answered queries (complete or partial) and their latencies ...
        assert hub.series("router.queries").total() == 2
        assert hub.quantiles("router.latency_s").count() == 2
        assert hub.series("router.cost_usd").count() == 2
        # ... the unanswered one apart, like a shed query.
        assert hub.series("router.failed").total() == 1
        assert hub.series("router_shards_pruned_total").total() == 1
        assert hub.series("router.shard0.queries").total() == 2
        assert hub.series("router.shard0.failed").total() == 2
        assert hub.series("router.shard1.queries").total() == 3
        assert hub.quantiles("router.shard1.latency_s").count() == 3
        assert hub.get("router.shard1.failed") is None
        assert hub.get("router.shard0.latency_s") is None
        assert hub.get("router.hedges") is None


def test_no_module_outside_obs_binds_an_instrument_at_import():
    """A module-level ``X = get_hub()...`` / ``get_registry()...`` would
    pin one hub for the life of the process (and is how the registry's
    32 instruments were declared). Facts are looked up where they
    happen, in the current hub."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "obs" in path.parents:
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            calls = {
                getattr(call.func, "id", getattr(call.func, "attr", None))
                for call in ast.walk(node.value)
                if isinstance(call, ast.Call)
            }
            if calls & {"get_hub", "get_registry", "TelemetryHub"}:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders
