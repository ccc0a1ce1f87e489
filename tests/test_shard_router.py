"""Scatter-gather routing: merges, hedging, telemetry, SLOs, dashboard."""

from __future__ import annotations

import threading

import pytest

from repro.core.client import RottnestClient
from repro.core.queries import SubstringQuery, UuidQuery
from repro.errors import ShardError
from repro.lake.table import LakeTable, TableConfig
from repro.obs.dashboard import render_dashboard
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.shard import (
    HedgePolicy,
    QueryRouter,
    ShardPlan,
    router_slo,
    shard_latency_series,
)
from repro.storage.faults import FaultyObjectStore
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

from tests.conftest import EVENT_SCHEMA, event_batch, event_uuid

CONFIG = TableConfig(row_group_rows=64, page_target_bytes=4096)


def _source(files: int = 4, rows: int = 40):
    store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    lake = LakeTable.create(store, "lake/events", EVENT_SCHEMA, CONFIG)
    for i in range(files):
        lake.append(event_batch(rows, seed=i + 1))
    client = RottnestClient(store, "idx/events", lake)
    return lake, client


@pytest.fixture
def hub():
    with use_hub(TelemetryHub()) as hub:
        yield hub


def test_router_validates_failure_mode():
    lake, _ = _source(files=1)
    with ShardPlan(n_shards=1).materialize(lake, "uuid") as deployment:
        with pytest.raises(ShardError):
            QueryRouter(deployment, on_shard_failure="retry")


def test_scatter_gather_equals_oracle(hub):
    lake, client = _source()
    with ShardPlan(n_shards=4).materialize(
        lake, "uuid", indexes=[("uuid", "uuid_trie", {})]
    ) as deployment:
        with QueryRouter(deployment, hedge=None) as router:
            # Present key: routed to the owning shard only, same answer.
            key = event_uuid(2, 10)
            routed = router.query("uuid", UuidQuery(key), k=100)
            oracle = client.search("uuid", UuidQuery(key), k=100, use_indices=False)
            assert sorted(m.value for m in routed.matches) == sorted(
                m.value for m in oracle.matches
            )
            assert routed.shards_pruned == 3
            assert routed.shards_queried == 1
            assert routed.complete
            # Absent key: still routed to one shard, empty either way.
            absent = router.query("uuid", UuidQuery(b"\x00" * 16), k=100)
            assert absent.matches == [] and absent.shards_pruned == 3
            # Non-key column scatters everywhere and unions exactly.
            needle = lake.to_pylist("text")[0][:8]
            scattered = router.query("text", SubstringQuery(needle), k=10_000)
            text_oracle = client.search(
                "text", SubstringQuery(needle), k=10_000, use_indices=False
            )
            assert sorted(m.value for m in scattered.matches) == sorted(
                m.value for m in text_oracle.matches
            )
            assert scattered.shards_queried == 4
            # Accounting: every queried shard was billed.
            assert scattered.total_requests > 0
            assert scattered.request_usd > 0
            assert scattered.compute_usd > 0
            assert scattered.cost_usd == pytest.approx(
                scattered.request_usd + scattered.compute_usd
            )


def test_fanout_waves_compose_latency(hub):
    lake, _ = _source()
    with ShardPlan(n_shards=4).materialize(
        lake,
        "uuid",
        indexes=[("uuid", "uuid_trie", {})],
        cache_budget_bytes=1,  # cold both times: compare real round trips
    ) as deployment:
        needle_query = SubstringQuery(lake.to_pylist("text")[0][:8])
        with QueryRouter(deployment, hedge=None, fanout=4) as wide:
            # Warm the replicas' in-memory lake metadata first, so the
            # two fanouts below see identical per-shard request plans.
            wide.query("text", needle_query, k=10_000)
            one_wave = wide.query("text", needle_query, k=10_000)
        with QueryRouter(deployment, hedge=None, fanout=1) as narrow:
            four_waves = narrow.query("text", needle_query, k=10_000)
        # One wave is the max over shards; four sequential waves sum.
        assert one_wave.modeled_latency_s == pytest.approx(
            max(o.latency_s for o in one_wave.outcomes)
        )
        assert four_waves.modeled_latency_s == pytest.approx(
            sum(o.latency_s for o in four_waves.outcomes)
        )
        assert four_waves.modeled_latency_s > one_wave.modeled_latency_s


def test_round_robin_load_balances_replicas(hub):
    lake, _ = _source(files=2)
    with ShardPlan(n_shards=1, replicas=2).materialize(
        lake, "uuid", indexes=[("uuid", "uuid_trie", {})]
    ) as deployment:
        with QueryRouter(deployment, hedge=None, prune=False) as router:
            replica_ids = [
                router.query("uuid", UuidQuery(event_uuid(1, i)), k=4)
                .outcomes[0]
                .replica_id
                for i in range(4)
            ]
            assert replica_ids == [0, 1, 0, 1]


def test_hedging_cuts_injected_slow_replica_tail(hub):
    lake, _ = _source()
    slow = LatencyModel(first_byte_s=LatencyModel().first_byte_s * 8)

    def models(shard_id: int, replica_id: int) -> LatencyModel:
        return slow if (shard_id == 0 and replica_id == 0) else LatencyModel()

    keys = [event_uuid(s, i) for s in (1, 2, 3, 4) for i in range(8)]
    latencies = {}
    for hedge in (None, HedgePolicy(quantile=0.25)):
        with use_hub(TelemetryHub()) as phase_hub:
            with ShardPlan(n_shards=2, replicas=2).materialize(
                lake,
                "uuid",
                indexes=[("uuid", "uuid_trie", {})],
                latency_model_for=models,
                cache_budget_bytes=1,  # cold every time: latency is real
            ) as deployment:
                with QueryRouter(
                    deployment, hedge=hedge, prune=False
                ) as router:
                    observed = [
                        router.query("uuid", UuidQuery(k), k=4)
                        for k in keys
                    ]
            # The policy stays quiet until the per-shard sketch has
            # min_observations; compare the post-warm-up tail only.
            latencies[hedge is not None] = max(
                r.modeled_latency_s for r in observed[8:]
            )
            if hedge is not None:
                assert sum(r.hedges for r in observed) > 0
                assert sum(r.hedge_wins for r in observed) > 0
                assert phase_hub.series("router.hedges").count() == sum(
                    r.hedges for r in observed
                )
                assert phase_hub.series("router.hedge_wins").count() == sum(
                    r.hedge_wins for r in observed
                )
    assert latencies[True] < latencies[False]


class _HoldingStore(FaultyObjectStore):
    """A faulty store that can park the next GET of one key until told
    to go on, so a test decides which query is mid-flight."""

    hold_key: str | None = None

    def hold_next(self, key: str) -> tuple[threading.Event, threading.Event]:
        """Arm the hold; returns (parked, release)."""
        self.parked, self.release = threading.Event(), threading.Event()
        self.hold_key = key
        return self.parked, self.release

    def get(self, key, byte_range=None):
        if key == self.hold_key:
            self.hold_key = None
            self.parked.set()
            assert self.release.wait(timeout=30), "held GET was never released"
        return super().get(key, byte_range)


def test_degraded_is_per_answer_under_concurrent_routed_queries(hub):
    """Two routed queries overlap on one replica and exactly one of
    them hits an index-read fault: only that one's outcome is degraded.
    (Watching the server's degraded *counter* move blamed both.)"""
    lake, client = _source(files=2)
    stores = []

    def store_factory(shard_id):
        stores.append(_HoldingStore(InMemoryObjectStore(clock=lake.store.clock)))
        return stores[-1]

    text_query = SubstringQuery(lake.to_pylist("text")[0][:8])
    uuid_query = UuidQuery(event_uuid(2, 10))
    with ShardPlan(n_shards=1).materialize(
        lake,
        "uuid",
        indexes=[("uuid", "uuid_trie", {}), ("text", "fm", {})],
        store_factory=store_factory,
        cache_budget_bytes=1,  # cold reads: every query reaches the store
    ) as deployment, QueryRouter(deployment, hedge=None, fanout=2) as router:
        (store,) = stores
        server = deployment.groups[0].replicas[0].server
        index_key = {
            r.index_type: r.index_key for r in server.client.meta.records()
        }
        for _ in range(50):
            parked, release = store.hold_next(index_key["fm"])
            healthy = {}
            thread = threading.Thread(
                target=lambda: healthy.update(
                    result=router.query("text", text_query, k=10_000)
                )
            )
            thread.start()
            assert parked.wait(timeout=30)  # the text query is mid-flight ...
            store.fail_next("GET", key_substring=index_key["uuid_trie"])
            faulted = router.query("uuid", uuid_query, k=100)  # ... while this degrades
            release.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert [o.degraded for o in faulted.outcomes] == [True]
            assert [o.degraded for o in healthy["result"].outcomes] == [False]
            assert len(faulted.matches) == 1 and healthy["result"].matches
        assert server.stats.degraded == 50
        assert hub.series("serve.degraded").count() == 50


def test_router_telemetry_and_slo(hub):
    lake, _ = _source(files=2)
    with ShardPlan(n_shards=2).materialize(
        lake, "uuid", indexes=[("uuid", "uuid_trie", {})]
    ) as deployment:
        with QueryRouter(deployment, hedge=None, prune=False) as router:
            for i in range(6):
                router.query("uuid", UuidQuery(event_uuid(1, i)), k=4)
    assert hub.series("router.queries").count() == 6
    assert hub.quantiles("router.latency_s").merged().count == 6
    for shard_id in range(2):
        assert shard_latency_series(shard_id) in hub.quantile_names()
        assert hub.series(f"router.shard{shard_id}.queries").count() == 6
        assert hub.series(f"router.shard{shard_id}.failed").count() == 0
    # The per-shard SLO holds over a healthy run...
    report = router_slo(2).evaluate(hub)
    assert report.ok
    # 1 router latency + per shard (latency + availability).
    assert len(report.statuses) == 1 + 2 * 2
    # ...and a sub-millisecond latency budget breaches it.
    assert not router_slo(2, latency_p99_s=1e-6).evaluate(hub).ok


def test_dashboard_renders_router_section(hub):
    lake, _ = _source(files=2)
    with ShardPlan(n_shards=2).materialize(
        lake, "uuid", indexes=[("uuid", "uuid_trie", {})]
    ) as deployment:
        with QueryRouter(deployment, hedge=None, prune=False) as router:
            for i in range(4):
                router.query("uuid", UuidQuery(event_uuid(1, i)), k=4)
    html = render_dashboard(hub, slo=router_slo(2))
    assert "Scatter-gather router" in html
    assert "shard 0" in html and "shard 1" in html
    assert "routed queries" in html
    # A hub with no router traffic renders no router section.
    assert "Scatter-gather router" not in render_dashboard(TelemetryHub())


def test_shard_bench_cli_smoke(capsys):
    from repro.cli import main

    code = main(
        [
            "shard-bench",
            "--shards", "1", "4",
            "--queries", "8",
            "--files", "4",
            "--rows", "32",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "scatter" in out and "hedge on" in out
