"""Maintenance daemon: policy triggers and end-to-end upkeep."""

import pytest

from repro.core.client import RottnestClient
from repro.core.daemon import MaintenanceDaemon, MaintenancePolicy
from repro.core.queries import SubstringQuery, UuidQuery

from tests.conftest import event_batch, event_uuid


@pytest.fixture
def daemon(store, event_lake):
    client = RottnestClient(store, "idx/events", event_lake)
    policy = MaintenancePolicy(
        index_min_new_files=1,
        compact_min_small_files=3,
        vacuum_interval_s=3600.0,
    )
    return MaintenanceDaemon(
        client,
        [("uuid", "uuid_trie"), ("text", "fm")],
        policy=policy,
        index_params={("text", "fm"): {"block_size": 4096}},
    )


class TestTriggers:
    def test_first_tick_indexes_everything(self, daemon):
        report = daemon.tick()
        assert len(report.indexed) == 2  # one record per target
        assert {r.index_type for r in report.indexed} == {"uuid_trie", "fm"}
        assert report.vacuum is not None  # first tick always vacuums

    def test_idle_tick(self, daemon, clock):
        daemon.tick()
        report = daemon.tick()  # nothing new, vacuum not due yet
        assert report.idle

    def test_vacuum_due_after_interval(self, daemon, clock):
        daemon.tick()
        clock.advance(3601)
        report = daemon.tick()
        assert report.vacuum is not None

    def test_index_due_respects_min_files(self, daemon, event_lake):
        daemon.tick()
        daemon.policy = MaintenancePolicy(index_min_new_files=2)
        event_lake.append(event_batch(50, seed=9))
        assert not daemon.policy.index_due(daemon.client, "uuid", "uuid_trie")
        event_lake.append(event_batch(50, seed=10))
        assert daemon.policy.index_due(daemon.client, "uuid", "uuid_trie")

    def test_index_due_respects_min_bytes(self, daemon, event_lake):
        daemon.tick()
        daemon.policy = MaintenancePolicy(
            index_min_new_files=1, index_min_new_bytes=10**9
        )
        event_lake.append(event_batch(50, seed=9))
        assert not daemon.policy.index_due(daemon.client, "uuid", "uuid_trie")

    def test_compact_triggers_at_threshold(self, daemon, event_lake, clock):
        daemon.tick()
        event_lake.append(event_batch(60, seed=11))
        daemon.tick()
        # Two covering trie files: below the threshold of 3.
        assert not daemon.policy.compact_due(daemon.client, "uuid", "uuid_trie")
        event_lake.append(event_batch(60, seed=12))
        # The third index lands and compaction fires in the same tick.
        report = daemon.tick()
        assert len(report.compacted) >= 1
        # Post-compaction the covering set is a single merged file.
        assert not daemon.policy.compact_due(daemon.client, "uuid", "uuid_trie")

    def test_abort_is_recorded_not_raised(self, store, event_lake):
        client = RottnestClient(store, "idx/events", event_lake)
        daemon = MaintenanceDaemon(
            client,
            [("emb", "ivf_pq")],
            policy=MaintenancePolicy(),
        )
        # 600 rows > min_rows(256): indexes fine. Shrink to force abort:
        event_lake.delete_where("uuid", lambda v: True)
        event_lake.compact(min_file_rows=10_000, target_rows=100_000)
        # Table now empty except structure; append a tiny batch.
        event_lake.append(event_batch(20, seed=3))
        report = daemon.tick()
        assert len(report.index_aborts) == 1
        assert "minimum" in report.index_aborts[0]


class TestEndToEnd:
    def test_daemon_keeps_lake_fully_indexed(self, daemon, event_lake, clock):
        daemon.tick()
        for seed in range(20, 26):
            event_lake.append(event_batch(40, seed=seed))
            clock.advance(4000)
            daemon.tick()
        key = event_uuid(23, 7)
        res = daemon.client.search("uuid", UuidQuery(key), k=5)
        assert len(res.matches) == 1
        assert res.stats.files_brute_forced == 0
        docs = event_lake.to_pylist("text")
        res = daemon.client.search("text", SubstringQuery(docs[-1][:8]), k=5)
        assert res.stats.files_brute_forced == 0

    def test_daemon_garbage_collects_after_lake_compaction(
        self, daemon, event_lake, clock
    ):
        daemon.tick()
        event_lake.compact(min_file_rows=1000, target_rows=10_000)
        clock.advance(4000)
        daemon.tick()  # reindexes the compacted file, vacuums stale recs
        clock.advance(daemon.client.index_timeout_s + 4000)
        report = daemon.tick()
        # Stale physical index files eventually removed.
        live = {r.index_key for r in daemon.client.meta.records()}
        on_storage = {
            i.key for i in daemon.client.store.list("idx/events/files/")
        }
        assert on_storage == live
