"""Tests for the real-time ingest tier (``repro.ingest``).

The load-bearing claims, bottom-up: the WAL frames batches durably and
detects corruption; memtables answer every workload's queries exactly;
``ingest()``'s ack means *searchable now* — before any index or
compaction run, from plain clients, the executor, a server, and a
sharded router; recovery replays the WAL into an identical tier; and
the drainer's handoff is exactly-once at every boundary (no row
dropped, none double-counted, byte-identical re-runs).
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.client import RottnestClient
from repro.core.queries import RegexQuery, SubstringQuery, UuidQuery, VectorQuery
from repro.errors import IngestError, WalCorruption
from repro.ingest import IngestDrainer, IngestTier, Memtable, WriteAheadLog
from repro.lake.table import LakeTable, TableConfig
from repro.maintain import MaintenancePipeline
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.serve.executor import SearchExecutor
from repro.serve.server import SearchServer
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

from tests.conftest import EVENT_SCHEMA, event_batch, event_uuid

LAKE_ROOT = "lake/events"
INGEST_ROOT = "ingest/events"
INDEX_DIR = "idx/events"


def _setup(warm_files: int = 1, index: bool = False):
    store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    lake = LakeTable.create(
        store,
        LAKE_ROOT,
        EVENT_SCHEMA,
        TableConfig(row_group_rows=64, page_target_bytes=4096),
    )
    for i in range(warm_files):
        lake.append(event_batch(40, seed=i + 1))
    client = RottnestClient(store, INDEX_DIR, lake)
    if index and warm_files:
        client.index("uuid", "uuid_trie")
    tier = IngestTier(store, INGEST_ROOT, lake)
    client.fresh_tier = tier
    return store, lake, client, tier


def _vector_query(lake, seed: int = 3) -> VectorQuery:
    rng = np.random.default_rng(seed)
    total = sum(f.num_rows for f in lake.snapshot().files) + 10_000
    return VectorQuery(
        rng.normal(size=16).astype(np.float32), nprobe=4, refine=total
    )


# ---------------------------------------------------------------------
# write-ahead log
# ---------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_read_roundtrip_is_canonical(self):
        store, lake, client, tier = _setup()
        wal = WriteAheadLog(store, "ingest/other", EVENT_SCHEMA)
        batch = event_batch(8, seed=5)
        canonical = wal.append(0, batch)
        replayed = wal.read(0)
        assert replayed["uuid"] == canonical["uuid"]
        assert replayed["text"] == canonical["text"]
        assert all(
            np.array_equal(a, b)
            for a, b in zip(replayed["emb"], canonical["emb"])
        )
        assert canonical["uuid"] == [bytes(u) for u in batch["uuid"]]
        assert np.array_equal(
            canonical["emb"][0], np.asarray(batch["emb"][0], dtype=np.float32)
        )

    def test_corrupt_frame_raises(self):
        store, lake, client, tier = _setup()
        wal = WriteAheadLog(store, "ingest/other", EVENT_SCHEMA)
        wal.append(0, event_batch(4, seed=5))
        key = wal.segment_key(0)
        data = bytearray(store.get(key))
        data[-1] ^= 0xFF
        store.put(key, bytes(data))
        with pytest.raises(WalCorruption):
            wal.read(0)

    def test_bad_magic_raises(self):
        store, lake, client, tier = _setup()
        wal = WriteAheadLog(store, "ingest/other", EVENT_SCHEMA)
        store.put(wal.segment_key(0), b"NOTAWAL!")
        with pytest.raises(WalCorruption):
            wal.read(0)

    def test_truncate_removes_segment_and_seal(self):
        store, lake, client, tier = _setup()
        wal = WriteAheadLog(store, "ingest/other", EVENT_SCHEMA)
        wal.append(0, event_batch(4, seed=5))
        wal.seal(0)
        assert wal.segments() == [0]
        assert wal.sealed() == {0}
        wal.truncate(0)
        assert wal.segments() == []
        assert wal.sealed() == set()
        wal.truncate(0)  # idempotent on a missing key

    def test_missing_column_rejected(self):
        store, lake, client, tier = _setup()
        wal = WriteAheadLog(store, "ingest/other", EVENT_SCHEMA)
        with pytest.raises(IngestError):
            wal.append(0, {"uuid": [b"\x00" * 16]})

    def test_ragged_batch_rejected(self):
        store, lake, client, tier = _setup()
        wal = WriteAheadLog(store, "ingest/other", EVENT_SCHEMA)
        batch = event_batch(4, seed=5)
        batch["text"] = batch["text"][:2]
        with pytest.raises(IngestError):
            wal.append(0, batch)


# ---------------------------------------------------------------------
# memtable
# ---------------------------------------------------------------------
class TestMemtable:
    def _table(self, n: int = 20, seed: int = 5) -> Memtable:
        table = Memtable(0, "ingest/events/wal/0.seg", EVENT_SCHEMA)
        wal = WriteAheadLog(
            InMemoryObjectStore(), "ingest/events", EVENT_SCHEMA
        )
        table.insert(wal.append(0, event_batch(n, seed=seed)))
        return table

    def test_substring_any_offset_and_long_needles(self):
        table = self._table()
        docs = table.columns["text"]
        for doc in docs[:3]:
            # Short and long needles alike are the query's own predicate.
            for needle in (doc[:4], doc[2:14], doc[len(doc) // 2 :][:12]):
                rows = {
                    m.row for m in table.search("text", SubstringQuery(needle))
                }
                assert rows == {
                    i for i, d in enumerate(docs) if needle in d
                }, needle

    def test_absent_substring_finds_nothing(self):
        table = self._table()
        assert table.search("text", SubstringQuery("impossible-needle")) == []

    def test_uuid_exact(self):
        table = self._table(seed=6)
        target = table.columns["uuid"][7]
        matches = table.search("uuid", UuidQuery(target))
        assert [m.row for m in matches] == [
            i for i, u in enumerate(table.columns["uuid"]) if u == target
        ]
        assert table.search("uuid", UuidQuery(b"\x00" * 16)) == []

    def test_vector_scores_match_query_distance_bit_for_bit(self):
        table = self._table(seed=7)
        query = VectorQuery(
            np.random.default_rng(0).normal(size=16).astype(np.float32),
            nprobe=1,
            refine=100,
        )
        matches = table.search("emb", query)
        assert len(matches) == table.num_rows
        for m in matches:
            buffer_row = np.asarray(
                table.columns["emb"][m.row], dtype=np.float32
            )
            assert m.score == query.distance(buffer_row)


    # -- an ack appends; it does no work per character -------------------
    @staticmethod
    def _canonical(rows: int, chars: int) -> dict:
        batch = event_batch(rows, seed=11)
        letters = np.random.default_rng(11).integers(97, 123, (rows, chars))
        batch["text"] = [row.astype(np.uint8).tobytes().decode() for row in letters]
        wal = WriteAheadLog(InMemoryObjectStore(), "ingest/events", EVENT_SCHEMA)
        return wal.append(0, batch)

    def test_insert_peak_memory_is_bounded_by_the_payload(self):
        """1,000 rows x 200 chars: the parent's suffix trie allocated
        >100x the payload; an append-only segment stays under 3x."""
        columns = self._canonical(1000, 200)
        payload = sum(
            len(t.encode()) + len(u) + e.nbytes
            for t, u, e in zip(columns["text"], columns["uuid"], columns["emb"])
        )
        table = Memtable(0, "ingest/events/wal/0.seg", EVENT_SCHEMA)
        tracemalloc.start()
        try:
            table.insert(columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.num_rows == 1000
        assert peak < 3 * payload, (peak, payload)

    def test_insert_allocations_do_not_scale_with_text_length(self):
        def blocks(chars: int) -> int:
            columns = self._canonical(200, chars)
            table = Memtable(0, "ingest/events/wal/0.seg", EVENT_SCHEMA)
            gc.collect()
            before = sys.getallocatedblocks()
            table.insert(columns)
            return sys.getallocatedblocks() - before

        short, long = blocks(200), blocks(2000)
        assert 0 < long < 3 * short, (short, long)


class TestWriteRequests:
    def test_the_schema_is_read_once_per_table(self):
        """Log version 0 holds the schema and never changes, so an
        opened table reads it once: an ack is then its one WAL PUT, and
        an append finds the log tip (2 GETs) beside its 3 PUTs."""
        store, lake, _, _ = _setup()
        lake = LakeTable.open(store, LAKE_ROOT, lake.config)
        tier = IngestTier(store, INGEST_ROOT, lake)
        for seed in (7, 8):
            before = store.stats.snapshot()
            tier.ingest(event_batch(8, seed=seed))
            ack = store.stats.snapshot().delta(before)
            assert (ack.gets, ack.puts, ack.total_requests) == (0, 1, 1)
        for seed in (9, 10):
            before = store.stats.snapshot()
            lake.append(event_batch(8, seed=seed))
            append = store.stats.snapshot().delta(before)
            assert (append.gets, append.puts, append.total_requests) == (2, 3, 5)


# ---------------------------------------------------------------------
# the ack contract: acked == searchable, before any maintenance
# ---------------------------------------------------------------------
class TestFreshnessInvariant:
    def test_acked_rows_searchable_before_any_index_run(self):
        store, lake, client, tier = _setup(warm_files=0)
        batch = event_batch(30, seed=9)
        tier.ingest(batch)
        r = client.search("uuid", UuidQuery(event_uuid(9, 3)), k=10)
        assert len(r.matches) == 1
        assert r.matches[0].file.startswith(tier.wal.prefix)
        r = client.search("text", SubstringQuery(batch["text"][0][:8]), k=100)
        assert any(m.file.startswith(tier.wal.prefix) for m in r.matches)
        r = client.search("emb", _vector_query(lake), k=5)
        assert len(r.matches) == 5
        assert all(m.file.startswith(tier.wal.prefix) for m in r.matches)

    def test_fresh_and_lazy_merge_in_one_result(self):
        store, lake, client, tier = _setup(warm_files=1, index=True)
        tier.ingest(event_batch(30, seed=9))
        # Exact: one hit per tier for distinct keys.
        fresh = client.search("uuid", UuidQuery(event_uuid(9, 0)), k=10)
        lazy = client.search("uuid", UuidQuery(event_uuid(1, 0)), k=10)
        assert fresh.matches[0].file.startswith(tier.wal.prefix)
        assert not lazy.matches[0].file.startswith(tier.wal.prefix)
        # Scoring: global top-k equals the brute-force union.
        query = _vector_query(lake)
        merged = client.search("emb", query, k=7)
        oracle = client.search("emb", query, k=7, use_indices=False)
        assert [m.score for m in merged.matches] == [
            m.score for m in oracle.matches
        ]

    @pytest.mark.parametrize(
        "query",
        [
            SubstringQuery(""),  # every row, on both tiers
            SubstringQuery("a needle much longer than eight chars"),
            SubstringQuery("\U0001f600"),  # non-BMP
            SubstringQuery("e\u0301"),  # combining acute, not precomposed é
            RegexQuery(r"caf(e\u0301|\u00e9)\s+\S+$"),
        ],
        ids=["empty", "long", "non_bmp", "combining", "regex"],
    )
    def test_fresh_tier_equals_brute_force_for_any_needle(self, query):
        """The fresh tier *is* ``query.matches`` over its rows, so a tier
        holding drained and undrained batches answers exactly what the
        lake's brute-force path answers once the same rows are drained."""
        store, lake, client, tier = _setup(warm_files=1)
        odd = [
            "a needle much longer than eight chars, verbatim",
            "a needle much longer than eight chars",
            "grin \U0001f600 and cafe\u0301 noir",
            "precomposed caf\u00e9 au lait",
            "",
        ]
        for seed in (9, 10):
            batch = event_batch(12, seed=seed)
            batch["text"][: len(odd)] = odd
            tier.ingest(batch)
            if seed == 9:
                IngestDrainer(tier).drain()
        assert tier.pending_rows() == 12 and tier.floor() == 0
        mixed = client.search("text", query, k=10_000)
        assert any(m.file.startswith(tier.wal.prefix) for m in mixed.matches)
        IngestDrainer(tier).drain()
        assert tier.pending_rows() == 0
        oracle = client.search("text", query, k=10_000, use_indices=False)
        assert sorted(m.value for m in mixed.matches) == sorted(
            m.value for m in oracle.matches
        )
        assert len(oracle.matches) >= 2  # one hit per tier at least

    def test_partition_scoping_skips_the_fresh_tier(self):
        store, lake, client, tier = _setup(warm_files=1)
        tier.ingest(event_batch(10, seed=9))
        r = client.search(
            "uuid", UuidQuery(event_uuid(9, 0)), k=10, partition="nope"
        )
        assert r.matches == []

    def test_executor_and_plain_client_agree(self):
        store, lake, client, tier = _setup(warm_files=1, index=True)
        tier.ingest(event_batch(30, seed=9))
        query = _vector_query(lake)
        plain = client.search("emb", query, k=5)
        with SearchExecutor(client, max_searchers=4) as ex:
            pooled = ex.search("emb", query, k=5)
            fresh = ex.search("uuid", UuidQuery(event_uuid(9, 4)), k=10)
        assert [m.score for m in pooled.matches] == [
            m.score for m in plain.matches
        ]
        assert fresh.matches[0].file.startswith(tier.wal.prefix)

    def test_server_counts_fresh_matches(self):
        store, lake, client, tier = _setup(warm_files=1, index=True)
        tier.ingest(event_batch(30, seed=9))
        hub = TelemetryHub()
        with use_hub(hub):
            with SearchServer(client, max_searchers=2) as server:
                result = server.query("uuid", UuidQuery(event_uuid(9, 2)), k=10)
                assert len(result.matches) == 1
                assert server.stats.fresh_matches == 1
        assert hub.series("ingest.fresh_matches").count() == 1

    def test_sharded_router_merges_the_fresh_tier(self):
        from repro.shard import QueryRouter, ShardPlan

        store, lake, client, tier = _setup(warm_files=2)
        tier.ingest(event_batch(30, seed=9))
        with use_hub(TelemetryHub()):
            deployment = ShardPlan(n_shards=2).materialize(
                lake, "uuid", indexes=[("uuid", "uuid_trie", {})]
            )
            with deployment, QueryRouter(
                deployment, hedge=None, fresh_tier=tier
            ) as router:
                fresh = router.query("uuid", UuidQuery(event_uuid(9, 1)), k=10)
                lazy = router.query("uuid", UuidQuery(event_uuid(1, 1)), k=10)
                assert len(fresh.matches) == 1
                assert fresh.matches[0].file.startswith(tier.wal.prefix)
                assert len(lazy.matches) == 1

    def test_empty_batch_rejected(self):
        store, lake, client, tier = _setup(warm_files=0)
        with pytest.raises(IngestError):
            tier.ingest({name: [] for name in EVENT_SCHEMA.names})
        # A rejected batch is refused *before* anything durable: no WAL
        # segment to replay into a zero-row lake file, no seq consumed.
        assert tier.wal.segments() == []
        assert tier.ingest(event_batch(5, seed=1)) == 0

    def test_router_serves_rows_drained_after_materialization(self):
        from repro.shard import QueryRouter, ShardPlan

        store, lake, client, tier = _setup(warm_files=2)
        tier.ingest(event_batch(30, seed=9))
        with use_hub(TelemetryHub()):
            deployment = ShardPlan(n_shards=2).materialize(
                lake, "uuid", indexes=[("uuid", "uuid_trie", {})]
            )
            with deployment, QueryRouter(
                deployment, hedge=None, fresh_tier=tier
            ) as router:
                # Drain AFTER materialization: the rows move into the
                # source lake (current floor advances) but exist on no
                # shard — the router's pinned probe must keep serving
                # them fresh, and its lease must keep them alive.
                report = IngestDrainer(tier).drain()
                assert report.segments == [0]
                r = router.query("uuid", UuidQuery(event_uuid(9, 1)), k=10)
                assert len(r.matches) == 1
                assert r.matches[0].file.startswith(tier.wal.prefix)
                # Pre-materialization rows still come from the shards.
                lazy = router.query("uuid", UuidQuery(event_uuid(1, 1)), k=10)
                assert len(lazy.matches) == 1
                assert not lazy.matches[0].file.startswith(tier.wal.prefix)
            # close() released the lease: the next drain cleans up.
            assert IngestDrainer(tier).drain().empty
        assert tier.wal.segments() == []
        assert tier.pending_rows() == 0


# ---------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------
class TestRecovery:
    def test_replay_rebuilds_an_identical_tier(self):
        store, lake, client, tier = _setup(warm_files=0)
        batch = event_batch(30, seed=9)
        tier.ingest(batch)
        tier.ingest(event_batch(20, seed=10))
        rebuilt = IngestTier(store, INGEST_ROOT, lake)
        for column, query, k in [
            ("uuid", UuidQuery(event_uuid(9, 3)), 10),
            ("text", SubstringQuery(batch["text"][2][:8]), 1000),
            ("emb", _vector_query(lake), 9),
        ]:
            live = tier.search_fresh(column, query, k=k)
            replayed = rebuilt.search_fresh(column, query, k=k)
            assert [(m.file, m.row, m.score) for m in live] == [
                (m.file, m.row, m.score) for m in replayed
            ]

    def test_sequence_numbers_stay_monotonic_after_recovery(self):
        store, lake, client, tier = _setup(warm_files=0)
        assert tier.ingest(event_batch(5, seed=1)) == 0
        assert tier.ingest(event_batch(5, seed=2)) == 1
        rebuilt = IngestTier(store, INGEST_ROOT, lake)
        assert rebuilt.ingest(event_batch(5, seed=3)) == 2

    def test_recover_reports_replayed_segment_count(self):
        store, lake, client, tier = _setup(warm_files=0)
        tier.ingest(event_batch(5, seed=1))
        tier.ingest(event_batch(5, seed=2))
        assert tier.recover() == 2


# ---------------------------------------------------------------------
# the drain handoff
# ---------------------------------------------------------------------
class TestDrain:
    def _drained(self, index_specs=()):
        store, lake, client, tier = _setup(warm_files=1, index=True)
        tier.ingest(event_batch(30, seed=9))
        tier.ingest(event_batch(20, seed=10))
        store.clock.advance(7.0)
        hub = TelemetryHub()
        with use_hub(hub):
            with MaintenancePipeline(client, workers=2) as pipe:
                drainer = IngestDrainer(
                    tier, pipeline=pipe, index_specs=index_specs
                )
                report = drainer.drain()
        return store, lake, client, tier, hub, report

    def test_drain_moves_rows_exactly_once(self):
        store, lake, client, tier, hub, report = self._drained()
        assert report.segments == [0, 1]
        assert report.rows == 50
        assert tier.pending_rows() == 0
        assert tier.wal.segments() == []
        # The row is still found — now from the lake, exactly once.
        r = client.search("uuid", UuidQuery(event_uuid(9, 3)), k=10)
        assert len(r.matches) == 1
        assert not r.matches[0].file.startswith(tier.wal.prefix)

    def test_redrain_is_a_noop(self):
        store, lake, client, tier, hub, report = self._drained()
        with use_hub(TelemetryHub()):
            again = IngestDrainer(tier).drain()
        assert again.empty
        assert lake.snapshot().app_versions[tier.app_id] == 1

    def test_freshness_lag_measured_on_the_store_clock(self):
        store, lake, client, tier, hub, report = self._drained()
        assert report.freshness_lag_s[1] == pytest.approx(7.0)
        assert report.freshness_lag_s[0] >= report.freshness_lag_s[1]
        sketch = hub.quantiles("ingest.freshness_lag_s").merged()
        assert sketch.count == 2

    def test_drain_index_stage_covers_the_flushed_file(self):
        store, lake, client, tier, hub, report = self._drained(
            index_specs=[("uuid", "uuid_trie", {})]
        )
        assert report.data_files and report.index_records
        covered = set().union(
            *(r.covered_files for r in client.meta.records())
        )
        assert set(report.data_files) <= covered

    def test_flush_key_and_bytes_are_deterministic(self):
        store, lake, client, tier = _setup(warm_files=1)
        tier.ingest(event_batch(30, seed=9))
        dumps = []
        for _ in range(2):
            clone = store.clone()
            clone_lake = LakeTable.open(clone, LAKE_ROOT, lake.config)
            clone_tier = IngestTier(clone, INGEST_ROOT, clone_lake)
            with use_hub(TelemetryHub()):
                IngestDrainer(clone_tier).drain()
            dumps.append(clone.dump())
        assert dumps[0] == dumps[1]

    def test_crash_between_commit_and_truncate_never_duplicates(self):
        store, lake, client, tier = _setup(warm_files=1)
        tier.ingest(event_batch(30, seed=9))
        faulty = FaultyObjectStore(store)
        faulty_lake = LakeTable.open(faulty, LAKE_ROOT, lake.config)
        faulty_tier = IngestTier(faulty, INGEST_ROOT, faulty_lake)
        faulty.crash_after("DELETE")  # dies at the first WAL truncation
        from repro.errors import SimulatedCrash

        with use_hub(TelemetryHub()):
            with pytest.raises(SimulatedCrash):
                IngestDrainer(faulty_tier).drain()
        # Committed but untruncated: the segment is at the floor, so the
        # fresh view already excludes it — exactly one match, from the lake.
        tier.recover()
        r = client.search("uuid", UuidQuery(event_uuid(9, 3)), k=10)
        assert len(r.matches) == 1
        assert not r.matches[0].file.startswith(tier.wal.prefix)
        # A later drain clears the leftover without a new commit.
        with use_hub(TelemetryHub()):
            report = IngestDrainer(IngestTier(store, INGEST_ROOT, lake)).drain()
        assert report.empty
        assert store.list("ingest/events/wal/") == []

    def test_concurrent_ingest_with_drains_never_loses_acked_rows(self):
        # Regression: the WAL PUT must happen under the tier lock so
        # durability is monotonic in seq. Otherwise a drain racing two
        # writers can commit floor=N while an acked seq<N PUT is still
        # in flight, stranding that batch below the floor forever.
        store, lake, client, tier = _setup(warm_files=0)
        acked: list[bytes] = []
        acked_lock = threading.Lock()

        def writer(worker: int) -> None:
            for i in range(4):
                seed = 100 + worker * 10 + i
                batch = event_batch(3, seed=seed)
                tier.ingest(batch)
                with acked_lock:
                    acked.append(batch["uuid"][0])

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        with use_hub(TelemetryHub()):
            for t in threads:
                t.start()
            for _ in range(5):  # drains race the writers (single drainer)
                IngestDrainer(tier).drain()
            for t in threads:
                t.join()
            IngestDrainer(tier).drain()
        assert len(acked) == 16
        assert tier.pending_rows() == 0
        for uuid in acked:
            r = client.search("uuid", UuidQuery(uuid), k=10)
            assert len(r.matches) == 1  # never dropped, never doubled

    def test_drain_interleaves_with_new_ingests(self):
        store, lake, client, tier, hub, report = self._drained()
        tier.ingest(event_batch(10, seed=11))
        r = client.search("uuid", UuidQuery(event_uuid(11, 0)), k=10)
        assert len(r.matches) == 1
        assert r.matches[0].file.startswith(tier.wal.prefix)
        with use_hub(TelemetryHub()):
            second = IngestDrainer(tier).drain()
        assert second.segments == [2]
        assert lake.snapshot().app_versions[tier.app_id] == 2
