"""repro.maintain: pipeline reports, IO budget, streaming merges.

The end-to-end guarantees (byte-identity of parallel maintenance, crash
recovery) live in test_chaos_resume.py and test_conformance_matrix.py;
this file unit-tests the pipeline machinery itself: reports reconcile
with IOStats like query bills do, parallelism buys modeled latency, the
shared IO budget really caps combined concurrency, and the streaming
merges are byte-equal to the materialized ones.
"""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.core.client import RottnestClient
from repro.core.index_file import IndexFileWriter, PageDirectory
from repro.core.queries import UuidQuery
from repro.errors import RottnestIndexError
from repro.indices.fm.fm_index import FmBuilder
from repro.indices.uuid_trie import UuidTrieBuilder
from repro.lake.table import LakeTable, TableConfig
from repro.maintain import IOBudget, MaintainReport, MaintenancePipeline
from repro.obs.attribution import price_iostats
from repro.obs.trace import Tracer, use_tracer
from repro.serve.executor import SearchExecutor
from repro.storage.costs import CostModel
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.pool import TracedPool
from repro.util.clock import SimClock

from tests.conftest import EVENT_SCHEMA, event_batch, event_uuid

COSTS = CostModel()
LAT = LatencyModel()


def _lake_store(files: int = 6, rows: int = 24):
    store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    lake = LakeTable.create(
        store,
        "lake/events",
        EVENT_SCHEMA,
        TableConfig(row_group_rows=16, page_target_bytes=2048),
    )
    for i in range(files):
        lake.append(event_batch(rows, seed=i + 1))
    return store, lake


def _client(store, lake) -> RottnestClient:
    return RottnestClient(store, "idx/events", lake)


def _assert_reconciles(bill, delta) -> None:
    """Same acceptance criterion as query bills: totals equal the
    IOStats delta priced by the cost model, bit for bit."""
    assert bill.gets == delta.gets
    assert bill.puts == delta.puts
    assert bill.lists == delta.lists
    assert bill.heads == delta.heads
    assert bill.deletes == delta.deletes
    assert bill.bytes_read == delta.bytes_read
    assert bill.total_request_cost_usd(COSTS) == price_iostats(delta, COSTS)


# ---------------------------------------------------------------------
# reports + cost attribution
# ---------------------------------------------------------------------
class TestIndexReports:
    def test_index_report_reconciles_with_iostats(self):
        store, lake = _lake_store(files=4)
        client = _client(store, lake)
        tracer = Tracer(clock=store.clock)
        before = store.stats.snapshot()
        with use_tracer(tracer), MaintenancePipeline(client, workers=3) as pipe:
            report = pipe.index("uuid", "uuid_trie")
        delta = store.stats.snapshot().delta(before)

        assert report.op == "index"
        assert report.workers == 3
        assert len(report.records) == 1
        assert report.worker_tasks == 4  # one extraction task per file
        total_ops = (
            delta.gets + delta.puts + delta.lists + delta.heads + delta.deletes
        )
        assert report.trace.total_requests == total_ops
        assert report.modeled_latency(LAT) > 0
        _assert_reconciles(report.bill(latency=LAT, costs=COSTS), delta)

    def test_bill_phases_cover_plan_extract_commit(self):
        store, lake = _lake_store(files=3)
        client = _client(store, lake)
        tracer = Tracer(clock=store.clock)
        with use_tracer(tracer), MaintenancePipeline(client, workers=2) as pipe:
            report = pipe.index("uuid", "uuid_trie")
        phases = {p.phase: p for p in report.bill().phases}
        assert {"plan", "extract", "commit"} <= set(phases)
        assert phases["extract"].gets > 0
        assert phases["commit"].puts > 0

    def test_parallel_index_is_modeled_faster(self):
        """Same lake, same work — workers=4 must beat workers=1 on
        modeled latency (the 2x acceptance bar lives in the bench)."""
        modeled = {}
        for workers in (1, 4):
            store, lake = _lake_store(files=8)
            client = _client(store, lake)
            tracer = Tracer(clock=store.clock)
            with use_tracer(tracer), MaintenancePipeline(
                client, workers=workers
            ) as pipe:
                modeled[workers] = pipe.index("uuid", "uuid_trie").modeled_latency(
                    LAT
                )
        assert modeled[4] < modeled[1]

    def test_noop_index_returns_empty_report(self):
        store, lake = _lake_store(files=2)
        client = _client(store, lake)
        tracer = Tracer(clock=store.clock)
        with use_tracer(tracer), MaintenancePipeline(client, workers=2) as pipe:
            pipe.index("uuid", "uuid_trie")
            report = pipe.index("uuid", "uuid_trie")  # nothing new
        assert report.records == []
        assert report.worker_tasks == 0


class TestCompactAndVacuumReports:
    def _compactable_client(self, files: int = 4):
        store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
        lake = LakeTable.create(
            store,
            "lake/events",
            EVENT_SCHEMA,
            TableConfig(row_group_rows=16, page_target_bytes=2048),
        )
        client = _client(store, lake)
        for i in range(files):  # one small index file per append
            lake.append(event_batch(24, seed=i + 1))
            client.index("uuid", "uuid_trie")
        return store, client

    def test_compact_report_reconciles_with_iostats(self):
        store, client = self._compactable_client()
        tracer = Tracer(clock=store.clock)
        before = store.stats.snapshot()
        with use_tracer(tracer), MaintenancePipeline(client, workers=2) as pipe:
            report = pipe.compact("uuid", "uuid_trie")
        delta = store.stats.snapshot().delta(before)

        assert report.op == "compact"
        assert len(report.records) == 1  # four small files -> one group
        assert report.worker_tasks == 1
        _assert_reconciles(report.bill(latency=LAT, costs=COSTS), delta)

    def test_fm_compact_reports_interleave_work(self):
        """An FM compaction's interleave passes and sorted rows land on
        the ``compact.merge`` span and the report; the active set keeps
        ``rows_sorted`` well under ``passes * n``. A trie compaction
        counts nothing."""
        store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
        lake = LakeTable.create(
            store,
            "lake/events",
            EVENT_SCHEMA,
            TableConfig(row_group_rows=64, page_target_bytes=8192),
        )
        client = _client(store, lake)
        for i in range(3):
            lake.append(event_batch(120, seed=i + 1))
            client.index("text", "fm", params={"block_size": 4096})
            client.index("uuid", "uuid_trie")
        with use_tracer(Tracer(clock=store.clock)), MaintenancePipeline(
            client, workers=2
        ) as pipe:
            report = pipe.compact("text", "fm")
            trie_report = pipe.compact("uuid", "uuid_trie")
        assert len(report.records) == 1
        merge_span = next(
            s for s in report.root.walk() if s.name == "compact.merge"
        )
        assert merge_span.attributes["interleave_iterations"] == (
            report.interleave_iterations
        )
        assert merge_span.attributes["rows_sorted"] == report.rows_sorted
        # Two folds of >= 2 passes each over ~15k-22k merged rows.
        assert report.interleave_iterations >= 4
        merged_rows = sum(
            len(row) + 1
            for i in range(3)
            for row in event_batch(120, seed=i + 1)["text"]
        )
        assert merged_rows < report.rows_sorted
        assert report.rows_sorted < 0.5 * report.interleave_iterations * merged_rows
        assert trie_report.records
        assert trie_report.interleave_iterations == trie_report.rows_sorted == 0

    def test_vacuum_is_a_serial_passthrough(self):
        store, client = self._compactable_client()
        with MaintenancePipeline(client, workers=2) as pipe:
            pipe.compact("uuid", "uuid_trie")
            store.clock.advance(7200.0)
            report = pipe.vacuum(snapshot_id=client.lake.latest_version())
        assert report.deleted_objects  # superseded per-file indices removed

    def test_bill_requires_a_span_tree(self):
        report = MaintainReport(op="index", workers=1)
        with pytest.raises(ValueError):
            report.bill()


# ---------------------------------------------------------------------
# IO budget: the backpressure signal
# ---------------------------------------------------------------------
class TestIOBudget:
    def test_rejects_non_positive_slots(self):
        with pytest.raises(RottnestIndexError):
            IOBudget(0)

    def test_caps_combined_concurrency_across_pools(self):
        """Two 4-wide pools sharing a 2-slot budget never have more
        than 2 tasks inside their store sections at once."""
        store = InMemoryObjectStore(clock=SimClock(start=0.0))
        store.put("k", b"v")
        budget = IOBudget(2, name="test-cap")
        peak = 0
        active = 0
        lock = threading.Lock()

        def task():
            nonlocal peak, active
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.005)  # hold the slot long enough to overlap
            store.get("k")
            with lock:
                active -= 1

        pools = [
            TracedPool(store, workers=4, budget=budget) for _ in range(2)
        ]
        try:
            threads = [
                threading.Thread(target=pool.run, args=([task] * 6,))
                for pool in pools
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            for pool in pools:
                pool.close()
        assert peak <= 2
        assert budget.in_use == 0

    def test_maintenance_overlaps_serving_under_shared_budget(self):
        """A pipeline and an executor sharing one budget both finish
        correctly — the overlap changes scheduling, never results."""
        store, lake = _lake_store(files=4, rows=24)
        client = _client(store, lake)
        client.index("uuid", "uuid_trie")
        lake.append(event_batch(24, seed=99))

        budget = IOBudget(2, name="test-overlap")
        errors: list[Exception] = []
        results: dict[str, object] = {}

        def serve():
            try:
                with SearchExecutor(client, max_searchers=3, budget=budget) as ex:
                    results["search"] = ex.search(
                        "uuid", UuidQuery(event_uuid(1, 3)), k=5
                    )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def maintain():
            try:
                with MaintenancePipeline(client, workers=3, budget=budget) as pipe:
                    results["index"] = pipe.index("uuid", "uuid_trie")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=serve), threading.Thread(target=maintain)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results["search"].matches
        assert len(results["index"].records) == 1
        assert budget.in_use == 0


# ---------------------------------------------------------------------
# streaming merges: byte-equal to the materialized fold
# ---------------------------------------------------------------------
def _uuids(seed: int, n: int) -> list[bytes]:
    return [
        hashlib.sha256(f"{seed}-{i}".encode()).digest()[:16] for i in range(n)
    ]


def _blob(builder, type_name: str) -> bytes:
    writer = IndexFileWriter(type_name, "col", PageDirectory([]))
    builder.write(writer)
    return writer.finish()


class TestMergeStreaming:
    def _trie_parts(self):
        return [
            UuidTrieBuilder.build([(0, _uuids(s, 20)), (1, _uuids(s + 10, 20))])
            for s in range(3)
        ]

    def _fm_parts(self):
        texts = [
            ["the quick brown", "fox jumps"],
            ["over the lazy", "dog again"],
            ["mississippi", "banana split"],
        ]
        return [
            FmBuilder.build(
                [(0, t[0:1]), (1, t[1:2])], block_size=64, sample_rate=4
            )
            for t in texts
        ]

    def test_trie_streaming_is_byte_equal(self):
        offsets = [0, 2, 4]
        merged = UuidTrieBuilder.merge(self._trie_parts(), offsets)
        streamed = UuidTrieBuilder.merge_streaming(
            iter(self._trie_parts()), offsets
        )
        assert _blob(merged, "uuid_trie") == _blob(streamed, "uuid_trie")

    def test_fm_streaming_is_byte_equal(self):
        offsets = [0, 2, 4]
        merged = FmBuilder.merge(self._fm_parts(), offsets)
        streamed = FmBuilder.merge_streaming(iter(self._fm_parts()), offsets)
        assert _blob(merged, "fm") == _blob(streamed, "fm")

    def test_streaming_consumes_lazily(self):
        """merge_streaming must pull parts from the iterator instead of
        materializing it — that is its bounded-memory contract."""
        pulled = []

        def parts():
            for i, part in enumerate(self._trie_parts()):
                pulled.append(i)
                yield part

        UuidTrieBuilder.merge_streaming(parts(), [0, 2, 4])
        assert pulled == [0, 1, 2]

    @pytest.mark.parametrize("cls", [UuidTrieBuilder, FmBuilder])
    def test_parts_offsets_mismatch_raises(self, cls):
        parts = self._trie_parts() if cls is UuidTrieBuilder else self._fm_parts()
        with pytest.raises(RottnestIndexError):
            cls.merge_streaming(iter(parts), [0, 2])  # one offset short
        with pytest.raises(RottnestIndexError):
            cls.merge_streaming(iter(()), [])  # nothing to merge


class TestTracedPoolValidation:
    def test_rejects_non_positive_workers(self):
        store = InMemoryObjectStore(clock=SimClock(start=0.0))
        with pytest.raises(RottnestIndexError):
            TracedPool(store, workers=0)
