"""repro.maintain: pipeline reports, overlap with serving, streaming merges.

The end-to-end guarantees (byte-identity of parallel maintenance, crash
recovery) live in test_chaos_resume.py and test_conformance_matrix.py;
this file unit-tests the pipeline machinery itself: reports reconcile
with IOStats like query bills do, parallelism buys modeled latency,
maintenance overlaps serving without changing either's results, and
the streaming merges are byte-equal to the materialized ones.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from repro.core.client import RottnestClient
from repro.core.daemon import MaintenanceDaemon, MaintenancePolicy
from repro.core.index_file import IndexFileWriter, PageDirectory
from repro.core.maintenance import compact_indices, covering_records
from repro.core.queries import UuidQuery
from repro.crack import CrackController, CrackingPolicy, HeatKey, HeatMap, cell_scope
from repro.errors import IndexAborted, RottnestIndexError
from repro.indices import builder_for, registered_types
from repro.indices.fm.fm_index import FmBuilder
from repro.indices.minmax import MinMaxBuilder
from repro.indices.uuid_trie import UuidTrieBuilder
from repro.indices.vector.ivf_pq import IvfPqBuilder
from repro.lake.table import LakeTable, TableConfig
from repro.maintain import MaintainReport, MaintenancePipeline
from repro.obs.attribution import attribute, price_iostats
from repro.obs.timeseries import TelemetryHub, use_hub
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
    assert bill.bytes_written == delta.bytes_written
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
        """What an FM compaction reports now that the merge has no
        interleave to count: one ``compact.merge`` phase whose bill
        holds the merge's bytes (every part read back in full, the
        merged file written by the content-addressed upload inside the
        merge task), and one counted run."""
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
        parts = covering_records(client, "text", "fm")
        with use_hub(TelemetryHub()) as hub, use_tracer(
            Tracer(clock=store.clock)
        ), MaintenancePipeline(client, workers=2) as pipe:
            before = store.stats.snapshot()
            report = pipe.compact("text", "fm")
            delta = store.stats.snapshot().delta(before)
        assert len(parts) == 3 and len(report.records) == 1
        merges = [s for s in report.root.walk() if s.name == "compact.merge"]
        assert len(merges) == 1
        bill = report.bill(latency=LAT, costs=COSTS)
        _assert_reconciles(bill, delta)
        merge = next(p for p in bill.phases if p.phase == "merge")
        assert merge.bytes_read >= sum(r.size for r in parts)
        assert merge.bytes_written == report.records[0].size
        assert hub.series("maintain.compact.runs", outcome="committed").total() == 1

    def test_vacuum_is_a_serial_passthrough(self):
        store, client = self._compactable_client()
        with MaintenancePipeline(client, workers=2) as pipe:
            pipe.compact("uuid", "uuid_trie")
            store.clock.advance(7200.0)
            report = pipe.vacuum(snapshot_id=client.lake.latest_version())
        assert report.worker_tasks == 0  # nothing safe to fan out
        # superseded per-file indices removed
        assert report.vacuum.deleted_objects

    def test_bill_requires_a_span_tree(self):
        report = MaintainReport(op="index", workers=1)
        with pytest.raises(ValueError):
            report.bill()


# ---------------------------------------------------------------------
# every runner reconciles: verb, daemon tick, cracking tick
# ---------------------------------------------------------------------
VECTOR_PARAMS = {"nlist": 4, "m": 8}


def _small_indices(n: int = 4):
    """A lake with one small trie file per append (compactable)."""
    store, lake = _lake_store(files=0)
    client = _client(store, lake)
    for i in range(n):
        lake.append(event_batch(24, seed=i + 1))
        client.index("uuid", "uuid_trie")
    return store, client


def _vector_index(client) -> None:
    client.lake.append(event_batch(260, seed=7))
    client.index("emb", "ivf_pq", params=VECTOR_PARAMS)


def _case_index():
    store, lake = _lake_store(files=4)
    client = _client(store, lake)
    pipe = MaintenancePipeline(client, workers=3)
    return store, pipe, lambda: pipe.index("uuid", "uuid_trie").root


def _case_compact():
    store, client = _small_indices()
    pipe = MaintenancePipeline(client, workers=2)
    return store, pipe, lambda: pipe.compact("uuid", "uuid_trie").root


def _case_vacuum():
    store, client = _small_indices()
    compact_indices(client, "uuid", "uuid_trie")
    store.clock.advance(7200.0)
    pipe = MaintenancePipeline(client, workers=2)
    latest = client.lake.latest_version()
    return store, pipe, lambda: pipe.vacuum(snapshot_id=latest).root


def _case_refine():
    store, lake = _lake_store(files=0)
    client = _client(store, lake)
    _vector_index(client)
    (record,) = covering_records(client, "emb", "ivf_pq")
    pipe = MaintenancePipeline(client, workers=2)
    return (
        store,
        pipe,
        lambda: pipe.refine(record, range(4), min_cell_rows=2).root,
    )


def _tick_root(daemon):
    """Tick under a private tracer; the tick's finished span tree."""
    tracer = Tracer(clock=daemon.client.store.clock)
    with use_tracer(tracer):
        daemon.tick()
    return tracer.last_root("maintain.tick")


def _case_daemon_tick():
    """One tick that indexes the newest file, compacts the four small
    trie files that makes, and vacuums the three it superseded."""
    store, client = _small_indices(n=3)
    client.lake.append(event_batch(24, seed=9))
    store.clock.advance(7200.0)
    daemon = MaintenanceDaemon(
        client,
        [("uuid", "uuid_trie")],
        policy=MaintenancePolicy(compact_min_small_files=4),
        workers=2,
    )
    return store, daemon, lambda: _tick_root(daemon)


def _case_cracking_tick():
    """One tick with a hot uncovered file (targeted index) and a
    probe-hot IVF-PQ file (cell refinement)."""
    store, lake = _lake_store(files=2)
    client = _client(store, lake)
    _vector_index(client)
    (record,) = covering_records(client, "emb", "ivf_pq")
    now = store.clock.now()
    heat = HeatMap()
    heat.observe(
        HeatKey(lake.snapshot().files[0].path, "uuid", "UuidQuery"), 10.0, at_s=now
    )
    for cell in range(4):
        heat.observe(
            HeatKey(cell_scope(record.index_key, cell), "emb", "VectorQuery"),
            10.0,
            at_s=now,
        )
    controller = CrackController(
        client,
        cracking=CrackingPolicy(refine_min_cell_rows=2, max_actions_per_tick=4),
        heat=heat,
    )
    daemon = MaintenanceDaemon(
        client,
        [("uuid", "uuid_trie"), ("emb", "ivf_pq")],
        policy=controller,
        index_params={("emb", "ivf_pq"): VECTOR_PARAMS},
    )
    return store, daemon, lambda: _tick_root(daemon)


RUNNERS = {
    # case -> (builder, the verbs it runs, once each, to a commit,
    #          the policy whose tick ran them)
    "pipe.index": (_case_index, ("index",), None),
    "pipe.compact": (_case_compact, ("compact",), None),
    "pipe.vacuum": (_case_vacuum, ("vacuum",), None),
    "pipe.refine": (_case_refine, ("refine",), None),
    "daemon.tick": (
        _case_daemon_tick, ("index", "compact", "vacuum"), "schedule"
    ),
    "cracking.tick": (_case_cracking_tick, ("index", "refine"), "cracking"),
}


def _totals(hub, prefix: str) -> dict:
    """(name, label values...) -> all-time total, over every hub series
    whose name starts with ``prefix``."""
    return {
        (name, *(value for _, value in labels)): member.total()
        for name, members in hub.families().items()
        if name.startswith(prefix)
        for labels, member in members.items()
    }


@pytest.mark.parametrize("case", RUNNERS)
def test_every_runner_reconciles_and_bills_once(case):
    """Whoever runs a verb — a pipeline caller, a daemon tick, a
    cracking tick — its bill equals the IOStats delta, each run bumps
    ``maintain.{verb}.runs{outcome}`` once, feeds the hub, and lands in
    the ledger bucket of its verb."""
    build, verbs, policy = RUNNERS[case]
    store, runner, run = build()
    with use_hub(TelemetryHub()) as hub, runner:
        before = store.stats.snapshot()
        root = run()
        delta = store.stats.snapshot().delta(before)

    bill = attribute(root, latency=LAT, costs=COSTS)
    _assert_reconciles(bill, delta)
    assert delta.puts > 0 or delta.deletes > 0  # the run did something

    runs = {k: v for k, v in _totals(hub, "maintain.").items() if ".runs" in k[0]}
    assert runs == {(f"maintain.{verb}.runs", "committed"): 1 for verb in verbs}
    assert _totals(hub, "maintenance_ticks_total") == (
        {("maintenance_ticks_total", "acted", policy): 1} if policy else {}
    )
    for verb in verbs:
        assert hub.series(f"maintain.{verb}.modeled_s").count() == 1
        assert hub.series(f"maintain.{verb}.cost_usd").count() == 1

    ledger = hub.ledger
    assert (ledger.index_build_usd > 0) == ("index" in verbs)
    assert (ledger.maintain_usd > 0) == (verbs != ("index",))
    assert ledger.index_build_usd + ledger.maintain_usd == pytest.approx(
        bill.total_cost_usd(COSTS)
    )
    # Every upload and metadata commit is in a ``commit`` phase, except
    # compaction's content-addressed uploads (its ``merge`` tasks).
    phases = {p.phase: p for p in bill.phases}
    merge_puts = phases["merge"].puts if "merge" in phases else 0
    assert phases["commit"].puts + merge_puts == delta.puts


def test_aborted_index_is_billed_and_counted():
    """An index run that aborts (too few rows for a vector index) still
    read the lake: the reads are billed and the run counted, then the
    abort reaches the caller."""
    store, lake = _lake_store(files=1)
    client = _client(store, lake)
    with use_hub(TelemetryHub()) as hub, MaintenancePipeline(client) as pipe:
        before = store.stats.snapshot()
        with pytest.raises(IndexAborted):
            pipe.index("emb", "ivf_pq")
        delta = store.stats.snapshot().delta(before)
    assert delta.gets + delta.lists > 0
    assert hub.get("maintain.index.runs").members == {
        (("outcome", "aborted"),): hub.series("maintain.index.runs", outcome="aborted")
    }
    assert hub.series("maintain.index.runs", outcome="aborted").total() == 1
    # Request dollars plus the modeled compute of waiting on them.
    assert hub.ledger.index_build_usd > price_iostats(delta, COSTS) > 0


# ---------------------------------------------------------------------
# overlap: maintenance beside serving, each on its own pool
# ---------------------------------------------------------------------
class TestIOBudget:
    """Each pool's ``workers`` is the one bound on its concurrency."""

    def test_maintenance_overlaps_serving_under_shared_budget(self):
        """A pipeline and an executor running at once, each on its own
        pool, both finish correctly — the overlap changes scheduling,
        never results."""
        store, lake = _lake_store(files=4, rows=24)
        client = _client(store, lake)
        client.index("uuid", "uuid_trie")
        lake.append(event_batch(24, seed=99))

        errors: list[Exception] = []
        results: dict[str, object] = {}

        def serve():
            try:
                with SearchExecutor(client, max_searchers=3) as ex:
                    results["search"] = ex.search(
                        "uuid", UuidQuery(event_uuid(1, 3)), k=5
                    )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def maintain():
            try:
                with MaintenancePipeline(client, workers=3) as pipe:
                    results["index"] = pipe.index("uuid", "uuid_trie")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=serve), threading.Thread(target=maintain)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert results["search"].matches
        assert len(results["index"].records) == 1


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
        """A list and a lazy generator of the same parts merge to the
        same file bytes."""
        offsets = [0, 2, 4]
        listed = UuidTrieBuilder.merge_streaming(self._trie_parts(), offsets)
        streamed = UuidTrieBuilder.merge_streaming(
            (part for part in self._trie_parts()), offsets
        )
        assert _blob(listed, "uuid_trie") == _blob(streamed, "uuid_trie")

    def test_fm_streaming_is_byte_equal(self):
        offsets = [0, 2, 4]
        listed = FmBuilder.merge_streaming(self._fm_parts(), offsets)
        streamed = FmBuilder.merge_streaming(
            (part for part in self._fm_parts()), offsets
        )
        assert _blob(listed, "fm") == _blob(streamed, "fm")

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

    @staticmethod
    def _parts_of(cls) -> list:
        """Three small parts of any registered index type."""
        if cls is IvfPqBuilder:
            rng = np.random.default_rng(7)
            return [
                cls.build(
                    [(g, rng.normal(size=(100, 8)).astype(np.float32)) for g in range(3)],
                    nlist=4,
                    m=2,
                    seed=0,
                )
                for _ in range(3)
            ]
        if cls is FmBuilder:
            pages = [["the quick brown", "fox jumps"]] * 2
        elif cls is MinMaxBuilder:
            pages = [[g * 10 + i for i in range(5)] for g in range(2)]
        else:
            pages = [_uuids(g, 10) for g in range(2)]
        return [
            cls.build([(g, rows) for g, rows in enumerate(pages)]) for _ in range(3)
        ]

    @pytest.mark.parametrize(
        "cls", [builder_for(name) for name in registered_types()]
    )
    def test_parts_offsets_mismatch_raises(self, cls):
        """Every type refuses a surplus part, a surplus offset and an
        empty merge, whether its parts come as a list or lazily."""
        parts = self._parts_of(cls)
        for wrap in (list, iter):
            with pytest.raises(RottnestIndexError):
                cls.merge_streaming(wrap(parts), [0, 2])  # one offset short
            with pytest.raises(RottnestIndexError):
                cls.merge_streaming(wrap(parts), [0, 2, 4, 6])  # one part short
            with pytest.raises(RottnestIndexError):
                cls.merge_streaming(wrap(()), [])  # nothing to merge
        cls.merge_streaming(iter(parts), [0, 2, 4])  # the matched counts merge


class TestTracedPoolValidation:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(RottnestIndexError):
            TracedPool(workers=0)
