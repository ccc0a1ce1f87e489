"""Baseline engines: the brute-force scan (the plan with no index) and
its scaling model, and copy-data systems."""

import numpy as np
import pytest

from repro.core.client import RottnestClient
from repro.core.queries import RangeQuery, SubstringQuery, UuidQuery, VectorQuery
from repro.engines.bruteforce import BruteForceModel
from repro.engines.dedicated import (
    LANCEDB_MODEL,
    OPENSEARCH_MODEL,
    DedicatedModel,
    DedicatedSearchSystem,
    lance_cold_latency,
)
from repro.formats.reader import ParquetFile
from repro.storage.costs import GB, CostModel
from repro.storage.stats import IOStats

from tests.conftest import event_batch, event_uuid


class TestBruteForceModel:
    def test_latency_decreases_with_workers(self):
        m = BruteForceModel()
        bytes_ = 100 * GB
        lat = [m.latency(bytes_, w) for w in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a > b for a, b in zip(lat, lat[1:]))

    def test_speedup_saturates(self):
        """Fig. 8a: near-linear early, marked slowdown at 64 workers."""
        m = BruteForceModel()
        bytes_ = 300 * GB
        s_2 = m.latency(bytes_, 1) / m.latency(bytes_, 2)
        s_64 = m.latency(bytes_, 32) / m.latency(bytes_, 64)
        assert s_2 > 1.8  # early doubling nearly halves latency
        assert s_64 < 1.5  # late doubling doesn't

    def test_cost_per_query_rises_at_scale(self):
        """Fig. 8b: cost per query grows once scaling saturates."""
        m = BruteForceModel()
        bytes_ = 300 * GB
        c_8 = m.cost_per_query(bytes_, 8)
        c_64 = m.cost_per_query(bytes_, 64)
        assert c_64 > c_8

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            BruteForceModel().latency(1, 0)

    def test_coordination_dominates_a_tiny_scan(self):
        """On a test-sized lake coordination dominates, so *more* workers
        means *worse* latency — the far-right tail of Fig. 8a."""
        m = BruteForceModel()
        assert m.latency(100_000, 64) > m.latency(100_000, 1)
        assert m.cost_per_query(100_000, 8) > 0

    def test_cost_uses_instance_price(self):
        m = BruteForceModel()
        c = CostModel()
        lat = m.latency(GB, 4)
        assert m.cost_per_query(GB, 4, c) == pytest.approx(
            lat * 4 * c.instance_hourly("r6i.4xlarge") / 3600
        )


class TestPlanScan:
    """The brute-force baseline is the search plan with no index: every
    in-scope file is read through the lake's one live-row scan, and its
    bytes are the run's trace. Expected rows come from the appended
    batches (``event_batch`` seeds 1 and 2, 300 rows each)."""

    def test_exact_matches_the_appended_row(self, client, event_lake):
        first = event_lake.snapshot().files[0].path
        res = client.search("uuid", UuidQuery(event_uuid(1, 11)), k=5, use_indices=False)
        assert {(m.file, m.row) for m in res.matches} == {(first, 11)}
        assert res.stats.index_files_queried == 0
        assert res.stats.files_brute_forced == 2

    def test_exact_early_exit(self, client, event_lake):
        res = client.search("text", SubstringQuery("a"), k=1, use_indices=False)
        assert len(res.matches) == 1
        # Early exit: did not scan the second file.
        assert res.stats.files_brute_forced == 1
        scanned = IOStats().fold(res.stats.trace).bytes_read
        assert scanned < event_lake.snapshot().total_bytes

    def test_scoring_matches_exact_top1(self, client, event_lake):
        rng = np.random.default_rng(0)
        q = VectorQuery(rng.normal(size=16).astype(np.float32), nprobe=8, refine=200)
        res = client.search("emb", q, k=5, use_indices=False)
        paths = event_lake.snapshot().file_paths
        scored = [
            (q.distance(vec), path, row)
            for path, seed in zip(paths, (1, 2))
            for row, vec in enumerate(event_batch(300, seed=seed)["emb"])
        ]
        best = min(scored)
        top = res.matches[0]
        assert (top.file, top.row) == best[1:]
        assert top.score == pytest.approx(best[0])

    def test_deleted_rows_excluded(self, client, event_lake):
        key = event_uuid(1, 4)
        event_lake.delete_where("uuid", lambda v: bytes(v) == key)
        res = client.search("uuid", UuidQuery(key), k=5, use_indices=False)
        assert res.matches == []


def _key(i: int) -> bytes:
    return i.to_bytes(4, "big")


def _chunk_bytes(store, path: str, column: str) -> int:
    """Compressed bytes of every chunk of ``column`` in one data file."""
    metadata = ParquetFile(store, path).metadata
    return sum(rg.chunk(column).total_compressed_size for rg in metadata.row_groups)


def _chunk_bytes_read(trace, path: str) -> int:
    """Bytes a run's trace GETs from one data file after its footer (the
    first GET of a file is its footer; the rest are column chunks)."""
    gets = [
        request.nbytes
        for round_ in trace.rounds
        for request in round_
        if request.op == "GET" and request.key == path
    ]
    return sum(gets[1:])


class TestMinMaxPruning:
    """§II-B measured at the plan's scan (``use_indices=False``): footer
    min/max skips row groups of a sorted column and none on random
    identifiers or text."""

    @pytest.fixture
    def sorted_lake(self):
        from repro.formats.schema import ColumnType, Field, Schema
        from repro.lake.table import LakeTable, TableConfig
        from repro.storage.object_store import InMemoryObjectStore

        store = InMemoryObjectStore()
        schema = Schema.of(
            Field("ts", ColumnType.INT64), Field("key", ColumnType.BINARY)
        )
        lake = LakeTable.create(
            store, "lake/s", schema,
            TableConfig(row_group_rows=100, page_target_bytes=512),
        )
        lake.append(  # 10 row groups, both columns sorted
            {"ts": list(range(1000)), "key": [_key(i) for i in range(1000)]}
        )
        return store, lake

    def test_sorted_column_prunes(self, sorted_lake):
        store, lake = sorted_lake
        client = RottnestClient(store, "idx/s", lake)
        res = client.search("ts", RangeQuery(250, 260), k=100, use_indices=False)
        assert sorted(m.row for m in res.matches) == list(range(250, 261))
        path = lake.snapshot().files[0].path
        read = _chunk_bytes_read(res.stats.trace, path)
        assert 0 < read < _chunk_bytes(store, path, "ts") / 3

    def test_bounds_on_a_row_group_edge_are_kept(self, sorted_lake):
        """A row group's min and max are inclusive: a key or range that
        touches only an edge still finds its rows."""
        store, lake = sorted_lake
        client = RottnestClient(store, "idx/s", lake)
        for column, query, rows in [
            ("ts", RangeQuery(99, 100), [99, 100]),
            ("ts", RangeQuery(999, 2000), [999]),
            ("key", UuidQuery(_key(100)), [100]),
            ("key", UuidQuery(_key(199)), [199]),
        ]:
            res = client.search(column, query, k=100, use_indices=False)
            assert sorted(m.row for m in res.matches) == rows

    def test_random_uuid_column_prunes_nothing(self, client, event_lake, store):
        first = event_lake.snapshot().files[0].path
        res = client.search(
            "uuid", UuidQuery(event_uuid(1, 100)), k=100, use_indices=False
        )
        assert {(m.file, m.row) for m in res.matches} == {(first, 100)}
        # Random 128-bit keys: min-max cannot prune (the paper's point).
        for path in event_lake.snapshot().file_paths:
            assert _chunk_bytes_read(res.stats.trace, path) == _chunk_bytes(
                store, path, "uuid"
            )

    def test_substring_never_pruned(self, client, event_lake, store):
        res = client.search("text", SubstringQuery("zzz"), k=5, use_indices=False)
        assert res.stats.files_brute_forced == 2
        for path in event_lake.snapshot().file_paths:
            assert _chunk_bytes_read(res.stats.trace, path) == _chunk_bytes(
                store, path, "text"
            )


class TestDedicated:
    def test_monthly_cost_components(self):
        c = CostModel()
        m = DedicatedModel(instance_type="r6g.large", instance_count=3)
        cost = m.monthly_cost(10 * GB, c)
        compute = 3 * 730 * c.instance_hourly("r6g.large")
        assert cost > compute  # storage on top
        assert cost == pytest.approx(
            compute + 10 * 1.6 * 3 * c.opensearch_ebs_per_gb_month
        )

    def test_paper_configs_exist(self):
        assert OPENSEARCH_MODEL.instance_type == "r6g.large"
        assert LANCEDB_MODEL.instance_type == "r6g.xlarge"

    def test_ingest_and_uuid_search(self, event_lake):
        system = DedicatedSearchSystem()
        n = system.ingest(event_lake, "uuid")
        assert n == 600
        key = event_uuid(2, 9)
        matches = system.search(UuidQuery(key), k=5)
        assert len(matches) == 1
        assert bytes(matches[0].value) == key

    def test_substring_search(self, event_lake):
        system = DedicatedSearchSystem()
        system.ingest(event_lake, "text")
        docs = event_lake.to_pylist("text")
        needle = docs[0][:8]
        matches = system.search(SubstringQuery(needle), k=1000)
        assert len(matches) == sum(needle in d for d in docs)

    def test_vector_search_exact(self, event_lake):
        system = DedicatedSearchSystem(LANCEDB_MODEL)
        system.ingest(event_lake, "emb")

        target = event_batch(300, seed=1)["emb"][12]
        matches = system.search(VectorQuery(target), k=3)
        assert matches[0].score == pytest.approx(0.0, abs=1e-9)

    def test_staleness_is_real(self, event_lake):
        """The copy does not see lake writes after ingest (Fig. 1's
        consistency problem with the copy-data approach)."""

        system = DedicatedSearchSystem()
        system.ingest(event_lake, "uuid")
        event_lake.append(event_batch(10, seed=42))
        fresh_key = event_uuid(42, 0)
        assert system.search(UuidQuery(fresh_key), k=1) == []

    def test_monthly_cost_after_ingest(self, event_lake):
        system = DedicatedSearchSystem()
        system.ingest(event_lake, "uuid")
        assert system.monthly_cost() > 200  # 3 always-on instances


class TestLanceCold:
    def test_comparable_to_page_reads(self):
        """§VII-C: exact-byte reads beat 300 KB pages only marginally —
        both sit in the flat region of Fig. 10a."""
        lance = lance_cold_latency(nprobe=8, refine=50, list_bytes=200_000)
        # Same shape with 300 KB page reads in the refine round.
        from repro.storage.latency import LatencyModel

        m = LatencyModel()
        rott = (
            m.round_latency([64 * 1024])
            + m.round_latency([200_000] * 8)
            + m.round_latency([300_000] * 50)
        )
        assert lance <= rott
        assert rott / lance < 1.5  # within ~50%, not orders of magnitude
