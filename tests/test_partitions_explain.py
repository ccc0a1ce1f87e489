"""Partitioned data (§VI structured filters) and the explain() planner."""

import hashlib

import pytest

from repro.core.client import RottnestClient
from repro.core.queries import SubstringQuery, UuidQuery
from repro.errors import LakeError
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock


def key_of(month: str, i: int) -> bytes:
    return hashlib.sha256(f"{month}:{i}".encode()).digest()[:16]


@pytest.fixture
def partitioned():
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(
        Field("request_id", ColumnType.BINARY),
        Field("message", ColumnType.STRING),
    )
    lake = LakeTable.create(
        store, "lake/logs", schema,
        TableConfig(row_group_rows=100, page_target_bytes=1024),
    )
    months = ["2026-05", "2026-06", "2026-07"]
    for month in months:
        lake.append(
            {
                "request_id": [key_of(month, i) for i in range(200)],
                "message": [f"{month} event {i}" for i in range(200)],
            },
            partition=month,
        )
    client = RottnestClient(store, "idx/logs", lake)
    client.index("request_id", "uuid_trie")
    return store, lake, client, months


class TestPartitionedLake:
    def test_partition_encoded_in_path(self, partitioned):
        _, lake, _, months = partitioned
        partitions = {
            LakeTable.partition_of(p) for p in lake.snapshot().file_paths
        }
        assert partitions == set(months)

    def test_partition_of_unpartitioned(self):
        assert LakeTable.partition_of("lake/t/data/part-0.parquet") is None

    def test_invalid_partition_value(self, partitioned):
        _, lake, _, _ = partitioned
        with pytest.raises(LakeError):
            lake.append({"request_id": [b"x"], "message": ["y"]},
                        partition="a/b")

    def test_compaction_respects_partitions(self, partitioned):
        _, lake, _, months = partitioned
        # Add more small files per partition, then compact.
        for month in months:
            lake.append(
                {
                    "request_id": [key_of(month, 1000 + i) for i in range(50)],
                    "message": [f"{month} extra {i}" for i in range(50)],
                },
                partition=month,
            )
        lake.compact(min_file_rows=500, target_rows=2000)
        snap = lake.snapshot()
        partitions = {LakeTable.partition_of(p) for p in snap.file_paths}
        assert partitions == set(months)
        assert len(snap.files) == 3  # one merged file per partition
        assert snap.num_rows == 3 * 250

    def test_rewrite_sorted_respects_partitions(self, partitioned):
        _, lake, _, months = partitioned
        lake.rewrite_sorted("message")
        partitions = {
            LakeTable.partition_of(p) for p in lake.snapshot().file_paths
        }
        assert partitions == set(months)


class TestPartitionedSearch:
    def test_search_scoped_to_partition(self, partitioned):
        store, lake, client, _ = partitioned
        key = key_of("2026-06", 17)
        # Unscoped: found.
        assert len(client.search("request_id", UuidQuery(key), k=5).matches) == 1
        # Scoped to its own partition: found.
        res = client.search(
            "request_id", UuidQuery(key), k=5, partition="2026-06"
        )
        assert len(res.matches) == 1
        # Scoped to a different partition: excluded.
        res = client.search(
            "request_id", UuidQuery(key), k=5, partition="2026-05"
        )
        assert res.matches == []

    def test_partition_scope_shrinks_brute_force(self, partitioned):
        """Unindexed data costs only its partition's scan when scoped —
        the normalized-query cost reduction of §VI."""
        store, lake, client, _ = partitioned
        lake.append(
            {
                "request_id": [key_of("2026-08", i) for i in range(100)],
                "message": [f"2026-08 event {i}" for i in range(100)],
            },
            partition="2026-08",
        )
        needle = "2026-08 event 5"
        unscoped = client.search("message", SubstringQuery(needle), k=200)
        scoped = client.search(
            "message", SubstringQuery(needle), k=200, partition="2026-08"
        )
        matches = {(m.file, m.row) for m in scoped.matches}
        assert matches == {(m.file, m.row) for m in unscoped.matches}
        assert scoped.stats.files_brute_forced == 1

    def test_file_predicate(self, partitioned):
        _, lake, client, _ = partitioned
        key = key_of("2026-07", 3)
        res = client.search(
            "request_id",
            UuidQuery(key),
            k=5,
            file_predicate=lambda p: "p=2026-07" in p,
        )
        assert len(res.matches) == 1


class TestExplain:
    def test_fully_covered_plan(self, partitioned):
        _, _, client, _ = partitioned
        plan = client.explain("request_id", UuidQuery(b"\x00" * 16))
        assert plan.uncovered_files == ()
        assert len(plan.candidate_files) == 3
        assert len(plan.index_files) == 1
        assert plan.index_files[0][1] == "uuid_trie"
        assert plan.index_files[0][2] == 3
        assert "fully covered" in plan.describe()

    def test_uncovered_files_reported(self, partitioned):
        _, lake, client, _ = partitioned
        lake.append(
            {"request_id": [b"\x01" * 16], "message": ["fresh"]},
            partition="2026-08",
        )
        plan = client.explain("request_id", UuidQuery(b"\x01" * 16))
        assert len(plan.uncovered_files) == 1
        assert "brute-force scan: 1" in plan.describe()

    def test_partition_scoped_plan(self, partitioned):
        _, _, client, _ = partitioned
        plan = client.explain(
            "request_id", UuidQuery(b"\x00" * 16), partition="2026-06"
        )
        assert len(plan.candidate_files) == 1
        assert plan.index_files[0][2] == 1  # index useful for 1 file

    def test_regex_plan_has_no_indices(self, partitioned):
        from repro.core.queries import RegexQuery

        _, _, client, _ = partitioned
        plan = client.explain("message", RegexQuery("ev.nt"))
        assert plan.index_files == ()
        assert len(plan.uncovered_files) == 3

    def test_explain_matches_search_stats(self, partitioned):
        _, _, client, _ = partitioned
        key = key_of("2026-05", 9)
        plan = client.explain("request_id", UuidQuery(key))
        result = client.search("request_id", UuidQuery(key), k=5)
        assert len(plan.index_files) == result.stats.index_files_queried
        assert len(plan.uncovered_files) == result.stats.files_brute_forced
