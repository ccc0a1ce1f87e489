"""Data lake: log, snapshots, deletion vectors, table operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommitConflict, InjectedFault, LakeError, SnapshotNotFound
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.actions import (
    AddFile,
    RemoveFile,
    SetDeletionVector,
    SetSchema,
    actions_from_bytes,
    actions_to_bytes,
)
from repro.lake.deletion import DeletionVector
from repro.lake.log import TransactionLog
from repro.lake.snapshot import replay
from repro.lake.table import LAKE_LOG, LakeTable, TableConfig
from repro.storage.faults import FaultRule, FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore

SIMPLE = Schema.of(Field("id", ColumnType.INT64), Field("t", ColumnType.STRING))


def make_batch(lo, hi):
    return {"id": list(range(lo, hi)), "t": [f"row {i}" for i in range(lo, hi)]}


@pytest.fixture
def store():
    return InMemoryObjectStore()


@pytest.fixture
def table(store):
    cfg = TableConfig(row_group_rows=50, page_target_bytes=512)
    return LakeTable.create(store, "lake/t", SIMPLE, cfg)


class TestActions:
    def test_serialization_roundtrip(self):
        actions = [
            SetSchema(schema=SIMPLE),
            AddFile(path="p/a", num_rows=10, size=100),
            RemoveFile(path="p/a"),
            SetDeletionVector(data_path="p/b", dv_path="d/x"),
        ]
        assert actions_from_bytes(actions_to_bytes(actions)) == actions

    def test_corrupt_entry_rejected(self):
        with pytest.raises(LakeError):
            actions_from_bytes(b"not json")

    def test_unknown_action_rejected(self):
        with pytest.raises(LakeError):
            actions_from_bytes(b'[{"action": "explode"}]')


class TestTransactionLog:
    def test_empty_log(self, store):
        log = TransactionLog(store, "lake/x", LAKE_LOG)
        assert log.latest_version() == -1

    def test_commit_sequence(self, store):
        log = TransactionLog(store, "lake/x", LAKE_LOG)
        v0 = log.commit([AddFile(path="a", num_rows=1, size=1)])
        v1 = log.commit([AddFile(path="b", num_rows=1, size=1)])
        assert (v0, v1) == (0, 1)
        assert log.latest_version() == 1

    def test_try_commit_conflict(self, store):
        log = TransactionLog(store, "lake/x", LAKE_LOG)
        log.try_commit(0, [AddFile(path="a", num_rows=1, size=1)])
        with pytest.raises(CommitConflict):
            log.try_commit(0, [AddFile(path="b", num_rows=1, size=1)])

    def test_conflict_preserves_winner(self, store):
        log = TransactionLog(store, "lake/x", LAKE_LOG)
        log.try_commit(0, [AddFile(path="winner", num_rows=1, size=1)])
        try:
            log.try_commit(0, [AddFile(path="loser", num_rows=1, size=1)])
        except CommitConflict:
            pass
        actions = log.read_version(0)
        assert actions[0].path == "winner"

    def test_read_missing_version(self, store):
        log = TransactionLog(store, "lake/x", LAKE_LOG)
        with pytest.raises(SnapshotNotFound):
            log.read_version(5)
        with pytest.raises(SnapshotNotFound):
            log.state(3)

    def test_store_fault_on_a_log_read_is_not_a_missing_version(self, store):
        """A fault that outlives its retries surfaces as itself; only a
        missing object says "this version does not exist"."""
        faulty = FaultyObjectStore(store)
        log = TransactionLog(faulty, "lake/x", LAKE_LOG)
        log.commit([AddFile(path="a", num_rows=1, size=1)])
        faulty.add_rule(
            FaultRule("GET", key_predicate=lambda key: "lake/x/_log/" in key)
        )
        with pytest.raises(InjectedFault):
            log.read_version(0)
        assert log.read_version(0)[0].path == "a"  # the version was there
        with pytest.raises(SnapshotNotFound):
            log.read_version(1)

    def test_commit_retries_past_conflicts(self, store):
        log_a = TransactionLog(store, "lake/x", LAKE_LOG)
        log_b = TransactionLog(store, "lake/x", LAKE_LOG)
        log_a.commit([AddFile(path="a", num_rows=1, size=1)])
        # b computed latest before a's commit; commit() re-reads and wins
        # the next slot.
        v = log_b.commit([AddFile(path="b", num_rows=1, size=1)])
        assert v == 1


class TestReplay:
    def test_add_remove(self):
        snap = replay(
            2,
            [
                [SetSchema(schema=SIMPLE)],
                [AddFile(path="a", num_rows=5, size=50)],
                [RemoveFile(path="a"), AddFile(path="b", num_rows=7, size=70)],
            ],
        )
        assert snap.file_paths == ["b"]
        assert snap.num_rows == 7
        assert snap.total_bytes == 70

    def test_double_add_rejected(self):
        with pytest.raises(LakeError):
            replay(
                1,
                [
                    [SetSchema(schema=SIMPLE)],
                    [
                        AddFile(path="a", num_rows=1, size=1),
                        AddFile(path="a", num_rows=1, size=1),
                    ],
                ],
            )

    def test_remove_unknown_rejected(self):
        with pytest.raises(LakeError):
            replay(1, [[SetSchema(schema=SIMPLE)], [RemoveFile(path="a")]])

    def test_dv_for_unknown_file_rejected(self):
        with pytest.raises(LakeError):
            replay(
                1,
                [
                    [SetSchema(schema=SIMPLE)],
                    [SetDeletionVector(data_path="a", dv_path="d")],
                ],
            )

    def test_dv_cleared_by_remove(self):
        snap = replay(
            2,
            [
                [SetSchema(schema=SIMPLE), AddFile(path="a", num_rows=1, size=1)],
                [SetDeletionVector(data_path="a", dv_path="d")],
                [RemoveFile(path="a"), AddFile(path="b", num_rows=1, size=1)],
            ],
        )
        assert snap.deletion_vectors == {}

    def test_dv_cleared_by_empty_path(self):
        snap = replay(
            2,
            [
                [SetSchema(schema=SIMPLE), AddFile(path="a", num_rows=1, size=1)],
                [SetDeletionVector(data_path="a", dv_path="d")],
                [SetDeletionVector(data_path="a", dv_path="")],
            ],
        )
        assert snap.deletion_vectors == {}

    def test_no_schema_rejected(self):
        with pytest.raises(LakeError):
            replay(0, [[AddFile(path="a", num_rows=1, size=1)]])

    def test_entry_lookup(self):
        snap = replay(
            0, [[SetSchema(schema=SIMPLE), AddFile(path="a", num_rows=3, size=9)]]
        )
        assert snap.entry("a").num_rows == 3
        assert snap.contains("a")
        with pytest.raises(LakeError):
            snap.entry("b")


class TestDeletionVector:
    def test_membership(self):
        dv = DeletionVector([3, 1, 7])
        assert 3 in dv and 1 in dv and 0 not in dv
        assert len(dv) == 3

    def test_union_and_filter(self):
        dv = DeletionVector([1]).union(DeletionVector([2]))
        assert [r for r in range(4) if r not in dv] == [0, 3]

    def test_serialize_roundtrip(self):
        dv = DeletionVector([0, 5, 1000000, 17])
        assert DeletionVector.deserialize(dv.serialize()) == dv

    def test_empty_roundtrip(self):
        dv = DeletionVector()
        assert DeletionVector.deserialize(dv.serialize()) == dv
        assert len(dv) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DeletionVector([-1])

    def test_bad_magic(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            DeletionVector.deserialize(b"XXXX\x00")

    @given(st.sets(st.integers(0, 10_000), max_size=200))
    def test_roundtrip_property(self, rows):
        dv = DeletionVector(rows)
        assert DeletionVector.deserialize(dv.serialize()).rows == frozenset(rows)


class TestLakeTable:
    def test_create_twice_rejected(self, store, table):
        with pytest.raises(LakeError):
            LakeTable.create(store, "lake/t", SIMPLE)

    def test_open_missing_rejected(self, store):
        with pytest.raises(LakeError):
            LakeTable.open(store, "lake/none")

    def test_open_existing(self, store, table):
        table.append(make_batch(0, 10))
        reopened = LakeTable.open(store, "lake/t")
        assert reopened.to_pylist("id") == list(range(10))

    def test_append_and_scan(self, table):
        table.append(make_batch(0, 100))
        table.append(make_batch(100, 150))
        assert table.to_pylist("id") == list(range(150))

    def test_time_travel(self, table):
        v1 = table.append(make_batch(0, 10))
        table.append(make_batch(10, 20))
        old = table.snapshot(v1)
        assert old.num_rows == 10
        assert table.snapshot().num_rows == 20

    def test_delete_where(self, table):
        table.append(make_batch(0, 100))
        n = table.delete_where("id", lambda v: v % 10 == 0)
        assert n == 10
        assert sorted(table.to_pylist("id")) == [
            i for i in range(100) if i % 10 != 0
        ]

    def test_delete_twice_counts_once(self, table):
        table.append(make_batch(0, 20))
        assert table.delete_where("id", lambda v: v < 5) == 5
        assert table.delete_where("id", lambda v: v < 5) == 0

    def test_delete_nothing_commits_nothing(self, table):
        table.append(make_batch(0, 10))
        before = table.latest_version()
        assert table.delete_where("id", lambda v: v > 999) == 0
        assert table.latest_version() == before

    def test_compact_merges_small_files(self, table):
        for i in range(4):
            table.append(make_batch(i * 10, (i + 1) * 10))
        new = table.compact(min_file_rows=50, target_rows=100)
        assert len(new) == 1
        snap = table.snapshot()
        assert len(snap.files) == 1
        assert sorted(table.to_pylist("id")) == list(range(40))

    def test_compact_drops_deleted_rows(self, table):
        table.append(make_batch(0, 10))
        table.append(make_batch(10, 20))
        table.delete_where("id", lambda v: v == 5)
        table.compact(min_file_rows=50, target_rows=100)
        snap = table.snapshot()
        assert snap.num_rows == 19  # physically gone now
        assert snap.deletion_vectors == {}
        assert 5 not in table.to_pylist("id")

    def test_compact_noop_single_file(self, table):
        table.append(make_batch(0, 10))
        assert table.compact(min_file_rows=50, target_rows=100) == []

    def test_compact_bad_args(self, table):
        with pytest.raises(LakeError):
            table.compact(min_file_rows=10, target_rows=5)

    def test_rewrite_sorted(self, table):
        table.append({"id": [5, 3, 9], "t": ["e", "c", "i"]})
        table.append({"id": [1, 7], "t": ["a", "g"]})
        table.rewrite_sorted("id")
        assert table.to_pylist("id") == [1, 3, 5, 7, 9]
        assert table.to_pylist("t") == ["a", "c", "e", "g", "i"]

    def test_vacuum_removes_dead_files(self, store, table):
        table.append(make_batch(0, 10))
        table.append(make_batch(10, 20))
        table.compact(min_file_rows=50, target_rows=100)
        data_keys_before = len(store.list("lake/t/data/"))
        removed = table.vacuum(retain_versions=1)
        assert len(removed) == 2
        assert len(store.list("lake/t/data/")) == data_keys_before - 2
        # Table still readable.
        assert sorted(table.to_pylist("id")) == list(range(20))

    def test_scan_of_vacuumed_snapshot_says_so(self, table):
        """Every scan of a snapshot whose files a vacuum removed raises
        SnapshotNotFound, as search and count do, not the store's miss."""
        table.append(make_batch(0, 10))
        table.append(make_batch(10, 20))
        old = table.snapshot()
        table.compact(min_file_rows=50, target_rows=100)
        table.vacuum(retain_versions=1)
        for scan in (
            lambda: table.to_pylist("id", old),
            lambda: list(table.scan("t", old)),
        ):
            with pytest.raises(SnapshotNotFound, match="no longer materialized"):
                scan()
        assert sorted(table.to_pylist("id")) == list(range(20))

    def test_vacuum_retains_history(self, store, table):
        table.append(make_batch(0, 10))
        table.append(make_batch(10, 20))
        table.compact(min_file_rows=50, target_rows=100)
        removed = table.vacuum(retain_versions=10)
        assert removed == []  # old snapshots still in retention

    def test_vacuum_requires_retention(self, table):
        with pytest.raises(LakeError):
            table.vacuum(retain_versions=0)

    def test_files_since(self, table):
        table.append(make_batch(0, 10))
        old_files = set(table.snapshot().file_paths)
        table.compact(min_file_rows=5, target_rows=100)  # no-op, 1 file
        table.append(make_batch(10, 20))
        all_files = table.files_since(0)
        assert old_files <= all_files
        latest_only = table.files_since(table.latest_version())
        assert latest_only == set(table.snapshot().file_paths)

    def test_files_since_past_the_tip_does_not_exist(self, table):
        """A window past the tip is not an empty one: an index vacuum
        planned on it would keep no index at all."""
        table.append(make_batch(0, 10))
        with pytest.raises(SnapshotNotFound, match="version 3 "):
            table.files_since(table.latest_version() + 2)

    def test_schema_property(self, table):
        assert table.schema == SIMPLE

    def test_concurrent_appends_both_land(self, store, table):
        other = LakeTable.open(store, "lake/t", table.config)
        table.append(make_batch(0, 5))
        other.append(make_batch(5, 10))
        assert sorted(table.to_pylist("id")) == list(range(10))


class TestLogCheckpoints:
    """Delta-style lake log checkpoints: snapshots read checkpoint+tail."""

    def _table(self, store, interval):
        cfg = TableConfig(
            row_group_rows=50, page_target_bytes=512,
            checkpoint_interval=interval,
        )
        return LakeTable.create(store, "lake/cp", SIMPLE, cfg)

    def test_checkpoint_written_at_interval(self, store):
        table = self._table(store, interval=4)
        for i in range(4):
            table.append(make_batch(i * 5, (i + 1) * 5))
        # Versions 0 (schema) + 4 appends; checkpoint at v3.
        assert table.log.versions() == (4, [3])

    def test_snapshot_equals_full_replay(self, store):
        table = self._table(store, interval=3)
        for i in range(8):
            table.append(make_batch(i * 5, (i + 1) * 5))
        table.delete_where("id", lambda v: v % 7 == 0)
        from repro.lake.snapshot import replay

        latest = table.latest_version()
        full = replay(latest, [table.log.read_version(v) for v in range(latest + 1)])
        fast = table.snapshot()
        assert fast == full

    def test_snapshot_reads_only_tail(self, store):
        table = self._table(store, interval=5)
        for i in range(10):
            table.append(make_batch(i * 5, (i + 1) * 5))
        before = store.stats.snapshot()
        table.snapshot()
        delta = store.stats.delta(before)
        # 1 checkpoint + <= interval tail entries, not all 11 versions.
        assert delta.gets <= 1 + 5

    def test_time_travel_before_checkpoint(self, store):
        table = self._table(store, interval=3)
        for i in range(7):
            table.append(make_batch(i * 5, (i + 1) * 5))
        old = table.snapshot(1)  # before the first checkpoint
        assert old.num_rows == 5

    def test_checkpoint_snapshot_roundtrip(self, store):
        table = self._table(store, interval=2)
        table.append(make_batch(0, 10))
        table.delete_where("id", lambda v: v == 3)
        snap = table.snapshot()
        from repro.lake.snapshot import Snapshot

        assert Snapshot.from_json(snap.to_json()) == snap

    def test_fresh_instance_uses_checkpoints(self, store):
        table = self._table(store, interval=2)
        for i in range(6):
            table.append(make_batch(i * 5, (i + 1) * 5))
        reopened = LakeTable.open(store, "lake/cp", table.config)
        assert reopened.snapshot().num_rows == 30


@settings(max_examples=15, deadline=None)
@given(
    batches=st.lists(st.integers(1, 30), min_size=1, max_size=5),
    delete_mod=st.integers(2, 7),
)
def test_lake_contents_invariant_property(batches, delete_mod):
    """Appends + deletes + compaction preserve exactly the live rows."""
    store = InMemoryObjectStore()
    table = LakeTable.create(
        store, "lake/p", SIMPLE, TableConfig(row_group_rows=16, page_target_bytes=256)
    )
    cursor = 0
    for b in batches:
        table.append(make_batch(cursor, cursor + b))
        cursor += b
    table.delete_where("id", lambda v: v % delete_mod == 0)
    expected = [i for i in range(cursor) if i % delete_mod != 0]
    assert sorted(table.to_pylist("id")) == expected
    table.compact(min_file_rows=100, target_rows=500)
    assert sorted(table.to_pylist("id")) == expected
