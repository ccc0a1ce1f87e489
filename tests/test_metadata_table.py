"""Rottnest metadata table: transactional index-record bookkeeping."""

import pytest

from repro.errors import LakeError
from repro.meta.metadata_table import IndexRecord, MetadataTable
from repro.storage.object_store import InMemoryObjectStore


def record(key, column="text", covered=("a",), created=1.0):
    return IndexRecord(
        index_key=key,
        index_type="fm",
        column=column,
        covered_files=tuple(covered),
        num_rows=10,
        size=100,
        created_at=created,
    )


@pytest.fixture
def meta():
    return MetadataTable(InMemoryObjectStore(), "idx/t")


class TestMetadataTable:
    def test_empty(self, meta):
        assert meta.records() == []
        assert meta.log.latest_version() == -1

    def test_insert_and_read(self, meta):
        meta.insert([record("i1"), record("i2")])
        keys = [r.index_key for r in meta.records()]
        assert keys == ["i1", "i2"]

    def test_record_roundtrip_fields(self, meta):
        original = record("i1", covered=("a", "b"), created=42.5)
        meta.insert([original])
        assert meta.records()[0] == original

    def test_delete(self, meta):
        meta.insert([record("i1"), record("i2")])
        meta.delete(["i1"])
        assert [r.index_key for r in meta.records()] == ["i2"]

    def test_delete_unknown_rejected(self, meta):
        meta.insert([record("i1")])
        with pytest.raises(LakeError):
            meta.delete(["nope"])
        with pytest.raises(LakeError):
            meta.delete(["i1", "i1"])  # would fail every later read
        assert [r.index_key for r in meta.records()] == ["i1"]

    def test_double_insert_rejected(self, meta):
        """A live key is refused at ``insert``: it never reaches the log,
        so the log can never hold one key inserted twice."""
        meta.insert([record("i1")])
        meta.insert([record("i2")])
        puts = meta.log.store.stats.puts
        assert meta.insert([record("i1", created=2.0)]) is None
        assert meta.log.store.stats.puts == puts
        assert meta.insert([record("i1"), record("i3")]) == 2  # only i3
        assert [r.index_key for r in meta.records()] == ["i1", "i2", "i3"]
        assert meta.records()[0].created_at == 1.0
        with pytest.raises(LakeError):
            meta.insert([record("i4"), record("i4")])

    def test_empty_ops_rejected(self, meta):
        with pytest.raises(LakeError):
            meta.insert([])
        with pytest.raises(LakeError):
            meta.delete([])

    def test_indexed_files_per_column(self, meta):
        meta.insert([record("i1", column="text", covered=("a", "b"))])
        meta.insert([record("i2", column="uuid", covered=("c",))])
        assert meta.indexed_files("text") == {"a", "b"}
        assert meta.indexed_files("uuid") == {"c"}
        assert meta.indexed_files("other") == set()

    def test_two_writers_interleave(self):
        store = InMemoryObjectStore()
        a = MetadataTable(store, "idx/t")
        b = MetadataTable(store, "idx/t")
        a.insert([record("from-a")])
        b.insert([record("from-b")])
        assert {r.index_key for r in a.records()} == {"from-a", "from-b"}

    def test_versions_monotone(self, meta):
        v0 = meta.insert([record("i1")])
        v1 = meta.insert([record("i2")])
        assert v1 == v0 + 1


class TestCheckpoints:
    @pytest.fixture
    def store(self):
        return InMemoryObjectStore()

    def test_checkpoint_written_at_interval(self, store):
        meta = MetadataTable(store, "idx/t", checkpoint_interval=5)
        for i in range(5):
            meta.insert([record(f"i{i}")])
        assert meta.log.versions() == (4, [4])
        assert len(meta.records()) == 5

    def test_no_checkpoint_before_interval(self, store):
        meta = MetadataTable(store, "idx/t", checkpoint_interval=5)
        for i in range(4):
            meta.insert([record(f"i{i}")])
        assert meta.log.versions() == (3, [])

    def test_records_from_checkpoint_plus_tail(self, store):
        meta = MetadataTable(store, "idx/t", checkpoint_interval=3)
        for i in range(7):
            meta.insert([record(f"i{i}")])
        meta.delete(["i0"])
        keys = {r.index_key for r in meta.records()}
        assert keys == {f"i{i}" for i in range(1, 7)}

    def test_records_skips_pre_checkpoint_versions(self, store):
        meta = MetadataTable(store, "idx/t", checkpoint_interval=4)
        for i in range(8):
            meta.insert([record(f"i{i}")])
        # Replaying from the checkpoint must not re-read early versions.
        before = store.stats.snapshot()
        meta.records()
        delta = store.stats.delta(before)
        # 1 checkpoint + tail (versions 8.. none) + 1 LIST.
        assert delta.gets <= 2

    def test_deletes_survive_checkpointing(self, store):
        meta = MetadataTable(store, "idx/t", checkpoint_interval=2)
        meta.insert([record("a")])
        meta.delete(["a"])  # triggers checkpoint at v1 with empty state
        meta.insert([record("b")])
        assert [r.index_key for r in meta.records()] == ["b"]

    def test_other_instance_sees_checkpointed_state(self, store):
        writer = MetadataTable(store, "idx/t", checkpoint_interval=3)
        for i in range(6):
            writer.insert([record(f"i{i}")])
        reader = MetadataTable(store, "idx/t", checkpoint_interval=3)
        assert len(reader.records()) == 6


class _RaceStore(InMemoryObjectStore):
    """Runs a rival's commit right before the next metadata-log PUT —
    after the caller validated against the state, before its commit."""

    rival = None

    def put(self, key, data, *, if_none_match=False):
        if self.rival is not None and "/_meta/" in key:
            rival, self.rival = self.rival, None
            rival()
        return super().put(key, data, if_none_match=if_none_match)


class TestRacingWriters:
    """A commit that loses the race re-validates on the new state: it
    becomes a no-op or is refused before any PUT, and never poisons the
    log for every later reader."""

    def test_racing_vacuums_delete_once(self):
        store = _RaceStore()
        a = MetadataTable(store, "idx/t")
        b = MetadataTable(store, "idx/t")
        a.insert([record("k"), record("keep")])
        store.rival = lambda: a.delete(["k"])
        with pytest.raises(LakeError, match="unknown"):
            b.delete(["k"])
        assert store.rival is None  # the race really ran
        assert b.log.latest_version() == 1  # b's delete never landed
        assert [r.index_key for r in b.records()] == ["keep"]

    def test_racing_compactors_insert_once(self):
        store = _RaceStore()
        a = MetadataTable(store, "idx/t")
        b = MetadataTable(store, "idx/t")
        a.insert([record("small1"), record("small2")])
        # Both built the same content-addressed merged file.
        store.rival = lambda: a.insert([record("merged", created=2.0)])
        assert b.insert([record("merged", created=3.0)]) is None
        assert store.rival is None
        assert b.log.latest_version() == 1
        keys = [r.index_key for r in b.records()]
        assert keys == ["small1", "small2", "merged"]
        assert b.records()[-1].created_at == 2.0  # the winner's record
