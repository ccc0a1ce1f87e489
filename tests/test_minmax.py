"""Min-max zone maps + RangeQuery: the §II-B useful/useless contrast."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import RottnestClient
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.core.queries import RangeQuery
from repro.errors import RottnestIndexError, TCOError
from repro.formats.page_reader import PageEntry, PageTable
from repro.formats.schema import ColumnType, Field, Schema
from repro.indices.minmax import MinMaxBuilder, MinMaxQuerier
from repro.lake.table import LakeTable, TableConfig
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock


def store_minmax(builder, n_pages, **write_kwargs):
    table = PageTable(
        "f.parquet",
        "c",
        [
            PageEntry("f.parquet", i, 4 + i * 100, 100, 10, i * 10, 1, crc=0)
            for i in range(n_pages)
        ],
    )
    w = IndexFileWriter("minmax", "c", PageDirectory([table]))
    builder.write(w, **write_kwargs)
    store = InMemoryObjectStore()
    store.put("z.index", w.finish())
    return store, MinMaxQuerier(IndexFileReader.open(store, "z.index"))


class TestRangeQuery:
    def test_matches(self):
        q = RangeQuery(10, 20)
        assert q.matches(10) and q.matches(20) and q.matches(15)
        assert not q.matches(9) and not q.matches(21)

    def test_bytes_range(self):
        q = RangeQuery(b"\x10", b"\x20")
        assert q.matches(bytearray(b"\x15"))
        assert not q.matches(b"\x21")

    def test_empty_range_rejected(self):
        with pytest.raises(TCOError):
            RangeQuery(5, 4)

    def test_mixed_types_rejected(self):
        with pytest.raises(TCOError):
            RangeQuery(1, "two")

    def test_probe_is_tuple(self):
        assert RangeQuery(1, 2).index_probe() == (1, 2)


class TestMinMaxBuilder:
    def test_int_pruning_on_sorted_data(self):
        # Pages of 10 consecutive ints: a point probe hits one page.
        pages = [(g, list(range(g * 10, (g + 1) * 10))) for g in range(20)]
        builder = MinMaxBuilder.build(pages)
        _, q = store_minmax(builder, 20)
        assert q.candidate_pages(57) == [5]
        assert q.candidate_pages((25, 44)) == [2, 3, 4]
        assert q.candidate_pages(999) == []

    def test_random_binary_prunes_nothing(self):
        """§II-B: min-max is useless on high-cardinality random keys."""
        pages = [
            (g, [hashlib.sha256(f"{g}:{i}".encode()).digest()[:16]
                 for i in range(50)])
            for g in range(10)
        ]
        builder = MinMaxBuilder.build(pages)
        _, q = store_minmax(builder, 10)
        probe = hashlib.sha256(b"probe").digest()[:16]
        assert len(q.candidate_pages(probe)) >= 9  # ~no pruning

    def test_string_zone_map(self):
        pages = [(0, ["apple", "axe"]), (1, ["bat", "cat"]), (2, ["dog", "elk"])]
        builder = MinMaxBuilder.build(pages)
        _, q = store_minmax(builder, 3)
        assert q.candidate_pages("apricot") == [0]
        assert q.candidate_pages("bunny") == [1]
        assert q.candidate_pages("banana") == []  # falls between pages
        assert q.candidate_pages(("a", "c")) == [0, 1]

    def test_type_errors(self):
        with pytest.raises(RottnestIndexError):
            MinMaxBuilder.build([])
        with pytest.raises(RottnestIndexError):
            MinMaxBuilder.build([(0, [])])
        with pytest.raises(RottnestIndexError):
            MinMaxBuilder.build([(0, [1.5])])
        with pytest.raises(RottnestIndexError):
            MinMaxBuilder.build([(0, [1]), (1, ["s"])])

    def test_probe_type_checked(self):
        builder = MinMaxBuilder.build([(0, [1, 2, 3])])
        _, q = store_minmax(builder, 1)
        with pytest.raises(RottnestIndexError):
            q.candidate_pages("string")

    def test_load_roundtrip(self):
        pages = [(g, list(range(g * 5, g * 5 + 5))) for g in range(6)]
        builder = MinMaxBuilder.build(pages)
        _, q = store_minmax(builder, 6, component_target_bytes=32)
        loaded = MinMaxBuilder.load(q.reader)
        assert loaded.tag == builder.tag
        assert loaded.entries == builder.entries

    def test_merge_shifts(self):
        b1 = MinMaxBuilder.build([(0, [1, 2]), (1, [10, 11])])
        b2 = MinMaxBuilder.build([(0, [100, 120])])
        merged = MinMaxBuilder.merge_streaming([b1, b2], [0, 2])
        _, q = store_minmax(merged, 3)
        assert q.candidate_pages(110) == [2]
        assert q.candidate_pages(2) == [0]

    def test_merge_mixed_tags_rejected(self):
        b1 = MinMaxBuilder.build([(0, [1])])
        b2 = MinMaxBuilder.build([(0, ["s"])])
        with pytest.raises(RottnestIndexError):
            MinMaxBuilder.merge_streaming([b1, b2], [0, 1])

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=60),
        st.integers(-1000, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_false_negatives_property(self, values, probe):
        pages = [
            (g, values[g * 10 : (g + 1) * 10])
            for g in range(-(-len(values) // 10))
        ]
        builder = MinMaxBuilder.build(pages)
        _, q = store_minmax(builder, len(pages))
        hits = set(q.candidate_pages(probe))
        for g, page_values in pages:
            if probe in page_values:
                assert g in hits


class TestMinMaxThroughClient:
    @pytest.fixture
    def timeline(self):
        """A timestamped table, naturally sorted by ts."""
        store = InMemoryObjectStore(clock=SimClock())
        schema = Schema.of(
            Field("ts", ColumnType.INT64), Field("msg", ColumnType.STRING)
        )
        lake = LakeTable.create(
            store, "lake/tl", schema,
            TableConfig(row_group_rows=100, page_target_bytes=700),
        )
        for day in range(4):
            base = day * 1000
            lake.append(
                {
                    "ts": list(range(base, base + 500)),
                    "msg": [f"event at {base + i}" for i in range(500)],
                }
            )
        client = RottnestClient(store, "idx/tl", lake)
        client.index("ts", "minmax")
        return store, lake, client

    def test_range_query_end_to_end(self, timeline):
        _, _, client = timeline
        res = client.search("ts", RangeQuery(1100, 1120), k=100)
        assert sorted(m.value for m in res.matches) == list(range(1100, 1121))
        assert res.stats.files_brute_forced == 0

    def test_range_probes_few_pages(self, timeline):
        store, lake, client = timeline
        narrow = client.search("ts", RangeQuery(2000, 2004), k=100)
        wide = client.search("ts", RangeQuery(0, 3499), k=10_000)
        assert narrow.stats.pages_probed < wide.stats.pages_probed / 5
        assert len(wide.matches) == 2000

    def test_empty_range_result(self, timeline):
        _, _, client = timeline
        res = client.search("ts", RangeQuery(10_000, 10_100), k=10)
        assert res.matches == []

    def test_deleted_rows_respected(self, timeline):
        _, lake, client = timeline
        lake.delete_where("ts", lambda v: v == 1105)
        res = client.search("ts", RangeQuery(1100, 1110), k=100)
        assert 1105 not in [m.value for m in res.matches]
