"""Rottnest's page-granular reader and page tables (§V-A)."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats.encoding import decode_values
from repro.formats.page_reader import PageTable, build_page_table, fetch_pages, inflate
from repro.formats.parquet import write_parquet
from repro.formats.reader import ParquetFile, chunk_values
from repro.formats.schema import ColumnType, Field, Schema
from repro.storage.object_store import InMemoryObjectStore
from repro.util.binio import BinaryReader, BinaryWriter


def checked_table(store, metadata, key: str, column: str) -> PageTable:
    """The page table an index build records for ``column`` of ``key``:
    each entry with the CRC32 of its page's stored bytes, which
    :func:`fetch_pages` checks (a footer alone has no CRCs)."""
    pages = build_page_table(metadata, key, column).entries
    crcs = [zlib.crc32(store.get(key, (e.offset, e.compressed_size))) for e in pages]
    return build_page_table(metadata, key, column, crcs)


@pytest.fixture
def stored_file():
    schema = Schema.of(
        Field("id", ColumnType.INT64), Field("text", ColumnType.STRING)
    )
    columns = {
        "id": list(range(500)),
        "text": [f"value {i} padding padding" for i in range(500)],
    }
    result = write_parquet(
        schema, columns, row_group_rows=150, page_target_bytes=800
    )
    store = InMemoryObjectStore()
    store.put("d.parquet", result.data)
    return store, result, schema, columns


class TestPageTable:
    def test_build_covers_all_rows(self, stored_file):
        _, result, _, _ = stored_file
        table = build_page_table(result.metadata, "d.parquet", "text")
        assert table.num_rows == 500
        assert len(table) > 4
        # Entries tile the file row range.
        cursor = 0
        for e in table.entries:
            assert e.row_start == cursor
            cursor += e.num_values
        assert cursor == 500

    def test_entry_out_of_range(self, stored_file):
        _, result, _, _ = stored_file
        table = build_page_table(result.metadata, "d.parquet", "text")
        with pytest.raises(FormatError):
            table.entry(len(table))

    def test_missing_column(self, stored_file):
        _, result, _, _ = stored_file
        with pytest.raises(FormatError):
            build_page_table(result.metadata, "d.parquet", "nope")

    def test_serialize_roundtrip(self, stored_file):
        store, result, _, _ = stored_file
        table = checked_table(store, result.metadata, "d.parquet", "text")
        w = BinaryWriter()
        table.serialize(w)
        back = PageTable.deserialize(BinaryReader(w.getvalue()))
        assert back.file_key == table.file_key
        assert back.column == table.column
        assert back.entries == table.entries
        assert [e.crc for e in back.entries] == [e.crc for e in table.entries]


class TestPageReads:
    def test_read_page_values(self, stored_file):
        store, result, schema, columns = stored_file
        table = checked_table(store, result.metadata, "d.parquet", "text")
        entry = table.entry(2)
        (raw,) = fetch_pages(store, [entry])
        values = decode_values(schema.field("text"), inflate(entry, raw), entry.num_values)
        start = entry.row_start
        assert values == columns["text"][start : start + entry.num_values]

    def test_read_page_bypasses_footer(self, stored_file):
        """One byte-range GET of exactly the page, nothing else."""
        store, result, _, _ = stored_file
        table = checked_table(store, result.metadata, "d.parquet", "text")
        entry = table.entry(1)
        before = store.stats.snapshot()
        fetch_pages(store, [entry])
        delta = store.stats.delta(before)
        assert delta.gets == 1
        assert delta.heads == 0
        assert delta.bytes_read == entry.compressed_size

    def test_page_read_much_smaller_than_chunk(self, stored_file):
        """The §V-A claim: page IO << chunk IO for point lookups."""
        store, result, schema, _ = stored_file
        table = build_page_table(result.metadata, "d.parquet", "text")
        chunk_size = result.metadata.row_groups[0].chunk("text").total_compressed_size
        assert table.entry(0).compressed_size < chunk_size

    def test_page_values_match_chunk_values(self, stored_file):
        store, result, schema, _ = stored_file
        table = checked_table(store, result.metadata, "d.parquet", "text")
        assert _page_values(store, schema.field("text"), table) == _chunk_values(
            ParquetFile(store, "d.parquet"), "text"
        )

    def test_fetch_pages_of_nothing_reads_nothing(self, stored_file):
        store, _, _, _ = stored_file
        before = store.stats.snapshot()
        assert fetch_pages(store, []) == []
        assert store.stats.delta(before).gets == 0

    def test_adjacent_pages_read_in_one_get(self, stored_file):
        store, result, _, _ = stored_file
        table = checked_table(store, result.metadata, "d.parquet", "text")
        before = store.stats.snapshot()
        fetch_pages(store, [table.entry(0), table.entry(1)])
        assert store.stats.delta(before).gets == 1

    def test_vector_pages(self):
        schema = Schema.of(Field("v", ColumnType.VECTOR, vector_dim=4))
        vecs = np.arange(400, dtype=np.float32).reshape(100, 4)
        result = write_parquet(
            schema, {"v": vecs}, row_group_rows=40, page_target_bytes=200
        )
        store = InMemoryObjectStore()
        store.put("v.parquet", result.data)
        table = checked_table(store, result.metadata, "v.parquet", "v")
        got = _page_values(store, schema.field("v"), table)
        assert np.array_equal(np.stack(got), vecs)


def _page_values(store, field, table) -> list:
    """Every value of ``table``'s column, page by page."""
    pages = fetch_pages(store, table.entries)
    return [
        value
        for entry, raw in zip(table.entries, pages)
        for value in decode_values(field, inflate(entry, raw), entry.num_values)
    ]


def _chunk_values(pf: ParquetFile, column: str) -> list:
    """Every value of ``column``, chunk by chunk (the traditional reader)."""
    return [
        value
        for rg_index in range(len(pf.metadata.row_groups))
        for value in chunk_values(pf.read_column_chunk(rg_index, column))
    ]


@settings(max_examples=20, deadline=None)
@given(
    pages=st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
    page_bytes=st.integers(100, 3000),
)
def test_page_reads_equal_chunk_reads_property(pages, page_bytes):
    """Both readers agree on arbitrary page subsets and page geometry."""
    schema = Schema.of(Field("t", ColumnType.STRING))
    values = [f"item {i} " + "z" * (i % 23) for i in range(500)]
    result = write_parquet(
        schema, {"t": values}, row_group_rows=170, page_target_bytes=page_bytes
    )
    store = InMemoryObjectStore()
    store.put("f", result.data)
    table = checked_table(store, result.metadata, "f", "t")
    assert _page_values(store, schema.field("t"), table) == _chunk_values(
        ParquetFile(store, "f"), "t"
    )
    entries = [table.entry(p % len(table)) for p in pages]
    field = schema.field("t")
    for entry, raw in zip(entries, fetch_pages(store, entries)):
        start = entry.row_start
        assert decode_values(field, inflate(entry, raw), entry.num_values) == values[
            start : start + entry.num_values
        ]
