"""Columnar format: schema, encodings, pages, writer, readers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import compression
from repro.formats.encoding import (
    comparable,
    decode_values,
    encode_values,
    pack_stat,
    unpack_stat,
    value_nbytes,
)
from repro.formats.pages import build_page, decode_page, split_into_pages
from repro.formats.parquet import parse_footer, write_parquet
from repro.formats.reader import ParquetFile, chunk_values
from repro.formats.schema import ColumnType, Field, Schema
from repro.storage.object_store import InMemoryObjectStore


class TestCompression:
    def test_zlib_roundtrip(self):
        data = b"hello " * 100
        packed = compression.compress(data, compression.ZLIB)
        assert len(packed) < len(data)
        assert compression.decompress(packed, compression.ZLIB) == data

    def test_none_passthrough(self):
        assert compression.compress(b"x", compression.NONE) == b"x"

    def test_codec_names(self):
        assert compression.codec_id("zlib") == compression.ZLIB

    def test_unknown_codec(self):
        with pytest.raises(FormatError):
            compression.codec_id("snappy")
        with pytest.raises(FormatError):
            compression.decompress(b"x", 99)

    def test_corrupt_zlib(self):
        with pytest.raises(FormatError):
            compression.decompress(b"not zlib", compression.ZLIB)


class TestSchema:
    def test_vector_requires_dim(self):
        with pytest.raises(FormatError):
            Field("v", ColumnType.VECTOR)

    def test_non_vector_rejects_dim(self):
        with pytest.raises(FormatError):
            Field("x", ColumnType.INT64, vector_dim=4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(FormatError):
            Schema.of(Field("a", ColumnType.INT64), Field("a", ColumnType.STRING))

    def test_field_lookup(self):
        s = Schema.of(Field("a", ColumnType.INT64), Field("b", ColumnType.STRING))
        assert s.field("b").type is ColumnType.STRING
        with pytest.raises(FormatError):
            s.field("c")

    def test_serialize_roundtrip(self):
        from repro.util.binio import BinaryReader, BinaryWriter

        s = Schema.of(
            Field("a", ColumnType.INT64),
            Field("v", ColumnType.VECTOR, vector_dim=12),
        )
        w = BinaryWriter()
        s.serialize(w)
        assert Schema.deserialize(BinaryReader(w.getvalue())) == s


class TestEncoding:
    @pytest.mark.parametrize(
        "field,values",
        [
            (Field("i", ColumnType.INT64), [0, -5, 2**40, -(2**40)]),
            (Field("f", ColumnType.FLOAT64), [0.0, -1.5, 3.14159]),
            (Field("s", ColumnType.STRING), ["", "hello", "δοκιμή"]),
            (Field("b", ColumnType.BINARY), [b"", b"\x00\xff", b"abc"]),
        ],
    )
    def test_roundtrip(self, field, values):
        data = encode_values(field, values)
        assert decode_values(field, data, len(values)) == values

    def test_vector_roundtrip(self):
        f = Field("v", ColumnType.VECTOR, vector_dim=4)
        values = np.arange(12, dtype=np.float32).reshape(3, 4)
        data = encode_values(f, values)
        out = decode_values(f, data, 3)
        assert np.array_equal(out, values)

    def test_vector_wrong_dim_rejected(self):
        f = Field("v", ColumnType.VECTOR, vector_dim=4)
        with pytest.raises(FormatError):
            encode_values(f, np.zeros((2, 5), dtype=np.float32))

    def test_short_page_rejected(self):
        f = Field("i", ColumnType.INT64)
        with pytest.raises(FormatError):
            decode_values(f, b"\x00" * 7, 1)

    def test_non_utf8_string_is_a_format_error(self):
        with pytest.raises(FormatError, match="UTF-8"):
            decode_values(Field("s", ColumnType.STRING), b"\x02\xff\xfe", 1)

    @pytest.mark.parametrize(
        "field,values",
        [
            (Field("i", ColumnType.INT64), [1, 2]),
            (Field("f", ColumnType.FLOAT64), [1.5, 2.5]),
            (Field("s", ColumnType.STRING), ["ab", "cd"]),
            (Field("b", ColumnType.BINARY), [b"ab", b"cd"]),
            (
                Field("v", ColumnType.VECTOR, vector_dim=2),
                np.ones((2, 2), dtype=np.float32),
            ),
        ],
    )
    def test_page_decodes_exactly_its_bytes(self, field, values):
        """A raw page has no checksum: fewer values than its bytes hold,
        or a trailing byte, is a ``FormatError`` on every type."""
        data = encode_values(field, values)
        with pytest.raises(FormatError):
            decode_values(field, data, 1)
        with pytest.raises(FormatError):
            decode_values(field, data + b"\x00", 2)
        with pytest.raises(FormatError):
            decode_values(field, data, 3)

    def test_value_nbytes_matches_encoding(self):
        f = Field("s", ColumnType.STRING)
        for v in ["", "x", "hello world", "y" * 300]:
            assert value_nbytes(f, v) == len(encode_values(f, [v]))

    def test_stats_roundtrip(self):
        for f, v in [
            (Field("i", ColumnType.INT64), -42),
            (Field("f", ColumnType.FLOAT64), 2.5),
            (Field("s", ColumnType.STRING), "zed"),
            (Field("b", ColumnType.BINARY), b"\x01\x02"),
        ]:
            assert unpack_stat(f, pack_stat(f, v)) == v

    def test_vector_has_no_stats(self):
        f = Field("v", ColumnType.VECTOR, vector_dim=2)
        assert not comparable(f)
        with pytest.raises(FormatError):
            pack_stat(f, np.zeros(2))

    @given(st.lists(st.text(max_size=40), min_size=1, max_size=50))
    def test_string_roundtrip_property(self, values):
        f = Field("s", ColumnType.STRING)
        data = encode_values(f, values)
        assert decode_values(f, data, len(values)) == values

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(st.binary(max_size=3), st.binary(min_size=128, max_size=200)),
            max_size=5,
        ),
        st.sampled_from([ColumnType.BINARY, ColumnType.STRING]),
    )
    def test_length_prefixed_roundtrip_and_truncation_property(self, raw, type_):
        """Empty values, values whose length takes a two-byte varint and
        ``count=0`` round-trip; every proper prefix of the page is a
        ``FormatError`` that names the offset it stopped at."""
        f = Field("c", type_)
        values = raw if type_ is ColumnType.BINARY else [v.hex() for v in raw]
        data = encode_values(f, values)
        assert decode_values(f, data, len(values)) == values
        assert decode_values(f, b"", 0) == []
        for cut in range(len(data)):
            with pytest.raises(FormatError, match="offset"):
                decode_values(f, data[:cut], len(values))

    def test_overlong_length_prefix_rejected(self):
        f = Field("b", ColumnType.BINARY)
        with pytest.raises(FormatError, match="wanted 5 bytes at offset 1"):
            decode_values(f, b"\x05abc", 1)
        with pytest.raises(FormatError, match="offset 2.*too long"):
            decode_values(f, b"\x01a" + b"\xff" * 11, 2)


class TestPages:
    def test_split_respects_target(self):
        f = Field("s", ColumnType.STRING)
        values = ["x" * 100] * 10
        pages = split_into_pages(f, values, target_bytes=250)
        assert all(len(p) <= 3 for p in pages)
        assert sum(len(p) for p in pages) == 10

    def test_oversized_value_gets_own_page(self):
        f = Field("s", ColumnType.STRING)
        pages = split_into_pages(f, ["small", "B" * 10_000, "small"], 100)
        assert [len(p) for p in pages] == [1, 1, 1]

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            split_into_pages(Field("i", ColumnType.INT64), [1], 0)

    def test_page_roundtrip(self):
        f = Field("s", ColumnType.STRING)
        values = ["alpha", "beta", "gamma"]
        built = build_page(f, values, compression.ZLIB)
        assert decode_page(f, built.data, compression.ZLIB, 3) == values
        assert built.num_values == 3


@pytest.fixture
def text_file():
    schema = Schema.of(
        Field("id", ColumnType.INT64), Field("text", ColumnType.STRING)
    )
    columns = {
        "id": list(range(1000)),
        "text": [f"document number {i} body" for i in range(1000)],
    }
    result = write_parquet(
        schema, columns, row_group_rows=300, page_target_bytes=1500
    )
    store = InMemoryObjectStore()
    store.put("f.parquet", result.data)
    return store, result, schema, columns


class TestWriter:
    def test_rejects_empty(self):
        schema = Schema.of(Field("i", ColumnType.INT64))
        with pytest.raises(FormatError):
            write_parquet(schema, {"i": []})

    def test_rejects_ragged(self):
        schema = Schema.of(
            Field("a", ColumnType.INT64), Field("b", ColumnType.INT64)
        )
        with pytest.raises(FormatError):
            write_parquet(schema, {"a": [1], "b": [1, 2]})

    def test_rejects_wrong_columns(self):
        schema = Schema.of(Field("a", ColumnType.INT64))
        with pytest.raises(FormatError):
            write_parquet(schema, {"b": [1]})

    def test_rejects_bad_row_group(self):
        schema = Schema.of(Field("a", ColumnType.INT64))
        with pytest.raises(FormatError):
            write_parquet(schema, {"a": [1]}, row_group_rows=0)

    def test_row_groups_and_pages(self, text_file):
        _, result, _, _ = text_file
        meta = result.metadata
        assert len(meta.row_groups) == 4  # 1000 rows / 300
        assert meta.num_rows == 1000
        chunk = meta.row_groups[0].chunk("text")
        assert len(chunk.pages) > 1  # page target splits the chunk
        # Page row ranges tile the chunk exactly.
        cursor = 0
        for page in chunk.pages:
            assert page.first_row == cursor
            cursor += page.num_values
        assert cursor == 300

    def test_footer_roundtrip(self, text_file):
        _, result, _, _ = text_file
        from repro.formats.parquet import _serialize_footer

        footer = _serialize_footer(result.metadata)
        assert parse_footer(footer) == result.metadata

    def test_chunk_stats(self, text_file):
        _, result, _, _ = text_file
        stats = result.metadata.chunk_stats("id")
        assert stats[0] == (0, 299)
        assert stats[3] == (900, 999)


def _read_column(pf: ParquetFile, column: str) -> list:
    """Every value of ``column``, chunk by chunk."""
    return [
        value
        for rg_index in range(len(pf.metadata.row_groups))
        for value in chunk_values(pf.read_column_chunk(rg_index, column))
    ]


class TestTraditionalReader:
    def test_open_and_scan(self, text_file):
        store, _, _, columns = text_file
        pf = ParquetFile(store, "f.parquet")
        assert pf.num_rows == 1000
        assert _read_column(pf, "text") == columns["text"]

    def test_scan_yields_row_indices(self, text_file):
        """Row groups tile the file's rows: a chunk's i-th value is row
        ``first_row + i``, the numbering every scan reports."""
        store, _, _, _ = text_file
        pf = ParquetFile(store, "f.parquet")
        rows = [
            row
            for rg in pf.metadata.row_groups
            for row in range(rg.first_row, rg.first_row + rg.num_rows)
        ]
        assert rows == list(range(1000))

    def test_chunk_granularity_io(self, text_file):
        """The traditional reader's defining cost: any row of a chunk
        costs the whole chunk (paper §II-B 'read granularity')."""
        store, result, _, _ = text_file
        pf = ParquetFile(store, "f.parquet")
        chunk_size = result.metadata.row_groups[0].chunk("text").total_compressed_size
        before = store.stats.bytes_read
        pf.read_column_chunk(0, "text")
        assert store.stats.bytes_read - before == chunk_size

    def test_bad_magic_rejected(self):
        store = InMemoryObjectStore()
        store.put("bad", b"Z" * 100)
        with pytest.raises(FormatError):
            ParquetFile(store, "bad")

    def test_int_column_roundtrip(self, text_file):
        store, _, _, columns = text_file
        pf = ParquetFile(store, "f.parquet")
        assert chunk_values(pf.read_column_chunk(1, "id")) == columns["id"][300:600]

    def test_vector_file_roundtrip(self):
        schema = Schema.of(Field("v", ColumnType.VECTOR, vector_dim=8))
        vecs = np.arange(80, dtype=np.float32).reshape(10, 8)
        result = write_parquet(schema, {"v": vecs}, row_group_rows=4)
        store = InMemoryObjectStore()
        store.put("v.parquet", result.data)
        pf = ParquetFile(store, "v.parquet")
        assert np.array_equal(chunk_values(pf.read_column_chunk(0, "v")), vecs[:4])
        assert np.array_equal(chunk_values(pf.read_column_chunk(2, "v")), vecs[8:])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 400),
    rg=st.integers(1, 120),
    page_bytes=st.integers(64, 4096),
)
def test_writer_reader_roundtrip_property(n, rg, page_bytes):
    """Any geometry round-trips exactly through write + scan."""
    schema = Schema.of(Field("t", ColumnType.STRING))
    values = [f"row-{i}-" + "p" * (i % 37) for i in range(n)]
    result = write_parquet(
        schema, {"t": values}, row_group_rows=rg, page_target_bytes=page_bytes
    )
    store = InMemoryObjectStore()
    store.put("f", result.data)
    pf = ParquetFile(store, "f")
    assert _read_column(pf, "t") == values
