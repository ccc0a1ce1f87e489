"""Deflate only where it pays: one rule for column chunks and index
components, queries that inflate nothing they do not have to, and data
files written before the rule (zlib everywhere) read unchanged."""

import hashlib
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RottnestClient
from repro.core.componentize import ComponentFileReader, ComponentFileWriter
from repro.core.fsck import fsck
from repro.core.index_file import IndexFileReader
from repro.core.queries import VectorQuery
from repro.errors import FormatError
from repro.formats import ColumnType, Field, ParquetFile, Schema
from repro.formats.reader import chunk_values
from repro.formats import compression
from repro.formats.encoding import decode_values
from repro.formats.page_reader import fetch_pages, inflate
from repro.formats.parquet import write_parquet
from repro.indices.fm import fm_index
from repro.lake import LakeTable, TableConfig
from repro.lake.actions import AddFile
from repro.storage import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.serve import SearchServer
from repro.workloads import TextWorkload, UuidWorkload, VectorWorkload
from tests.test_fm_subblocks import unpack
from tests.test_page_crc import rewritten, serving_only
from tests.test_page_reader import checked_table

DATA = Path(__file__).parent / "data"


class TestRule:
    @pytest.mark.parametrize(
        "raw,stored,pays",
        [(100, 90, True), (100, 91, False), (10, 9, True), (0, 8, False), (5, 5, False)],
    )
    def test_deflate_pays_at_a_tenth(self, raw, stored, pays):
        assert compression.deflate_pays(raw, stored) is pays

    def test_component_writer_stores_what_does_not_pay_raw(self):
        noise = np.random.default_rng(0).bytes(4096)
        writer = ComponentFileWriter()
        writer.add(b"abc" * 1000)
        writer.add(noise)
        writer.add(b"")
        store = InMemoryObjectStore()
        store.put("c", writer.finish({}))
        reader = ComponentFileReader.open(store, "c")
        codecs = [reader._entry(cid)[3] for cid in range(len(reader))]
        assert codecs == [compression.ZLIB, compression.NONE, compression.NONE]
        assert reader.read_all() == [b"abc" * 1000, noise, b""]


# -- the writer rule, per chunk, over every value type -------------------
VECTOR_DIM = 4


def _values(type_, data, n, repetitive):
    if type_ is ColumnType.VECTOR:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        row = rng.random((1, VECTOR_DIM), dtype=np.float32)
        if repetitive:
            return np.repeat(row, n, axis=0)
        return rng.random((n, VECTOR_DIM), dtype=np.float32)
    element = {
        ColumnType.INT64: st.integers(-(2**63), 2**63 - 1),
        ColumnType.STRING: st.text(max_size=30),
        ColumnType.BINARY: st.binary(max_size=30),
    }[type_]
    if repetitive:
        return [data.draw(element)] * n
    return data.draw(st.lists(element, min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(
    type_=st.sampled_from(
        [ColumnType.STRING, ColumnType.BINARY, ColumnType.VECTOR, ColumnType.INT64]
    ),
    n=st.integers(1, 120),
    repetitive=st.booleans(),
    rg=st.integers(1, 80),
    page_bytes=st.integers(16, 2048),
    data=st.data(),
)
def test_chunk_codec_is_none_exactly_when_deflate_does_not_pay(
    type_, n, repetitive, rg, page_bytes, data
):
    values = _values(type_, data, n, repetitive)
    if type_ is ColumnType.VECTOR:
        field = Field("c", type_, VECTOR_DIM)
    else:
        field = Field("c", type_)
    schema = Schema.of(field)
    result = write_parquet(
        schema, {"c": values}, row_group_rows=rg, page_target_bytes=page_bytes
    )
    for group in result.metadata.row_groups:
        chunk = group.chunk("c")
        stored = [
            result.data[p.offset : p.offset + p.compressed_size] for p in chunk.pages
        ]
        if chunk.codec == compression.NONE:
            raw = stored
            deflated = [zlib.compress(page, 6) for page in raw]
        else:
            assert chunk.codec == compression.ZLIB
            raw = [zlib.decompress(page) for page in stored]
            deflated = stored
        assert [len(page) for page in raw] == [
            p.uncompressed_size for p in chunk.pages
        ]
        pays = compression.deflate_pays(
            sum(map(len, raw)), sum(map(len, deflated))
        )
        assert (chunk.codec == compression.ZLIB) is pays

    store = InMemoryObjectStore()
    store.put("f", result.data)
    pf = ParquetFile(store, "f")
    scanned = [
        v
        for i in range(len(pf.metadata.row_groups))
        for v in chunk_values(pf.read_column_chunk(i, "c"))
    ]
    table = checked_table(store, result.metadata, "f", "c")
    fetched = [
        v
        for entry, raw in zip(table.entries, fetch_pages(store, table.entries))
        for v in decode_values(field, inflate(entry, raw), entry.num_values)
    ]
    if type_ is ColumnType.VECTOR:
        assert np.array_equal(np.asarray(scanned), values)
        assert np.array_equal(np.asarray(fetched), values)
    else:
        assert scanned == fetched == values


def test_both_codecs_occur_on_the_benchmark_columns():
    """Text deflates; hashes and float vectors do not."""
    gen = TextWorkload(seed=1, vocabulary_size=300)
    schema = Schema.of(
        Field("text", ColumnType.STRING),
        Field("uuid", ColumnType.BINARY),
        Field("emb", ColumnType.VECTOR, 16),
    )
    result = write_parquet(
        schema,
        {
            "text": gen.documents(300, avg_chars=120),
            "uuid": UuidWorkload(seed=1, nbytes=32).batch(300),
            "emb": VectorWorkload(dim=16, n_clusters=8, seed=1).batch(300),
        },
        page_target_bytes=8192,
    )
    codecs = {c.column: c.codec for c in result.metadata.row_groups[0].chunks}
    assert codecs == {
        "text": compression.ZLIB,
        "uuid": compression.NONE,
        "emb": compression.NONE,
    }


# -- a cold vector query inflates no emb page and no codebook -------------
def _fresh_lake():
    store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    schema = Schema.of(
        Field("text", ColumnType.STRING),
        Field("uuid", ColumnType.BINARY),
        Field("emb", ColumnType.VECTOR, 32),
    )
    lake = LakeTable.create(
        store, "lake/t", schema,
        TableConfig(row_group_rows=2000, page_target_bytes=64 * 1024),
    )
    client = RottnestClient(store, "idx/t", lake)
    text = TextWorkload(seed=3, vocabulary_size=500)
    uuids = UuidWorkload(seed=3, nbytes=32)
    vectors = VectorWorkload(dim=32, n_clusters=8, seed=3)
    for _ in range(2):
        lake.append(
            {
                "text": text.documents(600, avg_chars=100),
                "uuid": uuids.batch(600),
                "emb": vectors.batch(600),
            }
        )
    client.index("emb", "ivf_pq", params={"nlist": 4, "m": 8})
    client.index("text", "fm", params={"block_size": 4096, "sample_rate": 16})
    return store, lake, client


def _stored_component(store, reader: IndexFileReader, name: str) -> bytes:
    offset, size, _, _ = reader._reader._entry(reader._names[name])
    return store.get(reader._reader.key, (offset, size))


def test_cold_vector_query_raw_path_inflates_no_emb_page_nor_codebook(monkeypatch):
    store, lake, client = _fresh_lake()
    inflated: list[bytes] = []
    real = zlib.decompress

    def counting(data, *args):
        inflated.append(bytes(data))
        return real(data, *args)

    monkeypatch.setattr(zlib, "decompress", counting)
    query = VectorQuery(np.ones(32, dtype=np.float32), nprobe=4, refine=1200)
    result = client.search("emb", query, k=5)
    monkeypatch.undo()
    oracle = client.search("emb", query, k=5, use_indices=False)
    assert result.stats.index_files_queried == 1
    assert [m.score for m in result.matches] == pytest.approx(
        [m.score for m in oracle.matches]
    )

    emb_pages = set()
    for path in lake.snapshot().file_paths:
        for group in ParquetFile(store, path).metadata.row_groups:
            chunk = group.chunk("emb")
            assert chunk.codec == compression.NONE
            emb_pages |= {store.get(path, (p.offset, p.compressed_size))
                          for p in chunk.pages}
    (ivf,) = [r for r in client.meta.records() if r.index_type == "ivf_pq"]
    reader = IndexFileReader.open(store, ivf.index_key)
    codebooks = {_stored_component(store, reader, n) for n in ("pq", "centroids")}
    assert inflated, "the inverted lists still deflate"
    assert not emb_pages & set(inflated)
    assert not codebooks & set(inflated)

    # An FM block is stored raw and deflates each of its streams (the
    # checkpoint table and every rank sub-block) on its own.
    (fm,) = [r for r in client.meta.records() if r.index_type == "fm"]
    fm_reader = IndexFileReader.open(store, fm.index_key)
    blk0 = fm_reader._reader._entry(fm_reader._names["blk0"])
    assert blk0[3] == compression.NONE
    streams = unpack(fm_reader.component("blk0"))
    assert len(streams) == 1 + 4096 // fm_index.RANK_STRIDE  # table, sub-blocks
    for stream in streams:
        zlib.decompress(stream)


# -- files written before the rule: zlib emb chunks -----------------------
#: Written by the writer before :func:`compression.deflate_pays` existed
#: (it deflated everything deflate shrank at all): one data file of 260
#: 8-d vectors under ``LEGACY_DATA_KEY``. Its index is built fresh and
#: its header edited to format 1, the format every index of that time
#: had: such a file is never read, the data file always is.
LEGACY_DATA_KEY = "lake/v/data/part-legacy.parquet"


def legacy_vectors() -> np.ndarray:
    """The fixture's vectors: uniform floats from a sha256 stream."""
    stream = b"".join(
        hashlib.sha256(f"emb-{i}".encode()).digest() for i in range(260)
    )
    words = np.frombuffer(stream, dtype="<u4")
    return (words / 2**32 - 0.5).astype(np.float32).reshape(260, 8)


class TestLegacyZlibFixture:
    @pytest.fixture
    def lake(self):
        store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
        schema = Schema.of(Field("emb", ColumnType.VECTOR, 8))
        lake = LakeTable.create(
            store, "lake/v", schema,
            TableConfig(row_group_rows=128, page_target_bytes=2048),
        )
        data = (DATA / "ivfpq_legacy_zlib.parquet").read_bytes()
        store.put(LEGACY_DATA_KEY, data)
        lake.log.commit([AddFile(path=LEGACY_DATA_KEY, num_rows=260, size=len(data))])
        fresh = RottnestClient(store, "idx/fresh", lake)
        record = fresh.index("emb", "ivf_pq", params={"nlist": 4, "m": 4})
        index = rewritten(store.get(record.index_key), lambda header, _: header.update(format=1))
        return store, serving_only(fresh, record, index)

    @staticmethod
    def query(i: int) -> VectorQuery:
        return VectorQuery(legacy_vectors()[i] + 0.01, nprobe=4, refine=260)

    def test_legacy_zlib_files_are_what_the_old_writer_wrote(self, lake):
        """Zlib on every chunk of the data file; format 1 on its index,
        as on every index file of that time."""
        store, client = lake
        meta = ParquetFile(store, LEGACY_DATA_KEY).metadata
        assert {c.codec for rg in meta.row_groups for c in rg.chunks} == {
            compression.ZLIB
        }
        (record,) = client.meta.records()
        assert ComponentFileReader.open(store, record.index_key).header["format"] == 1

    def test_legacy_zlib_data_reads_through_both_readers(self, lake):
        store, _ = lake
        field = Field("emb", ColumnType.VECTOR, 8)
        pf = ParquetFile(store, LEGACY_DATA_KEY)
        scanned = np.concatenate(
            [
                chunk_values(pf.read_column_chunk(i, "emb"))
                for i in range(len(pf.metadata.row_groups))
            ]
        )
        table = checked_table(store, pf.metadata, LEGACY_DATA_KEY, "emb")
        fetched = np.concatenate(
            [
                decode_values(field, inflate(entry, raw), entry.num_values)
                for entry, raw in zip(table.entries, fetch_pages(store, table.entries))
            ]
        )
        assert np.array_equal(scanned, legacy_vectors())
        assert np.array_equal(fetched, legacy_vectors())

    def test_client_search_over_a_format_1_index_is_a_format_error(self, lake):
        _, client = lake
        with pytest.raises(FormatError, match="format 1"):
            client.search("emb", self.query(0), k=5)

    def test_legacy_zlib_lake_answers_like_the_oracle(self, lake):
        """A server answers by scan around the format-1 index: the
        brute-force answer, flagged degraded."""
        store, client = lake
        vectors = legacy_vectors()
        with SearchServer.for_lake(store, client.index_dir, client.lake.root) as server:
            for i in (0, 77, 259):
                query = self.query(i)
                served = server.query("emb", query, k=5)
                assert served.degraded
                distances = ((vectors - query.vector) ** 2).sum(axis=1)
                expected = np.argsort(distances, kind="stable")[:5]
                assert [m.row for m in served.matches] == expected.tolist()
                assert [m.score for m in served.matches] == pytest.approx(
                    distances[expected].tolist(), rel=1e-5
                )

    def test_fsck_lists_the_format_1_index_as_corrupt(self, lake):
        _, client = lake
        report = fsck(client)
        assert report.corrupt_index_files == [client.meta.records()[0].index_key]
