"""Checked pages, inflated only as far as K.

The index build records the CRC32 of each data page's stored bytes in
its page entry. ``fetch_pages`` checks every claimed page against it and
hands it on still stored; the exact loop inflates a page only when it
gets to it before K. These tests pin where the CRCs come from, what the
read path does with them, and that an index file without them (or of
any other retired layout) is a ``FormatError``.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import zlib
from unittest import mock

import numpy as np
import pytest

from repro.core import search
from repro.core.client import RottnestClient
from repro.core.fsck import fsck
from repro.core.componentize import ComponentFileReader, ComponentFileWriter
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.core.maintenance import compact_indices, refine_index
from repro.core.queries import SubstringQuery, UuidQuery, VectorQuery
from repro.errors import FormatError
from repro.formats import compression
from repro.formats.page_reader import PageEntry, PageTable, build_page_table
from repro.formats.parquet import write_parquet
from repro.formats.reader import ParquetFile
from repro.lake.table import LakeTable, TableConfig
from repro.storage.object_store import InMemoryObjectStore
from repro.util.binio import BinaryReader, BinaryWriter
from repro.util.clock import SimClock

from tests.conftest import EVENT_SCHEMA, event_batch, event_uuid

#: column -> (index type, build params) of the event lake.
SPECS = {
    "uuid": ("uuid_trie", {}),
    "text": ("fm", {"block_size": 4096, "sample_rate": 16}),
    "emb": ("ivf_pq", {"nlist": 4, "m": 8}),
}


def stored(store, entry: PageEntry) -> bytes:
    return store.get(entry.file_key, (entry.offset, entry.compressed_size))


def entries_of(client, records=None) -> list[PageEntry]:
    out = []
    for record in records or client.meta.records():
        reader = IndexFileReader.open(client.store, record.index_key, size=record.size)
        out.extend(e for table in reader.directory.tables for e in table.entries)
    return out


def assert_checked(client, records=None) -> None:
    """Every page entry of ``records`` (default: all live) records the
    CRC32 of the bytes stored at its range."""
    entries = entries_of(client, records)
    assert entries
    for entry in entries:
        assert entry.crc == zlib.crc32(stored(client.store, entry)), entry


def per_file_lake(files: int, rows: int):
    """A lake of ``files`` appends, each indexed on its own for every
    column."""
    store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    config = TableConfig(row_group_rows=64, page_target_bytes=2048)
    lake = LakeTable.create(store, "lake/events", EVENT_SCHEMA, config)
    client = RottnestClient(store, "idx/events", lake)
    for i in range(files):
        lake.append(event_batch(rows, seed=i + 1))
        store.clock.advance(1.0)
        for column, (index_type, params) in SPECS.items():
            client.index(column, index_type, params=params)
    return store, lake, client


# -- the format ------------------------------------------------------------
class TestFormat:
    def test_entries_round_trip_with_their_crcs(self):
        entries = [
            PageEntry("f", 0, 4, 100, 10, 0, compression.ZLIB, crc=0),
            PageEntry("f", 1, 104, 50, 10, 10, compression.NONE, crc=0xFFFFFFFF),
            PageEntry("f", 2, 154, 70, 10, 20, compression.ZLIB, crc=7),
        ]
        writer = BinaryWriter()
        PageTable("f", "c", entries).serialize(writer)
        back = PageTable.deserialize(BinaryReader(writer.getvalue())).entries
        assert back == entries
        assert [e.crc for e in back] == [0, 0xFFFFFFFF, 7]

    def test_entries_are_equal_by_placement(self):
        """What fsck compares against a footer's page table, which has
        no CRCs."""
        entry = PageEntry("f", 0, 4, 100, 10, 0, compression.ZLIB)
        assert PageEntry("f", 0, 4, 100, 10, 0, compression.ZLIB, crc=9) == entry
        assert PageEntry("f", 0, 4, 101, 10, 0, compression.ZLIB, crc=9) != entry

    def test_a_directory_with_a_crc_is_written_as_format_2(self):
        """A reader from before the CRC would misread an entry that
        carries one; it checks the header's format, so the file says 2."""
        entries = [
            PageEntry("f", 0, 4, 100, 10, 0, compression.ZLIB, crc=3),
            PageEntry("f", 1, 104, 50, 10, 10, compression.NONE, crc=7),
        ]
        store = InMemoryObjectStore()
        directory = PageDirectory([PageTable("f", "c", entries)])
        store.put("a", IndexFileWriter("uuid_trie", "c", directory).finish())
        assert ComponentFileReader.open(store, "a").header["format"] == 2
        assert IndexFileReader.open(store, "a").directory.tables[0].entries == entries

    def test_a_format_this_reader_does_not_know_is_rejected(self):
        store = InMemoryObjectStore()
        store.put("i", ComponentFileWriter().finish({"format": 3}))
        with pytest.raises(FormatError, match="unsupported index format 3"):
            IndexFileReader.open(store, "i")


# -- where the CRCs come from ------------------------------------------------
class TestRecorded:
    def test_index_build_records_each_page_crc(self, indexed_client):
        assert_checked(indexed_client)

    def test_compaction_keeps_or_takes_the_crcs(self):
        """FM and trie merge natively (the parts' entries carry over);
        IVF-PQ rebuilds from the raw pages (the build takes them
        again)."""
        store, lake, client = per_file_lake(3, 260)
        for column, (index_type, _) in SPECS.items():
            merged = compact_indices(client, column, index_type)
            assert len(merged) == 1
            assert_checked(client, merged)

    def test_refined_ivfpq_keeps_the_crcs(self, indexed_client):
        record = next(
            r for r in indexed_client.meta.records() if r.index_type == "ivf_pq"
        )
        refined = refine_index(indexed_client, record, [0, 1, 2], min_cell_rows=4)
        assert refined is not None
        assert [e.crc for e in entries_of(indexed_client, [refined])] == [
            e.crc for e in entries_of(indexed_client, [record])
        ]
        assert_checked(indexed_client, [refined])

    def test_drain_built_parts_record_crcs(self, client):
        from repro.ingest import IngestDrainer, IngestTier
        from repro.maintain import MaintenancePipeline

        tier = IngestTier(client.store, "ingest/events", client.lake)
        with MaintenancePipeline(client, workers=2) as pipe:
            drainer = IngestDrainer(
                tier,
                pipeline=pipe,
                index_specs=[(c, t, p) for c, (t, p) in SPECS.items()],
            )
            tier.ingest(event_batch(300, seed=50))
            drainer.drain()
        assert {r.index_type for r in client.meta.records()} == {
            t for t, _ in SPECS.values()
        }
        assert_checked(client)


# -- what the read path does with them -----------------------------------------
@pytest.fixture
def text_lake(client):
    client.index("text", SPECS["text"][0], params=SPECS["text"][1])
    return client


def common_word(client) -> str:
    words = collections.Counter(
        w for doc in client.lake.to_pylist("text") for w in doc.split() if len(w) > 3
    )
    return words.most_common(1)[0][0]


def recording(monkeypatch):
    """Record every page ``fetch_pages`` hands the search, and every
    ``compression.decompress`` of one of them."""
    fetched: list[tuple[PageEntry, bytes]] = []
    inflated: list[bytes] = []
    real_fetch, real_decompress = search.fetch_pages, compression.decompress

    def fetch(store, entries):
        pages = real_fetch(store, entries)
        fetched.extend(zip(entries, pages))
        return pages

    def decompress(data, codec):
        if any(data is page for _, page in fetched):
            inflated.append(data)
        return real_decompress(data, codec)

    monkeypatch.setattr(search, "fetch_pages", fetch)
    monkeypatch.setattr(compression, "decompress", decompress)
    return fetched, inflated


class TestInflatedAsFarAsK:
    def test_first_page_reaching_k_is_the_only_page_inflated(
        self, text_lake, monkeypatch
    ):
        query = SubstringQuery(common_word(text_lake))
        checks = []
        real_crc32 = zlib.crc32
        monkeypatch.setattr(
            "repro.formats.page_reader.zlib",
            mock.Mock(crc32=lambda data: checks.append(data) or real_crc32(data)),
        )
        fetched, inflated = recording(monkeypatch)
        result = text_lake.search("text", query, k=1)
        assert len(result.matches) == 1
        assert result.stats.pages_probed == len(fetched) > 1
        assert {entry.codec for entry, _ in fetched} == {compression.ZLIB}
        assert inflated == [fetched[0][1]]
        # Every claimed page was fetched and checked, read or not.
        assert len(checks) == len(fetched)
        assert [page for _, page in fetched] == [
            stored(text_lake.store, entry) for entry, _ in fetched
        ]

    def test_flip_in_a_page_never_inflated_is_a_format_error(
        self, text_lake, monkeypatch
    ):
        query = SubstringQuery(common_word(text_lake))
        fetched, inflated = recording(monkeypatch)
        text_lake.search("text", query, k=1)
        entry = fetched[-1][0]
        assert all(page is not fetched[-1][1] for page in inflated)
        data = bytearray(text_lake.store.get(entry.file_key))
        data[entry.offset + entry.compressed_size // 2] ^= 0x04
        text_lake.store.put(entry.file_key, bytes(data))
        with pytest.raises(FormatError, match="CRC"):
            text_lake.search("text", query, k=1)

    def test_flipped_bit_in_a_raw_uuid_key_is_a_format_error(self, indexed_client):
        """A raw page has no inflate to fail: without its CRC, one bit
        flipped inside the queried key made a present key answer 0
        matches and no error."""
        store = indexed_client.store
        path = indexed_client.lake.snapshot().file_paths[0]
        entry = build_page_table(ParquetFile(store, path).metadata, path, "uuid").entry(0)
        assert entry.codec == compression.NONE
        data = bytearray(store.get(path))
        assert data[entry.offset] == 16  # the first value's length prefix
        key = bytes(data[entry.offset + 1 : entry.offset + 17])
        assert key == event_uuid(1, 0)
        assert indexed_client.search("uuid", UuidQuery(key), k=1).matches
        data[entry.offset + 5] ^= 0x10
        store.put(path, bytes(data))
        with pytest.raises(FormatError):
            indexed_client.search("uuid", UuidQuery(key), k=1)

    def test_vector_refine_decodes_checked_pages(self, indexed_client):
        """Refining every row reads every ``emb`` page (stored raw): the
        answer is brute force's, and a flipped bit in one is a
        ``FormatError``."""
        store = indexed_client.store
        rng = np.random.default_rng(3)
        query = VectorQuery(rng.normal(size=16).astype(np.float32), nprobe=8, refine=600)
        indexed = indexed_client.search("emb", query, k=5)
        brute = indexed_client.search("emb", query, k=5, use_indices=False)
        assert [(m.file, m.row) for m in indexed.matches] == [
            (m.file, m.row) for m in brute.matches
        ]
        path = indexed_client.lake.snapshot().file_paths[1]
        entry = build_page_table(ParquetFile(store, path).metadata, path, "emb").entry(2)
        assert entry.codec == compression.NONE
        data = bytearray(store.get(path))
        data[entry.offset + 7] ^= 0x01
        store.put(path, bytes(data))
        with pytest.raises(FormatError, match="CRC"):
            indexed_client.search("emb", query, k=5)


# -- fsck compares placement ---------------------------------------------------
def test_fsck_compares_placement_and_still_flags_a_moved_page():
    store, lake, client = per_file_lake(4, 260)
    for column, (index_type, _) in SPECS.items():
        compact_indices(client, column, index_type)
    report = fsck(client)
    assert report.invariants_hold, report.describe()
    assert not report.page_table_mismatches
    assert report.files_verified > 0
    # The same rows laid out in other pages, at the same key.
    path = lake.snapshot().file_paths[0]
    relaid = write_parquet(EVENT_SCHEMA, event_batch(260, seed=1), page_target_bytes=1024)
    store.put(path, relaid.data)
    report = fsck(client)
    assert not report.invariants_hold
    assert {p for _, p in report.page_table_mismatches} == {path}


def test_directory_concat_keeps_each_parts_entries():
    first = PageTable("a", "c", [PageEntry("a", 0, 4, 10, 1, 0, 1, crc=3)])
    second = PageTable("b", "c", [PageEntry("b", 0, 4, 10, 1, 0, 1, crc=7)])
    merged = PageDirectory.deserialize(
        PageDirectory.concat([PageDirectory([first]), PageDirectory([second])]).serialize()
    )
    assert [(merged.locate(g).file_key, merged.locate(g).crc) for g in range(2)] == [
        ("a", 3),
        ("b", 7),
    ]


def test_a_page_rejected_as_read_still_bills_its_phase(client, monkeypatch):
    """A raw page that passed its fetch check but whose first length
    prefix is off by one (patched in after the check) is rejected as
    the exact loop reads it, outside any task: the query raises, and its
    run still bills every request it made."""
    from repro.storage.pool import Run

    client.index("uuid", SPECS["uuid"][0])
    store = client.store
    path = client.lake.snapshot().file_paths[0]
    target = build_page_table(ParquetFile(store, path).metadata, path, "uuid").entry(0)
    assert stored(store, target)[0] == 16 and target.codec == compression.NONE
    real_fetch = search.fetch_pages

    def fetch(store, entries):
        pages = real_fetch(store, entries)
        return [b"\x11" + page[1:] if e == target else page for e, page in zip(entries, pages)]

    monkeypatch.setattr(search, "fetch_pages", fetch)
    before = store.stats.snapshot()
    with Run() as run:
        with pytest.raises(FormatError, match="truncated page"):
            client.search("uuid", UuidQuery(event_uuid(1, 5)), k=1)
    delta = store.stats.snapshot().delta(before)
    assert run.trace.total_requests == delta.total_requests > 0


# -- one readable format ---------------------------------------------------------
def rewritten(data: bytes, edit) -> bytes:
    """The index file ``data`` written again after ``edit(header,
    components)`` changed its JSON header or its inflated components."""
    store = InMemoryObjectStore()
    store.put("i", data)
    reader = ComponentFileReader.open(store, "i")
    header, components = copy.deepcopy(reader.header), reader.read_all()
    edit(header, components)
    writer = ComponentFileWriter()
    for component in components:
        writer.add(component)
    return writer.finish(header)


def serving_only(client: RottnestClient, record, data: bytes) -> RottnestClient:
    """A client of the same lake whose one index file is ``data``,
    covering what ``record`` covers."""
    key = "idx/edited/files/" + record.index_key.rsplit("/", 1)[1]
    client.store.put(key, data)
    edited = RottnestClient(client.store, "idx/edited", client.lake)
    edited.meta.insert([dataclasses.replace(record, index_key=key, size=len(data))])
    return edited


def crc_cleared(header: dict, components: list) -> None:
    """The first page entry's CRC flag cleared and its CRC dropped: the
    entry as a build wrote it before pages had CRCs."""
    pages = components[0]
    directory = PageDirectory.deserialize(pages)
    table, entry = directory.tables[0], directory.tables[0].entries[0]
    head = BinaryWriter()
    head.write_uvarint(len(directory.tables))
    head.write_str(table.file_key)
    head.write_str(table.column)
    for value in (
        len(table), entry.offset, entry.compressed_size, entry.num_values, entry.row_start
    ):
        head.write_uvarint(value)
    cut = len(head.getvalue())
    assert pages[cut] == entry.codec | 0x80
    components[0] = pages[:cut] + bytes([entry.codec]) + pages[cut + 5 :]


def lut_renamed(header: dict, components: list) -> None:
    header["components"]["lut"] = header["components"].pop("lutb")


#: case -> (column, edit of a freshly built file, what the error names)
RETIRED_LAYOUTS = {
    "format_1": ("text", lambda header, _: header.update(format=1), "format 1"),
    "entry_without_crc": ("uuid", crc_cleared, "carries no CRC"),
    "fm_without_rank_stride": (
        "text",
        lambda header, _: header["params"].pop("rank_stride"),
        "rank_stride",
    ),
    "fm_with_two_sentinels": (
        "text",
        lambda header, _: header["params"]["sentinels"].append(0),
        "one sentinel",
    ),
    "trie_lut_named_lut": ("uuid", lut_renamed, "lutb"),
}


@pytest.mark.parametrize("case", sorted(RETIRED_LAYOUTS))
def test_a_retired_layout_is_a_format_error(indexed_client, case):
    """A freshly built file with its header edited into a layout an
    older build wrote: a search over it raises a ``FormatError`` naming
    what it found, and never answers."""
    column, edit, named = RETIRED_LAYOUTS[case]
    client = indexed_client
    (record,) = [r for r in client.meta.records() if r.column == column]
    data = rewritten(client.store.get(record.index_key), edit)
    edited = serving_only(client, record, data)
    query = {
        "uuid": UuidQuery(event_uuid(1, 5)),
        "text": SubstringQuery(common_word(client)),
    }[column]
    assert client.search(column, query, k=1).matches
    with pytest.raises(FormatError, match=named):
        edited.search(column, query, k=1)
    if case in ("format_1", "entry_without_crc"):
        # A native merge (FM, trie) opens every part's header and
        # directory, so compacting the file with a newer one fails too.
        client.lake.append(event_batch(260, seed=9))
        edited.index(column, record.index_type, params=SPECS[column][1])
        with pytest.raises(FormatError, match=named):
            compact_indices(edited, column, record.index_type)
