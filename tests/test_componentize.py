"""Componentized index file container (§V-B) and the page directory."""

import zlib

import pytest

from repro.errors import FormatError
from repro.core.componentize import (
    MAGIC,
    TAIL_SPECULATIVE_BYTES,
    ComponentFileReader,
    ComponentFileWriter,
)
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.formats.page_reader import PageEntry, PageTable
from repro.storage.object_store import InMemoryObjectStore
from repro.util.binio import BinaryWriter


def make_table(key: str, pages: int = 4, rows: int = 100) -> PageTable:
    entries = [
        PageEntry(
            file_key=key,
            page_id=i,
            offset=4 + i * 1000,
            compressed_size=1000,
            num_values=rows,
            row_start=i * rows,
            codec=1,
            crc=0,
        )
        for i in range(pages)
    ]
    return PageTable(key, "c", entries)


@pytest.fixture
def store():
    return InMemoryObjectStore()


class TestComponentFile:
    def test_roundtrip(self, store):
        w = ComponentFileWriter()
        c0 = w.add(b"alpha" * 100)
        c1 = w.add(b"beta")
        store.put("f.index", w.finish({"kind": "test"}))
        r = ComponentFileReader.open(store, "f.index")
        assert r.header == {"kind": "test"}
        assert len(r) == 2
        assert r.read(c0) == b"alpha" * 100
        assert r.read(c1) == b"beta"

    def test_read_many_order(self, store):
        w = ComponentFileWriter()
        ids = [w.add(f"component {i}".encode()) for i in range(5)]
        store.put("f.index", w.finish({}))
        r = ComponentFileReader.open(store, "f.index")
        blobs = r.read_many([ids[3], ids[0]])
        assert blobs == [b"component 3", b"component 0"]

    def test_read_all(self, store):
        w = ComponentFileWriter()
        for i in range(3):
            w.add(bytes([i]) * 10)
        store.put("f.index", w.finish({}))
        r = ComponentFileReader.open(store, "f.index")
        assert r.read_all() == [bytes([i]) * 10 for i in range(3)]

    def test_incompressible_stored_raw(self, store):
        import os

        w = ComponentFileWriter()
        data = os.urandom(1000)
        w.add(data)
        store.put("f.index", w.finish({}))
        r = ComponentFileReader.open(store, "f.index")
        assert r.read(0) == data
        # Stored size must not exceed raw size.
        assert r.component_size(0) <= 1000

    def test_component_out_of_range(self, store):
        w = ComponentFileWriter()
        w.add(b"x")
        store.put("f.index", w.finish({}))
        r = ComponentFileReader.open(store, "f.index")
        with pytest.raises(FormatError):
            r.read(5)

    def test_bad_magic(self, store):
        store.put("junk", b"A" * 64)
        with pytest.raises(FormatError):
            ComponentFileReader.open(store, "junk")

    def test_tail_cache_serves_small_files_free(self, store):
        """A file smaller than the speculative tail costs open() only."""
        w = ComponentFileWriter()
        w.add(b"tiny" * 10)
        store.put("f.index", w.finish({}))
        r = ComponentFileReader.open(store, "f.index")
        before = store.stats.snapshot()
        r.read(0)
        assert store.stats.delta(before).gets == 0

    def test_large_component_fetched_by_range(self, store):
        w = ComponentFileWriter(codec="none")
        big = b"\xab" * (TAIL_SPECULATIVE_BYTES + 50_000)
        w.add(big)
        w.add(b"small")
        store.put("f.index", w.finish({}))
        r = ComponentFileReader.open(store, "f.index")
        before = store.stats.snapshot()
        assert r.read(0) == big
        assert store.stats.delta(before).gets == 1


def crafted(blobs: list[bytes], entries: list[tuple], count: int | None = None) -> bytes:
    """A file of ``blobs`` laid end to end after the magic, whose
    directory holds ``entries`` — (offset step, stored, raw, codec) per
    component — as written, under an entry count of ``count`` (default:
    as many)."""
    directory = BinaryWriter()
    directory.write_len_bytes(b"{}")
    directory.write_uvarint(len(entries) if count is None else count)
    for step, stored, raw, codec in entries:
        for value in (step, stored, raw):
            directory.write_uvarint(value)
        directory.write_u8(codec)
    dir_bytes = directory.getvalue()
    body = MAGIC + b"".join(blobs)
    return body + dir_bytes + len(dir_bytes).to_bytes(4, "little") + MAGIC


class TestCorruptDirectory:
    """A directory entry that does not describe the file is a
    ``FormatError`` when the file is opened (or, for an inflated length,
    read) — never a component read into its neighbour's bytes, the
    directory or the footer."""

    A, B = bytes(range(50)), bytes(range(100, 140))

    def _open(self, store, data):
        store.put("f.index", data)
        return ComponentFileReader.open(store, "f.index")

    def test_crafted_equals_the_writer(self, store):
        writer = ComponentFileWriter(codec="none")
        writer.add(self.A)
        writer.add(self.B)
        entries = [(4, 50, 50, 0), (50, 40, 40, 0)]
        assert crafted([self.A, self.B], entries) == writer.finish({})
        assert self._open(store, crafted([self.A, self.B], entries)).read_all() == [
            self.A,
            self.B,
        ]

    def test_stored_size_into_the_next_component(self, store):
        data = crafted([self.A, self.B], [(4, 80, 50, 0), (50, 40, 40, 0)])
        with pytest.raises(FormatError, match="runs into the next"):
            self._open(store, data)

    def test_last_component_past_the_directory(self, store):
        data = crafted([self.A, self.B], [(4, 50, 50, 0), (50, 5040, 40, 0)])
        with pytest.raises(FormatError, match="past the directory"):
            self._open(store, data)

    def test_last_component_past_the_directory_off_the_tail(self, store):
        """The stretched component starts before the speculative tail:
        the read would have been a ranged GET past the object's end."""
        big = bytes(TAIL_SPECULATIVE_BYTES + 10_000)
        data = crafted([self.A, big], [(4, 50, 50, 0), (50, len(big) + 5000, len(big), 0)])
        with pytest.raises(FormatError, match="past the directory"):
            self._open(store, data)

    def test_first_component_not_after_the_magic(self, store):
        data = crafted([b"\0\0" + self.A], [(6, 50, 50, 0)])
        with pytest.raises(FormatError, match="first component"):
            self._open(store, data)

    @pytest.mark.parametrize("codec", [7, 0x80, 0x81])
    def test_unknown_codec(self, store, codec):
        """Codec ids are below 0x80; a codec byte with the high bit set
        names no codec (it is not a uvarint spilling into the next
        byte)."""
        data = crafted([self.A], [(4, 50, 50, codec)])
        with pytest.raises(FormatError, match="unknown codec"):
            self._open(store, data)

    def test_entries_left_past_the_count(self, store):
        data = crafted([self.A, self.B], [(4, 50, 50, 0), (50, 40, 40, 0)], 1)
        with pytest.raises(FormatError, match="bytes after its 1 entries"):
            self._open(store, data)

    def test_inflated_length_is_checked_on_read(self, store):
        packed = zlib.compress(self.A * 4)
        data = crafted([packed], [(4, len(packed), 201, 1)])
        reader = self._open(store, data)
        with pytest.raises(FormatError, match="200 bytes"):
            reader.read(0)


class TestPageDirectory:
    def test_global_ids(self):
        d = PageDirectory([make_table("a", 3), make_table("b", 2)])
        assert d.num_pages == 5
        assert d.locate(0).file_key == "a"
        assert d.locate(2).file_key == "a"
        assert d.locate(3).file_key == "b"
        assert d.locate(3).page_id == 0

    def test_locate_out_of_range(self):
        d = PageDirectory([make_table("a", 2)])
        with pytest.raises(FormatError):
            d.locate(2)

    def test_num_rows(self):
        d = PageDirectory([make_table("a", 3, rows=10), make_table("b", 1, rows=7)])
        assert d.num_rows == 37

    def test_serialize_roundtrip(self):
        d = PageDirectory([make_table("a", 3), make_table("b", 2)])
        back = PageDirectory.deserialize(d.serialize())
        assert back.num_pages == d.num_pages
        assert back.file_keys == d.file_keys
        assert back.locate(4) == d.locate(4)

    def test_concat(self):
        d1 = PageDirectory([make_table("a", 2)])
        d2 = PageDirectory([make_table("b", 3)])
        merged = PageDirectory.concat([d1, d2])
        assert merged.num_pages == 5
        # Both sides of the part boundary, and the last page.
        assert [merged.locate(g).file_key for g in (0, 1, 2, 4)] == ["a", "a", "b", "b"]
        assert [merged.locate(g).page_id for g in (1, 2, 4)] == [1, 0, 2]


class TestIndexFile:
    def test_roundtrip(self, store):
        d = PageDirectory([make_table("a", 2)])
        w = IndexFileWriter("fm", "text", d, params={"x": 1})
        w.add_component("data", b"payload")
        store.put("f.index", w.finish())
        r = IndexFileReader.open(store, "f.index")
        assert r.index_type == "fm"
        assert r.column == "text"
        assert r.covered_files == ["a"]
        assert r.params == {"x": 1}
        assert r.component("data") == b"payload"
        assert r.directory.num_pages == 2

    def test_duplicate_component_rejected(self):
        d = PageDirectory([make_table("a", 1)])
        w = IndexFileWriter("fm", "text", d)
        w.add_component("x", b"1")
        with pytest.raises(FormatError):
            w.add_component("x", b"2")

    def test_missing_component_rejected(self, store):
        d = PageDirectory([make_table("a", 1)])
        w = IndexFileWriter("fm", "text", d)
        w.add_component("data", b"payload")
        store.put("f.index", w.finish())
        r = IndexFileReader.open(store, "f.index")
        # One name lookup: single, bulk and decoded reads fail alike.
        for read in (
            lambda: r.component("nope"),
            lambda: r.components(["data", "nope"]),
            lambda: r.decoded("nope", bytes),
        ):
            with pytest.raises(FormatError, match="nope"):
                read()
        assert not r.has_component("nope")

    def test_components_batch(self, store):
        d = PageDirectory([make_table("a", 1)])
        w = IndexFileWriter("fm", "text", d)
        w.add_component("one", b"1")
        w.add_component("two", b"2")
        store.put("f.index", w.finish())
        r = IndexFileReader.open(store, "f.index")
        assert r.components(["two", "one"]) == [b"2", b"1"]

    def test_num_rows_from_directory(self, store):
        d = PageDirectory([make_table("a", 4, rows=25)])
        w = IndexFileWriter("fm", "text", d)
        store.put("f.index", w.finish())
        r = IndexFileReader.open(store, "f.index")
        assert r.num_rows == 100
