"""Rottnest's optimized reader: page granularity, no footer access.

At *index* time Rottnest records a :class:`PageTable` — the offsets,
sizes and row ranges of every data page of the indexed column (paper
§V-A, the analogue of NoDB's positional zone maps). At *query* time a
page read is then a single byte-range GET of a few hundred KB that
bypasses the footer entirely (Fig. 5, right), versus the traditional
reader's footer fetch plus tens-of-MB chunk fetch.

Posting lists in Rottnest indices point at ``(file, page ordinal)``
pairs; in-situ probing reads just those pages and re-applies the real
predicate to remove false positives. Each page is checked against the
CRC32 of its stored bytes that the index build recorded, and comes back
still stored: the reader inflates a page (:func:`inflate`) only when it
gets to it, and an exact query then verifies in the encoded bytes and
decodes only the values that match
(:meth:`repro.core.queries.UuidQuery.page_hits`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import CorruptPage, FormatError
from repro.formats import compression
from repro.formats.parquet import FileMetadata
from repro.storage.object_store import ObjectStore
from repro.util.binio import BinaryReader, BinaryWriter


@dataclass(frozen=True)
class PageEntry:
    """Placement of one data page of the indexed column."""

    file_key: str
    page_id: int  # ordinal of the page within (file, column)
    offset: int
    compressed_size: int
    num_values: int
    row_start: int  # file-global row index of the first value
    codec: int
    #: CRC32 of the page's stored bytes, taken at index build over the
    #: bytes the build decoded. ``None`` only in a table built from a
    #: footer (which has no CRCs), to compare with: it cannot be written
    #: into an index file. Not part of equality: entries are equal when
    #: they place the same page.
    crc: int | None = field(default=None, compare=False)


#: Set in every serialized entry's codec byte: a CRC32 (u32) follows.
#: Codec ids are small, so the flag never collides with one.
_HAS_CRC = 0x80


class PageTable:
    """All pages of one column of one file, in page-ordinal order."""

    def __init__(self, file_key: str, column: str, entries: list[PageEntry]) -> None:
        self.file_key = file_key
        self.column = column
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def num_rows(self) -> int:
        return sum(e.num_values for e in self.entries)

    def entry(self, page_id: int) -> PageEntry:
        if not 0 <= page_id < len(self.entries):
            raise FormatError(
                f"page {page_id} out of range for {self.file_key!r} "
                f"({len(self.entries)} pages)"
            )
        return self.entries[page_id]

    # -- serialization (embedded into index files) ---------------------
    def serialize(self, writer: BinaryWriter) -> None:
        writer.write_str(self.file_key)
        writer.write_str(self.column)
        writer.write_uvarint(len(self.entries))
        prev_offset = 0
        for e in self.entries:
            writer.write_uvarint(e.offset - prev_offset)  # delta: ascending
            prev_offset = e.offset
            writer.write_uvarint(e.compressed_size)
            writer.write_uvarint(e.num_values)
            writer.write_uvarint(e.row_start)
            writer.write_u8(e.codec | _HAS_CRC)
            writer.write_u32(e.crc)

    @classmethod
    def deserialize(cls, reader: BinaryReader) -> "PageTable":
        file_key = reader.read_str()
        column = reader.read_str()
        count = reader.read_uvarint()
        entries = []
        offset = 0
        for page_id in range(count):
            offset += reader.read_uvarint()
            compressed_size = reader.read_uvarint()
            num_values = reader.read_uvarint()
            row_start = reader.read_uvarint()
            codec = reader.read_u8()
            if not codec & _HAS_CRC:
                raise FormatError(
                    f"page {page_id} of {file_key!r} carries no CRC: "
                    f"an index file this build does not read"
                )
            entries.append(
                PageEntry(
                    file_key=file_key,
                    page_id=page_id,
                    offset=offset,
                    compressed_size=compressed_size,
                    num_values=num_values,
                    row_start=row_start,
                    codec=codec & ~_HAS_CRC,
                    crc=reader.read_u32(),
                )
            )
        return cls(file_key=file_key, column=column, entries=entries)


def build_page_table(
    metadata: FileMetadata,
    file_key: str,
    column: str,
    crcs: Sequence[int] | None = None,
) -> PageTable:
    """Extract the page table for ``column`` from a file's footer
    metadata (done once, at index build time). ``crcs``, one per page in
    page order, are the CRC32s of the pages' stored bytes: the build has
    them, a footer does not."""
    entries: list[PageEntry] = []
    page_id = 0
    for rg in metadata.row_groups:
        chunk = rg.chunk(column)
        for page in chunk.pages:
            entries.append(
                PageEntry(
                    file_key=file_key,
                    page_id=page_id,
                    offset=page.offset,
                    compressed_size=page.compressed_size,
                    num_values=page.num_values,
                    row_start=page.first_row,
                    codec=chunk.codec,
                    crc=None if crcs is None else crcs[page_id],
                )
            )
            page_id += 1
    if not entries:
        raise FormatError(f"column {column!r} has no pages in {file_key!r}")
    return PageTable(file_key=file_key, column=column, entries=entries)


def fetch_pages(store: ObjectStore, entries: list[PageEntry]) -> list[bytes]:
    """Read several pages through the coalescing batch scheduler.

    The page ranges go to :meth:`ObjectStore.get_many`, which merges
    near-adjacent ranges into one GET per cluster (delta-encoded page
    tables make neighbouring pages of one file exactly contiguous, so
    adjacent candidates merge with zero waste). Returns each page in
    input order, checked and still stored: its CRC32 equals the one the
    build took over the bytes it decoded, so the page inflates and
    decodes as it did then, and :func:`inflate` waits for a reader that
    gets to it. Every page is checked, read or not; a mismatch is a
    :class:`~repro.errors.CorruptPage`.
    """
    from repro.storage.sched import RangeRequest

    requests = [
        RangeRequest(e.file_key, e.offset, e.compressed_size) for e in entries
    ]
    blobs = store.get_many(requests)
    pages = []
    for e, blob in zip(entries, blobs):
        if zlib.crc32(blob) != e.crc:
            raise CorruptPage(
                f"page {e.page_id} of {e.file_key!r} fails its CRC check"
            )
        pages.append(blob)
    return pages


def inflate(entry: PageEntry, page: bytes) -> bytes:
    """The encoded values of ``page``, one of :func:`fetch_pages`'
    results for ``entry``: a verifier searches them
    (:func:`~repro.formats.encoding.value_bounds`) and decodes only the
    rows it keeps; whoever wants every value calls
    :func:`~repro.formats.encoding.decode_values`."""
    return compression.decompress(page, entry.codec)
