"""Rottnest's optimized reader: page granularity, no footer access.

At *index* time Rottnest records a :class:`PageTable` — the offsets,
sizes and row ranges of every data page of the indexed column (paper
§V-A, the analogue of NoDB's positional zone maps). At *query* time a
page read is then a single byte-range GET of a few hundred KB that
bypasses the footer entirely (Fig. 5, right), versus the traditional
reader's footer fetch plus tens-of-MB chunk fetch.

Posting lists in Rottnest indices point at ``(file, page ordinal)``
pairs; in-situ probing reads just those pages and re-applies the real
predicate to remove false positives. Pages come back inflated but not
decoded: an exact query verifies in the encoded bytes and decodes only
the values that match (:meth:`repro.core.queries.UuidQuery.page_hits`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FormatError
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
            writer.write_u8(e.codec)

    @classmethod
    def deserialize(cls, reader: BinaryReader) -> "PageTable":
        file_key = reader.read_str()
        column = reader.read_str()
        count = reader.read_uvarint()
        entries = []
        offset = 0
        for page_id in range(count):
            offset += reader.read_uvarint()
            entries.append(
                PageEntry(
                    file_key=file_key,
                    page_id=page_id,
                    offset=offset,
                    compressed_size=reader.read_uvarint(),
                    num_values=reader.read_uvarint(),
                    row_start=reader.read_uvarint(),
                    codec=reader.read_u8(),
                )
            )
        return cls(file_key=file_key, column=column, entries=entries)


def build_page_table(metadata: FileMetadata, file_key: str, column: str) -> PageTable:
    """Extract the page table for ``column`` from a file's footer
    metadata (done once, at index build time)."""
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
    adjacent candidates merge with zero waste). Returns each page
    inflated but not decoded, in input order: a verifier searches the
    encoded values (:func:`~repro.formats.encoding.value_bounds`) and
    decodes only the rows it keeps, and whoever wants every value calls
    :func:`~repro.formats.encoding.decode_values`.
    """
    from repro.storage.sched import RangeRequest

    requests = [
        RangeRequest(e.file_key, e.offset, e.compressed_size) for e in entries
    ]
    blobs = store.get_many(requests)
    return [
        compression.decompress(blob, e.codec) for e, blob in zip(entries, blobs)
    ]
