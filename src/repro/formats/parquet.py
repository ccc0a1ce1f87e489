"""Writer and footer metadata for the Parquet-like columnar file.

File layout (all offsets absolute within the file):

.. code-block:: text

    +--------+-------------------------------+--------+---------+--------+
    | "RPQ1" | page data (all chunks, pages) | footer | len u32 | "RPQ1" |
    +--------+-------------------------------+--------+---------+--------+

Row groups contain one column chunk per schema field; a chunk is a
sequence of contiguous pages. The footer records the full page index and
per-chunk min/max statistics, mirroring real Parquet closely enough that
the paper's two pain points reproduce: (1) min/max stats are useless for
high-cardinality/search columns, and (2) a traditional reader's unit of
IO is the (large) column chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.errors import FormatError
from repro.formats import compression
from repro.formats.encoding import comparable, pack_stat, unpack_stat
from repro.formats.pages import (
    DEFAULT_PAGE_TARGET_BYTES,
    build_page,
    split_into_pages,
)
from repro.formats.schema import Schema
from repro.util.binio import BinaryReader, BinaryWriter

MAGIC = b"RPQ1"

#: Default rows per row group. Real writers target ~128 MB; for the
#: MB-scale corpora in this repo a row-count target keeps files realistic
#: (multiple row groups, chunk >> page) without gigabyte inputs.
DEFAULT_ROW_GROUP_ROWS = 50_000


@dataclass(frozen=True)
class PageMeta:
    """Placement of one page within the file."""

    offset: int
    compressed_size: int
    uncompressed_size: int
    num_values: int
    first_row: int  # file-global row index of the page's first value


@dataclass(frozen=True)
class ColumnChunkMeta:
    """One column's data within one row group."""

    column: str
    codec: int
    pages: tuple[PageMeta, ...]
    stat_min: bytes | None = None
    stat_max: bytes | None = None

    @property
    def start_offset(self) -> int:
        return self.pages[0].offset

    @property
    def total_compressed_size(self) -> int:
        return sum(p.compressed_size for p in self.pages)

    @property
    def num_values(self) -> int:
        return sum(p.num_values for p in self.pages)


@dataclass(frozen=True)
class RowGroupMeta:
    first_row: int
    num_rows: int
    chunks: tuple[ColumnChunkMeta, ...]

    def chunk(self, column: str) -> ColumnChunkMeta:
        for c in self.chunks:
            if c.column == column:
                return c
        raise FormatError(f"no column chunk {column!r} in row group")


@dataclass(frozen=True)
class FileMetadata:
    schema: Schema
    row_groups: tuple[RowGroupMeta, ...]

    @property
    def num_rows(self) -> int:
        return sum(rg.num_rows for rg in self.row_groups)

    def chunk_stats(self, column: str):
        """(min, max) per row group for ``column``, or None entries when
        stats are unavailable for the type."""
        f = self.schema.field(column)
        out = []
        for rg in self.row_groups:
            chunk = rg.chunk(column)
            if chunk.stat_min is None or chunk.stat_max is None:
                out.append(None)
            else:
                out.append(
                    (unpack_stat(f, chunk.stat_min), unpack_stat(f, chunk.stat_max))
                )
        return out


@dataclass
class WriteResult:
    """Everything a caller (lake writer, indexer) needs about a new file."""

    data: bytes
    metadata: FileMetadata
    num_rows: int = dc_field(init=False)

    def __post_init__(self) -> None:
        self.num_rows = self.metadata.num_rows


def write_parquet(
    schema: Schema,
    columns: dict[str, list],
    *,
    codec: str = "zlib",
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    page_target_bytes: int = DEFAULT_PAGE_TARGET_BYTES,
) -> WriteResult:
    """Serialize columnar data into a single file's bytes.

    ``columns`` maps every schema field name to its list of values; all
    columns must have equal length >= 1.
    """
    if set(columns) != set(schema.names):
        raise FormatError(
            f"columns {sorted(columns)} do not match schema {schema.names}"
        )
    lengths = {name: len(vals) for name, vals in columns.items()}
    if len(set(lengths.values())) != 1:
        raise FormatError(f"ragged columns: {lengths}")
    num_rows = next(iter(lengths.values()))
    if num_rows == 0:
        raise FormatError("cannot write an empty file")
    if row_group_rows <= 0:
        raise FormatError(f"row_group_rows must be positive, got {row_group_rows}")

    codec_id = compression.codec_id(codec)
    body = BinaryWriter()
    body.write_bytes(MAGIC)

    row_groups: list[RowGroupMeta] = []
    for rg_start in range(0, num_rows, row_group_rows):
        rg_rows = min(row_group_rows, num_rows - rg_start)
        chunks: list[ColumnChunkMeta] = []
        for f in schema.fields:
            values = columns[f.name][rg_start : rg_start + rg_rows]
            built_pages = [
                build_page(f, page_values, codec_id)
                for page_values in split_into_pages(f, values, page_target_bytes)
            ]
            # The codec lives on the chunk, so the chunk as a whole is
            # deflated or stored raw.
            chunk_codec = codec_id
            if not compression.deflate_pays(
                sum(len(b.raw) for b in built_pages),
                sum(len(b.data) for b in built_pages),
            ):
                chunk_codec = compression.NONE
            pages: list[PageMeta] = []
            row_cursor = rg_start
            for built in built_pages:
                stored = built.raw if chunk_codec == compression.NONE else built.data
                pages.append(
                    PageMeta(
                        offset=len(body),
                        compressed_size=len(stored),
                        uncompressed_size=len(built.raw),
                        num_values=built.num_values,
                        first_row=row_cursor,
                    )
                )
                body.write_bytes(stored)
                row_cursor += built.num_values
            stat_min = stat_max = None
            if comparable(f):
                stat_min = pack_stat(f, min(values))
                stat_max = pack_stat(f, max(values))
            chunks.append(
                ColumnChunkMeta(
                    column=f.name,
                    codec=chunk_codec,
                    pages=tuple(pages),
                    stat_min=stat_min,
                    stat_max=stat_max,
                )
            )
        row_groups.append(
            RowGroupMeta(first_row=rg_start, num_rows=rg_rows, chunks=tuple(chunks))
        )

    metadata = FileMetadata(schema=schema, row_groups=tuple(row_groups))
    footer = _serialize_footer(metadata)
    body.write_bytes(footer)
    body.write_u32(len(footer))
    body.write_bytes(MAGIC)
    return WriteResult(data=body.getvalue(), metadata=metadata)


def _serialize_footer(metadata: FileMetadata) -> bytes:
    w = BinaryWriter()
    metadata.schema.serialize(w)
    w.write_uvarint(len(metadata.row_groups))
    for rg in metadata.row_groups:
        w.write_uvarint(rg.first_row)
        w.write_uvarint(rg.num_rows)
        w.write_uvarint(len(rg.chunks))
        for chunk in rg.chunks:
            w.write_str(chunk.column)
            w.write_u8(chunk.codec)
            w.write_len_bytes(chunk.stat_min if chunk.stat_min is not None else b"")
            w.write_u8(1 if chunk.stat_min is not None else 0)
            w.write_len_bytes(chunk.stat_max if chunk.stat_max is not None else b"")
            w.write_u8(1 if chunk.stat_max is not None else 0)
            w.write_uvarint(len(chunk.pages))
            for p in chunk.pages:
                w.write_uvarint(p.offset)
                w.write_uvarint(p.compressed_size)
                w.write_uvarint(p.uncompressed_size)
                w.write_uvarint(p.num_values)
                w.write_uvarint(p.first_row)
    return w.getvalue()


def parse_footer(footer: bytes) -> FileMetadata:
    r = BinaryReader(footer)
    schema = Schema.deserialize(r)
    num_rgs = r.read_uvarint()
    row_groups = []
    for _ in range(num_rgs):
        first_row = r.read_uvarint()
        num_rows = r.read_uvarint()
        num_chunks = r.read_uvarint()
        chunks = []
        for _ in range(num_chunks):
            column = r.read_str()
            codec = r.read_u8()
            min_bytes = r.read_len_bytes()
            has_min = r.read_u8()
            max_bytes = r.read_len_bytes()
            has_max = r.read_u8()
            num_pages = r.read_uvarint()
            pages = tuple(
                PageMeta(
                    offset=r.read_uvarint(),
                    compressed_size=r.read_uvarint(),
                    uncompressed_size=r.read_uvarint(),
                    num_values=r.read_uvarint(),
                    first_row=r.read_uvarint(),
                )
                for _ in range(num_pages)
            )
            chunks.append(
                ColumnChunkMeta(
                    column=column,
                    codec=codec,
                    pages=pages,
                    stat_min=min_bytes if has_min else None,
                    stat_max=max_bytes if has_max else None,
                )
            )
        row_groups.append(
            RowGroupMeta(first_row=first_row, num_rows=num_rows, chunks=tuple(chunks))
        )
    return FileMetadata(schema=schema, row_groups=tuple(row_groups))
