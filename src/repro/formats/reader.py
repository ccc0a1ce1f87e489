"""Traditional Parquet reader: column-chunk granularity.

This mirrors how open-source readers behave on object storage (paper
Fig. 5, left): open the footer first, then fetch *entire column chunks*
even when only a handful of rows are needed. It is the baseline against
which the page-granular reader in :mod:`repro.formats.page_reader` is an
ablation (Fig. 11: "no custom reader").
"""

from __future__ import annotations

from repro.errors import FormatError
from repro.formats.parquet import MAGIC, FileMetadata, parse_footer
from repro.formats.pages import decode_page
from repro.formats.schema import Field
from repro.storage.object_store import ObjectStore
from repro.storage.stats import barrier

#: Suffix readers speculatively fetch hoping it contains the footer.
FOOTER_SPECULATIVE_BYTES = 64 * 1024


class ParquetFile:
    """A reader handle over one file in an object store.

    Opening costs one HEAD plus one (usually single) ranged GET for the
    footer; column-chunk reads cost one ranged GET each.
    """

    def __init__(self, store: ObjectStore, key: str) -> None:
        self.store = store
        self.key = key
        self._size = store.head(key).size
        self.metadata = self._read_footer()

    def _read_footer(self) -> FileMetadata:
        tail_len = min(FOOTER_SPECULATIVE_BYTES, self._size)
        tail = self.store.get(self.key, (self._size - tail_len, tail_len))
        if tail[-4:] != MAGIC:
            raise FormatError(f"{self.key!r} is not a columnar file (bad magic)")
        footer_len = int.from_bytes(tail[-8:-4], "little")
        frame = footer_len + 8
        if frame > self._size:
            raise FormatError(f"{self.key!r}: footer length {footer_len} too large")
        if frame <= tail_len:
            footer = tail[-frame:-8]
        else:
            # Footer did not fit in the speculative read; fetch exactly.
            barrier()
            footer = self.store.get(self.key, (self._size - frame, footer_len))
        return parse_footer(footer)

    @property
    def schema(self):
        return self.metadata.schema

    @property
    def num_rows(self) -> int:
        return self.metadata.num_rows

    def _field(self, column: str) -> Field:
        return self.metadata.schema.field(column)

    def read_column_chunk(self, rg_index: int, column: str) -> list[tuple[bytes, list]]:
        """Read one row group's chunk of ``column`` with a single GET: one
        ``(stored bytes, values)`` pair per page, in page order (an index
        build records the CRC32 of each page's bytes; a scan wants only
        the values, :func:`chunk_values`)."""
        chunk = self.metadata.row_groups[rg_index].chunk(column)
        field = self._field(column)
        start = chunk.start_offset
        blob = self.store.get(self.key, (start, chunk.total_compressed_size))
        out = []
        for page in chunk.pages:
            stored = blob[page.offset - start : page.offset - start + page.compressed_size]
            out.append((stored, decode_page(field, stored, chunk.codec, page.num_values)))
        return out


def chunk_values(pages: list[tuple[bytes, list]]) -> list:
    """The values of :meth:`ParquetFile.read_column_chunk`'s pages, in
    row order."""
    return [value for _, values in pages for value in values]
