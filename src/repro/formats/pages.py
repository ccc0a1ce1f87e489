"""Data pages: the minimal access granularity of the columnar format.

The paper's key observation (§V-A) is that although Parquet *row groups*
are ~128 MB, the *data page* inside a column chunk is sized by
uncompressed content (~1 MB raw, a few hundred KB compressed) regardless
of row-group size — so a reader that can address pages directly gets
search-friendly granularity out of a format designed for scans.

A page on disk is just the encoding of a run of values, compressed with
its chunk's codec (``NONE`` where deflate does not pay); all framing
(offset, sizes, row range) lives in the file footer and, for Rottnest,
in external page tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats import compression
from repro.formats.encoding import decode_values, encode_values, value_nbytes
from repro.formats.schema import Field

#: Default uncompressed bytes of raw data per page (paper: ~1 MB).
DEFAULT_PAGE_TARGET_BYTES = 1 << 20


@dataclass(frozen=True)
class BuiltPage:
    """A page ready to be placed into a file, in both forms: the writer
    keeps ``data`` or, where deflate does not pay, ``raw``."""

    raw: bytes  # encoded values
    data: bytes  # ``raw`` compressed with the requested codec
    num_values: int


def split_into_pages(field: Field, values, target_bytes: int) -> list[list]:
    """Split a column chunk's values into page-sized runs.

    Greedy: accumulate values until the uncompressed size would exceed
    ``target_bytes``; every page holds at least one value so oversized
    single values (a 5 MB document, say) still fit.
    """
    if target_bytes <= 0:
        raise ValueError(f"target_bytes must be positive, got {target_bytes}")
    pages: list[list] = []
    current: list = []
    current_bytes = 0
    for value in values:
        nbytes = value_nbytes(field, value)
        if current and current_bytes + nbytes > target_bytes:
            pages.append(current)
            current = []
            current_bytes = 0
        current.append(value)
        current_bytes += nbytes
    if current:
        pages.append(current)
    return pages


def build_page(field: Field, values, codec: int) -> BuiltPage:
    """Encode and compress one page of values."""
    raw = encode_values(field, values)
    return BuiltPage(
        raw=raw, data=compression.compress(raw, codec), num_values=len(values)
    )


def decode_page(field: Field, data: bytes, codec: int, num_values: int):
    """Decompress and decode one page back into values."""
    raw = compression.decompress(data, codec)
    return decode_values(field, raw, num_values)
