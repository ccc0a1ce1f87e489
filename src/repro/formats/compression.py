"""Compression codecs for pages and index components.

Real Parquet supports snappy/zstd/gzip; offline we get zlib from the
standard library, which has the same qualitative behaviour the paper
relies on: compression shrinks both storage cost and read amplification,
and decompression is cheap relative to object-store latency (Fig. 10b).

Cheap is not free on the wall clock: a query inflates every byte it
reads, however few rows of it it uses. So both writers keep deflate only
where it pays (:func:`deflate_pays`) and store everything else raw under
codec ``NONE`` — near-random bytes such as float vectors, PQ codebooks
and hashes, which deflate by a few percent.
"""

from __future__ import annotations

import zlib

from repro.errors import FormatError

NONE = 0
ZLIB = 1

_NAMES = {NONE: "none", ZLIB: "zlib"}
_IDS = {name: codec_id for codec_id, name in _NAMES.items()}
#: Every codec id a page or component may name.
CODECS = frozenset(_NAMES)

#: Deflate is kept only when it saves at least 1/``MIN_SAVING_DIVISOR``
#: of the bytes. On the benchmark lake every kind of page or component
#: deflates to under 0.85 of its size or to over 0.92, so any cut in that
#: gap gives the same files.
MIN_SAVING_DIVISOR = 10


def deflate_pays(raw_size: int, stored_size: int) -> bool:
    """Whether a deflated copy of ``raw_size`` bytes that came out at
    ``stored_size`` bytes saves enough to be worth its inflate."""
    return MIN_SAVING_DIVISOR * (raw_size - stored_size) >= raw_size


def codec_id(name: str) -> int:
    """Numeric id for a codec name (``"none"`` or ``"zlib"``)."""
    try:
        return _IDS[name]
    except KeyError:
        raise FormatError(f"unknown codec {name!r}; known: {sorted(_IDS)}") from None


def compress(data: bytes, codec: int, *, rle: bool = False) -> bytes:
    """``rle`` deflates with ``Z_RLE`` (matches at distance one only):
    still a plain zlib stream, much faster on long runs of one value."""
    if codec == NONE:
        return data
    if codec == ZLIB:
        if rle:
            deflater = zlib.compressobj(
                6, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE
            )
            return deflater.compress(data) + deflater.flush()
        return zlib.compress(data, level=6)
    raise FormatError(f"unknown codec id {codec}")


def decompress(data: bytes, codec: int) -> bytes:
    if codec == NONE:
        return data
    if codec == ZLIB:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise FormatError(f"corrupt zlib page: {exc}") from exc
    raise FormatError(f"unknown codec id {codec}")
