"""Compression codecs for pages and index components.

Real Parquet supports snappy/zstd/gzip; offline we get zlib from the
standard library, which has the same qualitative behaviour the paper
relies on: compression shrinks both storage cost and read amplification,
and decompression is cheap relative to object-store latency (Fig. 10b).
"""

from __future__ import annotations

import zlib

from repro.errors import FormatError

NONE = 0
ZLIB = 1

_NAMES = {NONE: "none", ZLIB: "zlib"}
_IDS = {name: codec_id for codec_id, name in _NAMES.items()}


def codec_id(name: str) -> int:
    """Numeric id for a codec name (``"none"`` or ``"zlib"``)."""
    try:
        return _IDS[name]
    except KeyError:
        raise FormatError(f"unknown codec {name!r}; known: {sorted(_IDS)}") from None


def codec_name(codec: int) -> str:
    try:
        return _NAMES[codec]
    except KeyError:
        raise FormatError(f"unknown codec id {codec}") from None


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
