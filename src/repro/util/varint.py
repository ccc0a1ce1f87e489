"""Unsigned LEB128 varints, used throughout the on-"disk" formats.

Posting lists, page tables and component offset arrays store many small
integers; varints keep index files compact, which directly lowers the
``cpm_r`` storage term in the TCO model.
"""

from __future__ import annotations

import numpy as np


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 integer from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("uvarint too long (more than 64 bits)")


def encode_uvarints(values: np.ndarray) -> bytes:
    """LEB128-encode every element of a non-negative int64 array.

    Same bytes as concatenating :func:`encode_uvarint` over the
    elements, produced one byte *position* at a time instead of one
    value at a time.
    """
    values = np.asarray(values, dtype=np.int64)
    if len(values) and values.min() < 0:
        raise ValueError("uvarint cannot encode negative values")
    lengths = np.ones(len(values), dtype=np.int64)
    for shift in range(7, 63, 7):
        lengths += values >= (1 << shift)
    ends = np.cumsum(lengths)
    out = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.uint8)
    starts = ends - lengths
    for j in range(int(lengths.max()) if len(lengths) else 0):
        has = np.flatnonzero(lengths > j)
        byte = (values[has] >> (7 * j)) & 0x7F
        byte |= (lengths[has] > j + 1) << 7  # continuation bit
        out[starts[has] + j] = byte
    return out.tobytes()


def decode_uvarints(
    data: bytes, count: int, offset: int = 0
) -> tuple[np.ndarray, int]:
    """Decode ``count`` consecutive LEB128 integers starting at ``offset``.

    Returns ``(values int64, next_offset)``; raises ``ValueError`` on a
    truncated buffer or a value that does not fit 63 bits.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64), offset
    # A value takes at most 9 bytes here, so the slice bounds the work.
    raw = np.frombuffer(data, dtype=np.uint8, offset=offset)[: 9 * count]
    ends = np.flatnonzero(raw < 0x80)[:count]
    if len(ends) < count:
        raise ValueError("truncated uvarint")
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    if lengths.max() > 9:
        raise ValueError("uvarint too long (more than 63 bits)")
    total = int(ends[-1]) + 1
    within = np.arange(total) - np.repeat(starts, lengths)
    septets = (raw[:total] & 0x7F).astype(np.int64) << (7 * within)
    return np.add.reduceat(septets, starts), offset + total
