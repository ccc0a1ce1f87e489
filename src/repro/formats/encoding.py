"""Plain value encodings per column type.

Values travel through the library as Python lists (ints, floats, strs,
bytes) except vectors, which are numpy ``float32`` arrays of shape
``(n, dim)`` for speed in the ANN code paths.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import FormatError
from repro.formats.schema import ColumnType, Field
from repro.util.binio import BinaryWriter
from repro.util.varint import decode_uvarint


def encode_values(field: Field, values) -> bytes:
    """Encode a homogeneous batch of values for ``field``."""
    writer = BinaryWriter()
    type_ = field.type
    if type_ is ColumnType.INT64:
        writer.write_bytes(np.asarray(values, dtype="<i8").tobytes())
    elif type_ is ColumnType.FLOAT64:
        writer.write_bytes(np.asarray(values, dtype="<f8").tobytes())
    elif type_ is ColumnType.STRING:
        for v in values:
            writer.write_len_bytes(v.encode("utf-8"))
    elif type_ is ColumnType.BINARY:
        for v in values:
            writer.write_len_bytes(bytes(v))
    elif type_ is ColumnType.VECTOR:
        arr = np.asarray(values, dtype="<f4")
        if arr.ndim != 2 or arr.shape[1] != field.vector_dim:
            raise FormatError(
                f"vector batch shape {arr.shape} does not match dim "
                f"{field.vector_dim}"
            )
        writer.write_bytes(arr.tobytes())
    else:  # pragma: no cover - enum is closed
        raise FormatError(f"unknown column type {type_}")
    return writer.getvalue()


def decode_values(field: Field, data: bytes, count: int):
    """Decode ``count`` values of ``field`` from ``data``.

    Inverse of :func:`encode_values`; returns a list (or a 2-D numpy
    array for vectors). ``data`` must be exactly ``count`` values: a
    short or long page, or a string that is not UTF-8, is a
    :class:`FormatError` (a raw page has no checksum, so its length is
    the structural check left).
    """
    type_ = field.type
    if type_ is ColumnType.INT64:
        _expect(data, count * 8)
        return np.frombuffer(data, dtype="<i8").tolist()
    if type_ is ColumnType.FLOAT64:
        _expect(data, count * 8)
        return np.frombuffer(data, dtype="<f8").tolist()
    if type_ is ColumnType.STRING:
        try:
            return [v.decode("utf-8") for v in _split_len_prefixed(data, count)]
        except UnicodeDecodeError as exc:
            raise FormatError(f"string value is not UTF-8: {exc}") from exc
    if type_ is ColumnType.BINARY:
        return _split_len_prefixed(data, count)
    if type_ is ColumnType.VECTOR:
        _expect(data, count * field.vector_dim * 4)
        arr = np.frombuffer(data, dtype="<f4")
        return arr.reshape(count, field.vector_dim).copy()
    raise FormatError(f"unknown column type {type_}")  # pragma: no cover


def _split_len_prefixed(data: bytes, count: int) -> list[bytes]:
    """``count`` uvarint-length-prefixed byte strings that fill ``data``
    exactly, in one loop with no reader object per value: a length under
    128 is its own single byte, only longer ones go through
    ``decode_uvarint``."""
    out = []
    pos, end = 0, len(data)
    try:
        for _ in range(count):
            n = data[pos]
            if n < 0x80:
                pos += 1
            else:
                n, pos = decode_uvarint(data, pos)
            if pos + n > end:
                raise FormatError(
                    f"truncated page: wanted {n} bytes at offset {pos}, "
                    f"only {end - pos} remain"
                )
            out.append(data[pos : pos + n])
            pos += n
    except (IndexError, ValueError) as exc:  # no / bad length prefix
        raise FormatError(f"bad value length at offset {pos}: {exc}") from exc
    if pos != end:
        raise FormatError(f"{end - pos} trailing bytes at offset {pos}")
    return out


def value_nbytes(field: Field, value) -> int:
    """Uncompressed encoded size of a single value (used by the page
    writer to decide page boundaries without re-encoding)."""
    type_ = field.type
    if type_ in (ColumnType.INT64, ColumnType.FLOAT64):
        return 8
    if type_ is ColumnType.STRING:
        n = len(value.encode("utf-8"))
        return n + _uvarint_len(n)
    if type_ is ColumnType.BINARY:
        n = len(value)
        return n + _uvarint_len(n)
    if type_ is ColumnType.VECTOR:
        return field.vector_dim * 4
    raise FormatError(f"unknown column type {type_}")  # pragma: no cover


def _uvarint_len(value: int) -> int:
    length = 1
    while value >= 0x80:
        value >>= 7
        length += 1
    return length


def _expect(data: bytes, nbytes: int) -> None:
    if len(data) != nbytes:
        raise FormatError(f"page is {len(data)} bytes, expected {nbytes}")


def comparable(field: Field) -> bool:
    """Whether min/max chunk statistics make sense for this type."""
    return field.type in (
        ColumnType.INT64,
        ColumnType.FLOAT64,
        ColumnType.STRING,
        ColumnType.BINARY,
    )


def pack_stat(field: Field, value) -> bytes:
    """Serialize a min/max statistic value."""
    type_ = field.type
    if type_ is ColumnType.INT64:
        return struct.pack("<q", value)
    if type_ is ColumnType.FLOAT64:
        return struct.pack("<d", value)
    if type_ is ColumnType.STRING:
        return value.encode("utf-8")
    if type_ is ColumnType.BINARY:
        return bytes(value)
    raise FormatError(f"no stats for column type {type_}")


def unpack_stat(field: Field, data: bytes):
    type_ = field.type
    if type_ is ColumnType.INT64:
        return struct.unpack("<q", data)[0]
    if type_ is ColumnType.FLOAT64:
        return struct.unpack("<d", data)[0]
    if type_ is ColumnType.STRING:
        return data.decode("utf-8")
    if type_ is ColumnType.BINARY:
        return data
    raise FormatError(f"no stats for column type {type_}")
