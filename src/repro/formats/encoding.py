"""Plain value encodings per column type.

Values travel through the library as Python lists (ints, floats, strs,
bytes) except vectors, which are numpy ``float32`` arrays of shape
``(n, dim)`` for speed in the ANN code paths.

Strings and binaries are uvarint-length-prefixed. :func:`value_bounds`
walks a page's prefixes once and says where each value lies without
copying any: :func:`decode_values` slices every value out, while an
exact query's verifier (``page_hits`` in :mod:`repro.core.queries`)
searches the page's bytes and slices out only the values that match.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

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
        starts, ends = value_bounds(data, count)
        try:
            return [data[s:e].decode("utf-8") for s, e in zip(starts, ends)]
        except UnicodeDecodeError as exc:
            raise FormatError(f"string value is not UTF-8: {exc}") from exc
    if type_ is ColumnType.BINARY:
        starts, ends = value_bounds(data, count)
        return [data[s:e] for s, e in zip(starts, ends)]
    if type_ is ColumnType.VECTOR:
        _expect(data, count * field.vector_dim * 4)
        arr = np.frombuffer(data, dtype="<f4")
        return arr.reshape(count, field.vector_dim).copy()
    raise FormatError(f"unknown column type {type_}")  # pragma: no cover


def value_bounds(data: bytes, count: int) -> tuple[Sequence[int], Sequence[int]]:
    """Where the ``count`` uvarint-length-prefixed values that fill
    ``data`` exactly lie: ``(starts, ends)``, value ``i`` being
    ``data[starts[i]:ends[i]]``.

    One walk over the prefixes and no value is copied, so a verifier
    can search the page's bytes and slice out only what matches. A
    length under 128 is its own single byte and one under 16,384 two
    bytes, both read inline; only longer ones go through
    ``decode_uvarint``. A page of values of one length under 128 (a
    column of fixed-size keys) is recognised from its size and every
    ``width``-th byte, without the walk, and its bounds are ``range``s.
    A truncated page, a bad prefix or trailing bytes is a
    :class:`FormatError` naming the offset it stopped at.
    """
    if count and data and data[0] < 0x80:
        width = data[0] + 1
        if len(data) == count * width and data[::width] == data[:1] * count:
            return (
                range(1, len(data) + 1, width),
                range(width, len(data) + 1, width),
            )
    starts = [0] * count
    ends = [0] * count
    pos, end = 0, len(data)
    try:
        for i in range(count):
            n = data[pos]
            if n < 0x80:
                pos += 1
            elif pos + 1 < end and data[pos + 1] < 0x80:
                n = (n & 0x7F) | (data[pos + 1] << 7)
                pos += 2
            else:
                n, pos = decode_uvarint(data, pos)
            if pos + n > end:
                raise FormatError(
                    f"truncated page: wanted {n} bytes at offset {pos}, "
                    f"only {end - pos} remain"
                )
            starts[i] = pos
            pos += n
            ends[i] = pos
    except (IndexError, ValueError) as exc:  # no / bad length prefix
        raise FormatError(f"bad value length at offset {pos}: {exc}") from exc
    if pos != end:
        raise FormatError(f"{end - pos} trailing bytes at offset {pos}")
    return starts, ends


def require_utf8(data: bytes, starts, ends) -> None:
    """Raise :class:`FormatError` unless every value
    ``data[starts[i]:ends[i]]`` of a :func:`value_bounds` walk is UTF-8.

    A page whose only bytes ``>= 0x80`` are its prefixes' continuation
    bytes holds ASCII values only, and that is proved with one count; a
    page with other high bytes decodes its values one by one.
    """
    # Every prefix byte but the last carries the continuation bit.
    prefix_bytes = len(data) - (sum(ends) - sum(starts))
    high = np.count_nonzero(np.frombuffer(data, dtype=np.uint8) >= 0x80)
    if high == prefix_bytes - len(starts):
        return
    try:
        for s, e in zip(starts, ends):
            data[s:e].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"string value is not UTF-8: {exc}") from exc


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
