"""Little binary writer/reader used by the file formats.

Every persistent structure in this repo (Parquet-like files, index
components, page tables) serializes through these helpers so framing
conventions stay uniform: little-endian fixed ints, uvarints, and
length-prefixed byte strings.
"""

from __future__ import annotations

import struct

from repro.errors import FormatError
from repro.util.varint import decode_uvarint, encode_uvarint


class BinaryWriter:
    """Append-only binary buffer with typed write helpers."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def write_bytes(self, data: bytes) -> None:
        self._buf += data

    def write_u8(self, value: int) -> None:
        self._buf += struct.pack("<B", value)

    def write_u32(self, value: int) -> None:
        self._buf += struct.pack("<I", value)

    def write_uvarint(self, value: int) -> None:
        self._buf += encode_uvarint(value)

    def write_len_bytes(self, data: bytes) -> None:
        """Length-prefixed (uvarint) byte string."""
        self.write_uvarint(len(data))
        self.write_bytes(data)

    def write_str(self, text: str) -> None:
        self.write_len_bytes(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class BinaryReader:
    """Sequential reader over a bytes buffer with typed read helpers."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    @property
    def pos(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise FormatError(
                f"truncated read: wanted {n} bytes at {self._pos}, "
                f"only {len(self._data) - self._pos} remain"
            )
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def read_bytes(self, n: int) -> bytes:
        return self._take(n)

    def read_u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def read_u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def read_uvarint(self) -> int:
        try:
            value, self._pos = decode_uvarint(self._data, self._pos)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        return value

    def read_len_bytes(self) -> bytes:
        return self._take(self.read_uvarint())

    def read_str(self) -> str:
        return self.read_len_bytes().decode("utf-8")
