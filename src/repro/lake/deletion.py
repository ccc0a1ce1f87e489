"""Deletion vectors: per-file bitmaps of logically deleted rows.

Data lakes implement row-level deletes without rewriting Parquet files
by writing a sidecar "deletion vector" recording which row indices are
gone (paper §IV-A, the ``dv.bin`` file of Figs. 3-4). Readers — and
Rottnest's in-situ probing — must filter results through them.

Serialized as a sorted delta-varint list, which is compact for both the
sparse and clustered deletion patterns the tests exercise.
"""

from __future__ import annotations

from repro.util.binio import BinaryReader, BinaryWriter

MAGIC = b"RDV1"


class DeletionVector:
    """An immutable set of deleted row indices within one data file."""

    def __init__(self, rows=()) -> None:
        self._rows = frozenset(int(r) for r in rows)
        if any(r < 0 for r in self._rows):
            raise ValueError("deletion vector rows must be non-negative")

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: int) -> bool:
        return row in self._rows

    def __eq__(self, other) -> bool:
        return isinstance(other, DeletionVector) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    @property
    def rows(self) -> frozenset[int]:
        return self._rows

    def union(self, other: "DeletionVector") -> "DeletionVector":
        return DeletionVector(self._rows | other._rows)

    def serialize(self) -> bytes:
        writer = BinaryWriter()
        writer.write_bytes(MAGIC)
        ordered = sorted(self._rows)
        writer.write_uvarint(len(ordered))
        prev = 0
        for row in ordered:
            writer.write_uvarint(row - prev)
            prev = row
        return writer.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "DeletionVector":
        reader = BinaryReader(data)
        magic = reader.read_bytes(4)
        if magic != MAGIC:
            from repro.errors import FormatError

            raise FormatError(f"not a deletion vector (magic {magic!r})")
        count = reader.read_uvarint()
        rows = []
        cursor = 0
        for _ in range(count):
            cursor += reader.read_uvarint()
            rows.append(cursor)
        return cls(rows)
