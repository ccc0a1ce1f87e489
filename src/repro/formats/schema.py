"""Table schema for the columnar format.

Types cover the paper's three workloads: INT64/FLOAT64 structured
attributes, STRING text (substring search), BINARY identifiers (UUID
search), and fixed-dimension float32 VECTOR embeddings (ANN search).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import FormatError
from repro.util.binio import BinaryReader, BinaryWriter


class ColumnType(enum.IntEnum):
    INT64 = 0
    FLOAT64 = 1
    STRING = 2
    BINARY = 3
    VECTOR = 4


@dataclass(frozen=True)
class Field:
    """One column: name, type, and vector dimension when applicable."""

    name: str
    type: ColumnType
    vector_dim: int = 0

    def __post_init__(self) -> None:
        if self.type is ColumnType.VECTOR and self.vector_dim <= 0:
            raise FormatError(f"vector field {self.name!r} needs vector_dim > 0")
        if self.type is not ColumnType.VECTOR and self.vector_dim:
            raise FormatError(f"non-vector field {self.name!r} has vector_dim set")


@dataclass(frozen=True)
class Schema:
    fields: tuple[Field, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise FormatError(f"duplicate column names in schema: {names}")

    @classmethod
    def of(cls, *fields: Field) -> "Schema":
        return cls(fields=tuple(fields))

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise FormatError(f"no column {name!r} in schema {self.names}")

    def serialize(self, writer: BinaryWriter) -> None:
        writer.write_uvarint(len(self.fields))
        for f in self.fields:
            writer.write_str(f.name)
            writer.write_u8(int(f.type))
            writer.write_uvarint(f.vector_dim)

    @classmethod
    def deserialize(cls, reader: BinaryReader) -> "Schema":
        count = reader.read_uvarint()
        fields = []
        for _ in range(count):
            name = reader.read_str()
            type_ = ColumnType(reader.read_u8())
            dim = reader.read_uvarint()
            fields.append(Field(name=name, type=type_, vector_dim=dim))
        return cls(fields=tuple(fields))
