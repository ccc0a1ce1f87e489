"""Transaction-log actions for the data lake.

Mirrors Delta Lake's action model: each committed log version is a JSON
document holding a list of actions. The actions here are the subset that
matters to Rottnest's protocol — files being added and removed (by
appends, compactions, updates) and deletion vectors being attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LakeError
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.log import json_bytes, json_value


@dataclass(frozen=True)
class SetSchema:
    """First-commit action establishing the table schema."""

    schema: Schema

    def to_json(self) -> dict:
        return {"action": "set_schema", "fields": schema_to_json(self.schema)}


def schema_to_json(schema: Schema) -> list[dict]:
    return [
        {"name": f.name, "type": f.type.name, "vector_dim": f.vector_dim}
        for f in schema.fields
    ]


def schema_from_json(fields: list[dict]) -> Schema:
    return Schema(
        fields=tuple(
            Field(name=f["name"], type=ColumnType[f["type"]], vector_dim=f["vector_dim"])
            for f in fields
        )
    )


@dataclass(frozen=True)
class AddFile:
    """A new Parquet data file became part of the table."""

    path: str
    num_rows: int
    size: int

    def to_json(self) -> dict:
        return {
            "action": "add_file",
            "path": self.path,
            "num_rows": self.num_rows,
            "size": self.size,
        }


@dataclass(frozen=True)
class RemoveFile:
    """A data file left the table (compaction, delete, overwrite)."""

    path: str

    def to_json(self) -> dict:
        return {"action": "remove_file", "path": self.path}


@dataclass(frozen=True)
class SetDeletionVector:
    """Attach (or replace) the deletion vector of a data file.

    ``dv_path`` may be empty to clear the vector (after a rewrite).
    """

    data_path: str
    dv_path: str

    def to_json(self) -> dict:
        return {
            "action": "set_deletion_vector",
            "data_path": self.data_path,
            "dv_path": self.dv_path,
        }


@dataclass(frozen=True)
class SetTransaction:
    """Record an application's high-water mark in the same commit as its
    data actions (Delta Lake's ``txn`` action).

    The ingest drainer commits ``[AddFile, SetTransaction]`` atomically:
    the snapshot then answers "which WAL segments are already in the
    lake?" exactly, so a crash between the lake commit and the WAL
    truncation can neither drop nor double-count rows.
    """

    app_id: str
    version: int

    def to_json(self) -> dict:
        return {
            "action": "set_transaction",
            "app_id": self.app_id,
            "version": self.version,
        }


Action = SetSchema | AddFile | RemoveFile | SetDeletionVector | SetTransaction


def actions_to_bytes(actions: list[Action]) -> bytes:
    return json_bytes([a.to_json() for a in actions])


def actions_from_bytes(data: bytes) -> list[Action]:
    actions: list[Action] = []
    for obj in json_value(data):
        kind = obj.get("action")
        if kind == "set_schema":
            actions.append(SetSchema(schema=schema_from_json(obj["fields"])))
        elif kind == "add_file":
            actions.append(
                AddFile(path=obj["path"], num_rows=obj["num_rows"], size=obj["size"])
            )
        elif kind == "remove_file":
            actions.append(RemoveFile(path=obj["path"]))
        elif kind == "set_deletion_vector":
            actions.append(
                SetDeletionVector(data_path=obj["data_path"], dv_path=obj["dv_path"])
            )
        elif kind == "set_transaction":
            actions.append(
                SetTransaction(app_id=obj["app_id"], version=obj["version"])
            )
        else:
            raise LakeError(f"unknown log action {kind!r}")
    return actions
