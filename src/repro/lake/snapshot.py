"""Snapshots: point-in-time views reconstructed from the log.

A snapshot is exactly what Rottnest's plan steps consume — the *manifest
list* of live Parquet files plus any attached deletion vectors (paper
§IV-B step 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LakeError
from repro.formats.schema import Schema
from repro.lake.actions import (
    Action,
    AddFile,
    RemoveFile,
    SetDeletionVector,
    SetSchema,
    SetTransaction,
    schema_from_json,
    schema_to_json,
)


@dataclass(frozen=True)
class FileEntry:
    path: str
    num_rows: int
    size: int


@dataclass(frozen=True)
class Snapshot:
    """Immutable view: live files, their deletion vectors, the schema."""

    version: int
    schema: Schema
    files: tuple[FileEntry, ...]
    deletion_vectors: dict[str, str]  # data path -> dv object key
    app_versions: dict[str, int] = field(default_factory=dict)
    """Per-application transaction high-water marks (``SetTransaction``
    folded with max semantics). The ingest tier reads its own entry to
    decide which WAL segments are already represented in the lake."""

    def to_json(self) -> dict:
        """Checkpoint serialization (see TransactionLog checkpoints)."""
        return {
            "version": self.version,
            "fields": schema_to_json(self.schema),
            "files": [
                {"path": f.path, "num_rows": f.num_rows, "size": f.size}
                for f in self.files
            ],
            "deletion_vectors": dict(self.deletion_vectors),
            "app_versions": dict(self.app_versions),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Snapshot":
        return cls(
            version=obj["version"],
            schema=schema_from_json(obj["fields"]),
            files=tuple(
                FileEntry(path=f["path"], num_rows=f["num_rows"], size=f["size"])
                for f in obj["files"]
            ),
            deletion_vectors=dict(obj["deletion_vectors"]),
            # Pre-ingest checkpoints have no app_versions entry.
            app_versions=dict(obj.get("app_versions", {})),
        )

    @property
    def file_paths(self) -> list[str]:
        return [f.path for f in self.files]

    @property
    def num_rows(self) -> int:
        """Physical rows (before deletion-vector filtering)."""
        return sum(f.num_rows for f in self.files)

    @property
    def total_bytes(self) -> int:
        return sum(f.size for f in self.files)

    def entry(self, path: str) -> FileEntry:
        for f in self.files:
            if f.path == path:
                return f
        raise LakeError(f"file {path!r} not in snapshot v{self.version}")

    def contains(self, path: str) -> bool:
        return any(f.path == path for f in self.files)


def replay(
    version: int,
    log_versions: list[list[Action]],
    base: Snapshot | None = None,
) -> Snapshot:
    """Fold log actions into a snapshot at ``version``.

    Without ``base``, ``log_versions`` holds the actions of versions
    ``0..version``. With ``base`` (a checkpointed snapshot), it holds
    only the tail ``base.version+1..version``.
    """
    schema: Schema | None = None
    files: dict[str, FileEntry] = {}
    dvs: dict[str, str] = {}
    app_versions: dict[str, int] = {}
    if base is not None:
        schema = base.schema
        files = {f.path: f for f in base.files}
        dvs = dict(base.deletion_vectors)
        app_versions = dict(base.app_versions)
    for actions in log_versions:
        for action in actions:
            if isinstance(action, SetSchema):
                if schema is not None:
                    raise LakeError("schema set twice in log")
                schema = action.schema
            elif isinstance(action, AddFile):
                if action.path in files:
                    raise LakeError(f"file {action.path!r} added twice")
                files[action.path] = FileEntry(
                    path=action.path, num_rows=action.num_rows, size=action.size
                )
            elif isinstance(action, RemoveFile):
                if action.path not in files:
                    raise LakeError(f"removing unknown file {action.path!r}")
                del files[action.path]
                dvs.pop(action.path, None)
            elif isinstance(action, SetTransaction):
                current = app_versions.get(action.app_id, action.version)
                app_versions[action.app_id] = max(current, action.version)
            elif isinstance(action, SetDeletionVector):
                if action.data_path not in files:
                    raise LakeError(
                        f"deletion vector for unknown file {action.data_path!r}"
                    )
                if action.dv_path:
                    dvs[action.data_path] = action.dv_path
                else:
                    dvs.pop(action.data_path, None)
            else:  # pragma: no cover - union is closed
                raise LakeError(f"unknown action {action!r}")
    if schema is None:
        raise LakeError("log has no schema (table never created?)")
    ordered = tuple(files[p] for p in sorted(files))
    return Snapshot(
        version=version,
        schema=schema,
        files=ordered,
        deletion_vectors=dict(dvs),
        app_versions=app_versions,
    )
