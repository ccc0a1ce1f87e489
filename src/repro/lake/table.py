"""High-level data lake table: appends, deletes, compaction, time travel.

This is the Delta-Lake-like substrate Rottnest bolts onto. All the
operations the paper's protocol must survive are here:

* ``append`` — new Parquet files (the common case),
* ``delete_where`` — row deletes via deletion vectors,
* ``compact`` — small files merged into large ones (invalidating any
  physical locations indices recorded for the old files),
* ``rewrite_sorted`` — Z-order-style clustering rewrite,
* ``vacuum`` — physical garbage collection of unreferenced files,
* time travel via ``snapshot(version=...)``.

Rottnest itself never calls the mutating operations; it only reads
manifest lists, Parquet bytes and deletion vectors.

:func:`live_rows` is the one scan of a lake column: the search plan's
brute-force fill, ``count``, :meth:`LakeTable.scan` and ``delete_where``
all read a file's live rows through it, and it skips every row group
whose footer min/max cannot hold a key-bounded query's match.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.core.queries import Query, may_hold
from repro.errors import CommitConflict, LakeError, ObjectStoreError, SnapshotNotFound
from repro.formats.pages import DEFAULT_PAGE_TARGET_BYTES
from repro.formats.parquet import DEFAULT_ROW_GROUP_ROWS, write_parquet
from repro.formats.reader import ParquetFile, chunk_values
from repro.formats.schema import Schema
from repro.lake.actions import (
    Action,
    AddFile,
    RemoveFile,
    SetDeletionVector,
    SetSchema,
    SetTransaction,
    actions_from_bytes,
    actions_to_bytes,
)
from repro.lake.deletion import DeletionVector
from repro.lake.log import LogFormat, TransactionLog, json_bytes, json_value
from repro.lake.snapshot import Snapshot, replay
from repro.storage.object_store import ObjectStore
from repro.storage.stats import barrier

DATA_DIR = "data"
DELETES_DIR = "deletes"

#: The lake's configuration of the transaction log: ``Action`` lists
#: folded into snapshots.
LAKE_LOG = LogFormat(
    log_dir="_log",
    checkpoint_dir="_checkpoints",
    encode=actions_to_bytes,
    decode=actions_from_bytes,
    fold=replay,
    dump=lambda snapshot: json_bytes(snapshot.to_json()),
    load=lambda data: Snapshot.from_json(json_value(data)),
)


@dataclass(frozen=True)
class TableConfig:
    """Physical layout knobs for files this table writes."""

    codec: str = "zlib"
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS
    page_target_bytes: int = DEFAULT_PAGE_TARGET_BYTES
    checkpoint_interval: int = 10
    """A log checkpoint is written after every this many commits, so
    snapshot reconstruction reads one checkpoint + a short tail instead
    of the whole log (Delta Lake's checkpointing)."""


def seeded_entropy(seed: int) -> Callable[[int], bytes]:
    """An entropy source with ``os.urandom``'s signature that repeats
    for a given ``seed``: a lake's ``entropy`` for a bench or test that
    commits its byte counts."""
    return random.Random(seed).randbytes


class LakeTable:
    """One transactional table rooted at ``root`` in an object store."""

    def __init__(
        self,
        store: ObjectStore,
        root: str,
        config: TableConfig | None = None,
        *,
        entropy: Callable[[int], bytes] | None = None,
    ) -> None:
        self.store = store
        self.root = root.rstrip("/")
        self.config = config or TableConfig()
        #: ``os.urandom``'s signature: the nonces of new data-file and
        #: deletion-vector names, and a client's index-key salt unless it
        #: is given its own. A seeded one (:func:`seeded_entropy`) makes
        #: a deployment's history, and every byte count that names its
        #: files, reproducible.
        self.entropy = entropy or os.urandom
        self.log = TransactionLog(
            store,
            self.root,
            LAKE_LOG,
            checkpoint_interval=self.config.checkpoint_interval,
        )
        self._name_counter = itertools.count()

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(
        cls,
        store: ObjectStore,
        root: str,
        schema: Schema,
        config: TableConfig | None = None,
        *,
        entropy: Callable[[int], bytes] | None = None,
    ) -> "LakeTable":
        table = cls(store, root, config, entropy=entropy)
        if table.log.latest_version() != -1:
            raise LakeError(f"table already exists at {root!r}")
        genesis = table.log.try_commit(0, [SetSchema(schema=schema)])
        table.log.write_hint(0, -1, [genesis])
        table.schema = schema
        return table

    @classmethod
    def open(
        cls, store: ObjectStore, root: str, config: TableConfig | None = None
    ) -> "LakeTable":
        table = cls(store, root, config)
        if table.log.latest_version() == -1:
            raise LakeError(f"no table at {root!r}")
        return table

    # -- snapshots ------------------------------------------------------
    def latest_version(self) -> int:
        return self.log.latest_version()

    def snapshot(self, version: int | None = None) -> Snapshot:
        """The snapshot at ``version`` (default: latest): the log's hint
        (or a LIST), the newest checkpoint at or before it, and the log
        tail."""
        return self.log.state(version)

    @cached_property
    def schema(self) -> Schema:
        """The table's schema: set once, by version 0, so it is read
        once per table (and never by :meth:`create`, which wrote it)."""
        return replay(0, [self.log.read_version(0)]).schema

    def files_since(self, version: int) -> set[str]:
        """Union of data-file paths over snapshots ``version..latest``,
        folded forward from one read of the log.

        This is the "supported snapshots" input to Rottnest's vacuum
        planner (paper §IV-C).
        """
        return {
            path
            for snap in self.log.states(max(0, version))
            for path in snap.file_paths
        }

    # -- writes ---------------------------------------------------------
    def _new_data_key(self, content: bytes, partition: str | None) -> str:
        digest = hashlib.sha1(content).hexdigest()[:10]
        nonce = self.entropy(3).hex()
        seq = next(self._name_counter)
        subdir = f"{DATA_DIR}/p={partition}" if partition else DATA_DIR
        return f"{self.root}/{subdir}/part-{seq:05d}-{digest}-{nonce}.parquet"

    def _write_data_file(
        self, columns: dict[str, list], partition: str | None = None
    ) -> AddFile:
        result = write_parquet(
            self.schema,
            columns,
            codec=self.config.codec,
            row_group_rows=self.config.row_group_rows,
            page_target_bytes=self.config.page_target_bytes,
        )
        key = self._new_data_key(result.data, partition)
        self.store.put(key, result.data)
        return AddFile(path=key, num_rows=result.num_rows, size=len(result.data))

    def append(self, columns: dict[str, list], partition: str | None = None) -> int:
        """Append rows as one new Parquet file; returns the new version.

        ``partition`` (Hive-style, e.g. ``"2026-07"``) clusters the file
        under ``data/p=<partition>/``. Rottnest search can then restrict
        itself to one partition — the paper's §VI mechanism for queries
        with structured filters, whose "normalized" cost scales with the
        fraction of partitions touched.
        """
        if partition is not None and ("/" in partition or "=" in partition):
            raise LakeError(f"invalid partition value {partition!r}")
        add = self._write_data_file(columns, partition)
        return self.log.commit([add])

    def write_data_at(self, key: str, columns: dict[str, list]) -> AddFile:
        """Write ``columns`` as one Parquet file at a caller-chosen key.

        Unlike :meth:`append`'s salted names, the key is fully under the
        caller's control, so a crashed-and-retried writer that derives
        the key deterministically from its input re-creates the same
        object with the same bytes (idempotent PUT). Returns the
        :class:`AddFile` action; nothing is committed.
        """
        if not key.startswith(f"{self.root}/{DATA_DIR}/"):
            raise LakeError(
                f"data key {key!r} must live under {self.root}/{DATA_DIR}/"
            )
        result = write_parquet(
            self.schema,
            columns,
            codec=self.config.codec,
            row_group_rows=self.config.row_group_rows,
            page_target_bytes=self.config.page_target_bytes,
        )
        self.store.put(key, result.data)
        return AddFile(path=key, num_rows=result.num_rows, size=len(result.data))

    def commit_transactional(
        self, actions: list[Action], *, app_id: str, app_version: int
    ) -> int | None:
        """Atomically commit ``actions`` together with a
        :class:`SetTransaction` high-water mark for ``app_id``.

        If the snapshot already records ``app_version`` (or newer) for
        ``app_id``, the commit is skipped and ``None`` is returned —
        this makes a crashed-and-retried drain step exactly-once: the
        data actions and the marker land in one log entry or not at
        all. Assumes one writer per ``app_id`` (the ingest drainer).
        """
        if self.snapshot().app_versions.get(app_id, -1) >= app_version:
            # Already committed (crashed-and-retried caller). A crash
            # may have landed between that commit and its due
            # checkpoint; writing it now keeps every crash history
            # converging on the same bytes. No-op when not due.
            self.log.checkpoint(self.log.latest_version())
            return None
        return self.log.commit(
            [*actions, SetTransaction(app_id=app_id, version=app_version)]
        )

    @staticmethod
    def partition_of(path: str) -> str | None:
        """The partition value encoded in a data-file path, if any."""
        for segment in path.split("/"):
            if segment.startswith("p="):
                return segment[2:]
        return None

    def delete_where(self, column: str, predicate) -> int:
        """Logically delete rows where ``predicate(value)`` is true.

        Writes/extends deletion vectors; the Parquet files stay intact.
        Returns the number of newly deleted rows.
        """
        deleted = 0
        actions: list[Action] = []
        snap = self.snapshot()
        for entry in snap.files:
            hits = [
                row
                for row, value in live_rows(self.store, self, snap, column, entry.path)
                if predicate(value)
            ]
            if not hits:
                continue
            existing = self.deletion_vector(snap, entry.path)
            merged = existing.union(DeletionVector(hits))
            data = merged.serialize()
            digest = hashlib.sha1(data).hexdigest()[:10]
            dv_key = f"{self.root}/{DELETES_DIR}/dv-{digest}-{self.entropy(3).hex()}.bin"
            self.store.put(dv_key, data)
            actions.append(SetDeletionVector(data_path=entry.path, dv_path=dv_key))
            deleted += len(hits)
        if actions:
            self._commit_against(snap.version, actions)
        return deleted

    def compact(self, min_file_rows: int, target_rows: int) -> list[str]:
        """Merge small files (< ``min_file_rows``) into files of up to
        ``target_rows`` rows, dropping logically deleted rows.

        Returns the paths of the new files (empty if nothing to do).
        This is the lake-side compaction that *invalidates* physical
        locations recorded by Rottnest index files.
        """
        if target_rows < min_file_rows:
            raise LakeError("target_rows must be >= min_file_rows")
        snap = self.snapshot()
        small = [f for f in snap.files if f.num_rows < min_file_rows]
        if len(small) < 2:
            return []
        # Files only merge within their partition.
        by_partition: dict[str | None, list] = {}
        for f in small:
            by_partition.setdefault(self.partition_of(f.path), []).append(f)
        bins: list[tuple[str | None, list]] = []
        for partition, files in by_partition.items():
            current: list = []
            rows_in_bin = 0
            for f in files:
                if current and rows_in_bin + f.num_rows > target_rows:
                    bins.append((partition, current))
                    current = []
                    rows_in_bin = 0
                current.append(f)
                rows_in_bin += f.num_rows
            if current:
                bins.append((partition, current))
        actions: list[Action] = []
        new_paths: list[str] = []
        for partition, group in bins:
            if len(group) < 2:
                continue
            columns = self.read_group(snap, group)
            if not len(next(iter(columns.values()), [])):
                # Everything in the group was deleted; just drop files.
                actions.extend(RemoveFile(path=f.path) for f in group)
                continue
            add = self._write_data_file(columns, partition)
            new_paths.append(add.path)
            actions.append(add)
            actions.extend(RemoveFile(path=f.path) for f in group)
        if actions:
            self._commit_against(snap.version, actions)
        return new_paths

    def rewrite_sorted(self, column: str) -> list[str]:
        """Rewrite the table clustered by ``column`` (the repo's
        stand-in for Z-order), one new file per partition. All current
        files are replaced."""
        snap = self.snapshot()
        if not snap.files:
            return []
        by_partition: dict[str | None, list] = {}
        for f in snap.files:
            by_partition.setdefault(self.partition_of(f.path), []).append(f)
        actions: list[Action] = []
        new_paths: list[str] = []
        for partition, group in by_partition.items():
            columns = self.read_group(snap, group)
            order = sorted(
                range(len(columns[column])), key=lambda i: columns[column][i]
            )
            reordered = {
                name: [values[i] for i in order] for name, values in columns.items()
            }
            add = self._write_data_file(reordered, partition)
            new_paths.append(add.path)
            actions.append(add)
            actions.extend(RemoveFile(path=f.path) for f in group)
        self._commit_against(snap.version, actions)
        return new_paths

    def vacuum(self, retain_versions: int = 1) -> list[str]:
        """Physically delete data/dv files not referenced by the last
        ``retain_versions`` snapshots. Returns deleted keys."""
        if retain_versions < 1:
            raise LakeError("must retain at least the latest snapshot")
        keep_data: set[str] = set()
        keep_dv: set[str] = set()
        for snap in self.log.states(-retain_versions):
            keep_data.update(snap.file_paths)
            keep_dv.update(snap.deletion_vectors.values())
        removed = []
        for info in self.store.list(f"{self.root}/{DATA_DIR}/"):
            if info.key not in keep_data:
                self.store.delete(info.key)
                removed.append(info.key)
        for info in self.store.list(f"{self.root}/{DELETES_DIR}/"):
            if info.key not in keep_dv:
                self.store.delete(info.key)
                removed.append(info.key)
        return removed

    # -- reads ------------------------------------------------------
    def deletion_vector(self, snap: Snapshot, path: str) -> DeletionVector:
        dv_key = snap.deletion_vectors.get(path)
        if dv_key is None:
            return DeletionVector()
        return DeletionVector.deserialize(self.store.get(dv_key))

    def scan(self, column: str, snapshot: Snapshot | None = None):
        """Yield ``(path, row_index, value)`` for live rows of a column."""
        snap = snapshot or self.snapshot()
        for entry in snap.files:
            for row, value in live_rows(self.store, self, snap, column, entry.path):
                yield entry.path, row, value

    def to_pylist(self, column: str, snapshot: Snapshot | None = None) -> list:
        """All live values of a column (small tables / tests)."""
        return [value for _, _, value in self.scan(column, snapshot)]

    def read_group(self, snap: Snapshot, group: list) -> dict[str, list]:
        """Concatenate the live rows of several files, every column (the
        input of a rewrite: compaction, clustering, resharding)."""
        names = snap.schema.names
        out: dict[str, list] = {name: [] for name in names}
        for entry in group:
            dv = self.deletion_vector(snap, entry.path)
            reader = ParquetFile(self.store, entry.path)
            alive = [r for r in range(entry.num_rows) if r not in dv]
            for name in names:
                values: list = []
                for rg_index in range(len(reader.metadata.row_groups)):
                    pages = reader.read_column_chunk(rg_index, name)
                    values.extend(chunk_values(pages))
                out[name].extend(values[i] for i in alive)
        return out

    # -- internals ----------------------------------------------------
    def _commit_against(self, planned_version: int, actions: list[Action]) -> int:
        """Commit actions planned against ``planned_version``.

        If another writer committed in between, fail with
        :class:`CommitConflict` so the caller can re-plan — the planned
        Remove/SetDV actions may reference files that no longer exist.
        Plain appends never conflict logically, so they commit blind.
        """

        def plan(snap: Snapshot) -> list[Action]:
            if snap.version != planned_version:
                raise CommitConflict(
                    f"{self.root!r} moved past v{planned_version} "
                    f"(now v{snap.version}); re-plan"
                )
            return actions

        return self.log.commit(plan=plan)


def unmaterialized(snap: Snapshot, path: str) -> SnapshotNotFound:
    """Old snapshots stop being readable once the lake's vacuum
    physically drops their files; say so instead of 'object not found'."""
    return SnapshotNotFound(
        f"data file {path!r} of snapshot v{snap.version} is no longer "
        f"materialized (removed by a lake vacuum); read a newer snapshot"
    )


def live_rows(
    store: ObjectStore,
    lake: LakeTable,
    snap: Snapshot,
    column: str,
    path: str,
    query: Query | None = None,
):
    """Yield ``(row, value)`` for every non-deleted row of one data file.

    The file is read through ``store`` (the caller's, so its requests
    land on the caller's trace), one column chunk per dependent round.
    A row group whose footer min/max cannot hold a match of ``query``
    (``None`` reads every row) is skipped without a request: footer
    stats prune sorted columns and nothing on the random keys and text
    Rottnest indexes (paper §II-B).
    """
    dv = lake.deletion_vector(snap, path)
    try:
        reader = ParquetFile(store, path)
    except ObjectStoreError as exc:
        raise unmaterialized(snap, path) from exc
    metadata = reader.metadata
    stats = metadata.chunk_stats(column)
    for rg_index, rg in enumerate(metadata.row_groups):
        if stats[rg_index] and not may_hold(query, *stats[rg_index]):
            continue
        barrier()
        values = chunk_values(reader.read_column_chunk(rg_index, column))
        for row, value in enumerate(values, rg.first_row):
            if row not in dv:
                yield row, value

