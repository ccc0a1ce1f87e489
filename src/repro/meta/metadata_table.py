"""Rottnest metadata table.

Tracks which index files exist and which Parquet files each one covers
(paper Fig. 3). The paper implements it as a Delta Lake table; the only
property the protocol needs is *transactional* inserts and deletes, so
here it is a configuration of the lake's own transaction log
(:class:`~repro.lake.log.TransactionLog`): entries are insert/delete
dicts, the state is the live records. Any transactional store
(Postgres, DynamoDB, a Delta table) could be slotted in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.errors import LakeError
from repro.lake.log import (
    DEFAULT_CHECKPOINT_INTERVAL,
    LogFormat,
    TransactionLog,
    json_bytes,
    json_value,
)
from repro.storage.object_store import ObjectStore


@dataclass(frozen=True)
class IndexRecord:
    """One committed index file."""

    index_key: str  # object key of the index file
    index_type: str  # registered type name ("uuid_trie", "fm", "ivf_pq")
    column: str
    covered_files: tuple[str, ...]  # Parquet paths this file indexes
    num_rows: int
    size: int  # index file size in bytes (compaction planning input)
    created_at: float  # store-clock seconds at commit time

    def to_json(self) -> dict:
        return {**asdict(self), "covered_files": list(self.covered_files)}

    @classmethod
    def from_json(cls, obj: dict) -> "IndexRecord":
        return cls(**{**obj, "covered_files": tuple(obj["covered_files"])})


def _fold(
    version: int, entries: list[dict], base: dict[str, IndexRecord] | None
) -> dict[str, IndexRecord]:
    """Live records by index key, oldest first."""
    live = {} if base is None else dict(base)
    for entry in entries:
        for obj in entry.get("insert", []):
            record = IndexRecord.from_json(obj)
            if record.index_key in live:
                raise LakeError(f"index {record.index_key!r} inserted twice")
            live[record.index_key] = record
        for key in entry.get("delete", []):
            if key not in live:
                raise LakeError(f"deleting unknown index {key!r}")
            del live[key]
    return live


#: The metadata table's configuration of the transaction log.
META_LOG = LogFormat(
    log_dir="_meta",
    checkpoint_dir="_meta_checkpoints",
    encode=json_bytes,
    decode=json_value,
    fold=_fold,
    dump=lambda live: json_bytes([r.to_json() for r in live.values()]),
    load=lambda data: {
        r.index_key: r for r in map(IndexRecord.from_json, json_value(data))
    },
)


class MetadataTable:
    """Transactional insert/delete log of :class:`IndexRecord` rows.

    Every mutation is validated against the state at the version it
    commits on: after a conflict it re-reads and re-validates, so a
    racing writer can make it a no-op or refuse it, never commit it
    against stale state.
    """

    def __init__(
        self,
        store: ObjectStore,
        index_dir: str,
        *,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        self.log = TransactionLog(
            store, index_dir, META_LOG, checkpoint_interval=checkpoint_interval
        )

    @property
    def checkpoint_interval(self) -> int:
        return self.log.checkpoint_interval

    @checkpoint_interval.setter
    def checkpoint_interval(self, value: int) -> None:
        self.log.checkpoint_interval = max(1, value)

    def records(self) -> list[IndexRecord]:
        """Current live records (inserts minus deletes), oldest first."""
        return list(self.log.state().values())

    def indexed_files(self, column: str, index_type: str | None = None) -> set[str]:
        """Parquet paths covered by live indices on ``column``.

        With ``index_type``, only that type counts: a column can carry
        several index types (say, a trie and a bloom filter), each with
        its own coverage.
        """
        covered: set[str] = set()
        for record in self.records():
            if record.column != column:
                continue
            if index_type is not None and record.index_type != index_type:
                continue
            covered.update(record.covered_files)
        return covered

    def insert(self, records: list[IndexRecord]) -> int | None:
        """Transactionally insert the records whose keys are not live;
        returns the commit version, or ``None`` if every key was.

        Skipping live keys makes a re-run (or a racing maintainer that
        built the same content-addressed file) a no-op instead of a
        second insert of one key.
        """
        if not records:
            raise LakeError("nothing to insert")
        if len({r.index_key for r in records}) != len(records):
            raise LakeError("one insert names an index key twice")

        def plan(live: dict[str, IndexRecord]) -> dict | None:
            fresh = [r.to_json() for r in records if r.index_key not in live]
            return {"insert": fresh} if fresh else None

        return self.log.commit(plan=plan)

    def delete(self, index_keys: list[str]) -> int:
        """Transactionally delete records by index file key; raises
        :class:`LakeError` (before any PUT) if one is not live."""
        if not index_keys:
            raise LakeError("nothing to delete")
        if len(set(index_keys)) != len(index_keys):
            raise LakeError("one delete names an index key twice")

        def plan(live: dict[str, IndexRecord]) -> dict:
            missing = [k for k in index_keys if k not in live]
            if missing:
                raise LakeError(f"cannot delete unknown indices: {missing}")
            return {"delete": list(index_keys)}

        return self.log.commit(plan=plan)
