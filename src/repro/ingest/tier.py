"""The fresh tier: WAL-backed memtables merged into every search.

:class:`IngestTier` is the write-read decoupling seam. ``ingest()``
acks a batch once its WAL segment PUT is durable, then indexes it in an
in-memory :class:`~repro.ingest.memtable.Memtable` — so the row is
searchable immediately, before any ``index`` run. ``search_fresh()``
serves the *fresh view of a lake snapshot*: segment ``seq`` is fresh
for snapshot ``S`` iff ``seq > S.app_versions["ingest/<root>"]``, the
high-water mark the drainer commits atomically with each flushed file.
That rule — not any in-memory state — is what makes the handoff
exactly-once: a segment is either beyond the mark (served fresh) or at
or below it (served from the lake), never both, never neither.
"""

from __future__ import annotations

import threading

from repro.core.client import SearchMatch
from repro.core.queries import Query
from repro.errors import IngestError
from repro.ingest.memtable import Memtable
from repro.ingest.wal import WriteAheadLog, encode_columns
from repro.lake.snapshot import Snapshot
from repro.lake.table import LakeTable
from repro.obs.timeseries import get_hub
from repro.storage.object_store import ObjectStore


class IngestTier:
    """One ingest directory's WAL + memtables in front of a lake."""

    def __init__(self, store: ObjectStore, root: str, lake: LakeTable) -> None:
        self.store = store
        self.root = root.rstrip("/")
        self.lake = lake
        self.wal = WriteAheadLog(store, self.root, lake.schema)
        self.app_id = f"ingest/{self.root}"
        self._memtables: dict[int, Memtable] = {}
        self._next_seq = 0
        self._pins: dict[int, int] = {}  # lease id -> pinned floor
        self._next_pin = 0
        self._lock = threading.Lock()
        self.recover()

    # -- recovery ------------------------------------------------------
    def floor(self, snapshot: Snapshot | None = None) -> int:
        """Highest WAL seq already committed to the lake (-1 if none)."""
        snap = snapshot or self.lake.snapshot()
        return snap.app_versions.get(self.app_id, -1)

    def recover(self) -> int:
        """Rebuild memtables by replaying undrained WAL segments.

        Replay inserts the same canonical columns ``ingest()`` inserted
        live, so the rebuilt tier — and anything later flushed from it —
        is byte-identical to the uncrashed history. Returns the number
        of segments replayed. Segments at or below the lake's committed
        floor are left for the drainer to truncate.
        """
        floor = self.floor()
        segments = self.wal.segments()
        replayed: dict[int, Memtable] = {}
        for seq in segments:
            if seq <= floor:
                continue
            table = Memtable(seq, self.wal.segment_key(seq), self.lake.schema)
            table.insert(self.wal.read(seq))
            replayed[seq] = table
        with self._lock:
            self._memtables = replayed
            self._next_seq = max(segments, default=floor) + 1
            self._next_seq = max(self._next_seq, floor + 1)
        return len(replayed)

    # -- write path ----------------------------------------------------
    def ingest(self, columns: dict[str, list]) -> int:
        """Durably log one batch, index it in memory, and ack.

        Returns the batch's WAL sequence number. The ack contract: once
        this returns, ``search()`` on any client sharing this tier
        finds the rows — before any ``index``/``compact`` run.
        """
        # Validate before any durable effect: a rejected batch (missing
        # or ragged columns, zero rows) must not consume a seq or leave
        # a segment object behind for recovery/drain to replay.
        payload = encode_columns(self.lake.schema, columns)
        if not payload[self.lake.schema.fields[0].name]:
            raise IngestError("empty ingest batch")
        with self._lock:
            # The WAL PUT happens under the lock: segment durability is
            # then monotonic in seq, so a drain can never observe seq N
            # durable while an *acked-later* seq < N is still in
            # flight. Without this, committing floor = N would strand
            # the lower segment below the floor — excluded from the
            # fresh view, never flushed, deleted by the next drain's
            # leftover truncation — silently losing an acked batch.
            seq = self._next_seq
            self._next_seq += 1
            canonical = self.wal.append_encoded(seq, payload)
            table = Memtable(seq, self.wal.segment_key(seq), self.lake.schema)
            rows = table.insert(canonical)
            self._memtables[seq] = table
        at_s = self.store.clock.now()
        get_hub().series("ingest.rows").observe(float(rows), at_s=at_s)
        get_hub().series("ingest.batches").observe(1.0, at_s=at_s)
        return seq

    # -- read path -----------------------------------------------------
    def search_fresh(
        self,
        column: str,
        query: Query,
        *,
        k: int,
        snapshot: Snapshot | None = None,
    ) -> list[SearchMatch]:
        """Verified fresh-tier matches for the given lake snapshot.

        Exact queries return at most ``k`` matches (ascending seq);
        scoring queries return *every* fresh row scored — the caller
        merges them with the lazy candidates and applies the global
        top-k cut.
        """
        floor = self.floor(snapshot)
        with self._lock:
            tables = [
                table
                for seq, table in sorted(self._memtables.items())
                if seq > floor
            ]
        get_hub().series("ingest_fresh_searches_total").observe(
            at_s=self.store.clock.now()
        )
        matches: list[SearchMatch] = []
        for table in tables:
            matches.extend(table.search(column, query))
            if not query.scoring and len(matches) >= k:
                break
        return matches if query.scoring else matches[:k]

    # -- introspection / maintenance hooks -----------------------------
    def pending_seqs(self, snapshot: Snapshot | None = None) -> list[int]:
        """Undrained segment seqs for a snapshot, ascending."""
        floor = self.floor(snapshot)
        return [seq for seq in self.wal.segments() if seq > floor]

    def pending_rows(self, snapshot: Snapshot | None = None) -> int:
        """Rows currently served from memtables (undrained)."""
        floor = self.floor(snapshot)
        with self._lock:
            return sum(
                t.num_rows for seq, t in self._memtables.items() if seq > floor
            )

    def evict(self, up_to_seq: int) -> None:
        """Drop memtables at or below ``up_to_seq`` (drained to lake)."""
        with self._lock:
            for seq in [s for s in self._memtables if s <= up_to_seq]:
                del self._memtables[seq]

    # -- retention leases ----------------------------------------------
    def pin(self, snapshot: Snapshot | None = None) -> int:
        """Lease the fresh view of ``snapshot``; returns the lease id.

        A reader that serves lazy data from an older snapshot (the
        sharded :class:`~repro.shard.router.QueryRouter`, whose shards
        were materialized from one) pins that snapshot so drains keep
        the memtables and WAL segments above its floor alive — rows the
        drainer commits *after* the pin stay servable fresh, instead of
        falling between the reader's stale shards and the advanced
        floor. Leases are process-local, like the memtables they
        protect; release with :meth:`unpin`.
        """
        floor = self.floor(snapshot)
        with self._lock:
            lease = self._next_pin
            self._next_pin += 1
            self._pins[lease] = floor
        return lease

    def unpin(self, lease: int) -> None:
        """Release a retention lease (idempotent)."""
        with self._lock:
            self._pins.pop(lease, None)

    def retained_floor(self) -> int | None:
        """Lowest pinned floor, or None when nothing is pinned.

        The drainer must not truncate WAL segments or evict memtables
        above this seq, however far the committed floor advances.
        """
        with self._lock:
            return min(self._pins.values(), default=None)
