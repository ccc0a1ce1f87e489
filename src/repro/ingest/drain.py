"""Background drainer: sealed memtables -> committed lake files.

The handoff ordering (each step idempotent, so a crash at any PUT or
DELETE boundary is recoverable by just running ``drain()`` again):

1. truncate leftovers — segments at or below the committed floor are
   already in the lake; delete their WAL objects (no-op if gone),
2. seal every pending segment (marker PUT: the drainer owns it now),
3. flush — replay the pending segments in seq order and write one
   Parquet file at a *deterministic* content-addressed key, so a
   re-drain after a crash overwrites the same key with the same bytes,
4. commit ``[AddFile, SetTransaction(app_id, last_seq)]`` in a single
   lake log entry — the atomic point: before it the rows are fresh,
   after it they are lazy; never both, never neither,
5. optionally build indices over the new file through the shared
   :class:`~repro.maintain.MaintenancePipeline` (this step also runs
   when there is nothing new to flush, so a drain interrupted between
   commit and index converges on re-run),
6. truncate the drained segments and evict their memtables — both
   capped by any retention lease (:meth:`IngestTier.pin`): a pinned
   reader snapshot keeps the fresh copies above its floor alive.

Freshness lag — commit time minus each segment's WAL PUT mtime, both
on the store clock — lands in the ``ingest.freshness_lag_s`` sketch at
step 4.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.ingest.tier import IngestTier
from repro.ingest.wal import encode_columns
from repro.lake.table import DATA_DIR
from repro.obs.timeseries import get_hub
from repro.obs.trace import get_tracer


@dataclass
class DrainReport:
    """What one drain run moved, committed, and measured."""

    segments: list[int] = field(default_factory=list)
    rows: int = 0
    data_files: list[str] = field(default_factory=list)
    lake_version: int | None = None
    index_records: list = field(default_factory=list)
    freshness_lag_s: dict[int, float] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.segments


class IngestDrainer:
    """Drains one :class:`IngestTier` into its lake (single writer).

    ``index_specs`` — optional ``(column, index_type, params)`` triples
    built through ``pipeline`` after each commit, so drained rows land
    indexed, on the pipeline's worker pool.
    """

    def __init__(
        self,
        tier: IngestTier,
        *,
        pipeline=None,
        index_specs: tuple = (),
    ) -> None:
        if index_specs and pipeline is None:
            raise ValueError("index_specs requires a MaintenancePipeline")
        self.tier = tier
        self.pipeline = pipeline
        self.index_specs = tuple(index_specs)

    def drain(self) -> DrainReport:
        """Run the full handoff; safe to call after any crash."""
        with get_tracer().span("ingest.drain", app_id=self.tier.app_id):
            return self._drain()

    def _drain(self) -> DrainReport:
        tier, lake, wal = self.tier, self.tier.lake, self.tier.wal
        snap = lake.snapshot()
        floor = tier.floor(snap)
        segments = wal.segments()
        # Retention leases (pinned reader snapshots, e.g. a router over
        # shards materialized from an older snapshot) cap how far
        # truncation and eviction may go: draining still flushes and
        # commits — the floor advances for everyone — but the fresh
        # copies of segments above the lowest pinned floor stay alive
        # so pinned readers keep serving them.
        retained = tier.retained_floor()
        drop_bound = floor if retained is None else min(floor, retained)
        # Step 1: a crash after commit but before truncation leaves
        # committed segments behind; they are lazy now, so drop them.
        # The union with seal markers catches the narrower wreck of a
        # crash *between* a segment's two truncation DELETEs, which
        # leaves a seal with no segment.
        for seq in sorted(set(segments) | wal.sealed()):
            if seq <= drop_bound:
                wal.truncate(seq)
        pending = [seq for seq in segments if seq > floor]
        report = DrainReport()
        if pending:
            report = self._flush(pending)
        else:
            # A crash may have landed between a committed flush and its
            # due lake checkpoint. The retried drain has nothing left to
            # flush — the commit's SetTransaction already raised the
            # floor — so converge the checkpoint here; every crash
            # history must end on the same bytes. No-op when not due.
            lake.log.checkpoint(lake.log.latest_version())
        report.index_records = self._index_stage()
        drained_to = floor if not pending else pending[-1]
        evict_to = drained_to if retained is None else min(drained_to, retained)
        for seq in pending:
            if seq <= evict_to:
                wal.truncate(seq)
        tier.evict(evict_to)
        return report

    def _flush(self, pending: list[int]) -> DrainReport:
        tier, lake, wal = self.tier, self.tier.lake, self.tier.wal
        for seq in pending:
            wal.seal(seq)
        ingested_at = {seq: wal.ingested_at(seq) for seq in pending}
        batches = [wal.read(seq) for seq in pending]
        columns: dict[str, list] = {name: [] for name in lake.schema.names}
        for batch in batches:
            for name in lake.schema.names:
                columns[name].extend(batch[name])
        data_key = self._data_key(pending, columns)
        add = lake.write_data_at(data_key, columns)
        version = lake.commit_transactional(
            [add], app_id=tier.app_id, app_version=pending[-1]
        )
        at_s = tier.store.clock.now()
        hub = get_hub()
        lags = {}
        for seq in pending:
            lags[seq] = max(0.0, at_s - ingested_at[seq])
            hub.quantiles("ingest.freshness_lag_s").observe(
                lags[seq], at_s=at_s
            )
        hub.series("ingest.drains").observe(1.0, at_s=at_s)
        hub.series("ingest.drained_rows").observe(float(add.num_rows), at_s=at_s)
        return DrainReport(
            segments=list(pending),
            rows=add.num_rows,
            data_files=[data_key],
            lake_version=version,
            freshness_lag_s=lags,
        )

    def _index_stage(self) -> list:
        records = []
        for column, index_type, params in self.index_specs:
            report = self.pipeline.index(column, index_type, params=params)
            records.extend(report.records)
        return records

    def _data_key(self, pending: list[int], columns: dict[str, list]) -> str:
        """Content-addressed deterministic key for the flushed file."""
        canonical = json.dumps(
            {
                "segments": pending,
                "columns": encode_columns(self.tier.lake.schema, columns),
            },
            indent=None,
            sort_keys=True,
        ).encode("utf-8")
        digest = hashlib.sha1(canonical).hexdigest()[:10]
        root = self.tier.lake.root
        return (
            f"{root}/{DATA_DIR}/"
            f"ingest-{pending[0]:020d}-{pending[-1]:020d}-{digest}.parquet"
        )
