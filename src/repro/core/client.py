"""The Rottnest client: ``index`` and ``search`` (paper §IV-A, §IV-B).

The client is stateless between calls; all shared state lives in the
object store (index files + metadata table) and the underlying lake.
``index`` may be called from any process; ``search`` is read-only and
safe to run concurrently with everything else. ``index`` itself,
``compact`` and ``vacuum`` are written in :mod:`repro.core.maintenance`.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.errors import IndexAborted, RottnestIndexError
from repro.core.index_file import IndexFileReader
from repro.core.maintenance import build_index
from repro.core.queries import Query
from repro.core.results import SearchMatch, SearchPlan, SearchResult, SearchStats
from repro.core.search import plan, run_search, scope
from repro.lake.snapshot import Snapshot
from repro.lake.table import LakeTable, live_rows
from repro.meta.metadata_table import IndexRecord, MetadataTable
from repro.obs.trace import get_tracer
from repro.storage.object_store import ObjectStore
from repro.storage.pool import TracedPool

__all__ = ["RottnestClient", "SearchMatch", "SearchPlan", "SearchResult", "SearchStats"]

INDEX_FILES_DIR = "files"
DEFAULT_INDEX_TIMEOUT_S = 3600.0


class RottnestClient:
    """Index management + search over one lake table column set."""

    def __init__(
        self,
        store: ObjectStore,
        index_dir: str,
        lake: LakeTable,
        *,
        codec: str = "zlib",
        key_entropy: Callable[[], bytes] | None = None,
    ) -> None:
        self.store = store
        self.index_dir = index_dir.rstrip("/")
        self.lake = lake
        self.meta = MetadataTable(store, self.index_dir)
        self.index_timeout_s = DEFAULT_INDEX_TIMEOUT_S
        self.codec = codec
        #: Optional :class:`repro.ingest.IngestTier`. When attached,
        #: ``search`` merges the tier's fresh view of the query snapshot
        #: (WAL segments beyond the snapshot's committed high-water
        #: mark) with the lazy-tier results, so acked-but-undrained rows
        #: are returned before any ``index`` run. Assigned, not
        #: constructor-injected, to keep the core free of an ingest
        #: dependency.
        self.fresh_tier = None
        # Salt source for fresh index keys: by default four bytes of the
        # lake's entropy, so one seeded source makes a deployment's names
        # reproducible. Injectable so the chaos fuzzer can make whole
        # protocol histories bit-reproducible from one seed.
        self._key_entropy = key_entropy or (lambda: lake.entropy(4))

    # ------------------------------------------------------------------
    # index (§IV-A): repro.core.maintenance's build, run inline or pooled
    # ------------------------------------------------------------------
    def index(
        self,
        column: str,
        index_type: str,
        *,
        snapshot: Snapshot | None = None,
        params: dict | None = None,
        pool: "TracedPool | None" = None,
    ) -> IndexRecord | None:
        """Bring the index on ``column`` up to date with ``snapshot``.

        Builds one new index file covering every Parquet file in the
        snapshot not already covered by the metadata table. Returns the
        committed record, or ``None`` when there is nothing new to
        index. Raises :class:`IndexAborted` on timeout, on inputs that
        vanish mid-build (e.g. a concurrent lake vacuum), or when the
        new data is below the index type's minimum size.

        A ``pool`` fans the per-file page-value extraction across its
        workers; the index structure itself is still built and
        committed on the calling thread, so the committed bytes and
        metadata are identical whatever the pool.
        """
        return build_index(
            self, column, index_type, snapshot=snapshot, params=params, pool=pool
        )

    def new_index_key(self, blob: bytes, *, deterministic: bool = False) -> str:
        """Object key for a freshly built index blob.

        ``index`` keys are salted: two concurrent indexers of the same
        snapshot build identical blobs but must commit *distinct*
        records (the metadata table rejects double-insert of one key),
        so each gets its own key and vacuum later drops the loser.

        ``deterministic=True`` is content-addressed — same blob, same
        key — which is what makes compaction idempotent: a crashed run
        re-executed by a fresh client re-uploads the same bytes to the
        same key (a harmless overwrite) instead of accreting orphans.
        """
        digest = hashlib.sha1(blob).hexdigest()
        if deterministic:
            return f"{self.index_dir}/{INDEX_FILES_DIR}/{digest[:20]}.index"
        return (
            f"{self.index_dir}/{INDEX_FILES_DIR}/"
            f"{digest[:10]}-{self._key_entropy().hex()}.index"
        )

    def _check_timeout(self, started: float, stage: str) -> None:
        elapsed = self.store.clock.now() - started
        if elapsed > self.index_timeout_s:
            raise IndexAborted(
                f"index operation exceeded timeout ({elapsed:.0f}s > "
                f"{self.index_timeout_s:.0f}s) {stage}; retry"
            )

    # ------------------------------------------------------------------
    # search (§IV-B): repro.core.search's plan, run inline
    # ------------------------------------------------------------------
    def search(
        self,
        column: str,
        query: Query,
        *,
        k: int = 10,
        snapshot: Snapshot | None = None,
        partition: str | None = None,
        file_predicate=None,
        use_indices: bool = True,
    ) -> SearchResult:
        """Top-K search of ``snapshot`` (defaults to latest).

        Exact queries return any K verified matches; scoring queries
        return the K best-ranked. Rows in unindexed Parquet files are
        found by brute-force scanning, so no live row is ever missed.

        ``partition`` / ``file_predicate`` restrict the search to a
        subset of the snapshot's files — the paper's §VI mechanism for
        structured filters (e.g. a time-range predicate over
        time-partitioned data): cost scales with the fraction of
        partitions touched instead of the whole lake.

        ``use_indices=False`` skips index planning entirely and scans
        every in-scope file — the degraded mode the serve layer falls
        back to when an index component read fails mid-query. Results
        are identical (indices only accelerate), just slower.
        """
        return run_search(
            self,
            None,  # no pool: tasks run inline on the calling thread
            column,
            query,
            k=k,
            snapshot=snapshot,
            partition=partition,
            file_predicate=file_predicate,
            use_indices=use_indices,
        )

    def count(
        self,
        column: str,
        query,
        *,
        snapshot: Snapshot | None = None,
        partition: str | None = None,
    ) -> int:
        """Exact occurrence count of a substring, straight off the
        FM indices (no in-situ probing for covered files).

        Counts *occurrences* (overlapping included), not matching rows,
        which is what corpus-frequency analytics wants. Rows in
        uncovered files are brute-force counted; logically deleted rows
        are **included** for covered files (their text is still in the
        index) — pass a post-vacuum snapshot for exact live counts, or
        use :meth:`search` when deletions matter.
        """
        from repro.core.queries import SubstringQuery
        from repro.indices.fm.fm_index import FmQuerier

        if not isinstance(query, SubstringQuery):
            raise RottnestIndexError(
                "count() serves SubstringQuery only; use search() otherwise"
            )
        with get_tracer().span("count", column=column) as span:
            snap = snapshot or self.lake.snapshot()
            snap_paths = scope(snap, partition, None)
            chosen, uncovered = plan(
                self.meta.records(), column, query.index_types, snap_paths
            )
            total = 0
            for record in chosen:
                reader = IndexFileReader.open(
                    self.store, record.index_key, size=record.size
                )
                querier = FmQuerier(reader)
                # Count only occurrences within in-scope files: when the
                # index also covers out-of-scope files, fall back to probing
                # pages per file via candidate resolution.
                if set(record.covered_files) <= snap_paths:
                    total += querier.count(query.needle)
                else:
                    total += self._count_via_scan(
                        column, query, snap,
                        set(record.covered_files) & snap_paths,
                    )
            total += self._count_via_scan(column, query, snap, uncovered)
            span.set("occurrences", total)
            return total

    def _count_via_scan(self, column, query, snap, paths) -> int:
        total = 0
        for path in sorted(paths):
            for _, value in live_rows(
                self.store, self.lake, snap, column, path, query
            ):
                total += _count_overlapping(value, query.needle)
        return total

    def explain(
        self,
        column: str,
        query: Query,
        *,
        snapshot: Snapshot | None = None,
        partition: str | None = None,
        file_predicate=None,
    ) -> SearchPlan:
        """The plan :meth:`search` would execute, without executing it."""
        snap = snapshot or self.lake.snapshot()
        snap_paths = scope(snap, partition, file_predicate)
        chosen, uncovered = plan(
            self.meta.records(), column, query.index_types, snap_paths
        )
        return SearchPlan(
            column=column,
            snapshot_version=snap.version,
            candidate_files=tuple(sorted(snap_paths)),
            index_files=tuple(
                (
                    r.index_key,
                    r.index_type,
                    len(set(r.covered_files) & snap_paths),
                )
                for r in chosen
            ),
            uncovered_files=tuple(sorted(uncovered)),
        )


def _count_overlapping(haystack: str, needle: str) -> int:
    count = start = 0
    while True:
        start = haystack.find(needle, start)
        if start < 0:
            return count
        count += 1
        start += 1
