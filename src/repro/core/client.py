"""The Rottnest client: ``index`` and ``search`` (paper §IV-A, §IV-B).

The client is stateless between calls; all shared state lives in the
object store (index files + metadata table) and the underlying lake.
``index`` may be called from any process; ``search`` is read-only and
safe to run concurrently with everything else. ``compact`` and
``vacuum`` live in :mod:`repro.core.maintenance`.
"""

from __future__ import annotations

import hashlib
import os
from functools import partial
from typing import Callable

import numpy as np

from repro.errors import IndexAborted, ObjectStoreError, RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.core.queries import Query
from repro.core.results import SearchMatch, SearchPlan, SearchResult, SearchStats
from repro.core.search import live_rows, plan, run_search, scope
from repro.formats.page_reader import PageTable, build_page_table
from repro.formats.reader import ParquetFile
from repro.indices.base import builder_for
from repro.lake.snapshot import Snapshot
from repro.lake.table import LakeTable
from repro.meta.metadata_table import IndexRecord, MetadataTable
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage.object_store import ObjectStore
from repro.storage.pool import TracedPool, run_inline

__all__ = ["RottnestClient", "SearchMatch", "SearchPlan", "SearchResult", "SearchStats"]

INDEX_FILES_DIR = "files"
DEFAULT_INDEX_TIMEOUT_S = 3600.0

_INDEX_BUILDS = get_registry().counter(
    "index_builds_total", "Index build attempts by outcome", ("outcome",)
)


class RottnestClient:
    """Index management + search over one lake table column set."""

    def __init__(
        self,
        store: ObjectStore,
        index_dir: str,
        lake: LakeTable,
        *,
        index_timeout_s: float = DEFAULT_INDEX_TIMEOUT_S,
        codec: str = "zlib",
        key_entropy: Callable[[], bytes] | None = None,
    ) -> None:
        self.store = store
        self.index_dir = index_dir.rstrip("/")
        self.lake = lake
        self.meta = MetadataTable(store, self.index_dir)
        self.index_timeout_s = index_timeout_s
        self.codec = codec
        #: Optional :class:`repro.ingest.IngestTier`. When attached,
        #: ``search`` merges the tier's fresh view of the query snapshot
        #: (WAL segments beyond the snapshot's committed high-water
        #: mark) with the lazy-tier results, so acked-but-undrained rows
        #: are returned before any ``index`` run. Assigned, not
        #: constructor-injected, to keep the core free of an ingest
        #: dependency.
        self.fresh_tier = None
        # Salt source for fresh index keys. Injectable so the chaos
        # fuzzer can make whole protocol histories bit-reproducible
        # from one seed.
        self._key_entropy = key_entropy or (lambda: os.urandom(4))

    # ------------------------------------------------------------------
    # index (§IV-A): plan -> build -> upload -> commit, with timeout
    # ------------------------------------------------------------------
    def index(
        self,
        column: str,
        index_type: str,
        *,
        snapshot: Snapshot | None = None,
        params: dict | None = None,
        workers: int = 1,
        pool: "TracedPool | None" = None,
    ) -> IndexRecord | None:
        """Bring the index on ``column`` up to date with ``snapshot``.

        Builds one new index file covering every Parquet file in the
        snapshot not already covered by the metadata table. Returns the
        committed record, or ``None`` when there is nothing new to
        index. Raises :class:`IndexAborted` on timeout, on inputs that
        vanish mid-build (e.g. a concurrent lake vacuum), or when the
        new data is below the index type's minimum size.

        ``workers > 1`` (or an injected ``pool``) fans the per-file
        page-value extraction across a bounded worker pool; the index
        structure itself is still built and committed on the calling
        thread, so the committed bytes and metadata are identical to
        the serial run regardless of worker count.
        """
        with get_tracer().span(
            "index", column=column, index_type=index_type
        ) as span:
            before = self.store.stats.snapshot()
            try:
                record = self._index(
                    column,
                    index_type,
                    snapshot=snapshot,
                    params=params,
                    workers=workers,
                    pool=pool,
                )
            except IndexAborted:
                _INDEX_BUILDS.inc(outcome="aborted")
                span.set("outcome", "aborted")
                raise
            finally:
                delta = self.store.stats.snapshot().delta(before)
                span.set("bytes_read", delta.bytes_read)
                span.set("bytes_written", delta.bytes_written)
                span.set(
                    "requests",
                    delta.gets + delta.puts + delta.lists
                    + delta.heads + delta.deletes,
                )
            outcome = "noop" if record is None else "committed"
            _INDEX_BUILDS.inc(outcome=outcome)
            span.set("outcome", outcome)
            if record is not None:
                span.set("rows", record.num_rows)
                span.set("index_bytes", record.size)
            return record

    def _index(
        self,
        column: str,
        index_type: str,
        *,
        snapshot: Snapshot | None = None,
        params: dict | None = None,
        workers: int = 1,
        pool: "TracedPool | None" = None,
    ) -> IndexRecord | None:
        tracer = get_tracer()
        started = self.store.clock.now()
        builder_cls = builder_for(index_type)

        # Plan: new data files only (deletion vectors are never
        # indexed); coverage is per (column, index type). Metadata and
        # manifest reads are inherently sequential round trips, so the
        # plan phase always runs on the calling thread.
        with tracer.span("index.plan", phase="plan") as plan_span:
            self.store.start_trace()
            try:
                snap = snapshot or self.lake.snapshot()
                already = self.meta.indexed_files(column, index_type)
            finally:
                plan_trace = self.store.stop_trace()
            plan_trace.barrier()
            plan_span.trace = plan_trace
        new_files = [f for f in snap.files if f.path not in already]
        if not new_files:
            return None
        total_rows = sum(f.num_rows for f in new_files)
        if total_rows < builder_cls.min_rows:
            raise IndexAborted(
                f"{total_rows} new rows < minimum {builder_cls.min_rows} for "
                f"{index_type!r}; leave them to brute-force scanning"
            )

        # Extract: page tables + page values, one task per input file.
        # Workers only *read*; results are reassembled in snapshot file
        # order with sequentially renumbered page gids, so the page
        # stream — and hence the built index — is byte-identical to the
        # serial loop no matter how tasks interleave.
        with tracer.span(
            "index.extract", phase="extract", files=len(new_files)
        ) as extract_span:
            tasks = [partial(self._extract_file, e, column) for e in new_files]
            if pool is not None:
                extract_trace, extracted = pool.run(
                    tasks, span_name="indexer:task"
                )
            elif workers > 1:
                with TracedPool(
                    self.store,
                    workers=workers,
                    thread_name_prefix="indexer",
                    span_name="indexer:task",
                ) as scratch:
                    extract_trace, extracted = scratch.run(tasks)
            else:
                # One blocking extraction at a time — the same trace
                # shape a one-worker pool records.
                extract_trace, extracted = run_inline(self.store, tasks)
            extract_span.trace = extract_trace

        tables: list[PageTable] = []
        page_stream: list[tuple[int, list]] = []
        gid = 0
        for table, page_values in extracted:
            tables.append(table)
            for values in page_values:
                page_stream.append((gid, values))
                gid += 1
        builder = builder_cls.build(page_stream, **(params or {}))
        writer = IndexFileWriter(
            index_type,
            column,
            PageDirectory(tables),
            params=dict(params or {}),
            codec=self.codec,
        )
        builder.write(writer)
        blob = writer.finish()

        # Timeout check before any externally visible effect: an indexer
        # that overruns must abort so vacuum's age-based GC stays sound.
        self._check_timeout(started, "before upload")

        # Commit (transactional insert into the metadata table) stays
        # single-threaded whatever the worker count — the Existence
        # invariant needs the index-file PUT durable before its record,
        # and the metadata log is one conditional-PUT stream anyway.
        with tracer.span("index.commit", phase="commit") as commit_span:
            self.store.start_trace()
            try:
                key = self.new_index_key(blob)
                self.store.put(key, blob)

                # A crash between upload and here leaves an orphan index
                # file, cleaned up by vacuum once it is older than the
                # timeout.
                self._check_timeout(started, "before commit")
                record = IndexRecord(
                    index_key=key,
                    index_type=index_type,
                    column=column,
                    covered_files=tuple(f.path for f in new_files),
                    num_rows=total_rows,
                    size=len(blob),
                    created_at=self.store.clock.now(),
                )
                self.meta.insert([record])
            finally:
                commit_trace = self.store.stop_trace()
            commit_span.trace = commit_trace
        return record

    def _extract_file(
        self, entry, column: str
    ) -> tuple[PageTable, list[list]]:
        """Read one Parquet file's page table + page values for indexing.

        Pure read work — safe to run on a pool thread. Raises
        :class:`IndexAborted` when the input vanished mid-build (e.g. a
        concurrent lake vacuum), exactly like the serial loop did.
        """
        try:
            reader = ParquetFile(self.store, entry.path)
        except ObjectStoreError as exc:
            raise IndexAborted(
                f"input file {entry.path!r} disappeared during indexing; "
                f"retry against a newer snapshot"
            ) from exc
        table = build_page_table(reader.metadata, entry.path, column)
        return table, list(_iter_page_values(reader, table, column))

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
            chosen, uncovered = plan(self.meta, column, query, snap_paths)
            total = 0
            for record in chosen:
                reader = IndexFileReader.open(self.store, record.index_key)
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
            for _, value in live_rows(self.store, self.lake, snap, column, path):
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
        chosen, uncovered = plan(self.meta, column, query, snap_paths)
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


def _iter_page_values(reader: ParquetFile, table: PageTable, column: str):
    """Yield each page's values in page-table order.

    Index builds stream whole files, so chunk-granularity reads are the
    right access width; the chunks are then re-sliced along the page
    boundaries the index will point at.
    """
    all_values: list = []
    vector_chunks: list[np.ndarray] = []
    # Chunk reads depend on the footer fetched at open: a dependent
    # round in the trace (chunks themselves fan out within the round).
    reader.store.barrier()
    for rg_index in range(len(reader.metadata.row_groups)):
        values = reader.read_column_chunk(rg_index, column)
        if isinstance(values, np.ndarray):
            vector_chunks.append(values)
        else:
            all_values.extend(values)
    column_values = (
        np.concatenate(vector_chunks) if vector_chunks else all_values
    )
    for entry in table.entries:
        yield column_values[entry.row_start : entry.row_start + entry.num_values]
