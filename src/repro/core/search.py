"""The search plan (paper §IV-B), written once.

plan → fresh probe → one task per chosen index record → verification in
submission order → brute-force fill → fresh/lazy merge. Exact queries
run *probe → claim → coalesced page read → CRC check* as one task per
record (a record's page reads depend on its own probe only); the
verification then inflates a page and finds the hits in its bytes
(``query.page_hits``) page by page until K, and looks up deletion
vectors for the hits alone. Scoring queries keep ``index_probe`` →
``page_read`` as separate phases because their global candidate sort
is a real cross-record barrier.

The plan is parameterised by one thing — how tasks are run: inline on
the calling thread (:meth:`RottnestClient.search
<repro.core.client.RottnestClient.search>`) or in waves on a
:class:`~repro.storage.pool.TracedPool` (:meth:`SearchExecutor.search
<repro.serve.executor.SearchExecutor.search>`). Results are the same;
only the :class:`~repro.storage.stats.RequestTrace`, hence modeled
latency and cost, differs. **Stop-at-K:** waves are consumed in
submission order and no further wave — index record or brute-force
file — is launched once an exact query has K verified rows.

The span vocabulary is emitted here and nowhere else: a ``search`` root
(``engine``, ``searchers``, ``kind``), phase spans named in
:data:`repro.obs.attribution.PHASE_ORDER`, and the heat attributes
``probed_files`` / ``scanned_files`` / ``cell_probes`` that
:mod:`repro.crack.heat` reads.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Iterator

import numpy as np

from repro.core.index_file import IndexFileReader, PageDirectory
from repro.core.queries import Query
from repro.core.results import (
    SearchMatch,
    SearchResult,
    SearchStats,
    merge_exact,
    merge_topk,
)
from repro.errors import ObjectStoreError, RottnestIndexError
from repro.formats.encoding import decode_values
from repro.formats.page_reader import PageEntry, fetch_pages, inflate
from repro.indices.base import ExactQuerier, ScoringQuerier, querier_for
from repro.lake.snapshot import Snapshot
from repro.lake.table import LakeTable, live_rows, unmaterialized
from repro.meta.metadata_table import IndexRecord
from repro.obs.timeseries import get_hub
from repro.obs.trace import Span, get_tracer
from repro.storage.pool import (
    Run,
    TracedPool,
    end_phase,
    run_inline,
    run_phase,
    spent,
)
from repro.storage.stats import RequestTrace, barrier

def probe_fresh(
    tier, column: str, query: Query, k: int, snapshot: Snapshot | None
) -> list[SearchMatch]:
    """The ingest tier's fresh view of ``snapshot`` as one more run for
    the merge: memtable probes are in-memory, so they cost nothing in
    the trace, and WAL-segment file identities never collide with lake
    ``(file, row)`` ones."""
    with get_tracer().span("probe:fresh", phase="fresh") as span:
        fresh = tier.search_fresh(column, query, k=k, snapshot=snapshot)
        span.set("matches", len(fresh))
    return fresh


# -- planning ------------------------------------------------------------
def scope(snap: Snapshot, partition: str | None, file_predicate) -> set[str]:
    """Snapshot files in scope for this query."""
    paths = set(snap.file_paths)
    if partition is not None:
        paths = {p for p in paths if LakeTable.partition_of(p) == partition}
    if file_predicate is not None:
        paths = {p for p in paths if file_predicate(p)}
    return paths


def plan(
    records: list[IndexRecord],
    column: str,
    index_types: tuple[str, ...],
    snap_paths: set[str],
) -> tuple[list[IndexRecord], set[str]]:
    """Pick index files to query and files left to brute-force.

    Newest-first greedy cover: later index files (e.g. produced by
    index compaction) win over the older ones they subsume; index
    files covering no file of the snapshot are skipped entirely.
    Any of ``index_types`` (a query's compatible types; maintenance
    asks for one) can serve, with earlier types preferred on timestamp
    ties (e.g. a trie over a bloom filter for the same files).
    """
    if not index_types:
        return [], set(snap_paths)
    type_rank = {t: i for i, t in enumerate(index_types)}
    records = [
        r for r in records if r.column == column and r.index_type in type_rank
    ]
    # Newest first; ties (same store-clock second) broken by query
    # type preference, then metadata insertion order so compaction
    # products win over the files they subsume.
    ordered = sorted(
        range(len(records)),
        key=lambda i: (
            -records[i].created_at,
            type_rank[records[i].index_type],
            -i,
        ),
    )
    chosen: list[IndexRecord] = []
    covered: set[str] = set()
    for record in (records[i] for i in ordered):
        useful = (set(record.covered_files) & snap_paths) - covered
        if useful:
            chosen.append(record)
            covered |= useful
    return chosen, snap_paths - covered


# -- the plan ------------------------------------------------------------
def run_search(
    client,
    pool: TracedPool | None,
    column: str,
    query: Query,
    *,
    k: int = 10,
    snapshot: Snapshot | None = None,
    partition: str | None = None,
    file_predicate=None,
    use_indices: bool = True,
) -> SearchResult:
    """Top-K search of ``snapshot`` (defaults to latest) over ``client``'s
    lake, index directory and optional fresh tier; tasks run on ``pool``,
    or inline on the calling thread when it is ``None``."""
    if k < 1:
        raise RottnestIndexError(f"k must be >= 1, got {k}")
    tracer = get_tracer()
    store = client.store
    with Run() as run, tracer.span(
        "search",
        column=column,
        k=k,
        engine="client" if pool is None else "executor",
        searchers=1 if pool is None else pool.workers,
        # Query kind rides on the root so the cracking heat map can
        # weigh workloads (a brute-forced vector scan costs far more
        # than a brute-forced UUID probe).
        kind=type(query).__name__,
    ) as root:
        # Plan phase is part of the query's latency: reading the
        # metadata table (and the snapshot manifest when not pinned)
        # costs real object-store round trips. The two logs are
        # independent, so they are read one after the other on this
        # thread and modeled as issued together, as independent index
        # files are below.
        with get_tracer().span("plan", phase="plan") as plan_span:
            reads = [
                lambda: snapshot or client.lake.snapshot(),
                client.meta.records if use_indices else lambda: [],
            ]
            snap, records = run_phase(
                plan_span, run_inline, reads, compose=RequestTrace.merge_parallel
            )
            paths = scope(snap, partition, file_predicate)
            chosen, uncovered = plan(records, column, query.index_types, paths)
        # One check for every path a vector query takes: index probe,
        # refine and brute force score against the column's vectors.
        if query.scoring:
            dim = snap.schema.field(column).vector_dim
            if len(query.vector) != dim:
                raise RottnestIndexError(
                    f"query vector has dim {len(query.vector)}; column "
                    f"{column!r} holds vectors of dim {dim}"
                )

        # Fresh rows count toward K for exact queries and join the
        # global sort for scoring ones. Structured scoping (partition /
        # file predicate) addresses lake files only, so scoped queries
        # stay lazy-tier-only.
        fresh: list[SearchMatch] = []
        tier = client.fresh_tier
        if tier is not None and partition is None and file_predicate is None:
            fresh = probe_fresh(tier, column, query, k, snap)

        lazy = _LazySearch(client, pool, column, query, snap, paths)
        if query.scoring:
            lazy.scoring(chosen, uncovered)
            matches = merge_topk([fresh, lazy.found], k)
        else:
            lazy.want = k - len(fresh)
            if lazy.want > 0:
                lazy.exact(chosen, uncovered)
            matches = merge_exact([fresh, lazy.found[: lazy.want]], k)
        stats = lazy.stats
        stats.trace = run.trace
        get_hub().series(
            "searches_total", kind="scoring" if query.scoring else "exact"
        ).observe(at_s=store.clock.now())
        root.set("matches", len(matches))
        root.set("fresh_matches", len(fresh))
        root.set("index_files_queried", stats.index_files_queried)
        root.set("pages_probed", stats.pages_probed)
        root.set("files_brute_forced", stats.files_brute_forced)
    return SearchResult(matches=matches, stats=stats)


class _LazySearch:
    """One query's pass over the lazy tier (index files + lake files)."""

    def __init__(self, client, pool, column, query, snap, paths):
        self.store = client.store
        self.lake = client.lake
        self.pool = pool
        self.column = column
        self.query = query
        self.snap = snap
        self.paths = paths
        self.field = snap.schema.field(column)
        self.stats = SearchStats()
        self.found: list[SearchMatch] = []
        self.want = 0  # exact queries: verified rows still needed

    def _enough(self) -> bool:
        """Exact queries want *any* K verified rows; scoring queries
        must rank everything and never stop early."""
        return not self.query.scoring and len(self.found) >= self.want

    def _waves(self, span: Span, tasks: list) -> Iterator:
        """Run ``tasks`` wave by wave as the phase ``span`` stands for,
        yielding payloads in submission order; no further wave is
        launched once :meth:`_enough`. The phase's trace runs after the
        previous phase's (:func:`~repro.storage.pool.end_phase`), also
        when a wave or the consumer raises."""
        pool = self.pool
        if pool is None:
            # Inline: no thread, no future, one task per wave — and the
            # traces ``merge_parallel``: independent index files (and
            # uncovered data files) are modeled as queried in parallel,
            # which is what a fleet of stateless searchers does.
            width, run = 1, run_inline
            compose = RequestTrace.merge_parallel
        else:
            # Only ``pool.workers`` requests can be outstanding at
            # once: a wave merges in parallel (inside ``pool.run``),
            # waves compose sequentially.
            width, run, compose = pool.workers, pool.run, RequestTrace.then
        trace = RequestTrace()
        try:
            for start in range(0, len(tasks), width):
                if self._enough():
                    break
                try:
                    wave_trace, payloads = run(tasks[start : start + width])
                except BaseException as error:
                    # The failed wave's requests were made: bill them.
                    trace = compose(trace, spent(error))
                    raise
                trace = compose(trace, wave_trace)
                yield from payloads
        finally:
            # Also when a wave raises, or the consumer does on a payload
            # (closing this generator).
            end_phase(span, trace)

    def _read_pages(self, entries: list[PageEntry]):
        """In-situ read of ``entries`` as one coalesced batch, each page
        CRC-checked and still stored (:func:`fetch_pages`), plus the
        deletion vector of each entry's file."""
        if not entries:
            return [], []
        try:
            pages = fetch_pages(self.store, entries)
        except ObjectStoreError as exc:
            # Store errors that know their key (``ObjectNotFound``)
            # report it; otherwise the batch's first file stands in.
            key = getattr(exc, "key", None)
            failed = key if isinstance(key, str) else entries[0].file_key
            raise unmaterialized(self.snap, failed) from exc
        dvs = [self.lake.deletion_vector(self.snap, e.file_key) for e in entries]
        return pages, dvs

    def _brute_force(self, uncovered: set[str]) -> None:
        """Scan the files no chosen index covers (paper §IV-B step 3):
        exact queries only until K is satisfied, scoring queries
        exhaustively — they must rank *all* data."""
        if not uncovered or self._enough():
            return
        query, scoring = self.query, self.query.scoring

        def scan_file(path: str):
            needed = self.want - len(self.found)  # fixed within a wave
            out: list[SearchMatch] = []
            for row, value in live_rows(
                self.store, self.lake, self.snap, self.column, path, query
            ):
                if scoring:
                    score = query.distance(value)
                    out.append(SearchMatch(path, row, value, score))
                elif query.matches(value):
                    out.append(SearchMatch(path, row, value))
                    if len(out) >= needed:
                        break
            return path, out

        scanned: list[str] = []
        with get_tracer().span("brute_force", phase="brute_force") as span:
            tasks = [partial(scan_file, path) for path in sorted(uncovered)]
            for path, matches in self._waves(span, tasks):
                scanned.append(path)
                self.found.extend(matches)
            span.set("scanned_files", tuple(scanned))
        self.stats.files_brute_forced = len(scanned)

    # -- exact (UUID / substring / range) --------------------------------
    def exact(self, chosen: list[IndexRecord], uncovered: set[str]) -> None:
        """Fill :attr:`found` with up to :attr:`want` verified rows."""
        store, query, stats = self.store, self.query, self.stats
        # First probe to claim a page wins, so index files that overlap
        # never read a page twice; the lock only matters on a pool.
        seen_pages: set[tuple[str, int]] = set()
        claim_lock = threading.Lock()

        def search_record(record: IndexRecord):
            reader = IndexFileReader.open(store, record.index_key, size=record.size)
            querier = querier_for(record.index_type)(reader)
            assert isinstance(querier, ExactQuerier)
            gids = querier.candidate_pages(query.index_probe())
            directory = reader.directory
            located = [
                entry
                for entry in map(directory.locate, gids)
                # Out-of-scope locations are stale (file compacted away).
                if entry.file_key in self.paths
            ]
            claimed: list[PageEntry] = []
            with claim_lock:
                for entry in located:
                    page_key = (entry.file_key, entry.page_id)
                    if page_key not in seen_pages:
                        seen_pages.add(page_key)
                        claimed.append(entry)
            # Page reads depend on this record's probe — and only on
            # it, not on every other record's.
            barrier()
            return claimed, *self._read_pages(claimed)

        probed_files: set[str] = set()
        with get_tracer().span("probe", phase="probe") as span:
            tasks = [partial(search_record, record) for record in chosen]
            for claimed, pages, dvs in self._waves(span, tasks):
                stats.index_files_queried += 1
                stats.candidates += len(claimed)
                stats.pages_probed += len(claimed)
                probed_files.update(entry.file_key for entry in claimed)
                for entry, page, dv in zip(claimed, pages, dvs):
                    if self._enough():
                        break
                    page_hit = False
                    # CRC-checked in its task; inflated and searched
                    # only here, so a page after the K-th row never is.
                    raw = inflate(entry, page)
                    for index, value in query.page_hits(
                        self.field, raw, entry.num_values
                    ):
                        row = entry.row_start + index
                        if row in dv:
                            continue
                        page_hit = True
                        self.found.append(SearchMatch(entry.file_key, row, value))
                    if not page_hit:
                        stats.false_positives += 1
            span.set("probed_files", tuple(sorted(probed_files)))
        self._brute_force(uncovered)

    # -- scoring (vector) ------------------------------------------------
    def scoring(self, chosen: list[IndexRecord], uncovered: set[str]) -> None:
        """Fill :attr:`found` with every refined or brute-scored row."""
        store, query, stats = self.store, self.query, self.stats
        tracer = get_tracer()

        def probe_record(record: IndexRecord):
            reader = IndexFileReader.open(store, record.index_key, size=record.size)
            querier = querier_for(record.index_type)(reader)
            assert isinstance(querier, ScoringQuerier)
            gids, offsets, scores = querier.candidates(
                query.vector, nprobe=query.nprobe, limit=query.refine
            )
            cells = tuple(getattr(querier, "last_probed_cells", ()))
            directory = reader.directory
            # Out-of-scope locations are stale (file compacted away);
            # only the files hit are looked up.
            files, of_hit = np.unique(
                directory.file_indices(gids), return_inverse=True
            )
            in_scope = np.array(
                [directory.tables[i].file_key in self.paths for i in files],
                dtype=bool,
            )
            keep = in_scope[of_hit]
            return record.index_key, cells, (
                directory, gids[keep], offsets[keep], scores[keep]
            )

        hits: list[tuple[PageDirectory, np.ndarray, np.ndarray, np.ndarray]] = []
        cell_probes: list[tuple[str, tuple[int, ...]]] = []
        with tracer.span("probe:index", phase="index_probe") as span:
            tasks = [partial(probe_record, record) for record in chosen]
            for index_key, cells, hit in self._waves(span, tasks):
                stats.index_files_queried += 1
                if cells:
                    cell_probes.append((index_key, cells))
                hits.append(hit)
            span.set("cell_probes", tuple(cell_probes))
        # Keep the globally best `refine` PQ candidates across indices:
        # a real cross-record barrier, so the page reads are a phase of
        # their own. The sort is stable over the records' hits in task
        # order, so equal scores keep each record's own ranking; only
        # the survivors are located.
        pages: dict[tuple[str, int], tuple[PageEntry, set[int]]] = {}
        if hits:
            directories, gids, offsets, scores = zip(*hits)
            owner = np.repeat(np.arange(len(hits)), [len(g) for g in gids])
            gids, offsets, scores = map(np.concatenate, (gids, offsets, scores))
            best = np.argsort(scores, kind="stable")[: query.refine]
            stats.candidates = len(best)
            for i, gid, offset in zip(
                owner[best].tolist(), gids[best].tolist(), offsets[best].tolist()
            ):
                entry = directories[i].locate(gid)
                page_key = (entry.file_key, entry.page_id)
                pages.setdefault(page_key, (entry, set()))[1].add(offset)
        page_entries = [entry for entry, _ in pages.values()]
        stats.pages_probed = len(page_entries)

        with tracer.span("probe:pages", phase="page_read") as span:
            # One coalesced batch; nothing to launch without candidates.
            tasks = [partial(self._read_pages, page_entries)] if pages else []
            for fetched, dvs in self._waves(span, tasks):
                # Refine: exact distances of the full-precision rows.
                for (entry, offsets), page, dv in zip(
                    pages.values(), fetched, dvs
                ):
                    values = decode_values(
                        self.field, inflate(entry, page), entry.num_values
                    )
                    for offset in offsets:
                        row, value = entry.row_start + offset, values[offset]
                        if row not in dv:
                            score = query.distance(value)
                            self.found.append(
                                SearchMatch(entry.file_key, row, value, score)
                            )
            span.set(
                "probed_files", tuple(sorted({e.file_key for e in page_entries}))
            )
        self._brute_force(uncovered)
