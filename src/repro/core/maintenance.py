"""Index maintenance: ``compact`` and ``vacuum`` (paper §IV-C).

Compaction merges many small index files into fewer large ones —
Rottnest's LSM-style answer to search latency growing with the number
of index files (Fig. 13). It never deletes anything; vacuum does, and
only after its commit, keeping the Existence invariant: everything the
metadata table references must be physically present.

Both passes are **idempotent and resumable**: a maintenance client may
die after any single PUT or DELETE, and a fresh client simply re-runs
the same command to converge on the uninterrupted outcome.

* ``compact`` uploads merged index files under *content-addressed*
  keys, so a re-run after a mid-upload crash overwrites the same bytes
  at the same keys instead of accreting orphans, and its final commit
  skips records the metadata table already holds (a crash between the
  commit and the caller observing it is therefore harmless too).
* ``vacuum`` commits the metadata deletes first, then physically
  removes files one by one; a crash anywhere leaves ``M ⊆ B``
  (references ⊆ bucket), and a re-run recomputes the remaining
  deletions from live state — deleting an already-deleted object is an
  S3 no-op.

``docs/protocol.md`` walks every crash point; the :mod:`repro.chaos`
harness exercises each one mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import RottnestIndexError
from repro.core.client import RottnestClient, _iter_page_values
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.formats.page_reader import build_page_table
from repro.formats.reader import ParquetFile
from repro.indices.base import builder_for
from repro.meta.metadata_table import IndexRecord
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage.pool import TracedPool
from repro.storage.stats import RequestTrace

DEFAULT_COMPACT_THRESHOLD_BYTES = 16 * 1024 * 1024
DEFAULT_COMPACT_TARGET_BYTES = 256 * 1024 * 1024

_MAINTENANCE = get_registry().counter(
    "maintenance_runs_total", "compact/vacuum passes completed", ("op",)
)


@dataclass
class VacuumReport:
    """What one vacuum pass did."""

    kept: list[str]
    deleted_records: list[str]
    deleted_objects: list[str]


def covering_records(
    client: RottnestClient, column: str, index_type: str
) -> list[IndexRecord]:
    """The index records a search of the latest snapshot would use:
    newest-first greedy cover over the snapshot's files."""
    all_records = [
        r
        for r in client.meta.records()
        if r.column == column and r.index_type == index_type
    ]
    snap_paths = set(client.lake.snapshot().file_paths)
    ordered = [
        all_records[i]
        for i in sorted(
            range(len(all_records)),
            key=lambda i: (-all_records[i].created_at, -i),
        )
    ]
    covering: list[IndexRecord] = []
    covered: set[str] = set()
    for record in ordered:
        useful = (set(record.covered_files) & snap_paths) - covered
        if useful:
            covering.append(record)
            covered |= useful
    return covering


def compact_indices(
    client: RottnestClient,
    column: str,
    index_type: str,
    *,
    threshold_bytes: int = DEFAULT_COMPACT_THRESHOLD_BYTES,
    target_bytes: int = DEFAULT_COMPACT_TARGET_BYTES,
    workers: int = 1,
    pool: TracedPool | None = None,
) -> list[IndexRecord]:
    """Merge small index files on ``column`` into larger ones.

    Plan: bin-pack index files smaller than ``threshold_bytes`` into
    groups of up to ``target_bytes``. Merge: rebuild from raw Parquet
    pages when every covered file still exists (most faithful; §IV-C
    explicitly permits reading raw files), falling back to the index
    type's native merge otherwise. Commit: insert merged records. Old
    records/files stay until :func:`vacuum_indices`, exactly like data
    lake compaction.

    ``workers > 1`` (or an injected ``pool``) merges independent
    bin-packed groups concurrently. Groups never overlap (each covers a
    disjoint record set), merged uploads are content-addressed, and the
    final metadata commit is a single insert on the calling thread, so
    the committed state is byte-identical to the serial pass for any
    worker count.

    Idempotent and crash-resumable: uploads are content-addressed and
    the commit skips already-live records, so re-running after a crash
    at any mutation boundary converges on the uninterrupted outcome
    (the ``repro chaos`` matrix proves this byte-for-byte).
    """
    with get_tracer().span(
        "compact", column=column, index_type=index_type
    ) as span:
        merged_records = _compact_indices(
            client,
            column,
            index_type,
            threshold_bytes=threshold_bytes,
            target_bytes=target_bytes,
            workers=workers,
            pool=pool,
        )
        span.set("merged_files", len(merged_records))
        _MAINTENANCE.inc(op="compact")
    return merged_records


def _compact_indices(
    client: RottnestClient,
    column: str,
    index_type: str,
    *,
    threshold_bytes: int,
    target_bytes: int,
    workers: int = 1,
    pool: TracedPool | None = None,
) -> list[IndexRecord]:
    """Plan, merge, and commit one compaction pass (see
    :func:`compact_indices` for the public contract)."""
    tracer = get_tracer()
    # Plan over the *covering set* only — the same newest-first greedy
    # search uses. Records subsumed by a newer (e.g. already-compacted)
    # index, or covering no file of the current snapshot, are vacuum
    # fodder and must not be re-merged: that would produce an index
    # covering the same Parquet file twice.
    with tracer.span("compact.plan", phase="plan") as plan_span:
        client.store.start_trace()
        try:
            covering = covering_records(client, column, index_type)
        finally:
            plan_trace = client.store.stop_trace()
        plan_trace.barrier()
        plan_span.trace = plan_trace
    records = [r for r in covering if r.size < threshold_bytes]
    if len(records) < 2:
        return []
    records.sort(key=lambda r: r.created_at)
    groups: list[list[IndexRecord]] = [[]]
    group_bytes = 0
    for record in records:
        if groups[-1] and group_bytes + record.size > target_bytes:
            groups.append([])
            group_bytes = 0
        groups[-1].append(record)
        group_bytes += record.size
    mergeable = [group for group in groups if len(group) >= 2]

    # Merge: groups are independent (disjoint records, disjoint covered
    # files), so they fan across workers; uploads inside are content-
    # addressed, making completion order irrelevant to the final state.
    with tracer.span(
        "compact.merge", phase="merge", groups=len(mergeable)
    ) as merge_span:
        if not mergeable:
            outcomes = []
        elif pool is not None:
            merge_trace, outcomes = pool.run(
                [
                    lambda g=group: _merge_group(client, column, index_type, g)
                    for group in mergeable
                ],
                span_name="compactor:task",
            )
            merge_span.trace = merge_trace
        elif workers > 1:
            with TracedPool(
                client.store,
                workers=workers,
                thread_name_prefix="compactor",
                span_name="compactor:task",
            ) as scratch:
                merge_trace, outcomes = scratch.run(
                    [
                        lambda g=group: _merge_group(
                            client, column, index_type, g
                        )
                        for group in mergeable
                    ]
                )
            merge_span.trace = merge_trace
        else:
            # Serial loop: one blocking merge at a time, so per-group
            # traces compose sequentially — the same shape a one-worker
            # pool records.
            merge_trace = RequestTrace()
            outcomes = []
            for group in mergeable:
                client.store.start_trace()
                try:
                    outcomes.append(
                        _merge_group(client, column, index_type, group)
                    )
                finally:
                    merge_trace = merge_trace.then(client.store.stop_trace())
            merge_span.trace = merge_trace
        merged_records = [record for record, _ in outcomes]
        # What the merges themselves counted (the FM interleave's passes
        # and sorted rows), summed over the groups.
        totals: dict[str, int] = {}
        for _, stats in outcomes:
            for name, value in stats.items():
                totals[name] = totals.get(name, 0) + value
        for name, value in totals.items():
            merge_span.set(name, value)
    if merged_records:
        # Idempotent commit: a resumed run (or a concurrent compactor
        # that built the identical merge) may find some records already
        # live under their content-addressed keys. Re-inserting them
        # would poison the metadata log, so only the missing ones go in.
        # Single-threaded whatever the worker count — the metadata log
        # is one conditional-PUT stream.
        with tracer.span("compact.commit", phase="commit") as commit_span:
            client.store.start_trace()
            try:
                live = {r.index_key for r in client.meta.records()}
                fresh = [
                    r for r in merged_records if r.index_key not in live
                ]
                if fresh:
                    client.meta.insert(fresh)
            finally:
                commit_span.trace = client.store.stop_trace()
    return merged_records


def _merge_group(
    client: RottnestClient,
    column: str,
    index_type: str,
    group: list[IndexRecord],
) -> tuple[IndexRecord, Mapping[str, int]]:
    """Merge one bin-packed group into a single uploaded index file;
    returns its record and the merge's work counters
    (:attr:`IndexBuilder.merge_stats`).

    The upload key is content-addressed (deterministic), which is the
    keystone of compaction resumability: every re-run of the same plan
    produces the same blob at the same key, so crashed prefixes of a
    run converge to the uninterrupted state byte-for-byte.
    """
    builder_cls = builder_for(index_type)
    covered: list[str] = []
    for record in group:
        covered.extend(record.covered_files)
    if len(set(covered)) != len(covered):
        raise RottnestIndexError(
            "compaction group covers a Parquet file twice; vacuum first"
        )

    # The merged file must answer queries tuned for the originals
    # (e.g. an ivf_pq probed with nprobe == its nlist), so the build
    # params recorded in the first part's header carry over — a raw
    # rebuild with defaults would silently change the index geometry.
    params = IndexFileReader.open(client.store, group[0].index_key).params

    raw_ok = getattr(builder_cls, "prefers_raw_rebuild", False) and all(
        client.store.exists(path) for path in covered
    )
    if raw_ok:
        # Rebuild from raw pages: read every covered file again.
        tables = []
        page_stream = []
        gid = 0
        for path in covered:
            reader = ParquetFile(client.store, path)
            table = build_page_table(reader.metadata, path, column)
            tables.append(table)
            for values in _iter_page_values(reader, table, column):
                page_stream.append((gid, values))
                gid += 1
        merged = builder_cls.build(page_stream, **params)
        directory = PageDirectory(tables)
    else:
        # Native merge from the index files alone. Opening a reader
        # fetches only the footer (directory + params); the heavy
        # component downloads happen inside ``load``, which the lazy
        # generator defers so a streaming-capable type holds at most
        # the running merge plus one fully-loaded part in memory.
        readers = [
            IndexFileReader.open(client.store, record.index_key)
            for record in group
        ]
        directories = [reader.directory for reader in readers]
        offsets = []
        base = 0
        for directory in directories:
            offsets.append(base)
            base += directory.num_pages
        merged = builder_cls.merge_streaming(
            (builder_cls.load(reader) for reader in readers), offsets
        )
        directory = PageDirectory.concat(directories)

    writer = IndexFileWriter(
        index_type, column, directory, params=params, codec=client.codec
    )
    merged.write(writer)
    blob = writer.finish()
    key = client.new_index_key(blob, deterministic=True)
    client.store.put(key, blob)
    record = IndexRecord(
        index_key=key,
        index_type=index_type,
        column=column,
        covered_files=tuple(covered),
        num_rows=sum(r.num_rows for r in group),
        size=len(blob),
        created_at=client.store.clock.now(),
    )
    return record, merged.merge_stats


def vacuum_indices(client: RottnestClient, *, snapshot_id: int) -> VacuumReport:
    """Garbage-collect index files (paper §IV-C ``vacuum``).

    Plan: greedily keep the index files that cover the most Parquet
    files active in any snapshot >= ``snapshot_id``; stop when coverage
    cannot grow. Commit: delete the other records from the metadata
    table. Remove: physically delete index files that are absent from
    the metadata table *and* older than the index timeout — younger
    unreferenced files may belong to an in-flight indexer, which is
    guaranteed to either commit or abort within the timeout.

    Crash-resumable: every intermediate state satisfies ``M ⊆ B``
    (metadata references a subset of the bucket), and a re-run from a
    fresh client finishes whatever physical deletions remain.
    """
    with get_tracer().span("vacuum", snapshot_id=snapshot_id) as span:
        report = _vacuum_indices(client, snapshot_id=snapshot_id)
        span.set("kept", len(report.kept))
        span.set("deleted_records", len(report.deleted_records))
        span.set("deleted_objects", len(report.deleted_objects))
        _MAINTENANCE.inc(op="vacuum")
    return report


def _vacuum_indices(client: RottnestClient, *, snapshot_id: int) -> VacuumReport:
    """Plan, commit, and physically apply one vacuum pass (see
    :func:`vacuum_indices` for the public contract)."""
    active = client.lake.files_since(snapshot_id)
    records = client.meta.records()

    # Coverage is per logical index: an FM index on "text" covering a
    # file says nothing about the trie on "uuid".
    groups: dict[tuple[str, str], list[IndexRecord]] = {}
    for record in records:
        groups.setdefault((record.column, record.index_type), []).append(record)

    kept: list[IndexRecord] = []
    for group in groups.values():
        # Enumerate so equal-gain ties prefer newer records (higher
        # insertion index): compaction products over their inputs.
        remaining = list(enumerate(group))
        covered: set[str] = set()
        while remaining:
            position, best = max(
                remaining,
                key=lambda item: (
                    len((set(item[1].covered_files) & active) - covered),
                    item[1].created_at,
                    item[0],
                ),
            )
            gain = len((set(best.covered_files) & active) - covered)
            if gain == 0:
                break
            kept.append(best)
            covered |= set(best.covered_files) & active
            remaining.remove((position, best))

    kept_keys = {r.index_key for r in kept}
    to_delete = [r.index_key for r in records if r.index_key not in kept_keys]
    if to_delete:
        client.meta.delete(to_delete)

    # Physical removal comes strictly after the metadata commit so the
    # Existence invariant never observes a dangling reference.
    live = {r.index_key for r in client.meta.records()}
    cutoff = client.store.clock.now() - client.index_timeout_s
    deleted_objects: list[str] = []
    prefix = f"{client.index_dir}/files/"
    for info in client.store.list(prefix):
        if info.key in live:
            continue
        if info.mtime > cutoff:
            continue  # possibly an in-flight indexer's upload
        client.store.delete(info.key)
        deleted_objects.append(info.key)
    return VacuumReport(
        kept=[r.index_key for r in kept],
        deleted_records=to_delete,
        deleted_objects=deleted_objects,
    )
