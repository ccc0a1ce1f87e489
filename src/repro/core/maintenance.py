"""The write protocol, written once: ``index`` (paper §IV-A), ``compact``
and ``vacuum`` (§IV-C), plus this repo's ``refine``.

Each verb is one function parameterised by ``pool`` — ``None`` runs its
fan-out tasks inline on the calling thread, a
:class:`~repro.storage.pool.TracedPool` runs them in waves — as
:mod:`repro.core.search` is for reads. Workers only read (or upload
content-addressed blobs), results are reassembled in plan order and
every metadata commit is one insert on the calling thread, so the
PUT-by-PUT order of a verb — every crash point in ``docs/protocol.md``,
every committed byte — is the same for any pool. Every request is
issued under a ``phase``-tagged span that owns its trace, so a run's
bill equals its ``IOStats`` delta (:mod:`repro.maintain.pipeline` runs
a verb *and* reports it).

Compaction merges many small index files into fewer large ones —
Rottnest's LSM-style answer to search latency growing with the number
of index files (Fig. 13). It never deletes anything; vacuum does, and
only after its commit, keeping the Existence invariant: everything the
metadata table references must be physically present.

``compact``, ``refine`` and ``vacuum`` are **idempotent and resumable**:
a maintenance client may die after any single PUT or DELETE, and a
fresh client simply re-runs the same command to converge on the
uninterrupted outcome.

* ``compact`` and ``refine`` upload under *content-addressed* keys, so
  a re-run after a mid-upload crash overwrites the same bytes at the
  same keys instead of accreting orphans, and their commit skips
  records the metadata table already holds (a crash between the commit
  and the caller observing it is therefore harmless too).
* ``vacuum`` commits the metadata deletes first, then physically
  removes files one by one; a crash anywhere leaves ``M ⊆ B``
  (references ⊆ bucket), and a re-run recomputes the remaining
  deletions from live state — deleting an already-deleted object is an
  S3 no-op.

``docs/protocol.md`` walks every crash point; the :mod:`repro.chaos`
harness exercises each one mechanically.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.errors import IndexAborted, ObjectStoreError, RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.core.search import plan
from repro.formats.page_reader import PageTable, build_page_table
from repro.formats.reader import ParquetFile
from repro.indices.base import builder_for
from repro.lake.snapshot import Snapshot
from repro.meta.metadata_table import IndexRecord
from repro.obs.trace import get_tracer
from repro.storage.object_store import ObjectStore
from repro.storage.pool import TracedPool, phase, run_inline, run_phase
from repro.storage.stats import barrier

if TYPE_CHECKING:  # the client's ``index`` calls into this module
    from repro.core.client import RottnestClient

T = TypeVar("T")

DEFAULT_COMPACT_THRESHOLD_BYTES = 16 * 1024 * 1024
DEFAULT_COMPACT_TARGET_BYTES = 256 * 1024 * 1024


@dataclass
class VacuumReport:
    """What one vacuum pass did."""

    kept: list[str]
    deleted_records: list[str]
    deleted_objects: list[str]


def _fan_out(
    pool: TracedPool | None,
    name: str,
    tag: str,
    tasks: list[Callable[[], T]],
    task_span: str,
    **attributes: object,
):
    """Run a phase's independent tasks under a span that owns their
    composed trace: one blocking task after another inline, or in waves
    on ``pool``. Returns the payloads in task order."""
    with get_tracer().span(name, phase=tag, **attributes) as span:
        if pool is None:
            return run_phase(span, run_inline, tasks)
        return run_phase(span, pool.run, tasks, span_name=task_span)


# ---------------------------------------------------------------------
# shared step: page stream from raw files
# ---------------------------------------------------------------------
def _extract_file(
    store: ObjectStore, path: str, column: str
) -> tuple[PageTable, list]:
    """Read one Parquet file's page table, with each page's CRC32, and
    each page's values, in page-table order.

    Pure read work — safe to run on a pool thread. Raises
    :class:`IndexAborted` when the input vanished mid-build (e.g. a
    concurrent lake vacuum). Builds stream whole files, so
    chunk-granularity reads are the right access width; the chunks are
    then sliced along the page boundaries the index will point at.
    """
    try:
        reader = ParquetFile(store, path)
    except ObjectStoreError as exc:
        raise IndexAborted(
            f"input file {path!r} disappeared during indexing; "
            f"retry against a newer snapshot"
        ) from exc
    # Chunk reads depend on the footer fetched at open: a dependent
    # round in the trace (chunks themselves fan out within the round).
    barrier()
    pages = [
        page
        for rg_index in range(len(reader.metadata.row_groups))
        for page in reader.read_column_chunk(rg_index, column)
    ]
    # Each page's CRC is taken over the stored bytes just decoded, so a
    # query that finds them unchanged knows they decode.
    table = build_page_table(
        reader.metadata, path, column, [zlib.crc32(stored) for stored, _ in pages]
    )
    return table, [values for _, values in pages]


def _page_stream(
    extracted: list[tuple[PageTable, list]],
) -> tuple[PageDirectory, list[tuple[int, list]]]:
    """Per-file extractions, in file order, as one page directory and a
    page stream with sequentially renumbered gids — so the built index
    is byte-identical however the extraction tasks interleaved."""
    stream: list[tuple[int, list]] = []
    for _, page_values in extracted:
        for values in page_values:
            stream.append((len(stream), values))
    return PageDirectory([table for table, _ in extracted]), stream


# ---------------------------------------------------------------------
# shared step: publish = upload, then commit
# ---------------------------------------------------------------------
def _upload(
    client: RottnestClient,
    built,
    directory: PageDirectory,
    params: dict,
    *,
    index_type: str,
    column: str,
    covered: tuple[str, ...],
    num_rows: int,
    deterministic: bool,
) -> IndexRecord:
    """Serialize ``built`` and PUT it; returns the record to commit.

    ``deterministic`` keys are content-addressed — the keystone of
    ``compact``/``refine`` resumability: every re-run of the same plan
    produces the same blob at the same key, so crashed prefixes of a
    run converge to the uninterrupted state byte-for-byte. ``index``
    keys are salted (:meth:`RottnestClient.new_index_key`). A crash
    after the PUT leaves an orphan index file, cleaned up by vacuum
    once it is older than the index timeout.
    """
    writer = IndexFileWriter(
        index_type, column, directory, params=params, codec=client.codec
    )
    built.write(writer)
    blob = writer.finish()
    key = client.new_index_key(blob, deterministic=deterministic)
    client.store.put(key, blob)
    return IndexRecord(
        index_key=key,
        index_type=index_type,
        column=column,
        covered_files=tuple(covered),
        num_rows=num_rows,
        size=len(blob),
        created_at=client.store.clock.now(),
    )


# ---------------------------------------------------------------------
# index (§IV-A): plan -> extract -> build -> upload -> commit
# ---------------------------------------------------------------------
def build_index(
    client: RottnestClient,
    column: str,
    index_type: str,
    *,
    snapshot: Snapshot | None = None,
    params: dict | None = None,
    pool: TracedPool | None = None,
) -> IndexRecord | None:
    """:meth:`RottnestClient.index` (which documents the contract)."""
    store = client.store
    with get_tracer().span("index", column=column, index_type=index_type):
        started = store.clock.now()
        builder_cls = builder_for(index_type)

        # Plan: new data files only (deletion vectors are never
        # indexed); coverage is per (column, index type).
        with phase("index.plan", "plan"):
            snap = snapshot or client.lake.snapshot()
            already = client.meta.indexed_files(column, index_type)
        new_files = [f for f in snap.files if f.path not in already]
        if not new_files:
            return None
        total_rows = sum(f.num_rows for f in new_files)
        if total_rows < builder_cls.min_rows:
            raise IndexAborted(
                f"{total_rows} new rows < minimum {builder_cls.min_rows} for "
                f"{index_type!r}; leave them to brute-force scanning"
            )

        # Extract: one read-only task per input file.
        extracted = _fan_out(
            pool,
            "index.extract",
            "extract",
            [partial(_extract_file, store, f.path, column) for f in new_files],
            "indexer:task",
            files=len(new_files),
        )
        directory, page_stream = _page_stream(extracted)
        built = builder_cls.build(page_stream, **(params or {}))

        # Timeout check before any externally visible effect: an indexer
        # that overruns must abort so vacuum's age-based GC stays sound.
        client._check_timeout(started, "before upload")
        with phase("index.commit", "commit"):
            record = _upload(
                client,
                built,
                directory,
                dict(params or {}),
                index_type=index_type,
                column=column,
                covered=tuple(f.path for f in new_files),
                num_rows=total_rows,
                deterministic=False,
            )
            client._check_timeout(started, "before commit")
            client.meta.insert([record])
        return record


# ---------------------------------------------------------------------
# compact (§IV-C): plan -> merge groups -> commit
# ---------------------------------------------------------------------
def covering_records(
    client: RottnestClient, column: str, index_type: str
) -> list[IndexRecord]:
    """The index records a search of the latest snapshot would use —
    literally: :func:`repro.core.search.plan`'s newest-first greedy
    cover over the snapshot's files."""
    snap_paths = set(client.lake.snapshot().file_paths)
    return plan(client.meta.records(), column, (index_type,), snap_paths)[0]


def compact_indices(
    client: RottnestClient,
    column: str,
    index_type: str,
    *,
    threshold_bytes: int = DEFAULT_COMPACT_THRESHOLD_BYTES,
    target_bytes: int = DEFAULT_COMPACT_TARGET_BYTES,
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

    A ``pool`` merges independent bin-packed groups concurrently.
    Groups never overlap (each covers a disjoint record set), merged
    uploads are content-addressed, and the final metadata commit is a
    single insert on the calling thread, so the committed state is
    byte-identical for any pool.

    Idempotent and crash-resumable: uploads are content-addressed and
    the commit skips already-live records, so re-running after a crash
    at any mutation boundary converges on the uninterrupted outcome
    (the ``repro chaos`` matrix proves this byte-for-byte).
    """
    store = client.store
    with get_tracer().span(
        "compact", column=column, index_type=index_type
    ) as span:
        # Plan over the *covering set* only — the same newest-first
        # greedy search uses. Records subsumed by a newer (e.g. already-
        # compacted) index, or covering no file of the current snapshot,
        # are vacuum fodder and must not be re-merged: that would
        # produce an index covering the same Parquet file twice.
        with phase("compact.plan", "plan"):
            covering = covering_records(client, column, index_type)
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

        # Merge: groups are independent (disjoint records, disjoint
        # covered files), so they fan out; uploads inside are content-
        # addressed, making completion order irrelevant to the final
        # state.
        merged_records = _fan_out(
            pool,
            "compact.merge",
            "merge",
            [
                partial(_merge_group, client, column, index_type, group)
                for group in mergeable
            ],
            "compactor:task",
            groups=len(mergeable),
        )
        if merged_records:
            with phase("compact.commit", "commit"):
                # One insert on the calling thread whatever the pool:
                # Existence needs every upload durable before its
                # record. Keys already live (a resumed run, or a racing
                # compactor's identical blob) are skipped by the insert.
                client.meta.insert(merged_records)
        span.set("merged_files", len(merged_records))
        return merged_records


def _merge_group(
    client: RottnestClient,
    column: str,
    index_type: str,
    group: list[IndexRecord],
) -> IndexRecord:
    """Merge one bin-packed group into a single uploaded index file;
    returns its record."""
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
    params = IndexFileReader.open(
        client.store, group[0].index_key, size=group[0].size
    ).params

    raw_ok = getattr(builder_cls, "prefers_raw_rebuild", False) and all(
        client.store.exists(path) for path in covered
    )
    if raw_ok:
        # Rebuild from raw pages: read every covered file again.
        directory, page_stream = _page_stream(
            [_extract_file(client.store, path, column) for path in covered]
        )
        merged = builder_cls.build(page_stream, **params)
    else:
        # Native merge from the index files alone. Opening a reader
        # fetches only the footer (directory + params); the heavy
        # component downloads happen inside ``load``, which the lazy
        # generator defers so a streaming-capable type holds at most
        # the running merge plus one fully-loaded part in memory.
        readers = [
            IndexFileReader.open(client.store, record.index_key, size=record.size)
            for record in group
        ]
        directories = [reader.directory for reader in readers]
        offsets = []
        base = 0
        for part in directories:
            offsets.append(base)
            base += part.num_pages
        merged = builder_cls.merge_streaming(
            (builder_cls.load(reader) for reader in readers), offsets
        )
        directory = PageDirectory.concat(directories)

    record = _upload(
        client,
        merged,
        directory,
        params,
        index_type=index_type,
        column=column,
        covered=tuple(covered),
        num_rows=sum(r.num_rows for r in group),
        deterministic=True,
    )
    return record


# ---------------------------------------------------------------------
# refine: rewrite one IVF-PQ file with its hot cells split
# ---------------------------------------------------------------------
def refine_index(
    client: RottnestClient,
    record: IndexRecord,
    cells,
    *,
    min_cell_rows: int = 32,
    max_nlist: int = 64,
    seed: int = 0,
) -> IndexRecord | None:
    """Split ``cells`` of one committed IVF-PQ file; commit the rewrite.

    Returns the new record, or ``None`` if nothing was worth splitting
    (cells too small, all members coincide, or the file already reached
    ``max_nlist``). Publishes exactly like compaction: the rewritten
    file goes to a content-addressed key and the commit skips
    already-live keys, so a re-run after a crash at either boundary
    converges; the old record is left for :func:`vacuum_indices` —
    newest-first planning prefers the refined file immediately.

    Deterministic for a given (source bytes, cells, seed): the split is
    2-means over decoded vectors with a seed derived from the cell
    ordinal, and untouched lists keep their exact bytes.
    """
    store = client.store
    with get_tracer().span(
        "refine", column=record.column, index_type=record.index_type
    ):
        with phase("refine.load", "extract"):
            reader = IndexFileReader.open(store, record.index_key, size=record.size)
            if reader.params.get("nlist", 0) >= max_nlist:
                return None
            builder = builder_for(record.index_type).load(reader)
        room = max_nlist - builder.nlist
        wanted = sorted({int(c) for c in cells})[:room]
        if not wanted:
            return None
        splits = builder.refine_cells(
            wanted, min_cell_rows=min_cell_rows, seed=seed
        )
        if not splits:
            return None
        with phase("refine.commit", "commit"):
            new_record = _upload(
                client,
                builder,
                reader.directory,
                dict(reader.params),
                index_type=record.index_type,
                column=record.column,
                covered=record.covered_files,
                num_rows=record.num_rows,
                deterministic=True,
            )
            client.meta.insert([new_record])
        return new_record


# ---------------------------------------------------------------------
# vacuum (§IV-C): plan -> commit metadata deletes -> remove objects
# ---------------------------------------------------------------------
def vacuum_indices(client: RottnestClient, *, snapshot_id: int) -> VacuumReport:
    """Garbage-collect index files (paper §IV-C ``vacuum``).

    Plan: greedily keep the index files that cover the most Parquet
    files active in any snapshot >= ``snapshot_id``; stop when coverage
    cannot grow. Commit: delete the other records from the metadata
    table. Remove: physically delete index files that are absent from
    the metadata table *and* older than the index timeout — younger
    unreferenced files may belong to an in-flight indexer, which is
    guaranteed to either commit or abort within the timeout.

    Sequential whatever the caller: the commit-then-delete ordering
    *is* the crash-safety argument, so there is nothing safe to fan
    out. Crash-resumable: every intermediate state satisfies ``M ⊆ B``
    (metadata references a subset of the bucket), and a re-run from a
    fresh client finishes whatever physical deletions remain.
    """
    store = client.store
    with get_tracer().span("vacuum", snapshot_id=snapshot_id) as span:
        with phase("vacuum.plan", "plan"):
            active = client.lake.files_since(snapshot_id)
            records = client.meta.records()

        # Coverage is per logical index: an FM index on "text" covering
        # a file says nothing about the trie on "uuid".
        groups: dict[tuple[str, str], list[IndexRecord]] = {}
        for record in records:
            groups.setdefault((record.column, record.index_type), []).append(
                record
            )

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
            with phase("vacuum.commit", "commit"):
                client.meta.delete(to_delete)

        # Physical removal comes strictly after the metadata commit so
        # the Existence invariant never observes a dangling reference.
        deleted_objects: list[str] = []
        with phase("vacuum.remove", "remove"):
            live = {r.index_key for r in client.meta.records()}
            cutoff = store.clock.now() - client.index_timeout_s
            for info in store.list(f"{client.index_dir}/files/"):
                if info.key in live:
                    continue
                if info.mtime > cutoff:
                    continue  # possibly an in-flight indexer's upload
                store.delete(info.key)
                deleted_objects.append(info.key)
        span.set("kept", len(kept))
        span.set("deleted_records", len(to_delete))
        span.set("deleted_objects", len(deleted_objects))
        return VacuumReport(
            kept=[r.index_key for r in kept],
            deleted_records=to_delete,
            deleted_objects=deleted_objects,
        )
