"""Layer tracing from outside the program (traced pass only).

Two instruments, both owned by the benchmark:

* :class:`SpanStore` — an ``ObjectStore`` wrapper placed beneath every
  other store. It spans and counts ``get/get_many/list/head/put/delete``
  so per-op request counts are measured where the requests happen, and
  its totals must equal the inner store's ``IOStats`` delta exactly.
* :func:`install` — timing wrappers around a fixed table of public entry
  points (:data:`TARGETS`), patched on the class, or on every importing
  module for functions imported by name.

Spans carry name, start, end and parent; the root of a span tree is one
*operation* the harness issued (a query, an ack, an ``index`` call...).
Worker threads nest under the operation that submitted them because
:meth:`TracedPool.run` is wrapped to carry the submitting span across.
Spans stay in memory and are written out once, at exit.

**Self time** of a span is its duration minus the part of that interval
its children cover (the union, so two workers running side by side are
not subtracted twice). Summed over a tree it equals the root's duration
plus the time sibling spans overlapped; :func:`reconcile` checks that.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

from repro.errors import PreconditionFailed
from repro.storage.object_store import ObjectStore

from benchmarks.e2e import stats


class SpanRecorder:
    """In-memory span sink with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.active = False
        #: (span id, parent id or 0, name, start, end, thread id, n)
        self.spans: list[tuple] = []
        #: root span id -> operation kind ("query", "ack", ...)
        self.ops: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    @contextmanager
    def attach(self, parent: int):
        """Run a block on this thread as a child of ``parent`` (a span
        opened on another thread)."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def span(self, name: str, n: int = 0):
        """Record the block as a span; yields its id (None when idle)."""
        if not self.active:
            yield None
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, end, threading.get_ident(), n)
            )

    @contextmanager
    def op(self, kind: str):
        """Root span of one operation the harness issues."""
        with self.span("bench.op." + kind) as sid:
            if sid is not None:
                self.ops[sid] = kind
            yield

    def wrap(self, name: str, fn):
        """``fn`` timed as a span called ``name`` while recording."""
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append(
                    (sid, parent, name, start, end, threading.get_ident(), 0)
                )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write_jsonl(self, path: str) -> None:
        roots = root_of(self.spans)
        with open(path, "w") as out:
            for sid, parent, name, start, end, thread, n in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "root": roots[sid],
                            "op": self.ops.get(roots[sid], ""),
                            "name": name,
                            "layer": layer_of(name),
                            "start": start,
                            "end": end,
                            "thread": thread,
                            "n": n,
                        }
                    )
                    + "\n"
                )


class SpanStore(ObjectStore):
    """Spans and counts every request on its way to ``inner``.

    Billed IO, the clock and request traces are the inner store's; this
    wrapper only observes. ``get_many`` keeps the base-class scheduler,
    which dispatches each merged range through :meth:`get`, so a
    coalesced read shows as one ``storage.get_many`` span holding one
    ``storage.get`` per wire request.
    """

    def __init__(self, inner: ObjectStore, recorder: SpanRecorder) -> None:
        super().__init__(inner.clock)
        self.inner = inner
        self.stats = inner.stats
        self.recorder = recorder
        self.counts = dict.fromkeys(
            ("gets", "puts", "lists", "heads", "deletes", "bytes_read", "bytes_written"),
            0,
        )
        self._count_lock = threading.Lock()

    def _bump(self, op: str, nbytes_key: str | None = None, nbytes: int = 0) -> None:
        if not self.recorder.active:
            return
        with self._count_lock:
            self.counts[op] += 1
            if nbytes_key is not None:
                self.counts[nbytes_key] += nbytes

    def get(self, key, byte_range=None):
        with self.recorder.span("storage.get"):
            data = self.inner.get(key, byte_range)
        self._bump("gets", "bytes_read", len(data))
        return data

    def get_many(self, requests, **kwargs):
        with self.recorder.span("storage.get_many", n=len(requests)):
            return super().get_many(requests, **kwargs)

    def put(self, key, data, *, if_none_match=False):
        try:
            with self.recorder.span("storage.put"):
                info = self.inner.put(key, data, if_none_match=if_none_match)
        except PreconditionFailed:
            # A refused conditional PUT is still a billed request.
            self._bump("puts")
            raise
        self._bump("puts", "bytes_written", len(data))
        return info

    def head(self, key):
        with self.recorder.span("storage.head"):
            info = self.inner.head(key)
        self._bump("heads")
        return info

    def list(self, prefix=""):
        with self.recorder.span("storage.list"):
            infos = self.inner.list(prefix)
        self._bump("lists")
        return infos

    def delete(self, key):
        with self.recorder.span("storage.delete"):
            self.inner.delete(key)
        self._bump("deletes")

    def start_trace(self):
        return self.inner.start_trace()

    def stop_trace(self):
        return self.inner.stop_trace()

    def barrier(self) -> None:
        self.inner.barrier()

    def clone(self) -> "SpanStore":
        """Unbilled copy of the contents behind a fresh counter set
        sharing this store's recorder (``ingest_mixed`` rounds)."""
        return SpanStore(self.inner.clone(), self.recorder)


# -- the patch table -------------------------------------------------------
#: (span name, module, owner class or None for a module function, attribute)
TARGETS = [
    ("lake.open", "repro.lake.table", "LakeTable", "open"),
    ("lake.snapshot", "repro.lake.table", "LakeTable", "snapshot"),
    ("lake.append", "repro.lake.table", "LakeTable", "append"),
    ("lake.deletion_vector", "repro.lake.table", "LakeTable", "deletion_vector"),
    ("meta.records", "repro.meta.metadata_table", "MetadataTable", "records"),
    ("meta.insert", "repro.meta.metadata_table", "MetadataTable", "insert"),
    ("core.search", "repro.core.client", "RottnestClient", "search"),
    ("core.index", "repro.core.client", "RottnestClient", "index"),
    ("core.index_open", "repro.core.index_file", "IndexFileReader", "open"),
    ("core.index_open", "repro.core.index_file", "IndexFileReader", "directory"),
    ("core.component_read", "repro.core.index_file", "IndexFileReader", "component"),
    ("core.component_read", "repro.core.index_file", "IndexFileReader", "components"),
    ("indices.trie.probe", "repro.indices.uuid_trie", "UuidTrieQuerier", "candidate_pages"),
    ("indices.fm.probe", "repro.indices.fm.fm_index", "FmQuerier", "candidate_pages"),
    ("indices.ivfpq.probe", "repro.indices.vector.ivf_pq", "IvfPqQuerier", "candidates"),
    ("indices.trie.build", "repro.indices.uuid_trie", "UuidTrieBuilder", "build"),
    ("indices.trie.write", "repro.indices.uuid_trie", "UuidTrieBuilder", "write"),
    ("indices.trie.merge", "repro.indices.uuid_trie", "UuidTrieBuilder", "merge_streaming"),
    ("indices.fm.build", "repro.indices.fm.fm_index", "FmBuilder", "build"),
    ("indices.fm.write", "repro.indices.fm.fm_index", "FmBuilder", "write"),
    ("indices.fm.merge", "repro.indices.fm.fm_index", "FmBuilder", "merge_streaming"),
    ("indices.ivfpq.build", "repro.indices.vector.ivf_pq", "IvfPqBuilder", "build"),
    ("indices.ivfpq.write", "repro.indices.vector.ivf_pq", "IvfPqBuilder", "write"),
    ("indices.ivfpq.merge", "repro.indices.vector.ivf_pq", "IvfPqBuilder", "merge_streaming"),
    ("formats.fetch_pages", "repro.formats.page_reader", None, "fetch_pages"),
    # ``scan_column`` is a generator whose work is its chunk reads, so
    # the span sits on ``read_column_chunk``; the analysis files it
    # under scan (query operations) or extract (index/compact).
    ("formats.read_chunk", "repro.formats.reader", "ParquetFile", "read_column_chunk"),
    ("formats.write", "repro.formats.parquet", None, "write_parquet"),
    ("serve.cache", "repro.serve.cache", "CachingObjectStore", "get"),
    ("serve.cache", "repro.serve.cache", "CachingObjectStore", "get_many"),
    ("serve.cache", "repro.serve.cache", "CachingObjectStore", "list"),
    ("serve.cache", "repro.serve.cache", "CachingObjectStore", "head"),
    ("serve.singleflight", "repro.serve.singleflight", "SingleFlight", "do_detailed"),
    ("serve.executor", "repro.serve.executor", "SearchExecutor", "search"),
    ("serve.server", "repro.serve.server", "SearchServer", "query"),
    ("obs.attribute", "repro.obs.attribution", None, "attribute"),
    ("obs.flight.record", "repro.obs.flight", "FlightRecorder", "record"),
    ("ingest.ack", "repro.ingest.tier", "IngestTier", "ingest"),
    ("ingest.search_fresh", "repro.ingest.tier", "IngestTier", "search_fresh"),
    ("ingest.recover", "repro.ingest.tier", "IngestTier", "recover"),
    ("ingest.wal.append", "repro.ingest.wal", "WriteAheadLog", "append_encoded"),
    ("ingest.drain", "repro.ingest.drain", "IngestDrainer", "drain"),
    ("maintain.index", "repro.maintain.pipeline", "MaintenancePipeline", "index"),
    ("maintain.compact", "repro.maintain.pipeline", "MaintenancePipeline", "compact"),
    ("maintain.vacuum", "repro.maintain.pipeline", "MaintenancePipeline", "vacuum"),
]


def layer_of(name: str) -> str:
    """The package a span name belongs to (``indices.fm.probe`` -> ``indices``)."""
    return name.split(".", 1)[0]


def _wrap_attribute(recorder: SpanRecorder, name: str, owner, attr: str):
    """A wrapped replacement for ``owner.attr`` keeping its descriptor kind."""
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        return classmethod(recorder.wrap(name, static.__func__))
    if isinstance(static, staticmethod):
        return staticmethod(recorder.wrap(name, static.__func__))
    if isinstance(static, property):
        return property(recorder.wrap(name, static.fget), static.fset, static.fdel)
    return recorder.wrap(name, static)


def install(recorder: SpanRecorder):
    """Patch every :data:`TARGETS` entry; returns the undo list."""
    undo: list[tuple[object, str, object]] = []
    for name, module_name, owner_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(module, owner_name)
            undo.append((owner, attr, inspect.getattr_static(owner, attr)))
            setattr(owner, attr, _wrap_attribute(recorder, name, owner, attr))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original)
        # Functions imported by name live on in every importing module.
        for other_name, other in list(sys.modules.items()):
            if other is None or not other_name.startswith("repro"):
                continue
            if other.__dict__.get(attr) is original:
                undo.append((other, attr, original))
                setattr(other, attr, wrapped)

    # Context propagation, not a span: pool workers nest under the span
    # that submitted them.
    from repro.storage.pool import TracedPool

    original_run = TracedPool.run

    def run(self, tasks, **kwargs):
        parent = recorder.current()
        if not recorder.active or not parent:
            return original_run(self, tasks, **kwargs)

        def carry(task):
            def carried():
                with recorder.attach(parent):
                    return task()

            return carried

        return original_run(self, [carry(t) for t in tasks], **kwargs)

    undo.append((TracedPool, "run", original_run))
    TracedPool.run = run
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- analysis --------------------------------------------------------------
def root_of(spans) -> dict[int, int]:
    """Span id -> id of the root (operation) span of its tree."""
    parent = {s[0]: s[1] for s in spans}
    roots: dict[int, int] = {}
    for sid in parent:
        chain = []
        node = sid
        while node not in roots and parent.get(node, 0):
            chain.append(node)
            node = parent[node]
        top = roots.get(node, node)
        roots[node] = top
        for link in chain:
            roots[link] = top
    return roots


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans) -> tuple[dict[int, float], float]:
    """``({span id: self seconds}, seconds sibling spans overlapped)``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end, _thread, _n in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    selfs: dict[int, float] = {}
    overlap = 0.0
    for sid, _parent, _name, start, end, _thread, _n in spans:
        kids = children.get(sid)
        if not kids:
            selfs[sid] = end - start
            continue
        covered = _covered(kids, start, end)
        selfs[sid] = (end - start) - covered
        overlap += sum(min(e, end) - max(s, start) for s, e in kids) - covered
    return selfs, overlap


def reconcile(spans) -> float:
    """|Σ self − (Σ root duration + sibling overlap)| / Σ root duration."""
    selfs, overlap = self_times(spans)
    roots = sum(s[4] - s[3] for s in spans if not s[1])
    if roots == 0:
        return 0.0
    return abs(sum(selfs.values()) - (roots + overlap)) / roots


class Analysis:
    """Per-operation, per-span-name self time and call counts."""

    def __init__(self, recorder: SpanRecorder) -> None:
        spans = recorder.spans
        self.ops = dict(recorder.ops)
        roots = root_of(spans)
        selfs, self.overlap_s = self_times(spans)
        #: root id -> span name -> [self seconds, calls, n]
        self.by_op: dict[int, dict[str, list]] = {r: {} for r in self.ops}
        name_of = {s[0]: s[2] for s in spans}
        for sid, parent, name, start, end, _thread, n in spans:
            root = roots[sid]
            # The byte cache runs its misses through a single-flight of
            # its own; that one is cache work, not the server's.
            if name == "serve.singleflight" and name_of.get(parent) == "serve.cache":
                name = "serve.cache"
            cell = self.by_op.setdefault(root, {}).setdefault(name, [0.0, 0, 0])
            cell[0] += selfs[sid]
            cell[1] += 1
            cell[2] += n
        self.gap_share = reconcile(spans)

    def op_ids(self, kinds=None) -> list[int]:
        return [r for r, k in self.ops.items() if kinds is None or k in kinds]

    def self_ms_per_op(self, names, kinds=None) -> float:
        """Median, over the operations in which any of ``names`` ran, of
        their summed self time there (0 when none did)."""
        per_op = []
        for root in self.op_ids(kinds):
            cells = self.by_op[root]
            hit = [cells[n][0] for n in names if n in cells]
            if hit:
                per_op.append(sum(hit) * 1000.0)
        return stats.median(per_op) if per_op else 0.0

    def total_self_ms(self, names, kinds=None) -> float:
        return 1000.0 * sum(
            self.by_op[root][n][0]
            for root in self.op_ids(kinds)
            for n in names
            if n in self.by_op[root]
        )

    def calls(self, names, kinds=None) -> int:
        return sum(
            self.by_op[root][n][1]
            for root in self.op_ids(kinds)
            for n in names
            if n in self.by_op[root]
        )

    def layer_table(self) -> list[dict]:
        """One row per span name: calls/op, self ms/op (mean over all
        operations) and share of all self time, largest first."""
        totals: dict[str, list] = {}
        for cells in self.by_op.values():
            for name, (self_s, calls, _n) in cells.items():
                cell = totals.setdefault(name, [0.0, 0])
                cell[0] += self_s
                cell[1] += calls
        n_ops = max(1, len(self.ops))
        grand = sum(c[0] for c in totals.values()) or 1.0
        rows = [
            {
                "span": name,
                "layer": layer_of(name),
                "calls_per_op": calls / n_ops,
                "self_ms_per_op": self_s * 1000.0 / n_ops,
                "share": self_s / grand,
            }
            for name, (self_s, calls) in totals.items()
        ]
        return sorted(rows, key=lambda r: -r["share"])
