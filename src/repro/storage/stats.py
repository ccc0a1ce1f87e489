"""IO accounting for object stores.

Every store operation is recorded twice:

* into its store's cumulative :class:`IOStats` counters (cheap, always
  on), used by the cost model to price a workload run; and
* into the calling thread's innermost open :class:`RequestTrace`, if
  one is open (:func:`tracing`), which additionally preserves the
  *dependency structure* of requests (which requests were issued in
  parallel vs. sequentially). The latency model turns a trace into an
  estimated wall-clock latency, reproducing the paper's width-vs-depth
  analysis of object storage access (Section V-B).

Where a request lands is the thread's business, not the store's: every
store and wrapper a thread calls records into that thread's trace, and
a pool worker records into its own. :func:`barrier` marks a dependency
point there — the next request needs data a previous one returned.

A trace is the one record of its requests: every count or dollar
figure taken from one is an :class:`IOStats` folded from it
(:meth:`IOStats.fold`), so request kinds are told apart in one place.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Request:
    """One object-store request, as seen by the latency/cost models."""

    op: str  # "GET" | "PUT" | "LIST" | "DELETE" | "HEAD"
    key: str
    nbytes: int  # payload bytes moved (0 for DELETE/HEAD, per-entry for LIST)


@dataclass
class IOStats:
    """Cumulative operation counters for one store instance.

    Counter updates are guarded by a lock so concurrent searchers (the
    ``repro.serve`` executor) do not lose increments.
    """

    gets: int = 0
    puts: int = 0
    lists: int = 0
    deletes: int = 0
    heads: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def __post_init__(self) -> None:
        """Attach the lock guarding concurrent counter updates."""
        self._lock = threading.Lock()

    def record(self, request: Request) -> None:
        """Bump the counters for one completed request."""
        with self._lock:
            self._count(request)

    def fold(self, trace: "RequestTrace") -> "IOStats":
        """Count every request of ``trace`` in; returns self."""
        with self._lock:
            for round_ in trace.rounds:
                for request in round_:
                    self._count(request)
        return self

    def _count(self, request: Request) -> None:
        """The one dispatch from a request's op to its counters (callers
        hold ``_lock``)."""
        if request.op == "GET":
            self.gets += 1
            self.bytes_read += request.nbytes
        elif request.op == "PUT":
            self.puts += 1
            self.bytes_written += request.nbytes
        elif request.op == "LIST":
            self.lists += 1
        elif request.op == "DELETE":
            self.deletes += 1
        elif request.op == "HEAD":
            self.heads += 1
        else:
            raise ValueError(f"unknown op {request.op!r}")

    def snapshot(self) -> "IOStats":
        """Copy of the current counters (for before/after deltas)."""
        with self._lock:
            return IOStats(
                gets=self.gets,
                puts=self.puts,
                lists=self.lists,
                deletes=self.deletes,
                heads=self.heads,
                bytes_read=self.bytes_read,
                bytes_written=self.bytes_written,
            )

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return IOStats(
            gets=self.gets - earlier.gets,
            puts=self.puts - earlier.puts,
            lists=self.lists - earlier.lists,
            deletes=self.deletes - earlier.deletes,
            heads=self.heads - earlier.heads,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
        )

    @property
    def total_requests(self) -> int:
        """All operations regardless of kind (reconciliation totals)."""
        return self.gets + self.puts + self.lists + self.deletes + self.heads

    def as_dict(self) -> dict:
        """JSON-safe counter dump (telemetry snapshots, dashboards)."""
        return {
            "gets": self.gets,
            "puts": self.puts,
            "lists": self.lists,
            "deletes": self.deletes,
            "heads": self.heads,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "total_requests": self.total_requests,
        }


class RequestTrace:
    """Requests grouped into sequential *rounds*.

    Requests inside one round are independent and issued in parallel;
    round ``i + 1`` depends on the results of round ``i``. Code under a
    trace calls the module's :func:`barrier` whenever its next request
    needs data from a previous one — e.g. descending one componentized
    trie level.

    :meth:`record` and :meth:`barrier` are thread-safe so a trace can be
    fed from several threads; the usual pattern is still one trace per
    pool task, opened on its worker thread with :func:`tracing` and
    merged with :meth:`merge_parallel` afterwards.
    """

    def __init__(self) -> None:
        """Start with one empty round."""
        self.rounds: list[list[Request]] = [[]]
        self._lock = threading.Lock()

    def record(self, request: Request) -> None:
        """Append one request to the current (open) round."""
        with self._lock:
            self.rounds[-1].append(request)

    def barrier(self) -> None:
        """Start a new dependent round (no-op if the round is empty)."""
        with self._lock:
            if self.rounds[-1]:
                self.rounds.append([])

    @property
    def depth(self) -> int:
        """Number of non-empty dependent rounds (the access *depth*)."""
        return sum(1 for r in self.rounds if r)

    @property
    def total_requests(self) -> int:
        """Requests across all rounds (the access *width* sum)."""
        return sum(len(r) for r in self.rounds)

    @property
    def total_bytes(self) -> int:
        """Payload bytes moved across all rounds."""
        return sum(req.nbytes for r in self.rounds for req in r)

    def then(self, other: "RequestTrace") -> "RequestTrace":
        """Sequential composition: ``other`` starts after this trace's
        last round completes (e.g. probing after index queries)."""
        combined = RequestTrace()
        combined.rounds = [list(r) for r in self.rounds if r]
        combined.rounds.extend(list(r) for r in other.rounds if r)
        if not combined.rounds:
            combined.rounds = [[]]
        return combined

    def merge_parallel(self, other: "RequestTrace") -> "RequestTrace":
        """Combine with a trace that executed concurrently.

        Round ``i`` of the result is the union of round ``i`` of both
        traces; used when several index files are queried in parallel.
        """
        merged = RequestTrace()
        n = max(len(self.rounds), len(other.rounds))
        merged.rounds = []
        for i in range(n):
            combined: list[Request] = []
            if i < len(self.rounds):
                combined.extend(self.rounds[i])
            if i < len(other.rounds):
                combined.extend(other.rounds[i])
            merged.rounds.append(combined)
        if not merged.rounds:
            merged.rounds = [[]]
        return merged


class _Open(threading.local):
    """What the calling thread has open, innermost last: its request
    traces (:func:`tracing`) and its runs
    (:class:`repro.storage.pool.Run`)."""

    def __init__(self) -> None:
        """Each thread starts with nothing open."""
        self.traces: list[RequestTrace] = []
        self.runs: list = []


_open = _Open()


@contextmanager
def tracing() -> Iterator[RequestTrace]:
    """Record the calling thread's requests into a fresh trace for the
    block. The innermost open trace takes each request; an outer one
    resumes when the inner closes and never sees the inner's requests."""
    trace = RequestTrace()
    traces = _open.traces
    traces.append(trace)
    try:
        yield trace
    finally:
        traces.pop()


def barrier() -> None:
    """Mark a dependency point in the calling thread's open trace: what
    comes next needs data already fetched (no-op with no trace open)."""
    traces = _open.traces
    if traces:
        traces[-1].barrier()
