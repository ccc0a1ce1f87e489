"""Object store substrate.

A minimal S3-like store offering exactly the primitives Rottnest's
protocol assumes (paper §III, §IV):

* strong read-after-write consistency (a PUT is immediately visible),
* byte-range GETs,
* LIST by prefix,
* object modification timestamps from a single global clock, and
* conditional PUT (``if-none-match``), used by the transaction logs of
  the data lake and the metadata table to get atomic commits. (S3
  supports this natively since late 2024; before that, DynamoDB played
  the same role for Delta Lake. Either way it is a commodity primitive.)

There is deliberately *no* atomic rename: the paper's protocol is
designed to work without one (unlike Hyperspace), and this store keeps
that constraint honest.

A store counts every request it serves in its own :class:`IOStats`;
the dependency structure of a request (which round it joins) belongs
to the calling thread's open trace (:mod:`repro.storage.stats`), so
stores and their wrappers hold no trace state.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import InvalidByteRange, ObjectNotFound, PreconditionFailed
from repro.obs.timeseries import get_hub
from repro.storage.stats import IOStats, Request, _open
from repro.util.clock import Clock, SimClock

T = TypeVar("T")


@dataclass(frozen=True)
class ObjectInfo:
    """Metadata for one stored object."""

    key: str
    size: int
    mtime: float  # seconds, per the store's global clock


class ObjectStore(ABC):
    """Interface all stores implement.

    Concrete stores call :meth:`_record` on every operation: it counts
    the request in this store's :class:`IOStats` and adds it to the
    calling thread's open request trace
    (:func:`repro.storage.stats.tracing`). Wrappers (faults, retries,
    caching) forward operations to their inner store and keep no trace
    state of their own.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        """Bind a clock (``SimClock`` default) and fresh IO accounting."""
        self.clock: Clock = clock if clock is not None else SimClock()
        self.stats = IOStats()
        self._lock = threading.RLock()

    def _record(self, op: str, key: str, nbytes: int) -> None:
        request = Request(op=op, key=key, nbytes=nbytes)
        self.stats.record(request)
        traces = _open.traces
        if traces:
            traces[-1].record(request)
        hub, at_s = get_hub(), self.clock.now()
        hub.series("store_requests_total", op=op).observe(at_s=at_s)
        if nbytes and op in ("GET", "PUT"):
            direction = "read" if op == "GET" else "write"
            hub.series("store_bytes_total", direction=direction).observe(
                nbytes, at_s=at_s
            )

    # -- operations ---------------------------------------------------
    @abstractmethod
    def put(self, key: str, data: bytes, *, if_none_match: bool = False) -> ObjectInfo:
        """Store ``data`` under ``key``.

        With ``if_none_match=True`` the put fails with
        :class:`PreconditionFailed` if the key already exists — the
        compare-and-swap both transaction logs are built on.
        """

    @abstractmethod
    def get(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        """Fetch an object, or ``byte_range=(offset, length)`` of it."""

    @abstractmethod
    def head(self, key: str) -> ObjectInfo:
        """Metadata for one object."""

    @abstractmethod
    def list(self, prefix: str = "") -> list[ObjectInfo]:
        """All objects whose key starts with ``prefix``, sorted by key."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove an object; deleting a missing key is a no-op (S3-like)."""

    def memo(
        self, key: str, name: str, build: Callable[[], T] | None = None
    ) -> T | None:
        """A value derived from object ``key`` alone, named ``name``
        (an opened index file, an inflated or decoded component).

        A plain store keeps nothing and returns ``build()``; a caching
        store keeps the value beside its bytes, under the same budget,
        and drops it with every other entry of ``key``. Without
        ``build`` it is a lookup only: the kept value, or None.
        """
        return None if build is None else build()

    def exists(self, key: str) -> bool:
        """Whether ``key`` exists, via a (billed) HEAD."""
        try:
            self.head(key)
            return True
        except ObjectNotFound:
            return False

    def get_many(self, requests) -> list[bytes]:
        """Batched ranged reads through the coalescing scheduler.

        ``requests`` is a sequence of :class:`repro.storage.sched.
        RangeRequest`; the scheduler sorts per-key ranges, merges those
        at most ``DEFAULT_GAP_THRESHOLD`` bytes apart into one GET, and
        slices the merged payloads back out — byte-identical to issuing
        each range as its own :meth:`get`, but with fewer wire
        requests. The default implementation dispatches every merged
        request through ``self.get``, so subclasses and wrappers
        (faults, retries, caching) compose without overriding anything;
        stores that can serve parts of the plan themselves (the caching
        store) override this to coalesce only what they must fetch.

        See :mod:`repro.storage.sched` for the planning rules and the
        waste-byte accounting contract.
        """
        from repro.storage.sched import execute_plan, plan_reads

        return execute_plan(self, requests, plan_reads(requests))


class InMemoryObjectStore(ObjectStore):
    """Dict-backed store with S3 semantics; the default substrate.

    Thread-safe; timestamps come from the store's clock so the vacuum
    timeout logic is deterministic under :class:`SimClock`.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        """Start empty; all state lives in one dict under the store lock."""
        super().__init__(clock)
        self._objects: dict[str, tuple[bytes, float]] = {}

    def put(self, key: str, data: bytes, *, if_none_match: bool = False) -> ObjectInfo:
        """Store a copy of ``data``; conditional PUT fails if key exists."""
        if not key:
            raise ValueError("empty key")
        with self._lock:
            if if_none_match and key in self._objects:
                # A failed conditional PUT is still a billed request.
                self._record("PUT", key, 0)
                raise PreconditionFailed(key)
            mtime = self.clock.now()
            self._objects[key] = (bytes(data), mtime)
            self._record("PUT", key, len(data))
            return ObjectInfo(key=key, size=len(data), mtime=mtime)

    def get(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        """Return the object (or an in-bounds byte range of it)."""
        with self._lock:
            try:
                data, _ = self._objects[key]
            except KeyError:
                raise ObjectNotFound(key) from None
            if byte_range is None:
                self._record("GET", key, len(data))
                return data
            offset, length = byte_range
            if offset < 0 or length < 0 or offset + length > len(data):
                raise InvalidByteRange(
                    f"range ({offset}, {length}) outside object {key!r} "
                    f"of size {len(data)}"
                )
            self._record("GET", key, length)
            return data[offset : offset + length]

    def head(self, key: str) -> ObjectInfo:
        """Size/mtime metadata without reading payload bytes."""
        with self._lock:
            try:
                data, mtime = self._objects[key]
            except KeyError:
                raise ObjectNotFound(key) from None
            self._record("HEAD", key, 0)
            return ObjectInfo(key=key, size=len(data), mtime=mtime)

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        """Key-sorted objects under ``prefix`` (one billed LIST)."""
        with self._lock:
            self._record("LIST", prefix, 0)
            return [
                ObjectInfo(key=k, size=len(d), mtime=m)
                for k, (d, m) in sorted(self._objects.items())
                if k.startswith(prefix)
            ]

    def delete(self, key: str) -> None:
        """Drop the object; missing keys are silently ignored (S3-like)."""
        with self._lock:
            self._record("DELETE", key, 0)
            self._objects.pop(key, None)

    # -- test/introspection helpers ----------------------------------
    def clone(self) -> "InMemoryObjectStore":
        """Independent copy of the current contents (not billed).

        The clone gets its own :class:`SimClock` frozen at this store's
        current time (a shared clock otherwise lets one timeline's
        advances leak into another) and its own stats. The
        chaos harness uses clones to replay one maintenance run many
        times, crashing it at a different mutation boundary each time.
        """
        with self._lock:
            other = InMemoryObjectStore(clock=SimClock(start=self.clock.now()))
            other._objects = dict(self._objects)
            return other

    def dump(self) -> dict[str, bytes]:
        """Full ``{key: bytes}`` image of the store (not billed).

        Timestamps are deliberately excluded: two protocol histories
        are considered equivalent when they leave the same objects with
        the same bytes, regardless of when each landed.
        """
        with self._lock:
            return {k: d for k, (d, _) in self._objects.items()}

    def keys(self) -> list[str]:
        """All keys currently stored (not a billed operation)."""
        with self._lock:
            return sorted(self._objects)

    def total_bytes(self, prefix: str = "") -> int:
        """Total stored bytes under ``prefix`` (not a billed operation)."""
        with self._lock:
            return sum(
                len(d) for k, (d, _) in self._objects.items() if k.startswith(prefix)
            )
