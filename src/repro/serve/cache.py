"""Caching object-store wrapper for the serving read path.

Cloud-oriented indexes live or die by the cache in front of object
storage (Airphant makes the same observation): every Rottnest query
re-reads the same hot components — the metadata-table checkpoint, index
file tails, trie roots — and at ~30 ms time-to-first-byte per GET those
repeats dominate warm-query latency. :class:`CachingObjectStore` wraps
any :class:`~repro.storage.object_store.ObjectStore` (the same ABC
``RetryingObjectStore`` implements, so the two stack in either order)
with:

* a **byte-budgeted LRU** over whole objects, byte-ranges *and* decoded
  index components — object storage charges per request, so caching a
  2 KB trie root is worth as much as caching a 2 MB component, and an
  immutable component is worth inflating and parsing once, not once per
  query (:meth:`CachingObjectStore.memo` keeps an opened index file,
  an inflated component or a decoded array beside the raw bytes);
* **resident-bytes charging**: a decoded value is charged every buffer
  it keeps alive once (:func:`resident_bytes`) — a numpy view over a
  buffer adds nothing, and a value holding a cached byte entry's buffer
  (an opened index file keeps its tail GET) *replaces* that entry;
* **size-based admission**: entries above ``max_entry_bytes`` are served
  (or built) but never cached, so one big brute-force scan cannot evict
  the whole working set (scan resistance);
* **invalidation** once a ``put`` / ``delete`` of a key returns,
  dropping its bytes and everything decoded from them, keeping the
  wrapper transparent as long as writes flow through it (read-your-
  writes); a value built while its key was invalidated is not admitted;
* **metadata caching**: HEAD results (a scan opens each Parquet file
  with one) and what a reader finds a log's tip with — the log's hint,
  and the keys a GET or HEAD found missing (the probe past the tip) —
  count-bounded and outside the byte budget, since the plan phase of a
  warm query is where caching pays most; a write to a key invalidates
  its metadata entries. LISTs are not cached: a reader sends one only
  when a log's hint is missing or stale, so they pass straight through;
* **single-flight** misses: concurrent identical GETs (or builds) share
  one underlying fetch instead of stampeding the store; and
* hit / miss / eviction counters — one set for bytes and decoded values
  alike — feeding :class:`~repro.serve.server.ServeStats`.

Cache hits never reach the inner store, so they record no request into
IO stats or the active :class:`~repro.storage.stats.RequestTrace` —
which is exactly how a warm query's *modeled* latency drops below the
cold one.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

import numpy as np

from repro.errors import ObjectNotFound
from repro.lake.log import HINT_NAME
from repro.obs.timeseries import get_hub
from repro.serve.singleflight import SingleFlight
from repro.storage.object_store import ObjectInfo, ObjectStore

T = TypeVar("T")

#: Cache key: (object key, None) for a whole object, (object key,
#: (offset, length)) for one byte range, or (object key, name) for a
#: value :meth:`CachingObjectStore.memo` derived from the object.
_CacheKey = tuple[str, tuple[int, int] | str | None]

DEFAULT_BUDGET_BYTES = 256 << 20
DEFAULT_MAX_ENTRY_BYTES = 8 << 20
#: HEAD/discovery results kept, each (count-bounded; they are
#: metadata-sized).
DEFAULT_MAX_META_ENTRIES = 4096

#: :class:`CacheStats` field -> the hub series each increment is also
#: reported to, so operators see one aggregate across every cache.
_SERIES = {
    "hits": ("cache_lookups_total", {"outcome": "hit"}),
    "misses": ("cache_lookups_total", {"outcome": "miss"}),
    "rejected": ("cache_lookups_total", {"outcome": "rejected"}),
    "evictions": ("cache_evictions_total", {}),
    "invalidations": ("cache_invalidations_total", {}),
}


@dataclass
class CacheStats:
    """Counters for one :class:`CachingObjectStore`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0  # entries not admitted (above max_entry_bytes)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def resident_bytes(value) -> tuple[int, set[int]]:
    """What keeping ``value`` costs: the bytes it holds alive, each
    buffer counted once, and the ids of those buffers.

    ``bytes`` cost their length; a numpy array costs its root buffer, so
    a view over a buffer already counted adds nothing; containers and
    plain objects cost their ``sys.getsizeof`` plus their contents. The
    store an object reads through is not part of it.
    """
    total, seen, buffers = 0, set(), set()
    stack = [value]
    while stack:
        obj = stack.pop()
        kind = type(obj)
        if kind is np.ndarray:
            while type(obj.base) is np.ndarray:
                obj = obj.base
            if obj.base is not None:
                obj = obj.base  # the bytes the array was read from
            kind = type(obj)
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        # Dispatch on the exact type: this runs once per object of every
        # value admitted, and most of those are ints and strings.
        if kind is int or kind is str or kind is float:
            total += sys.getsizeof(obj)
        elif kind is bytes or kind is bytearray or kind is np.ndarray:
            total += obj.nbytes if kind is np.ndarray else len(obj)
            buffers.add(id(obj))
        elif kind is dict:
            total += sys.getsizeof(obj)
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif kind in (list, tuple, set, frozenset):
            total += sys.getsizeof(obj)
            stack.extend(obj)
        elif not isinstance(obj, ObjectStore):
            total += sys.getsizeof(obj)
            # Attribute values without materializing a ``__dict__``.
            stack.extend(c for c in gc.get_referents(obj) if type(c) is not type)
    return total, buffers


class CachingObjectStore(ObjectStore):
    """Read-through LRU cache over an inner object store.

    Transparency contract: any operation sequence through the wrapper
    returns byte-identical results to running it against the inner
    store directly, provided all mutations of cached keys also go
    through the wrapper (verified by a hypothesis property test).
    """

    def __init__(
        self,
        inner: ObjectStore,
        *,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        max_entry_bytes: int = DEFAULT_MAX_ENTRY_BYTES,
    ) -> None:
        super().__init__(inner.clock)
        if budget_bytes < 1:
            raise ValueError("budget_bytes must be >= 1")
        self.inner = inner
        self.budget_bytes = budget_bytes
        self.max_entry_bytes = min(max_entry_bytes, budget_bytes)
        self.stats = inner.stats  # billed IO is the inner store's
        self.cache_stats = CacheStats()
        #: cache key -> (value, bytes charged for it)
        self._entries: OrderedDict[_CacheKey, tuple[object, int]] = OrderedDict()
        self._by_object: dict[str, set[_CacheKey]] = {}
        #: id of a kept ``bytes`` value -> its entry (replacement lookups)
        self._holders: dict[int, _CacheKey] = {}
        self._generation: dict[str, int] = {}  # bumped on invalidate
        self._cached_bytes = 0
        self._heads: OrderedDict[str, ObjectInfo] = OrderedDict()
        #: A log hint's bytes, or None for a key a GET or HEAD found
        #: missing: tip discovery, kept whatever the budget.
        self._discovery: OrderedDict[str, bytes | None] = OrderedDict()
        self._max_meta_entries = DEFAULT_MAX_META_ENTRIES
        self._cache_lock = threading.RLock()
        self._flights = SingleFlight()
        self._hub_series: tuple[object, dict] = (None, {})

    # -- cache mechanics ----------------------------------------------
    @property
    def cached_bytes(self) -> int:
        return self._cached_bytes

    def _series(self, field: str):
        """The current hub's series for ``field`` (a :data:`_SERIES` key
        or ``"cached_bytes"``), resolved once per hub: every lookup,
        hit or miss, reports one event (callers hold ``_cache_lock``)."""
        hub = get_hub()
        if self._hub_series[0] is not hub:
            self._hub_series = (hub, {})
        series = self._hub_series[1].get(field)
        if series is None:
            name, labels = _SERIES.get(field, ("cache_cached_bytes", {}))
            series = self._hub_series[1][field] = hub.series(name, **labels)
        return series

    def _count(self, field: str) -> None:
        """One cache event: this instance's :class:`CacheStats` field
        and its hub series (callers hold ``_cache_lock``)."""
        setattr(self.cache_stats, field, getattr(self.cache_stats, field) + 1)
        self._series(field).observe(at_s=self.clock.now())

    def _report_bytes(self) -> None:
        self._series("cached_bytes").set(self._cached_bytes, at_s=self.clock.now())

    def _lookup(self, key: str, part: tuple[int, int] | str | None):
        """The cached value for ``(key, part)``, or None. A whole-object
        entry serves any in-bounds byte range of that object."""
        with self._cache_lock:
            entry = self._entries.get((key, part))
            if entry is not None:
                self._entries.move_to_end((key, part))
                self._count("hits")
                return entry[0]
            if isinstance(part, tuple):
                whole = self._entries.get((key, None))
                if whole is not None:
                    data, (offset, length) = whole[0], part
                    if 0 <= offset and 0 <= length and offset + length <= len(data):
                        self._entries.move_to_end((key, None))
                        self._count("hits")
                        return data[offset : offset + length]
            self._count("misses")
            return None

    def _admit(
        self,
        cache_key: _CacheKey,
        value: object,
        generation: int,
        charge: int,
        held: Iterable[int] = (),
    ) -> None:
        """Keep ``value`` at ``charge`` bytes. An entry of the same object
        whose value is one of the buffers ``held`` is replaced by it, so
        a buffer is never charged twice."""
        if charge > self.max_entry_bytes:
            with self._cache_lock:
                self._count("rejected")
            return
        with self._cache_lock:
            if self._generation.get(cache_key[0], 0) != generation:
                return  # key was written/deleted while this fetch flew
            for holder in [self._holders.get(buffer) for buffer in held]:
                if holder is not None and holder[0] == cache_key[0]:
                    self._drop(holder)
            if cache_key in self._entries:
                self._drop(cache_key)
            self._entries[cache_key] = (value, charge)
            self._by_object.setdefault(cache_key[0], set()).add(cache_key)
            if type(value) is bytes:
                self._holders[id(value)] = cache_key
            self._cached_bytes += charge
            while self._cached_bytes > self.budget_bytes:
                self._drop(next(iter(self._entries)))
                self._count("evictions")
            self._report_bytes()

    def _drop(self, cache_key: _CacheKey) -> None:
        """Forget one entry (callers hold ``_cache_lock``)."""
        value, charge = self._entries.pop(cache_key)
        self._cached_bytes -= charge
        self._by_object[cache_key[0]].discard(cache_key)
        if self._holders.get(id(value)) == cache_key:
            del self._holders[id(value)]

    def invalidate(self, key: str) -> None:
        """Drop every cached entry for a key: whole object, ranges,
        values decoded from it, its HEAD and its discovery entry."""
        with self._cache_lock:
            self._generation[key] = self._generation.get(key, 0) + 1
            for cache_key in list(self._by_object.get(key, ())):
                self._drop(cache_key)
                self._count("invalidations")
            if self._heads.pop(key, None) is not None:
                self._count("invalidations")
            if key in self._discovery:
                del self._discovery[key]
                self._count("invalidations")
            self._report_bytes()

    def clear(self) -> None:
        """Drop the entire cache (counters are kept)."""
        with self._cache_lock:
            self._entries.clear()
            self._by_object.clear()
            self._holders.clear()
            self._heads.clear()
            self._discovery.clear()
            self._cached_bytes = 0
            self._report_bytes()

    def _discovered(self, key: str, *, whole: bool) -> tuple[bool, bytes | None]:
        """``(True, hint bytes or None for missing)`` when a discovery
        entry answers a read of ``key`` (a hint only answers ``whole``
        GETs; a hit when so), else ``(False, None)``."""
        with self._cache_lock:
            if key not in self._discovery:
                return False, None
            data = self._discovery[key]
            if data is not None and not whole:
                return False, None
            self._discovery.move_to_end(key)
            self._count("hits")
            return True, data

    def _keep_meta(self, entries: OrderedDict, key: str, value) -> None:
        """Keep one HEAD/discovery result in its count-bounded
        LRU (callers hold ``_cache_lock``)."""
        entries[key] = value
        while len(entries) > self._max_meta_entries:
            entries.popitem(last=False)
            self._count("evictions")

    def _discover(self, key: str, data: bytes | None, generation: int) -> None:
        """Keep a hint's bytes, or None for a missing ``key``, unless the
        key was written since ``generation``."""
        with self._cache_lock:
            if self._generation.get(key, 0) == generation:
                self._keep_meta(self._discovery, key, data)

    # -- operations ----------------------------------------------------
    def get(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        known, data = self._discovered(key, whole=byte_range is None)
        if known:
            if data is None:
                raise ObjectNotFound(key)
            return data
        cached = self._lookup(key, byte_range)
        if cached is not None:
            return cached

        with self._cache_lock:
            generation = self._generation.get(key, 0)

        def fetch() -> bytes:
            try:
                data = self.inner.get(key, byte_range)
            except ObjectNotFound:
                self._discover(key, None, generation)
                raise
            if byte_range is None and key.endswith(f"/{HINT_NAME}"):
                self._discover(key, data, generation)
            else:
                self._admit((key, byte_range), data, generation, len(data))
            return data

        return self._flights.do(("GET", key, byte_range), fetch)

    def memo(
        self, key: str, name: str, build: Callable[[], T] | None = None
    ) -> T | None:
        """Keep ``build()`` (never None) as one more entry of ``key``:
        same LRU, budget, admission, single-flight and invalidation as
        its bytes, charged its :func:`resident_bytes`. A lookup without
        ``build`` refreshes a kept value and builds nothing."""
        value = self._lookup(key, name)
        if value is not None or build is None:
            return value
        with self._cache_lock:
            generation = self._generation.get(key, 0)

        def fill() -> T:
            value = build()
            charge, held = resident_bytes(value)
            self._admit((key, name), value, generation, charge, held)
            return value

        return self._flights.do(("MEMO", key, name), fill)

    def get_many(self, requests) -> list[bytes]:
        """Batched reads that serve cache hits and coalesce only misses.

        Each requested sub-range is looked up individually first (a
        whole-object entry serves any in-bounds range); only the misses
        enter the coalescing planner, and each merged GET then flows
        through :meth:`get` — picking up single-flight dedup at
        merged-request granularity and admission of the merged range,
        so a repeat of the same plan is served entirely from cache.
        """
        from repro.storage.sched import execute_plan, plan_reads

        results: list[bytes | None] = [None] * len(requests)
        misses: list[tuple[int, object]] = []
        for index, request in enumerate(requests):
            cached = self._lookup(request.key, (request.offset, request.length))
            if cached is not None:
                results[index] = cached
            else:
                misses.append((index, request))
        if misses:
            local = [request for _, request in misses]
            fetched = execute_plan(self, local, plan_reads(local))
            for (index, _), data in zip(misses, fetched):
                results[index] = data
        return results  # type: ignore[return-value]

    def put(self, key: str, data: bytes, *, if_none_match: bool = False) -> ObjectInfo:
        # Invalidate after the write, so a read racing it cannot keep
        # the old bytes; even after a failed conditional PUT, whose
        # caller is about to re-read the key's latest state.
        try:
            return self.inner.put(key, data, if_none_match=if_none_match)
        finally:
            self.invalidate(key)

    def delete(self, key: str) -> None:
        try:
            self.inner.delete(key)
        finally:
            self.invalidate(key)

    def head(self, key: str) -> ObjectInfo:
        if self._discovered(key, whole=False)[0]:
            raise ObjectNotFound(key)
        with self._cache_lock:
            info = self._heads.get(key)
            if info is not None:
                self._heads.move_to_end(key)
                self._count("hits")
                return info
            self._count("misses")
            generation = self._generation.get(key, 0)
        try:
            info = self.inner.head(key)
        except ObjectNotFound:
            self._discover(key, None, generation)
            raise
        with self._cache_lock:
            if self._generation.get(key, 0) == generation:
                self._keep_meta(self._heads, key, info)
        return info

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        return self.inner.list(prefix)
