"""CachingObjectStore: transparency, eviction, admission, dedup."""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.errors import InvalidByteRange, ObjectNotFound, PreconditionFailed
from repro.formats.page_reader import PageEntry, PageTable
from repro.serve.cache import CachingObjectStore, resident_bytes
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.retry import RetryingObjectStore
from repro.util.clock import SimClock


def _fresh_pair(**cache_kwargs):
    inner = InMemoryObjectStore(clock=SimClock(start=1_000.0))
    return inner, CachingObjectStore(inner, **cache_kwargs)


# -- transparency: the hypothesis property test -----------------------

_KEYS = st.sampled_from(["a", "ab", "b/x", "b/y", "h/_latest.json"])
#: Reads also ask for a key nothing ever writes.
_READ_KEYS = st.sampled_from(["a", "ab", "b/x", "b/y", "h/_latest.json", "zz"])
_DATA = st.binary(min_size=0, max_size=12)
_RANGES = st.one_of(
    st.none(),
    st.tuples(st.integers(-1, 14), st.integers(-1, 14)),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, _DATA),
        st.tuples(st.just("put_cond"), _KEYS, _DATA),
        st.tuples(st.just("get"), _READ_KEYS, _RANGES),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("head"), _READ_KEYS),
        st.tuples(st.just("list"), st.sampled_from(["", "a", "b/", "zz"])),
        st.tuples(st.just("clear")),
        st.tuples(st.just("memo_view"), _KEYS),
        st.tuples(st.just("memo_repeat"), _KEYS, st.integers(0, 8)),
        st.tuples(st.just("memo_across_write"), _KEYS, _DATA),
    ),
    min_size=1,
    max_size=40,
)


def _apply(store, op):
    """Run one op, returning ('ok', value) or ('err', exception type)."""
    try:
        if op[0] == "put":
            info = store.put(op[1], op[2])
            return ("ok", (info.key, info.size))
        if op[0] == "put_cond":
            info = store.put(op[1], op[2], if_none_match=True)
            return ("ok", (info.key, info.size))
        if op[0] == "get":
            return ("ok", store.get(op[1], op[2]))
        if op[0] == "delete":
            return ("ok", store.delete(op[1]))
        if op[0] == "head":
            info = store.head(op[1])
            return ("ok", (info.key, info.size))
        if op[0] == "list":
            return ("ok", [(i.key, i.size) for i in store.list(op[1])])
        if op[0] == "memo_view":  # a view over the object's (cached) bytes
            view = store.memo(
                op[1], "view", lambda: np.frombuffer(store.get(op[1]), np.uint8)
            )
            return ("ok", view.tobytes())
        if op[0] == "memo_repeat":  # up to 96 bytes: some above max_entry
            name = f"repeat{op[2]}"
            return ("ok", store.memo(op[1], name, lambda: store.get(op[1]) * op[2]))
        if op[0] == "memo_across_write":

            def build():  # a writer lands while the value is being built
                value = store.get(op[1])
                store.put(op[1], op[2])
                return value

            return ("ok", store.memo(op[1], "racy", build))
        raise AssertionError(op)
    except (ObjectNotFound, InvalidByteRange, PreconditionFailed) as exc:
        return ("err", type(exc))


def _memo_entries(cached, key):
    return [ck for ck in cached._entries if ck[0] == key and isinstance(ck[1], str)]


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_cache_is_transparent(ops):
    """Any op sequence through the cache returns byte-identical results
    to the bare store — including after put-overwrite and delete, and
    for keys that are absent — and values built from the bytes
    (``memo``) obey the byte rules: within budget, dropped with their
    key, never admitted stale, never kept above ``max_entry_bytes``.
    Every remembered hint or missing key agrees with the bare store."""
    reference = InMemoryObjectStore(clock=SimClock(start=1_000.0))
    _, cached = _fresh_pair(budget_bytes=64, max_entry_bytes=32)
    for op in ops:
        if op[0] == "clear":
            cached.clear()  # wrapper-only op; reference unaffected
            continue
        got = _apply(cached, op)
        assert got == _apply(reference, op), op
        charges = [charge for _, charge in cached._entries.values()]
        assert cached.cached_bytes == sum(charges) <= cached.budget_bytes
        if op[0] in ("put", "put_cond", "delete", "memo_across_write"):
            # Written (or written mid-build): nothing decoded survives.
            assert _memo_entries(cached, op[1]) == [], op
        if op[0] == "memo_repeat" and got[0] == "ok":
            kept = (op[1], f"repeat{op[2]}") in cached._entries
            assert kept == (resident_bytes(got[1])[0] <= cached.max_entry_bytes)
        objects = reference.dump()
        for key, data in cached._discovery.items():
            assert objects.get(key) == data, key


def test_put_overwrite_invalidates():
    inner, cached = _fresh_pair()
    cached.put("k", b"old-value")
    assert cached.get("k") == b"old-value"
    cached.put("k", b"new")
    assert cached.get("k") == b"new"
    assert cached.get("k", (0, 3)) == b"new"
    assert cached.cache_stats.invalidations >= 1


def test_delete_invalidates():
    inner, cached = _fresh_pair()
    cached.put("k", b"v")
    cached.get("k")
    cached.delete("k")
    with pytest.raises(ObjectNotFound):
        cached.get("k")


def test_writes_behind_the_cache_can_go_stale():
    """The transparency contract requires writes through the wrapper;
    this documents (not endorses) what happens otherwise."""
    inner, cached = _fresh_pair()
    inner.put("k", b"v1")
    assert cached.get("k") == b"v1"
    inner.put("k", b"v2")  # behind the cache's back
    assert cached.get("k") == b"v1"  # stale, by design
    cached.invalidate("k")
    assert cached.get("k") == b"v2"


# -- LRU budget + admission ------------------------------------------


def test_lru_eviction_respects_budget():
    inner, cached = _fresh_pair(budget_bytes=100, max_entry_bytes=100)
    for key in ("k1", "k2", "k3"):
        inner.put(key, b"x" * 40)
    cached.get("k1")
    cached.get("k2")
    assert cached.cached_bytes == 80
    cached.get("k3")  # 120 > 100: evict the LRU entry (k1)
    assert cached.cached_bytes == 80
    assert cached.cache_stats.evictions == 1
    before = inner.stats.snapshot()
    cached.get("k2")  # still cached
    cached.get("k3")  # still cached
    assert inner.stats.delta(before).gets == 0
    cached.get("k1")  # evicted: goes to the inner store again
    assert inner.stats.delta(before).gets == 1


def test_oversize_entries_served_but_not_admitted():
    inner, cached = _fresh_pair(budget_bytes=1000, max_entry_bytes=10)
    inner.put("big", b"x" * 50)
    assert cached.get("big") == b"x" * 50
    assert cached.cached_bytes == 0
    assert cached.cache_stats.rejected == 1
    before = inner.stats.snapshot()
    assert cached.get("big") == b"x" * 50  # miss again, by design
    assert inner.stats.delta(before).gets == 1


def test_whole_object_serves_byte_ranges():
    inner, cached = _fresh_pair()
    inner.put("k", b"0123456789")
    cached.get("k")  # caches the whole object
    before = inner.stats.snapshot()
    assert cached.get("k", (2, 3)) == b"234"
    assert cached.get("k", (0, 10)) == b"0123456789"
    assert inner.stats.delta(before).gets == 0  # both served from cache
    with pytest.raises(InvalidByteRange):
        cached.get("k", (5, 99))  # out of bounds still errors


def test_heads_are_cached_and_lists_pass_through():
    """A HEAD is kept until its key is written; a LIST always reaches
    the inner store (a reader sends one only when a log hint is missing
    or stale)."""
    inner, cached = _fresh_pair()
    inner.put("b/x", b"1")
    cached.head("b/x")
    before = inner.stats.snapshot()
    assert cached.head("b/x").size == 1
    assert [i.key for i in cached.list("b/")] == ["b/x"]
    delta = inner.stats.delta(before)
    assert (delta.heads, delta.lists) == (0, 1)
    cached.put("b/x", b"22")
    assert cached.head("b/x").size == 2


class _CountingStore(InMemoryObjectStore):
    """Logs every GET and HEAD that reaches it, missing keys included
    (a 404 is not billed, so ``stats`` cannot see it)."""

    def __init__(self) -> None:
        super().__init__(clock=SimClock(start=1_000.0))
        self.reads: list[tuple[str, str]] = []

    def get(self, key, byte_range=None):
        self.reads.append(("GET", key))
        return super().get(key, byte_range)

    def head(self, key):
        self.reads.append(("HEAD", key))
        return super().head(key)


def test_missing_keys_are_remembered_until_written():
    inner = _CountingStore()
    cached = CachingObjectStore(inner, budget_bytes=1)  # no bytes kept
    for _ in range(3):
        with pytest.raises(ObjectNotFound):
            cached.get("log/00000000000000000008.json")
        with pytest.raises(ObjectNotFound):
            cached.head("log/00000000000000000008.json")
    assert inner.reads == [("GET", "log/00000000000000000008.json")]
    cached.put("log/00000000000000000008.json", b"v8")
    assert cached.get("log/00000000000000000008.json") == b"v8"
    cached.delete("log/00000000000000000008.json")
    with pytest.raises(ObjectNotFound):
        cached.get("log/00000000000000000008.json")


def test_hints_are_kept_outside_the_byte_budget():
    """A log's hint replaces the LIST a reader found the tip with, so
    it is kept like one: whatever the budget, until it is written."""
    inner = _CountingStore()
    cached = CachingObjectStore(inner, budget_bytes=1)
    cached.put("lake/_log/_latest.json", b'{"version": 3, "checkpoint": -1}')
    for _ in range(3):
        assert cached.get("lake/_log/_latest.json") == (
            b'{"version": 3, "checkpoint": -1}'
        )
    assert inner.reads == [("GET", "lake/_log/_latest.json")]
    assert cached.cached_bytes == 0
    cached.put("lake/_log/_latest.json", b'{"version": 4, "checkpoint": -1}')
    assert cached.get("lake/_log/_latest.json") == b'{"version": 4, "checkpoint": -1}'
    assert cached.get("lake/_log/_latest.json", (1, 9)) == b'"version"'


def test_hit_miss_counters():
    inner, cached = _fresh_pair()
    inner.put("k", b"v")
    cached.get("k")
    cached.get("k")
    cached.get("k")
    assert cached.cache_stats.misses == 1
    assert cached.cache_stats.hits == 2
    assert cached.cache_stats.hit_rate == pytest.approx(2 / 3)


def test_budget_validation():
    inner = InMemoryObjectStore(clock=SimClock())
    with pytest.raises(ValueError):
        CachingObjectStore(inner, budget_bytes=0)


# -- decoded values: charged once, dropped with their bytes ------------


def _index_file(store, key: str) -> bytes:
    """A small index file with one ``data`` component; returns the payload."""
    table = PageTable("a", "text", [PageEntry("a", 0, 0, 10, 1, 0, 0, crc=0)])
    writer = IndexFileWriter("fm", "text", PageDirectory([table]))
    payload = bytes(range(256)) * 4
    writer.add_component("data", payload)
    store.put(key, writer.finish())
    return payload


def test_each_buffer_is_charged_once():
    inner, cached = _fresh_pair()
    inner.put("k", bytes(range(100)))
    data = cached.get("k")
    assert cached.cached_bytes == 100
    view = cached.memo("k", "view", lambda: np.frombuffer(data, np.uint8)[10:])
    # A view over a cached buffer adds nothing: its entry replaces the
    # byte entry holding that buffer.
    assert cached.cached_bytes == 100
    assert list(cached._entries) == [("k", "view")]
    hits = cached.cache_stats.hits
    assert cached.memo("k", "view", lambda: None) is view
    assert cached.cache_stats.hits == hits + 1  # one hit rate for both kinds

    # An opened index file keeps its tail GET: the reader replaces it.
    payload = _index_file(inner, "f.index")
    before = cached.cached_bytes
    reader = IndexFileReader.open(cached, "f.index")
    tail = reader._reader._tail
    charge, held = resident_bytes(reader)
    assert id(tail) in held
    pair = (reader, tail)  # the tail listed twice is still counted once
    assert resident_bytes(pair)[0] == charge + sys.getsizeof(pair)
    assert [ck for ck in cached._entries if ck[0] == "f.index"] == [
        ("f.index", "open")
    ]
    assert cached.cached_bytes == before + charge
    assert IndexFileReader.open(cached, "f.index") is reader

    # A decoded component is charged its own buffer, once.
    before = cached.cached_bytes
    arr = reader.decoded("data", lambda blob: np.frombuffer(blob, np.uint8))
    assert arr.tobytes() == payload
    assert cached.cached_bytes == before + len(payload)


def test_plain_store_memo_keeps_nothing():
    store = InMemoryObjectStore(clock=SimClock())
    _index_file(store, "f.index")
    first = IndexFileReader.open(store, "f.index")
    assert IndexFileReader.open(store, "f.index") is not first
    assert store.memo("f.index", "x", lambda: [1]) is not store.memo(
        "f.index", "x", lambda: [1]
    )


def test_lookup_only_memo_refreshes_and_builds_nothing():
    inner, cached = _fresh_pair(budget_bytes=10, max_entry_bytes=10)
    inner.put("k", b"v")
    assert cached.memo("k", "a") is None  # nothing kept, nothing built
    cached.memo("k", "a", lambda: b"aaaa")
    cached.memo("k", "b", lambda: b"bbbb")
    assert cached.memo("k", "a") == b"aaaa"  # refreshed: "b" is now older
    cached.memo("k", "c", lambda: b"cccc")  # over budget: evicts "b"
    assert (cached.memo("k", "a"), cached.memo("k", "b")) == (b"aaaa", None)
    assert InMemoryObjectStore().memo("k", "a") is None


def test_a_read_racing_a_write_leaves_no_stale_bytes():
    """A read that lands while a write is in flight (the key already
    invalidated, the inner store still holding the old bytes) fetches
    the old bytes; once the write returns, they must not be cached."""

    class RacedStore(InMemoryObjectStore):
        racing = False

        def put(self, key, data, **kwargs):
            if self.racing:
                cached.get(key)
            return super().put(key, data, **kwargs)

        def delete(self, key):
            if self.racing:
                cached.get(key)
            super().delete(key)

    inner = RacedStore(clock=SimClock(start=1_000.0))
    cached = CachingObjectStore(inner)
    inner.put("k", b"old")
    inner.racing = True
    cached.put("k", b"new")
    assert cached.get("k") == b"new"
    cached.delete("k")
    with pytest.raises(ObjectNotFound):
        cached.get("k")


def test_concurrent_memo_and_writes_never_keep_a_stale_value():
    """Eight threads memoize, read and overwrite six keys through one
    small cache; afterwards the accounting is exact and every kept value
    equals a fresh build from the inner store (a lost generation check
    would keep one built from overwritten bytes)."""
    inner, cached = _fresh_pair(budget_bytes=256, max_entry_bytes=64)
    keys = [f"k{i}" for i in range(6)]
    for key in keys:
        inner.put(key, bytes(20))
    errors: list[Exception] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(300):
                key, roll = rng.choice(keys), rng.random()
                if roll < 0.4:
                    times = rng.randint(1, 3)
                    cached.memo(key, f"x{times}", lambda: cached.get(key) * times)
                elif roll < 0.8:
                    cached.get(key, (0, 4) if roll < 0.6 else None)
                else:
                    cached.put(key, bytes([rng.randrange(256)]) * rng.randint(4, 30))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    charges = [charge for _, charge in cached._entries.values()]
    assert cached.cached_bytes == sum(charges) <= cached.budget_bytes
    for (key, part), (value, _) in cached._entries.items():
        if isinstance(part, str):
            assert value == inner.get(key) * int(part[1:]), (key, part)
        else:
            assert value == inner.get(key, part), (key, part)


# -- single-flight misses --------------------------------------------


class _GatedStore(InMemoryObjectStore):
    """GETs block until released, so concurrent misses pile up."""

    def __init__(self):
        super().__init__(clock=SimClock())
        self.gate = threading.Event()
        self.get_started = threading.Event()

    def get(self, key, byte_range=None):
        self.get_started.set()
        assert self.gate.wait(timeout=5)
        return super().get(key, byte_range)


def test_concurrent_identical_gets_share_one_fetch():
    inner = _GatedStore()
    cached = CachingObjectStore(inner)
    inner._objects["k"] = (b"v", 0.0)  # seed without a billed PUT
    results = []

    def reader():
        results.append(cached.get("k"))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    assert inner.get_started.wait(timeout=5)
    inner.gate.set()
    for t in threads:
        t.join(timeout=5)
    assert results == [b"v"] * 4
    assert inner.stats.gets == 1  # one flight served all four callers
    assert cached._flights.shared == 3


def test_stacks_with_retrying_store():
    """The cache implements the same ABC as RetryingObjectStore, so the
    two wrappers compose in either order."""
    inner = InMemoryObjectStore(clock=SimClock())
    stack = CachingObjectStore(RetryingObjectStore(inner))
    stack.put("k", b"v")
    assert stack.get("k") == b"v"
    assert inner.get("k") == b"v"
    other = RetryingObjectStore(CachingObjectStore(inner))
    assert other.get("k") == b"v"
