"""Object store semantics: the primitives the protocol depends on."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    InjectedFault,
    InvalidByteRange,
    ObjectNotFound,
    PreconditionFailed,
)
from repro.storage.faults import FaultRule, FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import IOStats, Request, RequestTrace, barrier, tracing
from repro.util.clock import SimClock


@pytest.fixture
def store():
    return InMemoryObjectStore(clock=SimClock(start=1000.0))


class TestBasicOps:
    def test_put_get_roundtrip(self, store):
        store.put("a/b", b"hello")
        assert store.get("a/b") == b"hello"

    def test_get_missing_raises(self, store):
        with pytest.raises(ObjectNotFound):
            store.get("nope")

    def test_head_reports_size_and_mtime(self, store):
        store.clock.advance(5)
        info = store.put("k", b"12345")
        assert info.size == 5
        assert info.mtime == 1005.0
        assert store.head("k").size == 5

    def test_put_overwrites(self, store):
        store.put("k", b"one")
        store.put("k", b"two")
        assert store.get("k") == b"two"

    def test_empty_key_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("", b"x")

    def test_delete_is_idempotent(self, store):
        store.put("k", b"x")
        store.delete("k")
        store.delete("k")  # no error, like S3
        assert not store.exists("k")

    def test_exists(self, store):
        assert not store.exists("k")
        store.put("k", b"x")
        assert store.exists("k")


class TestConditionalPut:
    """The compare-and-swap both transaction logs rely on."""

    def test_if_none_match_succeeds_on_fresh_key(self, store):
        store.put("log/0", b"v0", if_none_match=True)
        assert store.get("log/0") == b"v0"

    def test_if_none_match_fails_on_existing_key(self, store):
        store.put("log/0", b"v0")
        with pytest.raises(PreconditionFailed):
            store.put("log/0", b"other", if_none_match=True)
        # Loser must not have clobbered the winner.
        assert store.get("log/0") == b"v0"

    def test_failed_conditional_put_is_still_billed(self, store):
        store.put("k", b"x")
        before = store.stats.puts
        with pytest.raises(PreconditionFailed):
            store.put("k", b"y", if_none_match=True)
        assert store.stats.puts == before + 1


class TestByteRange:
    def test_range_read(self, store):
        store.put("k", b"0123456789")
        assert store.get("k", (2, 4)) == b"2345"

    def test_full_range(self, store):
        store.put("k", b"abc")
        assert store.get("k", (0, 3)) == b"abc"

    def test_zero_length_range(self, store):
        store.put("k", b"abc")
        assert store.get("k", (1, 0)) == b""

    @pytest.mark.parametrize("rng", [(-1, 2), (0, 4), (3, 1), (2, -1)])
    def test_invalid_ranges(self, store, rng):
        store.put("k", b"abc")
        with pytest.raises(InvalidByteRange):
            store.get("k", rng)

    def test_range_read_bills_only_range_bytes(self, store):
        store.put("k", b"x" * 100)
        before = store.stats.bytes_read
        store.get("k", (10, 7))
        assert store.stats.bytes_read == before + 7


class TestList:
    def test_list_prefix_sorted(self, store):
        store.put("t/b", b"2")
        store.put("t/a", b"1")
        store.put("u/c", b"3")
        keys = [i.key for i in store.list("t/")]
        assert keys == ["t/a", "t/b"]

    def test_list_all(self, store):
        store.put("x", b"1")
        assert [i.key for i in store.list()] == ["x"]

    def test_list_empty_prefix_result(self, store):
        assert store.list("none/") == []


class TestStatsAndHelpers:
    def test_stats_accumulate(self, store):
        store.put("a", b"12")
        store.get("a")
        store.list("")
        store.delete("a")
        s = store.stats
        assert (s.puts, s.gets, s.lists, s.deletes) == (1, 1, 1, 1)
        assert s.bytes_written == 2
        assert s.bytes_read == 2

    def test_stats_snapshot_delta(self, store):
        store.put("a", b"xy")
        before = store.stats.snapshot()
        store.get("a")
        delta = store.stats.delta(before)
        assert delta.gets == 1
        assert delta.puts == 0
        assert delta.bytes_read == 2

    def test_total_bytes_and_keys(self, store):
        store.put("p/a", b"123")
        store.put("p/b", b"4567")
        store.put("q/c", b"1")
        assert store.total_bytes("p/") == 7
        assert store.keys() == ["p/a", "p/b", "q/c"]

    def test_unknown_op_rejected(self):
        stats = IOStats()
        with pytest.raises(ValueError):
            stats.record(Request(op="POKE", key="k", nbytes=0))


class TestTracing:
    def test_trace_records_rounds(self, store):
        store.put("a", b"xx")  # not traced
        with tracing() as done:
            store.get("a")
            store.get("a")
            barrier()
            store.get("a")
        assert done.depth == 2
        assert done.total_requests == 3
        assert done.total_bytes == 6

    def test_barrier_on_empty_round_is_noop(self, store):
        with tracing() as trace:
            barrier()
            barrier()
            store.get_missing = None
            store.put("a", b"x")
        assert trace.depth == 1

    def test_merge_parallel_aligns_rounds(self):
        t1 = RequestTrace()
        t1.record(Request("GET", "a", 10))
        t1.barrier()
        t1.record(Request("GET", "b", 20))
        t2 = RequestTrace()
        t2.record(Request("GET", "c", 30))
        merged = t1.merge_parallel(t2)
        assert merged.depth == 2
        assert len(merged.rounds[0]) == 2
        assert merged.total_bytes == 60

    def test_merge_parallel_empty(self):
        merged = RequestTrace().merge_parallel(RequestTrace())
        assert merged.depth == 0
        assert merged.total_requests == 0


class TestFaultInjection:
    def test_fault_fires_once(self, store):
        faulty = FaultyObjectStore(store)
        faulty.fail_next("PUT", "target")
        with pytest.raises(InjectedFault):
            faulty.put("a/target/b", b"x")
        faulty.put("a/target/b", b"x")  # second attempt succeeds
        assert store.get("a/target/b") == b"x"

    def test_fault_countdown(self, store):
        faulty = FaultyObjectStore(store)
        faulty.fail_next("PUT", countdown=2)
        faulty.put("a", b"1")
        faulty.put("b", b"2")
        with pytest.raises(InjectedFault):
            faulty.put("c", b"3")
        assert not store.exists("c")

    def test_fault_on_delete_only(self, store):
        faulty = FaultyObjectStore(store)
        faulty.fail_next("DELETE")
        faulty.put("k", b"x")
        faulty.get("k")
        with pytest.raises(InjectedFault):
            faulty.delete("k")
        assert store.exists("k")

    def test_wildcard_op(self, store):
        faulty = FaultyObjectStore(store)
        faulty.add_rule(FaultRule(op="*"))
        with pytest.raises(InjectedFault):
            faulty.list("")

    def test_failed_put_leaves_no_partial_object(self, store):
        faulty = FaultyObjectStore(store)
        faulty.fail_next("PUT", "x")
        with pytest.raises(InjectedFault):
            faulty.put("x", b"partial")
        assert not store.exists("x")

    def test_stats_shared_with_inner(self, store):
        faulty = FaultyObjectStore(store)
        faulty.put("k", b"xy")
        assert store.stats.puts == 1


class TestConsistency:
    """Strong read-after-write: the one assumption the paper's protocol
    makes of the object store."""

    def test_read_after_write(self, store):
        for i in range(50):
            store.put("k", str(i).encode())
            assert store.get("k") == str(i).encode()

    def test_list_after_write(self, store):
        for i in range(10):
            store.put(f"p/{i:03d}", b"x")
            assert len(store.list("p/")) == i + 1

    @given(st.binary(min_size=0, max_size=1000), st.integers(0, 999))
    def test_range_get_matches_slice(self, data, start):
        store = InMemoryObjectStore()
        store.put("k", data)
        if start <= len(data):
            length = len(data) - start
            assert store.get("k", (start, length)) == data[start:]
