"""Batch I/O scheduler: plan shape, byte-identity, and failed merged GETs.

The scheduler's contract (``repro.storage.sched``) is that coalescing
is *invisible* except in wire-request counts: for any set of ``(key,
range)`` requests, any gap threshold, and any cache state, a plan's
dispatch returns bytes identical to issuing each range as its own
``get``. Hypothesis drives the identity property directly against that
naive oracle — bare store and cache-wrapped store with arbitrary
pre-warmed entries — plus the failure property: killing any merged GET
of a plan fails the whole read with the injected fault.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InjectedFault
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.serve.cache import CachingObjectStore
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.sched import (
    DEFAULT_GAP_THRESHOLD,
    MergedGet,
    RangeRequest,
    execute_plan,
    plan_reads,
)

_OBJECTS = {
    "a": bytes(range(256)) * 4,  # 1024 bytes
    "b": b"x" * 512,
    "c": b"\x00\x01" * 100,  # 200 bytes
}


def _store() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    for key, data in _OBJECTS.items():
        store.put(key, data)
    return store


def _requests_for(key: str, size: int):
    """Strategy: an in-bounds (offset, length) request on ``key``."""
    return st.integers(min_value=0, max_value=size).flatmap(
        lambda offset: st.integers(min_value=0, max_value=size - offset).map(
            lambda length: RangeRequest(key, offset, length)
        )
    )


_any_request = st.one_of(
    *[_requests_for(key, len(data)) for key, data in _OBJECTS.items()]
)
_request_lists = st.lists(_any_request, max_size=24)
_gaps = st.one_of(
    st.integers(min_value=0, max_value=8),
    st.sampled_from([64, 4096, 10**6]),
)


def _naive(store, requests):
    """The oracle: one blocking GET per range, no coalescing."""
    return [store.get(r.key, (r.offset, r.length)) for r in requests]


class TestPlanReads:
    def test_adjacent_and_gapped_ranges_merge(self):
        plan = plan_reads(
            [
                RangeRequest("k", 0, 10),
                RangeRequest("k", 10, 5),  # exactly adjacent
                RangeRequest("k", 19, 6),  # gap of 4 <= threshold
            ],
            gap_threshold=4,
        )
        assert len(plan) == 1
        merged = plan[0]
        assert (merged.offset, merged.length) == (0, 25)
        assert [index for index, _ in merged.parts] == [0, 1, 2]
        assert merged.waste == 4  # bytes 15..19 nobody asked for

    def test_gap_beyond_threshold_splits(self):
        plan = plan_reads(
            [RangeRequest("k", 0, 10), RangeRequest("k", 15, 5)],
            gap_threshold=4,
        )
        assert [(m.offset, m.length) for m in plan] == [(0, 10), (15, 5)]
        assert all(m.waste == 0 for m in plan)

    def test_overlapping_ranges_merge_with_zero_waste(self):
        plan = plan_reads(
            [RangeRequest("k", 0, 20), RangeRequest("k", 5, 10)],
            gap_threshold=0,
        )
        assert len(plan) == 1
        assert plan[0].waste == 0

    def test_keys_never_merge(self):
        plan = plan_reads(
            [RangeRequest("a", 0, 10), RangeRequest("b", 10, 10)],
            gap_threshold=10**9,
        )
        assert len(plan) == 2

    def test_plan_is_deterministic_and_order_stable(self):
        requests = [
            RangeRequest("b", 100, 4),
            RangeRequest("a", 50, 4),
            RangeRequest("a", 0, 4),
            RangeRequest("b", 0, 4),
        ]
        plan = plan_reads(requests, gap_threshold=10**6)
        # Keys in first-appearance order, parts sorted by offset.
        assert [m.key for m in plan] == ["b", "a"]
        assert [index for index, _ in plan[0].parts] == [3, 0]
        assert plan == plan_reads(list(requests), gap_threshold=10**6)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            RangeRequest("k", -1, 4)
        with pytest.raises(ValueError):
            RangeRequest("k", 0, -4)
        with pytest.raises(ValueError):
            plan_reads([RangeRequest("k", 0, 4)], gap_threshold=-1)

    def test_empty_plan(self):
        assert plan_reads([]) == []
        assert _store().get_many([]) == []


class TestGetManyIdentity:
    @settings(max_examples=200, deadline=None)
    @given(requests=_request_lists, gap=_gaps)
    def test_byte_identical_to_naive_gets(self, requests, gap):
        store = _store()
        expected = _naive(store, requests)
        assert execute_plan(store, requests, plan_reads(requests, gap)) == expected
        assert store.get_many(requests) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        requests=_request_lists,
        gap=_gaps,
        warm=st.lists(_any_request, max_size=8),
        warm_whole=st.lists(st.sampled_from(sorted(_OBJECTS)), max_size=3),
    )
    def test_byte_identical_through_cache(
        self, requests, gap, warm, warm_whole
    ):
        """Any cache state: range entries, whole-object entries, cold."""
        cache = CachingObjectStore(_store(), budget_bytes=1 << 20)
        for request in warm:
            cache.get(request.key, (request.offset, request.length))
        for key in warm_whole:
            cache.get(key)
        expected = [_OBJECTS[r.key][r.offset : r.end] for r in requests]
        planned = execute_plan(cache, requests, plan_reads(requests, gap))
        assert [bytes(p) for p in planned] == expected
        got = cache.get_many(requests)
        assert [bytes(g) for g in got] == expected
        # Repeats converge: each repeat re-plans only its misses, so the
        # merged ranges shift for a few rounds while entries accumulate,
        # but within |requests| repeats a batch reaches a fixpoint that
        # issues zero new wire GETs. (Zero-length requests are exempt —
        # empty payloads are never admitted.)
        if all(r.length > 0 for r in requests):
            for _ in range(len(requests)):
                assert cache.get_many(requests) == got
            before = cache.inner.stats.snapshot().gets
            assert cache.get_many(requests) == got
            assert cache.inner.stats.snapshot().gets == before

    def test_requests_recorded_at_merged_granularity(self):
        store = _store()
        requests = [
            RangeRequest("a", 0, 8),
            RangeRequest("a", 8, 8),
            RangeRequest("b", 0, 8),
        ]
        before = store.stats.snapshot()
        execute_plan(store, requests, plan_reads(requests, gap_threshold=0))
        delta_gets = store.stats.snapshot().gets - before.gets
        assert delta_gets == 2  # one merged GET for "a", one for "b"

    def test_get_many_coalesces_at_the_default_gap(self):
        store = InMemoryObjectStore()
        store.put("big", bytes(3 * DEFAULT_GAP_THRESHOLD))
        for gap, gets in ((DEFAULT_GAP_THRESHOLD, 1), (DEFAULT_GAP_THRESHOLD + 1, 2)):
            requests = [RangeRequest("big", 0, 4), RangeRequest("big", 4 + gap, 4)]
            before = store.stats.snapshot().gets
            store.get_many(requests)
            assert store.stats.snapshot().gets - before == gets

    def test_waste_counter_reconciles_with_plan(self):
        requests = [RangeRequest("a", 0, 4), RangeRequest("a", 10, 4)]
        plan = plan_reads(requests, gap_threshold=8)
        assert sum(m.waste for m in plan) == 6
        with use_hub(TelemetryHub()) as hub:
            execute_plan(_store(), requests, plan)
        assert hub.get("io_coalesced_waste_bytes_total").total() == 6
        assert hub.get("io_merged_gets_total").total() == 1
        assert hub.get("io_coalesced_subranges_total").total() == 2
        # IOStats billed the merged length; waste only hit the counter.
        store = _store()
        start = store.stats.snapshot().bytes_read
        execute_plan(store, requests, plan_reads(requests, gap_threshold=8))
        assert store.stats.snapshot().bytes_read - start == 14


class TestFaultScoping:
    @settings(max_examples=150, deadline=None)
    @given(
        requests=st.lists(_any_request, min_size=1, max_size=24),
        gap=_gaps,
        data=st.data(),
    )
    def test_failed_merged_get_fails_exactly_its_subranges(
        self, requests, gap, data
    ):
        """Kill the Nth merged GET: the read raises the injected fault,
        after dispatching exactly the merged GETs before it."""
        plan = plan_reads(requests, gap_threshold=gap)
        victim = data.draw(
            st.integers(min_value=0, max_value=len(plan) - 1), label="victim"
        )
        store = _store()
        faulty = FaultyObjectStore(store)
        faulty.fail_next("GET", countdown=victim)
        before = store.stats.snapshot().gets
        with pytest.raises(InjectedFault):
            execute_plan(faulty, requests, plan)
        assert store.stats.snapshot().gets - before == victim

    def test_without_return_exceptions_the_fault_raises(self):
        faulty = FaultyObjectStore(_store())
        faulty.fail_next("GET")
        with pytest.raises(InjectedFault):
            faulty.get_many([RangeRequest("a", 0, 4)])

    def test_slice_maps_parts_back(self):
        merged = MergedGet(
            key="k",
            offset=10,
            length=20,
            parts=((0, RangeRequest("k", 12, 4)), (1, RangeRequest("k", 20, 5))),
            waste=11,
        )
        payload = bytes(range(10, 30))
        assert merged.slice(0, payload) == bytes(range(12, 16))
        assert merged.slice(1, payload) == bytes(range(20, 25))
