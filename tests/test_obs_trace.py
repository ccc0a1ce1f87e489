"""Tracer: span trees, request traces on spans, clocks, and cross-thread
propagation."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.queries import UuidQuery
from repro.obs.trace import Tracer, get_tracer, set_tracer, use_tracer
from repro.serve.executor import SearchExecutor
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import Request, RequestTrace, tracing
from repro.util.clock import SimClock
from tests.conftest import event_uuid


def _trace(*requests: tuple[str, str, int]) -> RequestTrace:
    trace = RequestTrace()
    for op, key, nbytes in requests:
        trace.record(Request(op=op, key=key, nbytes=nbytes))
    return trace


class TestSpanTree:
    def test_nesting_builds_tree(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in a.children] == ["a1"]
        assert [s.name for s in root.walk()] == ["root", "a", "a1", "b"]
        assert root.find("a1").parent_id == a.span_id
        assert root.parent_id is None

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("q", column="text", k=5) as span:
            span.set("matches", 3)
        assert span.attributes == {"column": "text", "k": 5, "matches": 3}

    def test_find_all(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            for _ in range(3):
                with tracer.span("probe"):
                    pass
        assert len(root.find_all("probe")) == 3
        assert root.find("missing") is None

    def test_requests_belong_to_the_innermost_traced_span(self):
        tracer = Tracer()
        with tracer.span("pooled") as pooled:
            with tracer.span("task") as task:
                task.trace = _trace(("GET", "k1", 10))
            with tracer.span("task") as other:
                other.trace = _trace(("GET", "k2", 20))
            pooled.trace = _trace(("GET", "k1", 10), ("GET", "k2", 20))
        with tracer.span("inline") as inline:
            with tracer.span("untraced"):
                pass
            inline.trace = _trace(("LIST", "p/", 0), ("GET", "k3", 30))
        assert [r.key for r in task.own_requests] == ["k1"]
        assert [r.key for r in other.own_requests] == ["k2"]
        assert pooled.own_requests == []  # its tasks keep them
        assert (pooled.trace.total_requests, pooled.trace.total_bytes) == (2, 30)
        assert [r.key for r in inline.own_requests] == ["p/", "k3"]

    def test_request_outside_any_phase_lands_on_no_span(self):
        tracer = Tracer()
        store = InMemoryObjectStore()
        store.put("k", b"v")  # no active span: must not raise
        with use_tracer(tracer), tracer.span("root") as root:
            store.get("k")
        assert root.trace is None and root.own_requests == []
        assert [s.name for s in tracer.pop_finished()] == ["root"]

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("x")
        assert span.end_s is not None
        assert tracer.current() is None
        assert tracer.last_root("boom") is span


class TestClockAndLifecycle:
    def test_simclock_durations(self):
        clock = SimClock(start=100.0)
        tracer = Tracer(clock=clock)
        with tracer.span("work") as span:
            clock.advance(2.5)
        assert span.duration_s == pytest.approx(2.5)
        assert span.start_s == pytest.approx(100.0)

    def test_wall_clock_durations_monotonic(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.duration_s >= 0.0

    def test_finished_ring_and_pop(self):
        tracer = Tracer(keep_finished=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        roots = tracer.pop_finished()
        assert [s.name for s in roots] == ["b", "c"]  # oldest dropped
        assert tracer.pop_finished() == []

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as span:
            span.set("k", "v")  # no-op on the null span
            span.trace = _trace(("GET", "k", 1))  # so is a trace
        assert span.attributes == {} and span.trace is None
        assert tracer.pop_finished() == []

    def test_use_tracer_scopes_the_global(self):
        original = get_tracer()
        scoped = Tracer()
        with use_tracer(scoped) as active:
            assert active is scoped
            assert get_tracer() is scoped
        assert get_tracer() is original

    def test_set_tracer_returns_previous(self):
        original = get_tracer()
        mine = Tracer()
        previous = set_tracer(mine)
        try:
            assert previous is original
            assert get_tracer() is mine
        finally:
            set_tracer(original)


class TestCrossThreadPropagation:
    def test_attach_parents_worker_spans(self):
        tracer = Tracer()
        store = InMemoryObjectStore()
        for i in range(8):
            store.put(f"key-{i}", b"x" * i)
        with tracer.span("query") as query_span:
            parent = tracer.current()

            def worker(i: int) -> str:
                with tracer.attach(parent):
                    with tracer.span(f"task-{i}") as task, tracing() as trace:
                        store.get(f"key-{i}")
                    task.trace = trace
                return threading.current_thread().name

            with ThreadPoolExecutor(max_workers=4) as pool:
                names = list(pool.map(worker, range(8)))
        children = {c.name for c in query_span.children}
        assert children == {f"task-{i}" for i in range(8)}
        for child in query_span.children:
            assert child.parent is query_span
            # Each task's trace holds its own request, on its own span.
            i = int(child.name.split("-")[1])
            assert [r.key for r in child.own_requests] == [f"key-{i}"]
            assert child.thread in names

    def test_attach_none_is_noop(self):
        tracer = Tracer()
        with tracer.attach(None):
            assert tracer.current() is None

    def test_executor_search_spans_cross_threads(self, indexed_client):
        """Satellite: spans from SearchExecutor worker threads parent
        under the right query span with per-thread request traces."""
        tracer = Tracer(clock=indexed_client.store.clock)
        key = event_uuid(1, 7)
        with use_tracer(tracer):
            with SearchExecutor(indexed_client, max_searchers=3) as executor:
                result = executor.search("uuid", UuidQuery(key), k=3)
        assert result.matches
        root = tracer.last_root("search")
        assert root is not None
        assert root.attributes["engine"] == "executor"
        assert root.attributes["searchers"] == 3

        # Phase spans are direct children, on the submitting thread.
        # The exact path runs probe -> claim -> coalesced page reads as
        # one pipelined continuation per index record ("probe").
        phase_names = [c.name for c in root.children]
        assert phase_names[0] == "plan"
        assert "probe" in phase_names

        # Worker task spans hang under phase spans, not the root, and
        # each ran on a searcher pool thread with its own trace.
        tasks = root.find_all("searcher:task")
        assert tasks
        for task in tasks:
            assert task.parent.name in {
                "probe", "probe:index", "probe:pages", "brute_force",
            }
            assert task.thread.startswith("searcher")
            assert task.trace is not None
            assert len(task.own_requests) == task.trace.total_requests

        # Every store request of every phase is attributable: a pooled
        # phase's trace holds exactly its tasks' requests, and the
        # search's trace is its phases' traces.
        phases = [p for p in root.children if p.trace is not None]
        for phase in phases:
            tasks = [t for t in phase.children if t.trace is not None]
            if tasks:
                assert phase.trace.total_requests == sum(
                    t.trace.total_requests for t in tasks
                )
        assert result.stats.trace.total_requests == sum(
            p.trace.total_requests for p in phases
        )

    def test_concurrent_roots_stay_separate(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def run(name: str) -> None:
            barrier.wait()
            with tracer.span(name):
                with tracer.span(f"{name}-child"):
                    pass

        threads = [
            threading.Thread(target=run, args=(f"q{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.pop_finished()
        assert {r.name for r in roots} == {"q0", "q1"}
        for root in roots:
            assert [c.name for c in root.children] == [f"{root.name}-child"]
