"""One request trace per thread: a request lands in the innermost trace
its thread has open, whichever store or wrapper it went through."""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache import CachingObjectStore
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.pool import TracedPool
from repro.storage.retry import RetryingObjectStore
from repro.storage.stats import barrier, tracing


def _keys(trace) -> list[list[str]]:
    return [[r.key for r in round_] for round_ in trace.rounds if round_]


def _stores():
    """A wrapped stack over one store, and a second, unrelated store."""
    base = InMemoryObjectStore()
    stack = FaultyObjectStore(RetryingObjectStore(CachingObjectStore(base)))
    return base, stack, InMemoryObjectStore()


# open: a nested trace; close: the innermost; the rest issue a request
# (LISTs, which no wrapper caches) or mark a dependency point.
_OPS = st.lists(
    st.sampled_from(["open", "close", "stack", "second", "barrier"]), max_size=40
)


class TestInnermostTrace:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_each_request_lands_in_the_innermost_open_trace(self, ops):
        """Against a model: a stack of traces, each a list of rounds."""
        base, stack, second = _stores()
        opened: list = []  # (context manager, live trace, model rounds)
        closed: list = []  # (live trace, model rounds)
        stores = {"stack": stack, "second": second}
        for n, op in enumerate(ops):
            if op == "open":
                cm = tracing()
                opened.append((cm, cm.__enter__(), [[]]))
            elif op == "close" and opened:
                cm, trace, model = opened.pop()
                cm.__exit__(None, None, None)
                closed.append((trace, model))
            elif op == "barrier":
                barrier()
                if opened and opened[-1][2][-1]:
                    opened[-1][2].append([])
            elif op in stores:
                stores[op].list(f"{op}-{n}")
                if opened:
                    opened[-1][2][-1].append(f"{op}-{n}")
        while opened:
            cm, trace, model = opened.pop()
            cm.__exit__(None, None, None)
            closed.append((trace, model))
        for trace, model in closed:
            assert _keys(trace) == [r for r in model if r]
        # Counted once in each store's IOStats, traced or not.
        assert base.stats.lists == ops.count("stack")
        assert second.stats.lists == ops.count("second")

    def test_a_nested_trace_restores_the_outer_one(self):
        base, stack, _ = _stores()
        with tracing() as outer:
            stack.list("a")
            with tracing() as inner:
                base.list("b")
                barrier()
                stack.list("c")
            barrier()
            base.list("d")
        assert _keys(inner) == [["b"], ["c"]]
        assert _keys(outer) == [["a"], ["d"]]

    def test_no_open_trace_records_nothing(self):
        base, stack, _ = _stores()
        barrier()
        stack.list("a")
        with tracing() as trace:
            pass
        assert trace.total_requests == 0
        assert base.stats.lists == 1


class TestPoolWorkers:
    def test_a_worker_never_sees_the_submitters_requests(self):
        store = InMemoryObjectStore()
        for key in ("main", "w0", "w1", "w2"):
            store.put(key, b"x")

        def task(i: int):
            def run() -> None:
                store.get(f"w{i}")
                barrier()
                store.get(f"w{i}")

            return run

        with TracedPool(workers=2) as pool, tracing() as submitter:
            store.get("main")
            pooled, _ = pool.run([task(i) for i in range(3)])
            barrier()
            store.get("main")
        assert _keys(submitter) == [["main"], ["main"]]
        # Two waves: (w0 || w1) then w2, each task two rounds deep.
        assert _keys(pooled) == [["w0", "w1"], ["w0", "w1"], ["w2"], ["w2"]]

    def test_threads_sharing_one_store_never_mix_traces(self):
        """More threads than cores, switching often, nest traces over
        one wrapped store: each trace holds its own thread's requests."""
        base, stack, _ = _stores()
        errors: list[str] = []

        def worker(t: int) -> None:
            for n in range(100):
                with tracing() as outer:
                    stack.list(f"t{t}-{n}-a")
                    with tracing() as inner:
                        stack.list(f"t{t}-{n}-b")
                    barrier()
                    stack.list(f"t{t}-{n}-c")
                if _keys(inner) != [[f"t{t}-{n}-b"]] or _keys(outer) != [
                    [f"t{t}-{n}-a"],
                    [f"t{t}-{n}-c"],
                ]:
                    errors.append(f"thread {t}, pass {n}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert base.stats.lists == 8 * 100 * 3
