"""A request is recorded once, in a trace, and a run's trace is built
from its phases whether or not spans are kept.

* **Tracer off.** Search (inline and on an executor) and every pipeline
  verb open one run; each finished phase composes its trace into it.
  Under ``Tracer(enabled=False)`` the run's trace therefore has the same
  non-empty rounds as with the tracer on, and as many requests as the
  store's ``IOStats`` delta.
* **Nesting.** A run opened inside another one hands its trace and
  pool tasks to the outer run when it closes.
* **The shared null span.** A disabled tracer hands every caller one
  span; it must not keep whichever phase trace was assigned last.
* **Timeline.** A request is listed once: under its pool task span in a
  pooled phase, under the phase itself when the phase ran inline.
* **Old flights.** A flight whose rows still carry ``events`` loads and
  renders, and each of its spans lists the requests it had events for.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter

import pytest

from repro.core.client import RottnestClient
from repro.core.maintenance import compact_indices, covering_records
from repro.core.queries import UuidQuery
from repro.lake.table import LakeTable, TableConfig
from repro.maintain import MaintenancePipeline
from repro.obs.export import explain, render_timeline
from repro.obs.flight import FlightTrace
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.obs.trace import _NULL_SPAN, Tracer, use_tracer
from repro.serve.executor import SearchExecutor
from repro.serve.server import SearchServer
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.pool import Run, TracedPool, phase
from repro.util.clock import SimClock

from tests.conftest import EVENT_SCHEMA, event_batch, event_uuid

#: Two flights (a pooled search, a pipeline ``index`` run) written by
#: the build that still recorded each request as a span event too.
FLIGHTS_WITH_EVENTS = os.path.join(
    os.path.dirname(__file__), "data", "flights_with_events.json"
)


def _client(store=None) -> RottnestClient:
    """A client over ``store`` (a fresh lake when None) whose index keys
    are the same on every call."""
    if store is None:
        store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
        lake = LakeTable.create(
            store,
            "lake/events",
            EVENT_SCHEMA,
            TableConfig(row_group_rows=16, page_target_bytes=2048),
        )
    else:
        lake = LakeTable.open(store, "lake/events")
    counter = itertools.count()
    return RottnestClient(
        store,
        "idx/events",
        lake,
        key_entropy=lambda: next(counter).to_bytes(4, "big"),
    )


def _indexed(files: int = 4) -> RottnestClient:
    """One small trie file per append, plus one file left unindexed."""
    client = _client()
    for i in range(files):
        client.lake.append(event_batch(24, seed=i + 1))
        client.index("uuid", "uuid_trie")
    client.lake.append(event_batch(24, seed=files + 1))
    return client


# Each case: a world, and ``run(client) -> (trace, worker tasks)`` to
# run on a copy of it.
QUERY = UuidQuery(event_uuid(1, 5))


def _search_inline():
    return _indexed(), lambda c: (c.search("uuid", QUERY, k=3).stats.trace, None)


def _search_executor():
    def run(client):
        with SearchExecutor(client, max_searchers=2) as executor:
            return executor.search("uuid", QUERY, k=3).stats.trace, None

    return _indexed(), run


def _verb(verb):
    def run(client):
        with MaintenancePipeline(client, workers=2) as pipe:
            report = verb(pipe)
        return report.trace, report.worker_tasks

    return run


def _index():
    client = _client()
    for i in range(4):
        client.lake.append(event_batch(24, seed=i + 1))
    return client, _verb(lambda p: p.index("uuid", "uuid_trie"))


def _compact():
    return _indexed(), _verb(lambda p: p.compact("uuid", "uuid_trie"))


def _refine():
    client = _client()
    client.lake.append(event_batch(260, seed=7))
    client.index("emb", "ivf_pq", params={"nlist": 4, "m": 8})
    (record,) = covering_records(client, "emb", "ivf_pq")
    return client, _verb(lambda p: p.refine(record, range(4), min_cell_rows=2))


def _vacuum():
    client = _indexed()
    compact_indices(client, "uuid", "uuid_trie")
    client.store.clock.advance(7200.0)
    latest = client.lake.latest_version()
    return client, _verb(lambda p: p.vacuum(snapshot_id=latest))


RUNS = {
    "search.inline": _search_inline,
    "search.executor": _search_executor,
    "pipe.index": _index,
    "pipe.compact": _compact,
    "pipe.refine": _refine,
    "pipe.vacuum": _vacuum,
}


def _rounds(trace) -> list[list[tuple[str, int]]]:
    return [[(r.op, r.nbytes) for r in round_] for round_ in trace.rounds if round_]


class TestTracerOff:
    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_run_trace_is_the_same_with_the_tracer_off(self, case):
        world, run = RUNS[case]()
        seen = {}
        for enabled in (True, False):
            client = _client(world.store.clone())
            store = client.store
            with use_tracer(Tracer(clock=store.clock, enabled=enabled)):
                before = store.stats.snapshot()
                trace, tasks = run(client)
                delta = store.stats.snapshot().delta(before)
            assert trace.total_requests == delta.total_requests > 0
            assert trace.total_bytes == delta.bytes_read + delta.bytes_written
            seen[enabled] = (_rounds(trace), tasks)
        assert seen[False] == seen[True]

    def test_bills_are_the_same_with_the_tracer_off(self):
        """Served queries and pipeline runs bill the same dollars and
        modeled seconds with the tracer off: without a span tree, the
        run's trace is priced."""
        world = _client()
        for seed in (1, 2):
            world.lake.append(event_batch(300, seed=seed))
        seen = {}
        for enabled in (True, False):
            client = _client(world.store.clone())
            store = client.store
            with use_hub(TelemetryHub()) as hub, use_tracer(
                Tracer(clock=store.clock, enabled=enabled)
            ):
                before = store.stats.snapshot()
                with MaintenancePipeline(client, workers=2) as pipe:
                    report = pipe.index("uuid", "uuid_trie")
                    pipe.plan(client.meta.records)
                maintained = store.stats.snapshot().delta(before)
                before = store.stats.snapshot()
                with SearchServer(client) as server:
                    for i in range(5):
                        server.query("uuid", UuidQuery(event_uuid(1, i)), k=3)
                served = store.stats.snapshot().delta(before)
            assert report.trace.total_requests > 0
            assert server.stats.total_requests == served.total_requests > 0
            assert hub.series("serve.cost_usd").count() == 5
            assert hub.series("maintain.index.cost_usd").count() == 1
            assert hub.series("maintain.plan.cost_usd").count() == 1
            seen[enabled] = (
                (maintained.total_requests, served.total_requests),
                [
                    hub.series(name).total()
                    for name in (
                        "maintain.index.cost_usd",
                        "maintain.index.modeled_s",
                        "maintain.plan.cost_usd",
                        "serve.cost_usd",
                    )
                ],
                hub.ledger.cost_per_query_usd,
            )
        on, off = seen[True], seen[False]
        assert off[0] == on[0]
        assert all(total > 0 for total in on[1])
        assert off[1] == pytest.approx(on[1])
        assert off[2] == pytest.approx(on[2]) and on[2] > 0


class TestRun:
    def test_a_run_opened_inside_another_joins_it(self):
        """A run takes its phases' traces in finish order and counts its
        pool tasks; closing it hands both to the run it was opened in."""
        store = InMemoryObjectStore()
        store.put("a", b"1")
        store.put("b", b"22")
        with use_tracer(Tracer(enabled=False)):
            with phase("outside", "plan"):  # no run open: no-op
                store.get("a")
            with Run() as outer:
                with phase("first", "plan"):
                    store.get("a")
                with Run() as inner, TracedPool(workers=2) as pool:
                    with phase("second", "plan"):
                        store.get("b")
                    pool.run([lambda: store.get("a"), lambda: store.get("b")])
                assert (_rounds(inner.trace), inner.tasks) == ([[("GET", 2)]], 2)
        assert _rounds(outer.trace) == [[("GET", 1)], [("GET", 2)]]
        assert outer.tasks == 2


class TestNullSpan:
    def test_null_span_keeps_no_trace(self):
        """Phases and pool tasks assign their traces to the one shared
        span a disabled tracer hands out; none of them may stick."""
        with use_tracer(Tracer(enabled=False)):
            for case in (_search_executor, _index):
                client, run = case()
                run(client)
        assert _NULL_SPAN.trace is None


def _request_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.lstrip().startswith("· ")]


def _listed_under(text: str, name: str) -> list[str]:
    """The request lines printed directly under span ``name``'s row."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[0] == name)
    out = []
    for line in lines[start + 1 :]:
        if not line.lstrip().startswith("· "):
            break
        out.append(line)
    return out


class TestTimeline:
    def test_pooled_phase_lists_each_request_once_under_its_task(self):
        client = _indexed()
        tracer = Tracer(clock=client.store.clock)
        with use_tracer(tracer), SearchExecutor(client, max_searchers=2) as executor:
            result = executor.search("uuid", QUERY, k=3)
        root = tracer.last_root("search")
        text = render_timeline(root, max_requests=10_000)
        assert len(_request_lines(text)) == result.stats.trace.total_requests
        probe = root.find("probe")
        assert probe.trace.total_requests > 0
        assert probe.own_requests == [] and _listed_under(text, "probe") == []
        listed = sum(len(task.own_requests) for task in probe.children)
        assert listed == probe.trace.total_requests

    def test_inline_phase_lists_its_requests_under_itself(self):
        client = _indexed()
        tracer = Tracer(clock=client.store.clock)
        with use_tracer(tracer):
            client.search("uuid", QUERY, k=3)
        root = tracer.last_root("search")
        text = render_timeline(root, max_requests=10_000)
        probe = root.find("probe")
        expected = [
            f"· {r.op} {r.key} [{r.nbytes} B]"
            for round_ in probe.trace.rounds
            for r in round_
        ]
        assert expected  # the probe read index files and pages
        assert [line.strip() for line in _listed_under(text, "probe")] == expected


class TestFlightsWithEvents:
    def test_old_flight_loads_renders_and_lists_its_events_requests(self):
        with open(FLIGHTS_WITH_EVENTS) as f:
            payloads = json.load(f)
        for payload in payloads:
            flight = FlightTrace.from_dict(payload)
            root = flight.root()
            text = explain(root)
            assert "per-query bill" in text and "critical path" in text
            spans = {span.span_id: span for span in root.walk()}
            for row in payload["spans"]:
                events = Counter((e["op"], e["nbytes"]) for e in row["events"])
                own = spans[row["span_id"]].own_requests
                assert Counter((r.op, r.nbytes) for r in own) == events
            # A stored flight keeps no keys: request lines are op and size.
            lines = _request_lines(render_timeline(root, max_requests=10_000))
            assert len(lines) == sum(len(row["events"]) for row in payload["spans"])
            assert all(line.split()[2].startswith("[") for line in lines)
