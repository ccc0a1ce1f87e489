"""Flight recorder: tail sampling, bounds, persistence, e2e fault run.

The recorder's contract has three load-bearing pieces this file pins:

* **selectivity** — retain exactly errored queries, SLO-window
  breaches, and latencies at or above the live tail quantile (with a
  warmup floor, so the first queries never all classify as "tail");
* **bounded residency** — a hypothesis property drives arbitrary
  arrival/latency/error sequences and asserts the retained count and
  resident bytes never exceed the configured budgets;
* **debuggability end-to-end** — a seeded serving run with an injected
  8x-slow storage fault must retain the slow query, name the slow
  phase on its critical path, surface it as the dashboard's p99
  exemplar link, and render through ``repro traces``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.attribution import attribute
from repro.obs.critical_path import critical_path
from repro.obs.flight import (
    FlightRecorder,
    FlightTrace,
    get_flight_recorder,
    list_flights,
    load_flight,
    load_flights,
    use_flight_recorder,
)
from repro.obs.slo import default_slo
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.obs.trace import Tracer, use_tracer
from repro.serve import SearchServer
from repro.storage.localfs import LocalFSObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock


def _finished_root(tracer: Tracer, clock: SimClock, *, latency_s: float, query: str):
    """One finished serve.query span tree with a phase-tagged child."""
    with tracer.span("serve.query", query=query) as root:
        with tracer.span("index.probe", phase="index"):
            clock.advance(latency_s * 0.25)
        with tracer.span("data.fetch", phase="data"):
            clock.advance(latency_s * 0.75)
    return root


def _recorder_env():
    clock = SimClock(start=1_000.0)
    tracer = Tracer(clock=clock)
    return clock, tracer


class TestRetentionPolicy:
    def test_error_is_always_retained(self):
        clock, tracer = _recorder_env()
        recorder = FlightRecorder()
        root = _finished_root(tracer, clock, latency_s=0.01, query="q")
        flight = recorder.record(
            root, latency_s=0.01, at_s=clock.now(), error=True
        )
        assert flight is not None and flight.reason == "error"
        # The live span now carries the id — the exemplar hook.
        assert root.attributes["trace_id"] == flight.trace_id
        assert recorder.get(flight.trace_id[:6]) is flight

    def test_no_tail_retention_during_warmup(self):
        clock, tracer = _recorder_env()
        recorder = FlightRecorder(min_samples=20)
        for i in range(19):
            root = _finished_root(tracer, clock, latency_s=0.5, query=f"q{i}")
            assert (
                recorder.record(root, latency_s=0.5, at_s=clock.now()) is None
            )
        assert recorder.threshold_s() is None
        assert recorder.observed == 19 and len(recorder) == 0

    def test_tail_above_live_quantile_is_retained(self):
        clock, tracer = _recorder_env()
        recorder = FlightRecorder(min_samples=10, tail_quantile=0.99)
        for i in range(30):
            root = _finished_root(tracer, clock, latency_s=0.01, query=f"q{i}")
            recorder.record(root, latency_s=0.01, at_s=clock.now())
        threshold = recorder.threshold_s()
        assert threshold is not None and threshold < 0.1
        slow = _finished_root(tracer, clock, latency_s=1.0, query="slow")
        flight = recorder.record(slow, latency_s=1.0, at_s=clock.now())
        assert flight is not None and flight.reason == "tail"
        # The slowest child (data.fetch, 750ms of self time) names the
        # phase even without a bill attached.
        assert flight.slow_phase == "data"

    def test_slo_breach_is_retained(self):
        clock, tracer = _recorder_env()
        slo = default_slo(latency_p99_s=0.001)
        recorder = FlightRecorder(slo=slo)
        hub = TelemetryHub()
        for _ in range(50):
            hub.quantiles("serve.latency_s").observe(1.0, at_s=clock.now())
            hub.series("serve.queries").observe(1.0, at_s=clock.now())
        assert not slo.evaluate(hub).ok
        root = _finished_root(tracer, clock, latency_s=0.01, query="q")
        flight = recorder.record(
            root, latency_s=0.01, at_s=clock.now(), hub=hub
        )
        assert flight is not None and flight.reason == "slo-breach"

    def test_hedged_retry_is_skipped(self):
        clock, tracer = _recorder_env()
        recorder = FlightRecorder()
        with tracer.span("router.hedge", hedge=True, origin_trace_id="abc"):
            root = _finished_root(tracer, clock, latency_s=0.5, query="q")
        assert (
            recorder.record(
                root, latency_s=0.5, at_s=clock.now(), error=True
            )
            is None
        )
        assert recorder.hedges_skipped == 1 and recorder.observed == 0

    def test_unfinished_or_missing_root_ignored(self):
        recorder = FlightRecorder()
        assert recorder.record(None, latency_s=0.1, at_s=0.0) is None


class TestBounds:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(
                    min_value=1e-4, max_value=10.0,
                    allow_nan=False, allow_infinity=False,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_count_and_bytes_never_exceed_budgets(self, arrivals):
        """Under ANY arrival/latency/error sequence the ring respects
        both the trace-count capacity and the resident-byte budget."""
        clock, tracer = _recorder_env()
        recorder = FlightRecorder(
            capacity=4, budget_bytes=8192, min_samples=3
        )
        for i, (latency_s, error) in enumerate(arrivals):
            root = _finished_root(
                tracer, clock, latency_s=latency_s, query=f"q{i}"
            )
            recorder.record(
                root, latency_s=latency_s, at_s=clock.now(), error=error
            )
            assert len(recorder) <= 4
            assert recorder.resident_bytes <= 8192
        assert recorder.resident_bytes == sum(
            t.nbytes for t in recorder.traces()
        )

    def test_eviction_is_oldest_first(self):
        clock, tracer = _recorder_env()
        recorder = FlightRecorder(capacity=2)
        ids = []
        for i in range(3):
            root = _finished_root(
                tracer, clock, latency_s=0.1 + i, query=f"q{i}"
            )
            flight = recorder.record(
                root, latency_s=0.1 + i, at_s=clock.now(), error=True
            )
            ids.append(flight.trace_id)
        assert [t.trace_id for t in recorder.traces()] == ids[1:]
        assert recorder.evicted == 1


class TestPersistence:
    def _retained(self, n=2):
        """Recorder holding ``n`` traces with FIXED span ids, so every
        call produces byte-identical content (the global span-id
        counter would otherwise change the content hash per run)."""
        from repro.obs.export import span_tree_from_dicts

        recorder = FlightRecorder()
        for i in range(n):
            base = (i + 1) * 10
            root = span_tree_from_dicts(
                [
                    {
                        "span_id": base + 1, "parent_id": None,
                        "name": "serve.query", "start_s": 0.0,
                        "end_s": 0.1 + i, "thread": "main",
                        "attributes": {"query": f"q{i}"}, "events": [],
                    },
                    {
                        "span_id": base + 2, "parent_id": base + 1,
                        "name": "data.fetch", "start_s": 0.0,
                        "end_s": 0.1 + i, "thread": "main",
                        "attributes": {"phase": "data"}, "events": [],
                    },
                ]
            )
            recorder.record(
                root, latency_s=0.1 + i, at_s=1_000.0, error=True
            )
        return recorder

    def test_persist_is_idempotent(self):
        store = InMemoryObjectStore(clock=SimClock(start=0.0))
        recorder = self._retained()
        assert recorder.persist(store) == 2
        before = store.stats.snapshot()
        assert recorder.persist(store) == 0
        delta = store.stats.snapshot().delta(before)
        assert delta.puts == 0
        # A fresh recorder holding identical traces also idles: the
        # keys are content-addressed, existence is checked first.
        again = self._retained()
        before = store.stats.snapshot()
        assert again.persist(store) == 0
        assert store.stats.snapshot().delta(before).puts == 0

    def test_round_trip_and_prefix_load(self):
        store = InMemoryObjectStore(clock=SimClock(start=0.0))
        recorder = self._retained()
        recorder.persist(store)
        ids = list_flights(store)
        assert len(ids) == 2
        flight = load_flight(store, ids[0][:8])
        assert isinstance(flight, FlightTrace)
        assert flight.to_dict() == recorder.get(ids[0]).to_dict()
        # Rebuilt span tree walks and renders.
        assert flight.root().name == "serve.query"
        loaded, skipped = load_flights(store)
        assert skipped == 0
        assert [f.latency_s for f in loaded] == sorted(
            (f.latency_s for f in loaded), reverse=True
        )

    def test_prefix_errors(self):
        store = InMemoryObjectStore(clock=SimClock(start=0.0))
        recorder = self._retained()
        recorder.persist(store)
        with pytest.raises(ReproError):
            load_flight(store, "")  # ambiguous: matches both
        with pytest.raises(ReproError):
            load_flight(store, "zzzzzz")  # matches none


class TestGlobalAccessor:
    def test_use_flight_recorder_scopes_and_restores(self):
        assert get_flight_recorder() is None
        recorder = FlightRecorder()
        with use_flight_recorder(recorder):
            assert get_flight_recorder() is recorder
        assert get_flight_recorder() is None


class TestSeededSlowFault:
    """The acceptance path: an injected 8x-slow fault must be retained,
    attributed, linked from the dashboard, and renderable by CLI."""

    def _run(self, indexed_client, n_warm=25):
        from repro.core.queries import SubstringQuery

        clock = indexed_client.store.clock
        tracer = Tracer(clock=clock)
        hub = TelemetryHub()
        recorder = FlightRecorder(min_samples=10)
        server = SearchServer(indexed_client)
        query = SubstringQuery("the")
        with use_tracer(tracer), use_hub(hub), use_flight_recorder(recorder):
            with server:
                for _ in range(n_warm):
                    server.query("text", query, k=5)
                baseline = server.stats.last_latency_s
                normal = server.latency_model
                server.latency_model = dataclasses.replace(
                    normal,
                    first_byte_s=normal.first_byte_s * 8,
                    stream_bandwidth_bps=normal.stream_bandwidth_bps / 8,
                )
                try:
                    server.query("text", query, k=5)
                finally:
                    server.latency_model = normal
                slow_latency = server.stats.last_latency_s
        # Request fan-out absorbs part of the 8x per-request slowdown;
        # the modeled end-to-end latency still jumps well clear of the
        # live tail threshold.
        assert slow_latency > baseline * 2
        return recorder, hub

    def test_slow_query_retained_with_named_phase(self, indexed_client):
        recorder, hub = self._run(indexed_client)
        assert len(recorder) >= 1
        flight = max(recorder.traces(), key=lambda f: f.latency_s)
        assert flight.reason == "tail"
        # The critical path names the phase the bill says dominated;
        # both are computed from the stored spans.
        assert flight.slow_phase
        root = flight.root()
        phases = {p.phase: p.est_latency_s for p in attribute(root).phases}
        assert flight.slow_phase == max(phases, key=phases.get)
        assert any(s.phase == flight.slow_phase for s in critical_path(root))

    def test_dashboard_links_p99_exemplar_to_retained_trace(
        self, indexed_client
    ):
        from repro.obs.dashboard import render_dashboard

        recorder, hub = self._run(indexed_client)
        flight = max(recorder.traces(), key=lambda f: f.latency_s)
        merged = hub.quantiles("serve.latency_s").merged()
        assert merged.exemplar is not None
        assert merged.exemplar[1] == flight.trace_id
        html = render_dashboard(hub, flights=recorder)
        assert f"href='#flight-{flight.trace_id}'" in html
        assert f"id='flight-{flight.trace_id}'" in html
        assert flight.slow_phase in html

    def test_repro_traces_renders_retained_trace(
        self, indexed_client, tmp_path, capsys
    ):
        from repro.cli import main

        recorder, _ = self._run(indexed_client)
        flight = max(recorder.traces(), key=lambda f: f.latency_s)
        bucket = LocalFSObjectStore(str(tmp_path / "bucket"))
        recorder.persist(bucket)
        code = main(
            ["traces", flight.trace_id[:10], "--root", str(tmp_path / "bucket")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert flight.trace_id in out
        assert "critical path" in out
        assert flight.slow_phase in out
        assert "per-query bill" in out
