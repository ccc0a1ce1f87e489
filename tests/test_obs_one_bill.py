"""One bill, stored once: a flight is its span tree, old ledgers still read.

* **Round trip.** A span tree written as rows (``spans_to_jsonl``) or
  as a persisted :class:`FlightTrace` comes back with the same bill and
  the same critical path, field for field, so nothing derived needs to
  be stored beside the spans.
* **Legacy telemetry.** A ``TELEMETRY_serving.json`` written when the
  hub kept a separate cost ledger still loads, folds with a hub of
  today's format, and places the deployment on the TCO diagram where
  it did before.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.attribution import attribute
from repro.obs.critical_path import critical_path
from repro.obs.dashboard import measured_deployment
from repro.obs.export import (
    load_telemetry_json,
    span_to_dict,
    span_tree_from_dicts,
    spans_to_jsonl,
)
from repro.obs.flight import FlightTrace
from repro.obs.store import SnapshotStore, snapshot_payload
from repro.obs.timeseries import TelemetryHub
from repro.obs.trace import Span
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import Request, RequestTrace
from repro.util.clock import SimClock

#: ``benchmarks/results/TELEMETRY_serving.json`` as it was committed when
#: the hub still kept a separate ledger (``bench_serving`` rewrites that
#: file, so the test reads a frozen copy).
LEGACY_TELEMETRY = os.path.join(
    os.path.dirname(__file__), "data", "telemetry_legacy_ledger.json"
)

_request = st.tuples(
    st.sampled_from(["GET", "PUT", "LIST", "HEAD", "DELETE"]),
    st.integers(min_value=0, max_value=1 << 24),
)
_node = st.fixed_dictionaries(
    {
        "parent": st.integers(min_value=0),
        "phase": st.none() | st.sampled_from(["plan", "probe", "page_read", "custom"]),
        "start": st.floats(min_value=0.0, max_value=10.0),
        # None leaves the span unfinished.
        "duration": st.none() | st.floats(min_value=0.0, max_value=5.0),
        "rounds": st.none() | st.lists(st.lists(_request, max_size=4), max_size=4),
    }
)


def _tree(nodes: list[dict]) -> Span:
    """A span tree from drawn nodes; node ``i`` hangs under an earlier one."""
    spans: list[Span] = []
    for i, node in enumerate(nodes):
        parent = spans[node["parent"] % i] if i else None
        span = Span(f"span{i}", parent=parent, start_s=node["start"])
        if node["duration"] is not None:
            span.end_s = node["start"] + node["duration"]
        if node["phase"] is not None:
            span.set("phase", node["phase"])
        if node["rounds"] is not None:
            span.trace = RequestTrace()
            span.trace.rounds = [
                [Request(op, f"key{n}", n) for op, n in round_] for round_ in node["rounds"]
            ] or [[]]
        if parent is not None:
            parent.children.append(span)
        spans.append(span)
    return spans[0]


class TestSpanRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_node, min_size=1, max_size=12))
    def test_bill_and_critical_path_survive_rows_and_flights(self, nodes):
        root = _tree(nodes)
        rows = [json.loads(line) for line in spans_to_jsonl([root]).splitlines()]
        flight = FlightTrace(
            trace_id="t",
            reason="tail",
            latency_s=1.0,
            at_s=0.0,
            query="q",
            spans=[span_to_dict(s) for s in root.walk()],
        )
        stored = FlightTrace.from_dict(json.loads(flight.serialize()))
        for rebuilt in (span_tree_from_dicts(rows), stored.root()):
            assert attribute(rebuilt) == attribute(root)
            assert critical_path(rebuilt) == critical_path(root)


class TestLegacyTelemetry:
    """Values captured by loading the file before the ledger became a
    fold of the cost series."""

    def test_ledger_reads_from_the_old_payload(self):
        with open(LEGACY_TELEMETRY) as f:
            assert "ledger" in json.load(f)["hub"]  # still the old format
        ledger = load_telemetry_json(LEGACY_TELEMETRY).ledger
        assert ledger.serve_queries == 9
        assert (ledger.data_bytes, ledger.index_bytes) == (2_343_099, 90_364)
        assert (ledger.first_at_s, ledger.last_at_s) == (0.0, 0.0)
        assert ledger.index_build_usd == ledger.maintain_usd == 0.0

    def test_measured_deployment_is_unchanged(self):
        measured = measured_deployment(load_telemetry_json(LEGACY_TELEMETRY))
        approach = measured.approach
        # serve.cost_usd summed per query vs. the old ledger's request
        # and compute sums: the same dollars, added in another order.
        assert approach.cost_per_query == pytest.approx(3.5345679012345683e-06, rel=1e-12)
        assert approach.cost_per_month == pytest.approx(5.212579760700464e-05, rel=1e-12)
        assert approach.index_cost == 0.0
        assert measured.months == 2.2831050228310503e-05
        assert measured.queries == 9.0
        assert measured.trajectory == ((2.2831050228310503e-05, 19.0),)
        assert measured.tco_usd == pytest.approx(3.181230119781447e-05, rel=1e-12)

    def test_folds_with_a_new_format_hub(self):
        legacy = snapshot_payload(source="old")
        with open(LEGACY_TELEMETRY) as f:
            legacy["hub"] = json.load(f)["hub"]
        fresh = TelemetryHub()
        fresh.series("serve.cost_usd").observe(1e-6, at_s=30.0)
        fresh.series("maintain.index.cost_usd").observe(2e-6, at_s=10.0)
        fresh.series("storage.data_bytes").set(1_000)
        snapshots = SnapshotStore(InMemoryObjectStore(clock=SimClock(start=0.0)))
        keys = [snapshots.commit_payload(legacy), snapshots.commit(fresh, source="new")]
        folded = TelemetryHub.from_snapshot(snapshots.fold(keys)["hub"])
        ledger = folded.ledger
        assert ledger.serve_queries == 10
        assert ledger.index_build_usd == 2e-6
        assert ledger.data_bytes == 2_343_099
        assert (ledger.first_at_s, ledger.last_at_s) == (0.0, 30.0)
