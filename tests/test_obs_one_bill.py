"""One bill, stored once: a flight is its span tree, and a snapshot that
kept a separate ledger is not read.

* **Round trip.** A span tree written as rows (``spans_to_jsonl``) or
  as a persisted :class:`FlightTrace` comes back with the same bill and
  the same critical path, field for field, so nothing derived needs to
  be stored beside the spans.
* **Retired telemetry.** A hub snapshot written when the hub kept a
  separate cost ledger beside its series is a ``FormatError`` from
  ``load_telemetry_json`` and an unreadable object to the snapshot
  store, which skips it: its bill is never read as a partial one.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.obs.attribution import attribute
from repro.obs.critical_path import critical_path
from repro.obs.export import (
    TELEMETRY_SCHEMA,
    load_telemetry_json,
    span_to_dict,
    span_tree_from_dicts,
    spans_to_jsonl,
)
from repro.obs.flight import FlightTrace
from repro.obs.store import (
    SNAPSHOTS,
    SnapshotStore,
    canonical_json,
    content_id,
    load_snapshots,
    snapshot_payload,
)
from repro.obs.timeseries import TelemetryHub
from repro.obs.trace import Span
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import Request, RequestTrace
from repro.util.clock import SimClock

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


def ledger_snapshot() -> dict:
    """A hub snapshot in the shape written when the hub kept its own
    cost ledger: series windows as a list, no all-time ``count`` or
    ``total``, and the ``ledger`` section."""
    hub = TelemetryHub()
    hub.series("serve.cost_usd").observe(2e-6, at_s=0.0)
    data = hub.snapshot()
    for entry in data["series"].values():
        entry["windows"] = [
            {"index": int(index), **row} for index, row in entry.pop("windows").items()
        ]
        del entry["count"], entry["total"]
    data["ledger"] = {"serve_queries": 1, "data_bytes": 1_000, "index_bytes": 100}
    return data


class TestRetiredTelemetry:
    def test_a_ledger_snapshot_is_a_format_error(self, tmp_path):
        path = tmp_path / "TELEMETRY_serving.json"
        path.write_text(json.dumps({"schema": TELEMETRY_SCHEMA, "hub": ledger_snapshot()}))
        with pytest.raises(FormatError, match="ledger"):
            load_telemetry_json(str(path))

    def test_a_ledger_snapshot_is_skipped_by_the_store(self):
        old = snapshot_payload(source="old")
        old["hub"] = ledger_snapshot()
        fresh = TelemetryHub()
        fresh.series("serve.cost_usd").observe(1e-6, at_s=30.0)
        store = InMemoryObjectStore(clock=SimClock(start=0.0))
        snapshots = SnapshotStore(store)
        with pytest.raises(FormatError):
            snapshots.commit_payload(old)
        body = canonical_json(old)
        SNAPSHOTS.put(store, snapshots.root, content_id(body), body)
        key = snapshots.commit(fresh, source="new")
        payloads, skipped = load_snapshots(store, snapshots.root)
        assert skipped == 1
        assert payloads == [snapshots.load(key)]
        assert snapshots.fold()["sources"] == ["new"]
