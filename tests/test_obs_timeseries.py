"""Windowed series, quantile sketches, the cost-ledger fold, telemetry hub."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.obs.timeseries import (
    QuantileSketch,
    TelemetryHub,
    WindowedQuantiles,
    WindowedSeries,
    get_hub,
    set_hub,
    use_hub,
)


def _true_quantile(values: list[float], q: float) -> float:
    """The exact sample the sketch promises to approximate."""
    ordered = sorted(values)
    rank = int(math.floor(q * (len(ordered) - 1) + 0.5))
    return ordered[rank]


# -- QuantileSketch ---------------------------------------------------


class TestQuantileSketch:
    def test_empty(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0

    def test_single_value(self):
        sketch = QuantileSketch()
        sketch.observe(0.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert sketch.quantile(q) == pytest.approx(0.25, rel=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch().observe(-1.0)

    def test_bad_accuracy_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.0)
        with pytest.raises(ValueError):
            QuantileSketch(1.0)

    def test_relative_error_on_known_distribution(self):
        sketch = QuantileSketch(0.01)
        values = [0.001 * (i + 1) for i in range(1000)]
        for v in values:
            sketch.observe(v)
        for q in (0.5, 0.9, 0.99, 0.999):
            true = _true_quantile(values, q)
            assert sketch.quantile(q) == pytest.approx(true, rel=0.011)

    def test_memory_bounded_by_max_bins(self):
        sketch = QuantileSketch(0.01, max_bins=64)
        # 10 decades of dynamic range, far more distinct bins than 64.
        for i in range(20_000):
            sketch.observe(10 ** (-5 + 10 * (i / 20_000)))
        assert sketch.bin_count <= 64 + 1  # +1 for the zero bin slot
        assert sketch.count == 20_000
        # Collapses eat the cheap end; the tail stays accurate.
        assert sketch.quantile(0.99) == pytest.approx(
            10 ** (-5 + 10 * 0.99), rel=0.05
        )

    def test_count_above(self):
        sketch = QuantileSketch()
        for v in (0.1, 0.2, 0.9, 1.5, 2.0):
            sketch.observe(v)
        assert sketch.count_above(1.0) == 2
        assert sketch.count_above(10.0) == 0

    def test_merge_mismatched_accuracy_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_merge_equals_union(self):
        a, b, union = QuantileSketch(), QuantileSketch(), QuantileSketch()
        left = [0.01 * (i + 1) for i in range(50)]
        right = [0.5 + 0.02 * i for i in range(30)]
        for v in left:
            a.observe(v)
            union.observe(v)
        for v in right:
            b.observe(v)
            union.observe(v)
        merged = a.merge(b)
        assert merged.count == union.count
        assert merged.sum == pytest.approx(union.sum)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert merged.quantile(q) == pytest.approx(
                union.quantile(q), rel=1e-9
            )

    def test_serialization_round_trip(self):
        sketch = QuantileSketch()
        for v in (0.0, 0.1, 0.5, 2.0):
            sketch.observe(v)
        restored = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict()))
        )
        assert restored.count == sketch.count
        assert restored.min == sketch.min
        assert restored.max == sketch.max
        for q in (0.25, 0.5, 0.99):
            assert restored.quantile(q) == sketch.quantile(q)


# -- property tests (the acceptance criterion's sketch guarantees) ----

_VALUES = st.lists(
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=200,
)


def _sketch_of(values: list[float]) -> QuantileSketch:
    sketch = QuantileSketch(0.01)
    for v in values:
        sketch.observe(v)
    return sketch


class TestSketchProperties:
    @settings(max_examples=60, deadline=None)
    @given(values=_VALUES, q=st.floats(min_value=0.0, max_value=1.0))
    def test_relative_error_bound(self, values, q):
        sketch = _sketch_of(values)
        true = _true_quantile(values, q)
        assert sketch.quantile(q) == pytest.approx(true, rel=0.0101)

    @settings(max_examples=60, deadline=None)
    @given(a=_VALUES, b=_VALUES)
    def test_merge_commutative(self, a, b):
        ab = _sketch_of(a).merge(_sketch_of(b))
        ba = _sketch_of(b).merge(_sketch_of(a))
        assert ab.to_dict()["bins"] == ba.to_dict()["bins"]
        assert ab.count == ba.count
        assert ab.min == ba.min and ab.max == ba.max
        assert math.isclose(ab.sum, ba.sum, rel_tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(a=_VALUES, b=_VALUES, c=_VALUES)
    def test_merge_associative(self, a, b, c):
        sa, sb, sc = _sketch_of(a), _sketch_of(b), _sketch_of(c)
        left = sa.merge(sb).merge(sc)
        right = sa.merge(sb.merge(sc))
        assert left.to_dict()["bins"] == right.to_dict()["bins"]
        assert left.count == right.count
        assert left.min == right.min and left.max == right.max
        assert math.isclose(left.sum, right.sum, rel_tol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        ),
        data=st.data(),
    )
    def test_windowed_series_order_invariant(self, values, data):
        """Observations landing in one window commute exactly."""
        shuffled = data.draw(st.permutations(values))
        a = WindowedSeries(window_s=60.0)
        b = WindowedSeries(window_s=60.0)
        for v in values:
            a.observe(v, at_s=30.0)
        for v in shuffled:
            b.observe(v, at_s=30.0)
        (pa,), (pb,) = a.points(), b.points()
        assert pa.count == pb.count
        assert pa.min == pb.min and pa.max == pb.max
        assert math.isclose(pa.total, pb.total, rel_tol=1e-9)


_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["observe", "set", "sketch"]),
        st.sampled_from(["a", "b.c"]),
        st.sampled_from([{}, {"op": "GET"}, {"op": "PUT", "shard": "1"}]),
        st.integers(min_value=0, max_value=50),  # value: exact in floats
        st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
    ),
    max_size=25,
)


def _hub_of(events) -> TelemetryHub:
    """A hub fed ``events``; small capacity so eviction and late drops
    are in play. Series and sketches get disjoint names."""
    hub = TelemetryHub(window_s=60.0, capacity=3)
    for kind, name, labels, value, at_s in events:
        name = f"{name}{len(labels)}"  # a name has one set of label names
        if kind == "sketch":
            hub.quantiles(f"q.{name}", **labels).observe(
                float(value), at_s=float(at_s or 0), trace_id=f"t{value}"
            )
        elif kind == "set":
            hub.series(f"g.{name}", **labels).set(value, at_s=at_s)
        else:
            hub.series(name, **labels).observe(value, at_s=at_s)
    return hub


def _fold(hubs) -> dict:
    folded = TelemetryHub(window_s=60.0, capacity=3)
    for hub in hubs:
        folded.merge(hub)
    return json.loads(json.dumps(folded.snapshot(), sort_keys=True))


class TestHubProperties:
    """The ring's algebra at hub level: labeled members, all-time
    totals and last-values included."""

    @settings(max_examples=40, deadline=None)
    @given(events=_EVENTS, data=st.data())
    def test_observation_order_is_invisible_without_eviction(
        self, events, data
    ):
        """Counts, totals and windows do not depend on arrival order
        (``set`` aside: "last" is by definition order-dependent)."""
        events = [e for e in events if e[0] != "set"]
        shuffled = data.draw(st.permutations(events))
        wide = lambda evs: _hub_of([(k, n, l, v, 0) for k, n, l, v, _ in evs])
        assert json.dumps(wide(events).snapshot(), sort_keys=True) == json.dumps(
            wide(shuffled).snapshot(), sort_keys=True
        )
        # With eviction in play the windows may differ; all-time never.
        a, b = _hub_of(events), _hub_of(shuffled)
        for name, members in a.families().items():
            for labels, member in members.items():
                twin = b.families()[name][labels]
                assert (member.count(), member.total()) == (
                    twin.count(),
                    twin.total(),
                )

    @settings(max_examples=40, deadline=None)
    @given(a=_EVENTS, b=_EVENTS, c=_EVENTS)
    def test_merge_commutative_and_associative(self, a, b, c):
        ha, hb, hc = _hub_of(a), _hub_of(b), _hub_of(c)
        assert _fold([ha, hb, hc]) == _fold([hc, ha, hb])
        left = TelemetryHub.from_snapshot(_fold([ha, hb]))
        right = TelemetryHub.from_snapshot(_fold([hb, hc]))
        assert _fold([left, hc]) == _fold([ha, right])

    @settings(max_examples=40, deadline=None)
    @given(a=_EVENTS, b=_EVENTS)
    def test_merged_totals_add_and_last_values_fold_by_max(self, a, b):
        ha, hb = _hub_of(a), _hub_of(b)
        folded = TelemetryHub.from_snapshot(_fold([ha, hb]))
        for name, members in folded.families().items():
            for labels, member in members.items():
                parts = [
                    h.families().get(name, {}).get(labels) for h in (ha, hb)
                ]
                parts = [p for p in parts if p is not None]
                assert member.total() == sum(p.total() for p in parts)
                assert member.count() == sum(p.count() for p in parts)
                lasts = [p.last for p in parts if p.last is not None]
                assert member.last == (max(lasts) if lasts else None)


# -- WindowedSeries ---------------------------------------------------


class TestWindowedSeries:
    def test_windowing_and_rates(self):
        series = WindowedSeries(window_s=60.0, capacity=10)
        series.observe(1.0, at_s=10.0)
        series.observe(1.0, at_s=50.0)
        series.observe(1.0, at_s=70.0)
        points = series.points()
        assert [p.index for p in points] == [0, 1]
        assert [p.count for p in points] == [2, 1]
        assert series.count() == 3
        assert series.total(last=1) == 1.0

    def test_capacity_eviction_and_late_drop(self):
        series = WindowedSeries(window_s=1.0, capacity=3)
        for t in range(6):
            series.observe(1.0, at_s=float(t))
        assert [p.index for p in series.points()] == [3, 4, 5]
        series.observe(1.0, at_s=0.5)  # beyond the horizon now
        assert series.late_dropped == 1
        assert series.count(last=3) == 3
        # The all-time counter forgets nothing: evicted and late alike.
        assert series.count() == 7 and series.total() == 7.0

    def test_total_after_eviction_is_everything_ever_observed(self):
        series = WindowedSeries(window_s=1.0, capacity=2)
        values = [float(v) for v in range(1, 40)]
        for t, value in enumerate(values):
            series.observe(value, at_s=float(t))
        series.observe(100.0)  # no clock: all-time only, no window
        assert len(series.points()) == 2
        assert series.total() == sum(values) + 100.0
        assert series.count() == len(values) + 1
        restored = WindowedSeries.from_dict(
            json.loads(json.dumps(series.to_dict()))
        )
        assert restored.total() == series.total()
        assert restored.count(last=2) == 2

    def test_eviction_runs_only_when_the_newest_window_advances(self):
        a = WindowedSeries(window_s=1.0, capacity=2)
        b = WindowedSeries(window_s=1.0, capacity=2)
        for t in (0.0, 1.0, 2.0, 3.0):
            a.observe(at_s=t)
        b.observe(at_s=9.0)
        b.merge(a)  # a fold never evicts ...
        b.observe(at_s=9.5)  # ... nor does an observation in the newest window
        assert [p.index for p in b.points()] == [2, 3, 9]
        b.observe(at_s=10.0)  # the newest window advanced
        assert [p.index for p in b.points()] == [9, 10]

    def test_gauge_set_add_and_merge_by_max(self):
        a = WindowedSeries(window_s=60.0)
        a.set(100, at_s=1.0)
        a.add(-30, at_s=2.0)
        assert a.last == 70
        (window,) = a.points()
        assert (window.min, window.max) == (70, 100)
        b = WindowedSeries(window_s=60.0)
        b.set(90)
        assert a.merge(b).last == 90
        assert WindowedSeries(window_s=60.0).merge(b).last == 90

    def test_legacy_dict_without_all_time_fields(self):
        """A series snapshot written before the shared ring (a window
        list, no ``count``/``total``) is not read as a partial series:
        a hub holding one is a ``FormatError``."""
        hub = TelemetryHub()
        hub.series("serve.queries").observe(2.0, at_s=1.0)
        current = hub.snapshot()
        (entry,) = current["series"].values()
        windowless = dict(entry, windows=[{"index": 0, **entry["windows"]["0"]}])
        countless = {k: v for k, v in entry.items() if k not in ("count", "total")}
        for old in (windowless, countless):
            with pytest.raises(FormatError):
                TelemetryHub.from_snapshot(dict(current, series={"serve.queries": old}))
        assert TelemetryHub.from_snapshot(current).series("serve.queries").count() == 1

    def test_round_trip(self):
        series = WindowedSeries(window_s=30.0, capacity=5)
        series.observe(2.0, at_s=0.0)
        series.observe(4.0, at_s=31.0)
        restored = WindowedSeries.from_dict(
            json.loads(json.dumps(series.to_dict()))
        )
        assert [p.to_dict() for p in restored.points()] == [
            p.to_dict() for p in series.points()
        ]
        restored.observe(1.0, at_s=62.0)
        assert restored.count() == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedSeries(window_s=0.0)
        with pytest.raises(ValueError):
            WindowedSeries(capacity=0)


# -- WindowedQuantiles ------------------------------------------------


class TestWindowedQuantiles:
    def test_per_window_and_merged(self):
        wq = WindowedQuantiles(window_s=60.0)
        for i in range(100):
            wq.observe(0.1, at_s=10.0)
            wq.observe(0.9, at_s=70.0)
        assert len(wq.windows()) == 2
        p50s = {i: sketch.quantile(0.5) for i, sketch in wq.windows()}
        assert p50s[0] == pytest.approx(0.1, rel=0.01)
        assert p50s[1] == pytest.approx(0.9, rel=0.01)
        merged = wq.merged()
        assert merged.count == 200
        assert merged.quantile(0.99) == pytest.approx(0.9, rel=0.01)
        assert wq.merged(last=1).count == 100

    def test_late_observations_are_counted_not_silently_dropped(self):
        wq = WindowedQuantiles(window_s=1.0, capacity=3)
        for t in range(6):
            wq.observe(0.1, at_s=float(t))
        assert [i for i, _ in wq.windows()] == [3, 4, 5]
        wq.observe(0.1, at_s=0.5)
        assert wq.late_dropped == 1
        assert wq.merged().count == 3 and wq.count() == 7
        restored = WindowedQuantiles.from_dict(
            json.loads(json.dumps(wq.to_dict()))
        )
        assert restored.late_dropped == 1 and restored.count() == 7

    def test_round_trip(self):
        wq = WindowedQuantiles(window_s=60.0)
        for v in (0.1, 0.2, 0.3):
            wq.observe(v, at_s=5.0)
        restored = WindowedQuantiles.from_dict(
            json.loads(json.dumps(wq.to_dict()))
        )
        assert restored.merged().count == 3
        assert restored.merged().quantile(0.5) == pytest.approx(
            0.2, rel=0.01
        )


# -- CostLedger -------------------------------------------------------


def _spend(hub: TelemetryHub, *, serve=(), maintain=(), storage=None) -> TelemetryHub:
    """Write a deployment's bills the way the server and the
    maintenance pipeline do: ``serve`` is (usd, at_s) per billed query,
    ``maintain`` (op, usd, at_s) per verb run."""
    for usd, at_s in serve:
        hub.series("serve.cost_usd").observe(usd, at_s=at_s)
    for op, usd, at_s in maintain:
        hub.series(f"maintain.{op}.cost_usd").observe(usd, at_s=at_s)
    if storage is not None:
        hub.series("storage.data_bytes").set(storage[0])
        hub.series("storage.index_bytes").set(storage[1])
    return hub


class TestCostLedger:
    """The ledger is a read-only fold of the hub's cost series."""

    def test_accumulation_and_buckets(self):
        ledger = _spend(
            TelemetryHub(),
            serve=[(3e-6, 0.0), (1e-6, 120.0)],
            maintain=[("index", 6e-5, 60.0), ("compact", 1e-5, 90.0)],
            storage=(1000, 100),
        ).ledger
        assert ledger.serve_queries == 2
        assert ledger.serve_usd == pytest.approx(4e-6)
        assert ledger.cost_per_query_usd == pytest.approx(2e-6)
        assert ledger.index_build_usd == pytest.approx(6e-5)
        assert ledger.maintain_usd == pytest.approx(1e-5)
        assert ledger.elapsed_s == pytest.approx(120.0)
        assert (ledger.data_bytes, ledger.index_bytes) == (1000, 100)
        assert not hasattr(ledger, "record_query")

    def test_round_trip(self):
        hub = _spend(
            TelemetryHub(),
            serve=[(3e-6, 3.0)],
            maintain=[("vacuum", 2e-6, 7.0)],
            storage=(42, 7),
        )
        snap = json.loads(json.dumps(hub.snapshot()))
        assert "ledger" not in snap
        assert TelemetryHub.from_snapshot(snap).ledger == hub.ledger

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["serve", "index", "compact", "plan"]),
                st.floats(min_value=0.0, max_value=1e-3),
                st.floats(min_value=0.0, max_value=1e4),
            ),
            max_size=12,
        ),
        st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=4, max_size=4),
        st.integers(min_value=0, max_value=12),
    )
    def test_view_of_merge_is_fold_of_views(self, spends, sizes, cut):
        """view(a.merge(b)) equals the field-wise fold of view(a) and
        view(b): dollars and counts add, storage folds by max, the
        observed span by min/max."""
        hubs = []
        for part, bytes_ in ((spends[:cut], sizes[:2]), (spends[cut:], sizes[2:])):
            hubs.append(
                _spend(
                    TelemetryHub(),
                    serve=[(usd, t) for op, usd, t in part if op == "serve"],
                    maintain=[s for s in part if s[0] != "serve"],
                    storage=bytes_,
                )
            )
        a, b = (hub.ledger for hub in hubs)
        merged = TelemetryHub().merge(hubs[0]).merge(hubs[1]).ledger

        def fold(pick, values):
            values = [v for v in values if v is not None]
            return pick(values) if values else None

        assert merged.serve_queries == a.serve_queries + b.serve_queries
        for name in ("serve_usd", "maintain_usd", "index_build_usd"):
            assert getattr(merged, name) == pytest.approx(
                getattr(a, name) + getattr(b, name), rel=1e-12, abs=1e-18
            )
        assert merged.data_bytes == max(a.data_bytes, b.data_bytes)
        assert merged.index_bytes == max(a.index_bytes, b.index_bytes)
        assert merged.first_at_s == fold(min, [a.first_at_s, b.first_at_s])
        assert merged.last_at_s == fold(max, [a.last_at_s, b.last_at_s])
        restored = TelemetryHub.from_snapshot(json.loads(json.dumps(
            TelemetryHub().merge(hubs[0]).merge(hubs[1]).snapshot()
        )))
        assert restored.ledger == merged


# -- TelemetryHub -----------------------------------------------------


class TestTelemetryHub:
    def test_named_series_are_cached(self):
        hub = TelemetryHub()
        assert hub.series("a") is hub.series("a")
        assert hub.quantiles("b") is hub.quantiles("b")

    def test_snapshot_round_trip(self):
        hub = TelemetryHub()
        hub.series("serve.queries").observe(1.0, at_s=1.0)
        hub.quantiles("serve.latency_s").observe(0.2, at_s=1.0)
        hub.series("serve.cost_usd").observe(1e-6, at_s=1.0)
        hub.tail.record(0.2, at_s=1.0, phase_s={"plan": 0.2})
        restored = TelemetryHub.from_snapshot(
            json.loads(json.dumps(hub.snapshot()))
        )
        assert restored.series("serve.queries").count() == 1
        assert restored.quantiles("serve.latency_s").merged().count == 1
        assert restored.ledger.serve_queries == 1
        assert len(restored.tail) == 1

    def test_labeled_members_round_trip(self):
        hub = TelemetryHub()
        hub.series("store_requests_total", op="GET").observe(at_s=1.0)
        hub.series("store_requests_total", op='P"UT').observe(2, at_s=1.0)
        hub.quantiles("lat", shard="0").observe(0.2, at_s=1.0)
        hub.series("cached").set(9)
        snap = json.loads(json.dumps(hub.snapshot()))
        assert set(snap["series"]) == {
            'store_requests_total{op="GET"}',
            'store_requests_total{op="P\\"UT"}',
            "cached",
        }
        restored = TelemetryHub.from_snapshot(snap)
        assert restored.series("store_requests_total", op='P"UT').total() == 2
        assert restored.get("store_requests_total").total() == 3
        assert restored.quantiles("lat", shard="0").merged().count == 1
        assert restored.series("cached").last == 9
        assert restored.series_names() == ["cached", "store_requests_total"]
        assert restored.snapshot() == hub.snapshot()

    def test_global_hub_scoping(self):
        default = get_hub()
        scoped = TelemetryHub()
        with use_hub(scoped):
            assert get_hub() is scoped
        assert get_hub() is default
        previous = set_hub(scoped)
        try:
            assert get_hub() is scoped
        finally:
            set_hub(previous)
