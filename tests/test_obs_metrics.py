"""The hub as a metrics registry, and its Prometheus exposition.

The registry classes are gone: a counter is a hub series' all-time
total, a gauge its last ``set`` value, a summary a hub sketch. These
tests pin that reading of the hub and the text :func:`render` prints.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import HELP, get_registry, render
from repro.obs.timeseries import SeriesFamily, TelemetryHub, get_hub, use_hub


@pytest.fixture
def registry() -> TelemetryHub:
    return TelemetryHub()


class TestCounter:
    def test_inc_and_labels(self, registry):
        registry.series("ops_total", op="GET").observe(at_s=1.0)
        registry.series("ops_total", op="GET").observe(2, at_s=1.0)
        registry.series("ops_total", op="PUT").observe()  # no clock: no window
        assert registry.series("ops_total", op="GET").total() == 3
        assert registry.series("ops_total", op="PUT").total() == 1
        assert registry.series("ops_total", op="PUT").points() == []
        family = registry.get("ops_total")
        assert isinstance(family, SeriesFamily)
        assert family.total() == 4 and len(family.members) == 2

    def test_unlabeled(self, registry):
        c = registry.series("plain_total")
        c.observe(at_s=0.0)
        c.observe(5, at_s=0.0)
        assert c.total() == 6
        assert registry.get("plain_total") is c

    def test_negative_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.series("x_total").observe(-1, at_s=0.0)
        assert registry.series("x_total").total() == 0

    def test_unknown_label_rejected(self, registry):
        registry.series("y_total", op="GET").observe(at_s=0.0)
        with pytest.raises(ValueError):
            registry.series("y_total", direction="up")
        with pytest.raises(ValueError):
            registry.series("y_total")

    def test_thread_safe_increments(self, registry):
        def bump() -> None:
            for _ in range(1000):
                registry.series("race_total", who="t").observe(at_s=0.0)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert registry.series("race_total", who="t").total() == 8000


class TestGauge:
    def test_set_and_add(self, registry):
        g = registry.series("bytes")
        g.set(100)
        g.add(20)
        g.add(-50)
        assert g.last == 70

    def test_labeled(self, registry):
        registry.series("pool", pool="a").set(3)
        registry.series("pool", pool="b").set(5)
        assert registry.series("pool", pool="a").last == 3
        assert registry.series("pool", pool="b").last == 5


class TestRegistry:
    def test_get_or_create_idempotent(self, registry):
        a = registry.series("same_total", op="GET")
        assert registry.series("same_total", op="GET") is a
        assert registry.series("same_total", op="PUT") is not a

    def test_kind_mismatch_raises(self, registry):
        registry.series("thing", op="GET")
        with pytest.raises(ValueError):
            registry.quantiles("thing")
        registry.quantiles("lat")
        with pytest.raises(ValueError):
            registry.series("lat", op="GET")

    def test_label_mismatch_raises(self, registry):
        registry.quantiles("lbl", op="GET")
        with pytest.raises(ValueError):
            registry.quantiles("lbl", op="GET", shard="0")
        snap = registry.snapshot()
        with pytest.raises(ValueError):  # the shape survives a round trip
            TelemetryHub.from_snapshot(snap).quantiles("lbl", direction="up")

    def test_get(self, registry):
        c = registry.series("found_total")
        assert registry.get("found_total") is c
        assert registry.get("missing") is None
        assert registry.series_names() == ["found_total"]  # get created nothing

    def test_snapshot_and_render(self, registry):
        registry.series("a_total", op="GET").observe(at_s=0.0)
        registry.series("b.gauge").set(7)
        registry.series("never_observed")
        snap = registry.snapshot()
        assert snap["series"]['a_total{op="GET"}']["labels"] == {"op": "GET"}
        assert snap["series"]["b.gauge"]["last"] == 7
        lines = render(registry).splitlines()
        assert "# TYPE a_total counter" in lines
        assert 'a_total{op="GET"} 1' in lines
        assert "# TYPE b_gauge gauge" in lines  # "." renders as "_"
        assert "b_gauge 7" in lines
        assert not any("never_observed" in line for line in lines)
        assert render(TelemetryHub()) == ""

    def test_global_registry_is_process_wide(self):
        assert get_registry() is get_hub()
        with use_hub(TelemetryHub()) as scoped:
            assert get_registry() is scoped

    def test_render_escapes_help_and_label_values(self, registry, monkeypatch):
        monkeypatch.setitem(
            HELP, "weird_total", "docs with \\ backslash\nand newline"
        )
        registry.series("weird_total", path='a\\b"c\nd').observe(at_s=0.0)
        text = render(registry)
        assert (
            "# HELP weird_total docs with \\\\ backslash\\nand newline"
            in text
        )
        assert 'weird_total{path="a\\\\b\\"c\\nd"} 1' in text
        # The escaped exposition stays one-line-per-sample parseable.
        assert all(
            line.startswith(("#", "weird_total")) for line in text.splitlines()
        )

    def test_render_labeled_summary_conformance(self, registry):
        wq = registry.quantiles("req.latency", op="GET")
        for v in (0.05, 0.5, 5.0):
            wq.observe(v, at_s=0.0)
        wq.observe(7.0, at_s=0.0, trace_id="abc123")
        lines = [
            line
            for line in render(registry).splitlines()
            if line.startswith("req_latency")
        ]
        assert "# TYPE req_latency summary" in render(registry)
        quantiles = [line for line in lines if "quantile=" in line]
        assert [line.split("}")[0] for line in quantiles] == [
            'req_latency{op="GET",quantile="0.5"',
            'req_latency{op="GET",quantile="0.9"',
            'req_latency{op="GET",quantile="0.99"',
        ]
        values = [float(line.split()[1]) for line in quantiles]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(7.0, rel=0.01)
        # The sketch's exemplar rides the p99 line, OpenMetrics style.
        assert quantiles[-1].endswith(' # {trace_id="abc123"} 7')
        assert 'req_latency_sum{op="GET"} 12.55' in lines
        assert 'req_latency_count{op="GET"} 4' in lines

    def test_instrumented_store_reports(self, store):
        with use_hub(TelemetryHub()) as hub:
            store.put("k", b"abc")
            store.get("k")
        requests = hub.get("store_requests_total")
        assert requests.members[("op", "PUT"),].total() == 1
        assert requests.total() == store.stats.puts + store.stats.gets == 2
        assert hub.series("store_bytes_total", direction="read").total() == 3
        assert "# TYPE store_requests_total counter" in render(hub)
