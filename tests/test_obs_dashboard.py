"""The self-contained HTML dashboard and the measured TCO fold."""

from __future__ import annotations

import pytest

from repro.obs.dashboard import (
    comparison_approaches,
    measured_deployment,
    measured_phase_diagram,
    render_dashboard,
    write_dashboard,
)
from repro.obs.slo import default_slo
from repro.obs.timeseries import TelemetryHub
from repro.storage.costs import CostModel


def _populated_hub(queries: int = 120) -> TelemetryHub:
    hub = TelemetryHub()
    for i in range(queries):
        at_s = i * 2.0  # spread over several 60s windows
        latency = 0.1 if i % 20 else 0.8  # a slow straggler every 20th
        hub.quantiles("serve.latency_s").observe(latency, at_s=at_s)
        hub.series("serve.queries").observe(1.0, at_s=at_s)
        hub.series("serve.cost_usd").observe(2e-6, at_s=at_s)
        hub.tail.record(
            latency,
            at_s=at_s,
            query="serve.query",
            phase_s={
                "index_probe": 0.08,
                "page_read": latency - 0.08,
            },
        )
    hub.series("maintain.index.cost_usd").observe(1e-4 + 2e-5, at_s=0.0)
    hub.series("maintain.compact.cost_usd").observe(1e-5, at_s=100.0)
    hub.series("storage.data_bytes").set(10 << 20)
    hub.series("storage.index_bytes").set(1 << 20)
    return hub


class TestMeasuredDeployment:
    def test_none_until_a_query_is_billed(self):
        assert measured_deployment(TelemetryHub()) is None

    def test_ledger_fold(self):
        hub = _populated_hub()
        measured = measured_deployment(hub)
        assert measured is not None
        a = measured.approach
        assert a.name == "measured"
        assert a.cost_per_query == pytest.approx(
            hub.ledger.serve_usd / hub.ledger.serve_queries
        )
        assert a.index_cost == pytest.approx(hub.ledger.index_build_usd)
        # Monthly = storage of data+index bytes + amortized maintenance.
        costs = CostModel()
        storage = costs.storage_monthly((10 << 20) + (1 << 20))
        assert a.cost_per_month > storage
        assert measured.queries == 120
        assert measured.months > 0
        # Trajectory is cumulative and ends at the full query count.
        assert measured.trajectory[-1][1] == 120
        counts = [q for _, q in measured.trajectory]
        assert counts == sorted(counts)
        assert measured.tco_usd > 0

    def test_phase_diagram_includes_measured_position(self):
        hub = _populated_hub()
        measured = measured_deployment(hub)
        rivals = comparison_approaches(hub)
        assert [r.name for r in rivals] == ["copy-data", "brute-force"]
        diagram = measured_phase_diagram(measured, rivals, resolution=16)
        assert diagram.months[0] <= measured.months <= diagram.months[-1]
        assert diagram.queries[0] <= measured.queries <= diagram.queries[-1]
        winner = diagram.winner_at(measured.months, measured.queries)
        assert winner.name in {"copy-data", "brute-force", "measured"}


class TestRenderDashboard:
    def test_contains_every_section(self):
        hub = _populated_hub()
        doc = render_dashboard(hub, source="unit-test")
        assert doc.startswith("<!DOCTYPE html>")
        for heading in (
            "Windowed latency percentiles",
            "Query rate",
            "Tail attribution",
            "SLO status",
            "Measured TCO position",
        ):
            assert heading in doc
        # Windowed percentiles + the tail table + the measured marker.
        assert "p50" in doc and "p99" in doc
        assert "amplification" in doc
        assert "you are here" in doc
        assert "unit-test" in doc
        # SLO verdicts ship icon + label, never color alone.
        assert "&#10003;" in doc

    def test_self_contained(self):
        doc = render_dashboard(_populated_hub())
        # Single file: inline CSS + SVG, no scripts, no external fetches.
        assert "<script" not in doc
        assert "http://" not in doc and "https://" not in doc
        assert "<link" not in doc and "src=" not in doc
        assert "<svg" in doc and "<style>" in doc

    def test_breach_renders_breach_badge(self):
        doc = render_dashboard(
            _populated_hub(), slo=default_slo(latency_p99_s=1e-4)
        )
        assert "&#10007;" in doc
        assert "SLO breached" in doc

    def test_empty_hub_renders_placeholders(self):
        doc = render_dashboard(TelemetryHub())
        assert "no latency observations yet" in doc
        assert "no billed queries yet" in doc
        assert "no phase-tagged query samples yet" in doc

    def test_ingest_panel_only_with_ingest_telemetry(self):
        # Lake-only hubs skip the panel instead of rendering an empty box.
        assert "Real-time ingest freshness" not in render_dashboard(
            _populated_hub()
        )
        hub = _populated_hub()
        for i, lag in enumerate((12.0, 15.0, 19.0)):
            hub.quantiles("ingest.freshness_lag_s").observe(
                lag, at_s=100.0 + 70.0 * i
            )
        hub.series("ingest.drains").observe(1.0, at_s=240.0)
        hub.series("ingest.drained_rows").observe(72.0, at_s=240.0)
        hub.series("ingest.fresh_matches").observe(3.0, at_s=50.0)
        doc = render_dashboard(hub)
        assert "Real-time ingest freshness" in doc
        assert "freshness lag p99" in doc
        assert "rows drained" in doc
        assert "freshness lag (s)" in doc  # the windowed chart rendered

    def test_write_dashboard(self, tmp_path):
        path = str(tmp_path / "dash.html")
        assert write_dashboard(path, _populated_hub()) == path
        with open(path) as f:
            assert "Rottnest deployment dashboard" in f.read()
