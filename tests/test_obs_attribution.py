"""Cost attribution: bills reconcile exactly with IOStats deltas."""

from __future__ import annotations

import pytest

from repro.core.queries import SubstringQuery, UuidQuery, VectorQuery
from repro.obs.attribution import (
    PHASE_ORDER,
    QueryBill,
    attribute,
    price_iostats,
)
from repro.obs.trace import Tracer, use_tracer
from repro.serve.executor import SearchExecutor
from repro.storage.costs import CostModel
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.pool import phase
from repro.storage.stats import Request, RequestTrace
from tests.conftest import event_uuid

COSTS = CostModel()
LAT = LatencyModel()


def _profiled_search(client, column, query, *, k=5, max_searchers=0):
    """Run one search under a fresh tracer; return (bill, IOStats delta,
    result, root span)."""
    tracer = Tracer(clock=client.store.clock)
    before = client.store.stats.snapshot()
    with use_tracer(tracer):
        if max_searchers:
            with SearchExecutor(client, max_searchers=max_searchers) as ex:
                result = ex.search(column, query, k=k)
        else:
            result = client.search(column, query, k=k)
    delta = client.store.stats.snapshot().delta(before)
    root = tracer.last_root("search")
    assert root is not None
    bill = attribute(root, latency=LAT, costs=COSTS)
    return bill, delta, result, root


def _assert_exact(bill: QueryBill, delta) -> None:
    """The acceptance criterion: bill totals equal the IOStats delta
    priced by the cost model, bit for bit."""
    assert bill.gets == delta.gets
    assert bill.puts == delta.puts
    assert bill.lists == delta.lists
    assert bill.heads == delta.heads
    assert bill.deletes == delta.deletes
    assert bill.bytes_read == delta.bytes_read
    assert bill.total_request_cost_usd(COSTS) == price_iostats(delta, COSTS)


class TestClientPathReconciliation:
    def test_uuid_search(self, indexed_client):
        bill, delta, result, _ = _profiled_search(
            indexed_client, "uuid", UuidQuery(event_uuid(1, 3))
        )
        assert result.matches
        _assert_exact(bill, delta)
        phases = [p.phase for p in bill.phases]
        # One vocabulary for both runners: exact queries bill the fused
        # per-record "probe" phase, never the split scoring phases.
        assert phases == ["plan", "probe"]
        assert phases == [p for p in PHASE_ORDER if p in phases]

    def test_substring_search(self, indexed_client):
        bill, delta, _, _ = _profiled_search(
            indexed_client, "text", SubstringQuery("the")
        )
        _assert_exact(bill, delta)

    def test_vector_search(self, indexed_client):
        query = VectorQuery(
            __import__("numpy").zeros(16, dtype="float32"), nprobe=4, refine=20
        )
        bill, delta, _, _ = _profiled_search(indexed_client, "emb", query)
        _assert_exact(bill, delta)
        # Scoring keeps index_probe -> page_read: the global candidate
        # sort between them is a real barrier.
        assert [p.phase for p in bill.phases] == ["plan", "index_probe", "page_read"]

    def test_unindexed_brute_force(self, client):
        """No index: everything lands in plan + brute_force."""
        bill, delta, result, _ = _profiled_search(
            client, "uuid", UuidQuery(event_uuid(2, 5))
        )
        assert result.matches
        _assert_exact(bill, delta)
        # The probe phase exists (its span opens either way) but, with
        # no index record to run a task for, issues nothing.
        probe = next(p for p in bill.phases if p.phase == "probe")
        assert probe.requests == 0
        brute = next(p for p in bill.phases if p.phase == "brute_force")
        assert brute.gets > 0


class TestExecutorPathReconciliation:
    @pytest.mark.parametrize("width", [1, 3])
    def test_uuid_search(self, indexed_client, width):
        bill, delta, result, root = _profiled_search(
            indexed_client, "uuid", UuidQuery(event_uuid(1, 3)),
            max_searchers=width,
        )
        assert result.matches
        _assert_exact(bill, delta)
        assert [p.phase for p in bill.phases] == ["plan", "probe"]
        # Worker task spans carry traces but no phase attribute, so the
        # fan-out must not double-count: checked by _assert_exact above,
        # and directly here.
        assert all(
            "phase" not in t.attributes for t in root.find_all("searcher:task")
        )

    def test_vector_search(self, indexed_client):
        query = VectorQuery(
            __import__("numpy").zeros(16, dtype="float32"), nprobe=4, refine=20
        )
        bill, delta, _, _ = _profiled_search(
            indexed_client, "emb", query, max_searchers=4
        )
        _assert_exact(bill, delta)

    def test_parallelism_reduces_modeled_latency_not_cost(self, indexed_client):
        query = UuidQuery(event_uuid(1, 3))
        seq, seq_delta, _, _ = _profiled_search(
            indexed_client, "uuid", query, max_searchers=1
        )
        par, par_delta, _, _ = _profiled_search(
            indexed_client, "uuid", query, max_searchers=8
        )
        # Same requests either way -> same request dollars...
        assert par.total_request_cost_usd(COSTS) == pytest.approx(
            seq.total_request_cost_usd(COSTS)
        )
        # ...but fanning out cannot make the modeled wall-clock worse.
        assert par.est_latency_s <= seq.est_latency_s + 1e-9


class TestBillShape:
    def test_phase_latency_sums_to_bill_total(self, indexed_client):
        bill, _, _, root = _profiled_search(
            indexed_client, "uuid", UuidQuery(event_uuid(1, 3))
        )
        assert bill.est_latency_s == pytest.approx(
            sum(p.est_latency_s for p in bill.phases)
        )
        # Each phase's modeled latency is its trace's latency.
        for phase in bill.phases:
            spans = [
                s for s in root.walk()
                if s.attributes.get("phase") == phase.phase and s.trace
            ]
            assert phase.est_latency_s == pytest.approx(
                sum(LAT.trace_latency(s.trace) for s in spans)
            )

    def test_compute_cost_prices_instance_time(self):
        trace = RequestTrace()
        trace.record(Request(op="GET", key="k", nbytes=100))
        tracer = Tracer()
        with tracer.span("search") as root:
            with tracer.span("probe", phase="index_probe") as span:
                span.trace = trace
        bill = attribute(root, latency=LAT, costs=COSTS, instance_type="c6i.2xlarge")
        phase = bill.phases[0]
        expected_latency = LAT.trace_latency(trace)
        assert phase.est_latency_s == pytest.approx(expected_latency)
        assert phase.compute_cost_usd == pytest.approx(
            expected_latency * COSTS.instance_hourly("c6i.2xlarge") / 3600.0
        )
        assert bill.total_cost_usd(COSTS) == pytest.approx(
            bill.total_request_cost_usd(COSTS) + phase.compute_cost_usd
        )

    def test_head_is_priced_as_a_get(self):
        """S3 bills a HEAD as a GET-class request; a one-HEAD span's
        bill prices it and still reconciles with the IOStats delta."""
        store = InMemoryObjectStore()
        store.put("k", b"payload")
        tracer = Tracer()
        before = store.stats.snapshot()
        with use_tracer(tracer), phase("plan", "plan") as root:
            store.head("k")
        delta = store.stats.snapshot().delta(before)
        bill = attribute(root, latency=LAT, costs=COSTS)
        assert (bill.heads, bill.requests) == (1, 1)
        assert bill.total_request_cost_usd(COSTS) == COSTS.s3_get_per_request
        assert bill.phases[0].request_cost_usd == COSTS.s3_get_per_request
        _assert_exact(bill, delta)

    def test_unknown_phase_appended_after_canonical(self):
        tracer = Tracer()
        with tracer.span("search") as root:
            with tracer.span("x", phase="custom"):
                pass
            with tracer.span("p", phase="plan"):
                pass
        bill = attribute(root)
        assert [p.phase for p in bill.phases] == ["plan", "custom"]

    def test_describe_renders_table(self, indexed_client):
        bill, _, _, _ = _profiled_search(
            indexed_client, "uuid", UuidQuery(event_uuid(1, 3))
        )
        text = bill.describe(COSTS)
        assert "per-query bill" in text
        assert "plan" in text
        assert "total cost" in text
