"""Latency model (calibrated to Fig. 10a) and cloud cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.costs import GB, CostModel
from repro.storage.latency import LatencyModel
from repro.storage.stats import Request, RequestTrace


@pytest.fixture
def model():
    return LatencyModel()


class TestRequestLatency:
    def test_flat_below_one_mb(self, model):
        """Fig. 10a: latency stable w.r.t. granularity until ~1 MB."""
        assert model.request_latency(1_000) == model.request_latency(300_000)
        assert model.request_latency(300_000) == model.request_latency(1 << 20)

    def test_linear_above_one_mb(self, model):
        one = model.request_latency(2 << 20)
        two = model.request_latency(4 << 20)
        # Doubling the excess bytes doubles the excess latency.
        excess_one = one - model.first_byte_s
        excess_two = two - model.first_byte_s
        assert excess_two == pytest.approx(2 * excess_one +
                                           (1 << 20) / model.stream_bandwidth_bps)

    def test_small_read_is_first_byte_bound(self, model):
        assert model.request_latency(100) == model.first_byte_s

    @given(st.integers(0, 1 << 30))
    def test_monotone_in_size(self, nbytes):
        m = LatencyModel()
        assert m.request_latency(nbytes) <= m.request_latency(nbytes + 1024)


class TestRoundLatency:
    def test_parallel_round_one_wave(self, model):
        sizes = [100_000] * 64
        assert model.round_latency(sizes) == model.request_latency(100_000)

    def test_waves_beyond_concurrency(self):
        # Generous RPS limit so wave count is the binding constraint.
        m = LatencyModel(prefix_get_rps=1e9)
        sizes = [1000] * (m.max_concurrency * 3)
        assert m.round_latency(sizes) == pytest.approx(3 * m.first_byte_s)

    def test_empty_round_free(self, model):
        assert model.round_latency([]) == 0.0

    def test_bandwidth_floor(self, model):
        # 512 x 100 MB cannot finish in first-byte time on one NIC.
        sizes = [100 << 20] * 512
        assert model.round_latency(sizes) >= sum(sizes) / model.instance_bandwidth_bps

    def test_rps_floor(self):
        m = LatencyModel(prefix_get_rps=100.0, max_concurrency=10_000)
        sizes = [10] * 5_000
        assert m.round_latency(sizes) >= 50.0

    def test_custom_concurrency(self):
        sizes = [1000] * 10
        serial = LatencyModel(max_concurrency=1).round_latency(sizes)
        parallel = LatencyModel(max_concurrency=10).round_latency(sizes)
        assert serial == pytest.approx(10 * parallel, rel=0.01)


class TestTraceLatency:
    def test_depth_dominates(self, model):
        trace = RequestTrace()
        for _ in range(5):
            trace.record(Request("GET", "k", 1000))
            trace.barrier()
        assert model.trace_latency(trace) == pytest.approx(5 * model.first_byte_s)

    def test_width_is_cheap(self, model):
        wide = RequestTrace()
        for _ in range(100):
            wide.record(Request("GET", "k", 1000))
        deep = RequestTrace()
        for _ in range(10):
            deep.record(Request("GET", "k", 1000))
            deep.barrier()
        assert model.trace_latency(wide) < model.trace_latency(deep)

    def test_list_adds_latency(self, model):
        trace = RequestTrace()
        trace.record(Request("LIST", "p/", 0))
        trace.record(Request("GET", "k", 10))
        assert model.trace_latency(trace) == pytest.approx(
            model.list_latency_s + model.first_byte_s
        )


class TestCostModel:
    def test_storage_monthly(self):
        c = CostModel()
        assert c.storage_monthly(GB) == pytest.approx(0.023)

    def test_compute_cost(self):
        c = CostModel()
        assert c.compute_cost("r6i.4xlarge", 3600, count=2) == pytest.approx(2.016)

    def test_unknown_instance(self):
        with pytest.raises(KeyError):
            CostModel().instance_hourly("z1.mega")

    def test_request_cost(self):
        c = CostModel()
        cost = c.request_cost(gets=1000, puts=1000, lists=1000)
        assert cost == pytest.approx(0.0004 + 0.005 + 0.005)

    def test_request_cost_defaults_zero(self):
        assert CostModel().request_cost() == 0.0
