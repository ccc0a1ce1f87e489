"""TCO model, phase diagrams, sensitivity sweeps (§VI, Fig. 7/9/12)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TCOError
from repro.tco.model import (
    ApproachCost,
    brute_force_cost,
    copy_data_cost,
    cracked_cost,
    rottnest_cost,
)
from repro.tco.phase import compute_phase_diagram, cracked_phase_diagram
from repro.tco.render import describe_boundaries, render
from repro.tco.sensitivity import scaled_rottnest, sweep


@pytest.fixture
def approaches():
    copy = copy_data_cost("copy-data", monthly=400.0)
    brute = brute_force_cost(
        "brute-force", storage_monthly=7.0, per_query=0.07, latency_s=20.0
    )
    rott = rottnest_cost(
        "rottnest",
        index_cost=15.0,
        storage_monthly=12.0,
        per_query=0.0004,
        latency_s=4.6,
    )
    return copy, brute, rott


class TestApproachCost:
    def test_tco_formula(self):
        a = ApproachCost(
            name="x", cost_per_month=2.0, cost_per_query=0.5, index_cost=10.0
        )
        assert a.tco(3, 4) == pytest.approx(10 + 6 + 2)

    def test_negative_rejected(self):
        with pytest.raises(TCOError):
            ApproachCost(name="x", cost_per_month=-1)
        a = ApproachCost(name="x", cost_per_month=1)
        with pytest.raises(TCOError):
            a.tco(-1, 0)

    def test_scaled(self):
        a = ApproachCost(
            name="x", cost_per_month=2.0, cost_per_query=0.5, index_cost=10.0
        )
        s = a.scaled(cost_per_query=0.1, index_cost=2.0)
        assert s.cost_per_query == pytest.approx(0.05)
        assert s.index_cost == pytest.approx(20.0)
        assert s.cost_per_month == 2.0

    def test_copy_data_has_no_query_cost(self):
        c = copy_data_cost("c", monthly=100.0)
        assert c.tco(1, 0) == c.tco(1, 10**9)


class TestPhaseDiagram:
    def test_three_regions_exist(self, approaches):
        d = compute_phase_diagram(list(approaches))
        for name in ("copy-data", "brute-force", "rottnest"):
            assert d.share(name) > 0.0

    def test_regions_ordered_along_queries(self, approaches):
        """At a fixed duration: brute wins few queries, Rottnest the
        middle, copy-data the many (Fig. 2's intuition)."""
        d = compute_phase_diagram(list(approaches))
        assert d.winner_at(10, 10).name == "brute-force"
        assert d.winner_at(10, 1e4).name == "rottnest"
        assert d.winner_at(10, 1e8).name == "copy-data"

    def test_win_band_spans_orders_of_magnitude(self, approaches):
        d = compute_phase_diagram(list(approaches))
        oom = d.orders_of_magnitude_won("rottnest", 10.0)
        assert oom > 3.0  # paper: >= 4 OoM for its workloads

    def test_break_even_exists(self, approaches):
        d = compute_phase_diagram(list(approaches))
        onset = d.break_even_months("rottnest", 1e4)
        assert onset is not None and onset < 1.0

    def test_boundary_flips(self, approaches):
        d = compute_phase_diagram(list(approaches))
        flips = d.boundary(10.0)
        assert [w for _, _, w in flips] == ["rottnest", "copy-data"]

    def test_win_band_none_when_never_wins(self, approaches):
        copy, brute, rott = approaches
        costly = rott.scaled(cost_per_query=10_000, index_cost=10_000)
        d = compute_phase_diagram([copy, brute, costly])
        assert d.win_band("rottnest", 10.0) is None
        assert d.orders_of_magnitude_won("rottnest", 10.0) == 0.0

    def test_unknown_name_rejected(self, approaches):
        d = compute_phase_diagram(list(approaches))
        with pytest.raises(TCOError):
            d.share("nonexistent")

    def test_needs_two_approaches(self, approaches):
        with pytest.raises(TCOError):
            compute_phase_diagram([approaches[0]])

    def test_positive_axes_required(self, approaches):
        with pytest.raises(TCOError):
            compute_phase_diagram(list(approaches), months_range=(0, 10))

    def test_winner_at_matches_grid(self, approaches):
        d = compute_phase_diagram(list(approaches), resolution=64)
        for qi in (0, 20, 63):
            for mi in (0, 30, 63):
                grid_winner = d.approaches[d.winner[qi, mi]].name
                exact = d.winner_at(float(d.months[mi]), float(d.queries[qi])).name
                assert grid_winner == exact

    @given(
        months=st.floats(0.1, 100),
        queries=st.floats(1, 1e8),
    )
    @settings(max_examples=50, deadline=None)
    def test_winner_is_argmin_property(self, months, queries):
        copy = copy_data_cost("c", monthly=400.0)
        brute = brute_force_cost("b", storage_monthly=7.0, per_query=0.07,
                                 latency_s=20)
        rott = rottnest_cost("r", 15.0, 12.0, 0.0004, 4.6)
        d = compute_phase_diagram([copy, brute, rott])
        w = d.winner_at(months, queries)
        assert w.tco(months, queries) == min(
            a.tco(months, queries) for a in (copy, brute, rott)
        )


class TestCrackedCost:
    def test_endpoints_recover_parents(self, approaches):
        _, brute, rott = approaches
        as_eager = cracked_cost(
            "c", rott, brute, hot_coverage=1.0, hot_query_share=1.0
        )
        as_brute = cracked_cost(
            "c", rott, brute, hot_coverage=0.0, hot_query_share=0.0
        )
        for months, queries in ((1, 10), (10, 1e6)):
            assert as_eager.tco(months, queries) == pytest.approx(
                rott.tco(months, queries)
            )
            assert as_brute.tco(months, queries) == pytest.approx(
                brute.tco(months, queries)
            )

    def test_skewed_workload_beats_both_parents(self, approaches):
        """The cracking bet in TCO terms: pay a fraction of the build,
        serve most queries at indexed price."""
        _, brute, rott = approaches
        cracked = cracked_cost(
            "c", rott, brute, hot_coverage=0.25, hot_query_share=0.9
        )
        assert cracked.index_cost == pytest.approx(rott.index_cost * 0.25)
        months, queries = 2.0, 400.0
        assert cracked.tco(months, queries) < rott.tco(months, queries)
        assert cracked.tco(months, queries) < brute.tco(months, queries)

    def test_fraction_validation(self, approaches):
        _, brute, rott = approaches
        for kwargs in (
            {"hot_coverage": -0.1, "hot_query_share": 0.5},
            {"hot_coverage": 0.5, "hot_query_share": 1.5},
        ):
            with pytest.raises(TCOError):
                cracked_cost("c", rott, brute, **kwargs)

    def test_latency_defaults_to_workload_mix(self, approaches):
        _, brute, rott = approaches
        cracked = cracked_cost(
            "c", rott, brute, hot_coverage=0.5, hot_query_share=0.75
        )
        assert cracked.min_latency_s == pytest.approx(
            0.75 * rott.min_latency_s + 0.25 * brute.min_latency_s
        )

    def test_cracked_phase_diagram_owns_a_middle_band(self, approaches):
        """On a skewed workload the cracked curve wins a region between
        brute force (few queries) and eager (query-heavy forever)."""
        _, brute, rott = approaches
        d = cracked_phase_diagram(
            rott, brute, hot_coverage=0.25, hot_query_share=0.9
        )
        assert d.share("cracked") > 0.0
        flips = d.boundary(months=2.0)
        assert any(w == "cracked" for _, _, w in flips)
        # winner_at agrees with direct TCO comparison at a probed point
        w = d.winner_at(2.0, 400.0)
        assert w.name == "cracked"


class TestSensitivity:
    def test_cheaper_queries_push_copydata_boundary_up(self, approaches):
        """Fig. 12 observation 1, first half."""
        copy, brute, rott = approaches
        points = sweep(
            rott, brute, copy, parameter="cost_per_query", factors=[1.0, 0.1]
        )
        base = points[0].win_band_at_10_months
        cheap = points[1].win_band_at_10_months
        assert cheap[1] > base[1]  # upper boundary (vs copy-data) rises
        assert cheap[0] == pytest.approx(base[0], rel=0.3)  # lower ~fixed

    def test_smaller_index_pushes_bruteforce_boundary_down(self, approaches):
        """Fig. 12 observation 1, second half."""
        copy, brute, rott = approaches
        points = sweep(
            rott, brute, copy,
            parameter="index_storage_monthly", factors=[1.0, 0.1],
        )
        base = points[0].win_band_at_10_months
        small = points[1].win_band_at_10_months
        assert small[0] < base[0]  # lower boundary (vs brute) falls
        assert small[1] == pytest.approx(base[1], rel=0.3)

    def test_cheaper_indexing_moves_onset_only(self, approaches):
        """Fig. 12 observation 2."""
        copy, brute, rott = approaches
        d_base = compute_phase_diagram([copy, brute, rott])
        cheap = scaled_rottnest(rott, brute, "index_cost", 0.1)
        d_cheap = compute_phase_diagram([copy, brute, cheap])
        onset_base = d_base.break_even_months("rottnest", 300)
        onset_cheap = d_cheap.break_even_months("rottnest", 300)
        assert onset_cheap < onset_base
        # Long-horizon band barely moves.
        b1 = d_base.win_band("rottnest", 50.0)
        b2 = d_cheap.win_band("rottnest", 50.0)
        assert b2[1] == pytest.approx(b1[1], rel=0.1)

    def test_unknown_parameter_rejected(self, approaches):
        copy, brute, rott = approaches
        with pytest.raises(TCOError):
            scaled_rottnest(rott, brute, "nope", 2.0)
        with pytest.raises(TCOError):
            scaled_rottnest(rott, brute, "index_cost", 0.0)

    def test_storage_isolation_requires_rottnest_above_brute(self, approaches):
        copy, brute, rott = approaches
        tiny = ApproachCost(name="r", cost_per_month=1.0)
        with pytest.raises(TCOError):
            scaled_rottnest(tiny, brute, "index_storage_monthly", 2.0)


class TestLatencySla:
    """Figure 2: feasibility by latency SLA, then cheapest wins."""

    def test_feasible_filters_by_sla(self, approaches):
        from repro.tco.phase import feasible

        copy, brute, rott = approaches
        assert [a.name for a in feasible(list(approaches), 0.1)] == ["copy-data"]
        assert {a.name for a in feasible(list(approaches), 5.0)} == {
            "copy-data", "rottnest"
        }
        assert len(feasible(list(approaches), 60.0)) == 3

    def test_sla_must_be_positive(self, approaches):
        from repro.tco.phase import feasible

        with pytest.raises(TCOError):
            feasible(list(approaches), 0)

    def test_cheapest_feasible_overrides_cost(self, approaches):
        """At a point where Rottnest is cheapest, a strict SLA still
        forces copy-data (a search engine can't wait 4.6 s)."""
        from repro.tco.phase import cheapest_feasible

        unconstrained = cheapest_feasible(
            list(approaches), months=10, queries=1e4
        )
        assert unconstrained.name == "rottnest"
        strict = cheapest_feasible(
            list(approaches), months=10, queries=1e4, sla_s=0.1
        )
        assert strict.name == "copy-data"

    def test_nothing_feasible(self, approaches):
        from repro.tco.phase import cheapest_feasible

        assert (
            cheapest_feasible(list(approaches), months=1, queries=1,
                              sla_s=0.001)
            is None
        )


class TestThroughput:
    """§VII-D3: QPS ceilings vs the phase boundaries."""

    def test_max_qps_from_rps_budget(self):
        from repro.tco.throughput import ThroughputModel

        m = ThroughputModel(rottnest_requests_per_query=55)
        assert m.rottnest_max_qps == pytest.approx(100.0)

    def test_invalid_inputs(self):
        from repro.tco.throughput import ThroughputModel

        with pytest.raises(TCOError):
            ThroughputModel(rottnest_requests_per_query=0)

    def test_sustained_queries(self):
        from repro.tco.throughput import ThroughputModel

        m = ThroughputModel()
        # The paper's number: 10 QPS for 10 months ~ 2.5e7 queries.
        assert m.sustained_queries(10, 10) == pytest.approx(2.628e8, rel=0.01)

    def test_analysis_cap_beyond_boundary(self, approaches):
        from repro.tco.throughput import ThroughputModel, throughput_analysis

        d = compute_phase_diagram(list(approaches))
        analysis = throughput_analysis(
            d, months=10.0, model=ThroughputModel(rottnest_requests_per_query=50)
        )
        assert analysis.copy_data_boundary is not None
        assert analysis.queries_at_cap > analysis.copy_data_boundary
        assert analysis.conclusion_unchanged

    def test_analysis_detects_binding_cap(self, approaches):
        from repro.tco.throughput import ThroughputModel, throughput_analysis

        d = compute_phase_diagram(list(approaches))
        # An absurdly chatty query (1e9 requests) caps QPS below the
        # boundary: the analysis must flag it.
        analysis = throughput_analysis(
            d,
            months=10.0,
            model=ThroughputModel(rottnest_requests_per_query=1e9),
        )
        assert not analysis.conclusion_unchanged

    def test_analysis_handles_never_winning(self, approaches):
        from repro.tco.throughput import throughput_analysis

        copy, brute, rott = approaches
        costly = rott.scaled(cost_per_query=10_000, index_cost=10_000)
        d = compute_phase_diagram([copy, brute, costly])
        analysis = throughput_analysis(d, months=10.0)
        assert analysis.copy_data_boundary is None
        assert analysis.conclusion_unchanged


class TestRender:
    def test_render_contains_all_regions(self, approaches):
        d = compute_phase_diagram(list(approaches))
        art = render(d, width=40, height=16)
        assert "C" in art and "B" in art and "R" in art
        assert "legend" in art
        assert "(months)" in art

    def test_describe_boundaries(self, approaches):
        d = compute_phase_diagram(list(approaches))
        text = describe_boundaries(d, [1.0, 10.0])
        assert "rottnest" in text
        assert text.count("months:") == 2

    def test_describe_single_winner(self):
        a = copy_data_cost("a", monthly=1.0)
        b = copy_data_cost("b", monthly=2.0)
        d = compute_phase_diagram([a, b])
        text = describe_boundaries(d, [1.0])
        assert "a everywhere" in text
