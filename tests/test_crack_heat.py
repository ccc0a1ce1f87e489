"""Property tests for the cracking heat map (hypothesis + unit).

The controller's correctness story leans on three algebraic facts:

* **decay/merge commutativity** — sharded searchers can each decay
  their local map and merge later, or merge first and decay once, and
  the controller sees the same ranking either way;
* **non-negativity** — heat is a sum of non-negative exponential
  terms, so no observation order or query time can produce negative
  heat (a negative counter would flip benefit-per-IO signs);
* **eviction safety** — ``evict_cold`` never forgets a key the policy
  could still act on (heat at or above the floor survives).

Plus the plumbing: span ingestion reads exactly the attributes the
one search plan records — the same ones whether the client, an
executor or a server ran it — and serialization round-trips.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.queries import SubstringQuery, UuidQuery, VectorQuery
from repro.errors import CrackError
from repro.crack.heat import (
    DEFAULT_HALF_LIFE_S,
    HeatKey,
    HeatMap,
    cell_scope,
)
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.obs.trace import Tracer, use_tracer
from repro.serve import SearchExecutor, SearchServer

from tests.conftest import event_batch, event_uuid

KEYS = st.sampled_from(
    [
        HeatKey("lake/a.parquet", "uuid", "UuidQuery"),
        HeatKey("lake/b.parquet", "uuid", "UuidQuery"),
        HeatKey("lake/b.parquet", "text", "SubstringQuery"),
        HeatKey(cell_scope("idx/f-1.bin", 3), "emb", "VectorQuery"),
    ]
)
WEIGHTS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
TIMES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
OBSERVATIONS = st.lists(
    st.tuples(KEYS, WEIGHTS, TIMES), min_size=0, max_size=24
)


def _fill(observations, *, half_life_s=DEFAULT_HALF_LIFE_S) -> HeatMap:
    hm = HeatMap(half_life_s=half_life_s)
    for key, weight, at_s in observations:
        hm.observe(key, weight, at_s=at_s)
    return hm


def _heats(hm: HeatMap, at_s: float) -> dict[HeatKey, float]:
    return {key: hm.heat(key, at_s=at_s) for key in hm.keys()}


def _probe_time(*observation_lists, offset: float = 0.0) -> float:
    """A query time at/after every observation, as the controller's
    "now" always is (asking about heat *before* an observation would
    evaluate the exponential backward and overflow by design)."""
    stamps = [t for obs in observation_lists for (_, _, t) in obs]
    return max(stamps, default=0.0) + offset


class TestAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(left=OBSERVATIONS, right=OBSERVATIONS, at_s=TIMES)
    def test_merge_adds_heats(self, left, right, at_s):
        merged = _fill(left).merge(_fill(right))

        probe = _probe_time(left, right, offset=at_s)
        got = _heats(merged, probe)
        a, b = _heats(_fill(left), probe), _heats(_fill(right), probe)
        assert set(got) == set(a) | set(b)
        for key, value in got.items():
            want = a.get(key, 0.0) + b.get(key, 0.0)
            assert value == pytest.approx(want, rel=1e-9, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(observations=OBSERVATIONS, at_s=TIMES)
    def test_heat_is_never_negative(self, observations, at_s):
        hm = _fill(observations)
        probe = _probe_time(observations, offset=at_s)
        for key in hm.keys():
            assert hm.heat(key, at_s=probe) >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        observations=OBSERVATIONS,
        floor=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        at_s=TIMES,
    )
    def test_eviction_never_drops_a_key_at_or_above_the_floor(
        self, observations, floor, at_s
    ):
        hm = _fill(observations)
        probe = _probe_time(observations, offset=at_s)
        survivors_wanted = {
            key for key in hm.keys() if hm.heat(key, at_s=probe) >= floor
        }
        hm.evict_cold(floor, at_s=probe)
        assert survivors_wanted <= set(hm.keys())
        # And nothing cold survived either: eviction is exact.
        for key in hm.keys():
            assert hm.heat(key, at_s=probe) >= floor

    @settings(max_examples=100, deadline=None)
    @given(observations=OBSERVATIONS, at_s=TIMES)
    def test_ingest_order_is_irrelevant(self, observations, at_s):
        forward = _fill(observations)
        backward = _fill(list(reversed(observations)))
        probe = _probe_time(observations, offset=at_s)
        got = _heats(forward, probe)
        want = _heats(backward, probe)
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(observations=OBSERVATIONS, at_s=TIMES)
    def test_serialization_round_trips(self, observations, at_s):
        hm = _fill(observations)
        clone = HeatMap.from_dict(hm.to_dict())
        probe = _probe_time(observations, offset=at_s)
        assert _heats(clone, probe) == _heats(hm, probe)
        assert clone.to_dict() == hm.to_dict()


class TestValidation:
    def test_rejects_nonpositive_half_life(self):
        with pytest.raises(CrackError):
            HeatMap(half_life_s=0.0)

    def test_rejects_negative_weight(self):
        hm = HeatMap()
        with pytest.raises(CrackError):
            hm.observe(HeatKey("f", "c", "k"), -1.0, at_s=0.0)

    def test_rejects_negative_floor(self):
        with pytest.raises(CrackError):
            HeatMap().evict_cold(-0.5, at_s=0.0)

    def test_rejects_mismatched_half_life_merge(self):
        with pytest.raises(CrackError):
            HeatMap(half_life_s=60.0).merge(HeatMap(half_life_s=30.0))

    def test_rejects_malformed_payload(self):
        with pytest.raises(CrackError):
            HeatMap.from_dict({"cells": []})
        with pytest.raises(CrackError):
            HeatMap.from_dict(
                {"half_life_s": 60.0, "cells": [["only", "three", "items"]]}
            )


class TestHalfLife:
    def test_heat_halves_every_half_life(self):
        hm = HeatMap(half_life_s=100.0)
        key = HeatKey("f", "c", "k")
        hm.observe(key, 8.0, at_s=0.0)
        assert hm.heat(key, at_s=0.0) == pytest.approx(8.0)
        assert hm.heat(key, at_s=100.0) == pytest.approx(4.0)
        assert hm.heat(key, at_s=300.0) == pytest.approx(1.0)

    def test_out_of_order_observation_matches_in_order(self):
        in_order = HeatMap(half_life_s=100.0)
        out_of_order = HeatMap(half_life_s=100.0)
        key = HeatKey("f", "c", "k")
        in_order.observe(key, 4.0, at_s=0.0)
        in_order.observe(key, 2.0, at_s=100.0)
        out_of_order.observe(key, 2.0, at_s=100.0)
        out_of_order.observe(key, 4.0, at_s=0.0)
        assert in_order.heat(key, at_s=200.0) == pytest.approx(
            out_of_order.heat(key, at_s=200.0)
        )


class TestSpanIngestion:
    def _search_root(self, tracer, *, column, kind):
        with tracer.span("search") as root:
            root.set("column", column)
            root.set("kind", kind)
            return root

    def test_reads_brute_probe_and_cell_attributes(self):
        tracer = Tracer()
        with tracer.span("search") as root:
            root.set("column", "uuid")
            root.set("kind", "UuidQuery")
            with tracer.span("brute_force") as brute:
                brute.set("scanned_files", ("lake/a", "lake/b"))
            with tracer.span("probe") as fused:  # exact queries
                fused.set("probed_files", ("lake/c",))
            with tracer.span("probe:pages") as pages:  # scoring queries
                pages.set("probed_files", ("lake/d",))
            with tracer.span("probe:index") as idx:
                idx.set("cell_probes", (("idx/v-1.bin", (0, 2)),))
        hm = HeatMap()
        observed = hm.observe_spans(tracer.pop_finished())
        assert observed == 6
        at_s = 10.0
        files = hm.file_heat(at_s=at_s, column="uuid")
        assert set(files) == {"lake/a", "lake/b", "lake/c", "lake/d"}
        cells = hm.cell_heat(at_s=at_s)
        assert set(cells) == {("idx/v-1.bin", 0), ("idx/v-1.bin", 2)}

    def test_ignores_non_search_roots(self):
        tracer = Tracer()
        with tracer.span("daemon.tick"):
            with tracer.span("brute_force") as brute:
                brute.set("scanned_files", ("lake/a",))
        hm = HeatMap()
        assert hm.observe_spans(tracer.pop_finished()) == 0
        assert len(hm) == 0

    def test_hottest_ranking_is_deterministic_under_ties(self):
        hm = HeatMap()
        for scope in ("lake/b", "lake/a"):
            hm.observe(HeatKey(scope, "uuid", "q"), 1.0, at_s=0.0)
        ranked = [key.scope for key, _ in hm.hottest(at_s=0.0)]
        assert ranked == ["lake/a", "lake/b"]


class TestRunnerParity:
    """``repro.crack`` must see a query whoever answered it: the client,
    an executor of any width, or a server (whose ``search`` span hangs
    under a ``serve.query`` root)."""

    QUERIES = [
        ("uuid", UuidQuery(event_uuid(1, 5))),  # indexed file
        ("uuid", UuidQuery(event_uuid(3, 7))),  # only in the unindexed file
        ("text", SubstringQuery(event_batch(300, seed=1)["text"][10][:8])),
        (
            "emb",
            VectorQuery(
                np.random.default_rng(0).normal(size=16).astype(np.float32),
                nprobe=4,
                refine=32,
            ),
        ),
    ]

    def _observe(self, store, search):
        """(heat keys + observation count, search spans, searches_total
        delta) of one pass over QUERIES."""
        tracer = Tracer(clock=store.clock)
        with use_hub(TelemetryHub()) as hub, use_tracer(tracer):
            for column, query in self.QUERIES:
                search(column, query)
        roots = tracer.pop_finished()
        heat = HeatMap()
        observed = heat.observe_spans(roots)
        delta = {
            kind: hub.series("searches_total", kind=kind).total()
            for kind in ("exact", "scoring")
        }
        spans = [s for root in roots for s in root.find_all("search")]
        return (heat.keys(), observed), spans, delta

    def test_every_runner_feeds_the_same_heat(self, indexed_client):
        indexed_client.lake.append(event_batch(300, seed=3))  # unindexed
        store = indexed_client.store
        seen = {
            "client": self._observe(
                store, lambda c, q: indexed_client.search(c, q, k=5)
            )
        }
        for width in (1, 4):
            with SearchExecutor(indexed_client, max_searchers=width) as ex:
                seen[f"executor{width}"] = self._observe(
                    store, lambda c, q: ex.search(c, q, k=5)
                )
        with SearchServer(indexed_client) as server:
            seen["server"] = self._observe(
                store, lambda c, q: server.query(c, q, k=5)
            )

        (keys, observed), _, _ = seen["client"]
        assert observed >= len(keys) > 0
        # File heat from the fused probe and the brute-force fill, cell
        # heat from the vector probe: all three attribute kinds present.
        assert {k.kind for k in keys} == {
            "UuidQuery", "SubstringQuery", "VectorQuery"
        }
        assert any(k.is_cell for k in keys)
        for runner, (runner_keys, spans, delta) in seen.items():
            assert runner_keys == (keys, observed), runner
            assert len(spans) == len(self.QUERIES), runner
            assert all("kind" in s.attributes for s in spans), runner
            assert delta == {"exact": 3, "scoring": 1}, runner
