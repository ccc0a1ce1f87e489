"""Exporters: JSONL dumps, timelines, and the BENCH_*.json schema."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    BENCH_SCHEMA,
    bench_payload,
    render_timeline,
    span_to_dict,
    spans_to_jsonl,
    update_bench_json,
    validate_bench,
    write_spans_jsonl,
)
from repro.obs.trace import Tracer
from repro.storage.stats import Request, RequestTrace
from repro.util.clock import SimClock


@pytest.fixture
def tree():
    clock = SimClock(start=10.0)
    tracer = Tracer(clock=clock)
    with tracer.span("search", column="text", blob=b"\x01\x02") as root:
        with tracer.span("plan", phase="plan") as plan:
            trace = RequestTrace()
            trace.record(Request(op="LIST", key="lake/_log/", nbytes=0))
            plan.trace = trace
            clock.advance(0.1)
        with tracer.span("probe:index", phase="index_probe") as probe:
            trace = RequestTrace()
            for i in range(6):
                trace.record(Request(op="GET", key=f"idx/file-{i}", nbytes=100 + i))
            probe.trace = trace
            clock.advance(0.4)
    return root


class TestSpanDump:
    def test_span_to_dict_flat(self, tree):
        d = span_to_dict(tree)
        assert d["name"] == "search"
        assert d["parent_id"] is None
        assert d["attributes"] == {"column": "text", "blob": "0102"}
        assert d["duration_s"] == pytest.approx(0.5)
        plan = span_to_dict(tree.children[0])
        assert plan["parent_id"] == tree.span_id
        assert "events" not in plan  # a request lives in its trace only
        assert plan["trace"] == [[["LIST", 0]]]  # rounds of [op, nbytes]

    def test_jsonl_round_trip(self, tree, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        write_spans_jsonl(path, [tree])
        rows = [json.loads(line) for line in open(path)]
        assert len(rows) == 3  # depth-first: search, plan, probe:index
        assert [r["name"] for r in rows] == ["search", "plan", "probe:index"]
        # The tree is reconstructible from span_id/parent_id.
        by_id = {r["span_id"]: r for r in rows}
        for row in rows[1:]:
            assert row["parent_id"] in by_id

    def test_jsonl_empty(self):
        assert spans_to_jsonl([]) == ""


class TestTimeline:
    def test_render(self, tree):
        text = render_timeline(tree, width=20, max_requests=4)
        lines = text.splitlines()
        assert "search" in lines[0]
        assert "ms" in lines[0]
        assert any("plan" in line for line in lines)
        assert any("· LIST lake/_log/ [0 B]" in line for line in lines)
        # 6 requests with max_requests=4 -> truncation marker.
        assert any("… 2 more request(s)" in line for line in lines)
        # Request/byte rollups shown for spans that have them.
        assert any("1 req / 0 B" in line for line in lines)

    def test_zero_duration_root_safe(self):
        tracer = Tracer(clock=SimClock())
        with tracer.span("instant") as root:
            pass
        assert "instant" in render_timeline(root)


class TestBenchJson:
    def test_payload_validates(self):
        validate_bench(bench_payload("serving"))

    def test_validate_rejects(self):
        with pytest.raises(ValueError):
            validate_bench({"schema": "nope", "bench": "x", "measurements": {}})
        with pytest.raises(ValueError):
            validate_bench({"schema": BENCH_SCHEMA, "measurements": {}})
        with pytest.raises(ValueError):
            validate_bench(
                {
                    "schema": BENCH_SCHEMA,
                    "bench": "x",
                    "measurements": {"m": {"params": {}}},
                }
            )

    def test_update_creates_and_merges(self, tmp_path):
        path = str(tmp_path / "BENCH_serving.json")
        update_bench_json(
            path, "serving", "cold",
            metrics={"latency_ms": 12.5}, params={"searchers": 4},
        )
        payload = update_bench_json(
            path, "serving", "warm", metrics={"latency_ms": 3.25}
        )
        assert set(payload["measurements"]) == {"cold", "warm"}
        on_disk = json.load(open(path))
        assert on_disk == payload
        assert on_disk["schema"] == BENCH_SCHEMA
        assert on_disk["measurements"]["cold"]["params"] == {"searchers": 4}

    def test_update_overwrites_same_measurement(self, tmp_path):
        path = str(tmp_path / "BENCH_b.json")
        update_bench_json(path, "b", "m", metrics={"v": 1})
        payload = update_bench_json(path, "b", "m", metrics={"v": 2})
        assert payload["measurements"]["m"]["metrics"] == {"v": 2}

    def test_update_recovers_from_corrupt_file(self, tmp_path):
        path = str(tmp_path / "BENCH_c.json")
        with open(path, "w") as f:
            f.write("{not json")
        payload = update_bench_json(path, "c", "m", metrics={"v": 1})
        assert payload["measurements"]["m"]["metrics"] == {"v": 1}
        validate_bench(json.load(open(path)))
