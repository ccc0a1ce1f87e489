"""Self-test of the benchmark (run by path; tier-1 does not collect it):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Smoke sizes throughout, so the whole file takes well under 20 s.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.core import SearchMatch  # noqa: E402

from benchmarks.e2e import data, oracle, spec, stats, trace  # noqa: E402
from benchmarks.e2e.harness import run_workload  # noqa: E402


# -- the contract ----------------------------------------------------------
def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == spec.benchmark_json()


def test_spec_meets_the_contract():
    doc = spec.benchmark_json()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert spec.NAME_RE.match(name), name
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert spec.UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# -- the smoke run: every metric, zero failures, both reconciliations -------
@pytest.fixture(scope="module")
def smoke_runs():
    """One traced smoke run per workload. Its untraced rounds yield the
    end-to-end set too, so one run shows both."""
    return {
        name: run_workload(name, 13, 0.0, traced=True, smoke=True)
        for name in spec.WORKLOAD_NAMES
    }


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_every_metric_is_reported_with_its_unit(smoke_runs, name):
    run = smoke_runs[name]
    line = run.result_line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for wanted, values in (
        (spec.PER_LAYER, line["metrics"]),
        (spec.END_TO_END, spec.format_metrics(run.end_to_end)),
    ):
        assert list(values) == [m["name"] for m in wanted]
        for metric in wanted:
            cell = values[metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert isinstance(cell["value"], float)
    assert all(value > 0 for value in run.end_to_end.values())


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_reconciliations_hold(smoke_runs, name):
    metrics = smoke_runs[name].per_layer
    assert metrics["bench.self_time_gap_share"] < 0.01
    assert metrics["bench.io_count_mismatch"] == 0
    assert metrics["bench.trace_overhead_ratio"] > 0


def test_layers_show_where_predicted_and_nowhere_else(smoke_runs):
    cold = smoke_runs["cold_search"].per_layer
    hot = smoke_runs["hot_serve"].per_layer
    build = smoke_runs["build_maintain"].per_layer
    ingest = smoke_runs["ingest_mixed"].per_layer
    serve_only = [n for n in spec.PER_LAYER_NAMES if n.startswith(("serve.", "obs."))]
    ingest_only = [n for n in spec.PER_LAYER_NAMES if n.startswith("ingest.")]
    ingest_only += ["ingest_rows_per_s", "ack_wall_p50_ms"]
    for name in serve_only:
        assert hot[name] > 0, name
        assert cold[name] == build[name] == ingest[name] == 0, name
    for name in ingest_only:
        assert ingest[name] > 0, name
        assert cold[name] == hot[name] == build[name] == 0, name
    for name in ("indices.fm.merge_mb_per_s", "build_mb_per_s", "compact_mb_per_s"):
        assert build[name] > 0 and cold[name] == hot[name] == 0, name
    for name in (
        "core.search.self_ms_per_op",
        "lake.snapshot.self_ms_per_op",
        "indices.trie.probe_ms_per_op",
        "indices.fm.probe_ms_per_op",
        "indices.ivfpq.probe_ms_per_op",
        "formats.fetch_pages.self_ms_per_op",
    ):
        assert cold[name] > 0, name
    # The uncovered tail lives in ingest_mixed only.
    assert ingest["formats.scan_column.self_ms_per_op"] > 0
    assert cold["formats.scan_column.self_ms_per_op"] == 0


def test_exact_metrics_repeat_bit_for_bit(smoke_runs):
    again = run_workload("cold_search", 13, 0.0, traced=False, smoke=True)
    for name in spec.EXACT:
        assert again.end_to_end[name] == smoke_runs["cold_search"].end_to_end[name]


# -- the oracle ---------------------------------------------------------------
@pytest.fixture(scope="module")
def truth():
    corpus = data.generate_corpus(data.Generators(5), ("text", "uuid", "emb"), 2, 40)
    corpus.paths = ["lake/a.parquet", "lake/b.parquet"]
    return oracle.LakeOracle(corpus)


def _matches(truth, planned):
    """The right answer to ``planned``, built from the oracle's rows."""
    column = planned.column
    where = planned.expect if planned.kind != "uuid" else [planned.expect]
    out = []
    for f, r in sorted(where)[:10]:
        value = truth.corpus.files[f][column][r]
        score = planned.query.distance(value) if planned.kind == "vector" else None
        out.append(SearchMatch(truth.corpus.paths[f], r, value, score))
    return sorted(out, key=lambda m: m.score) if planned.kind == "vector" else out


def test_oracle_accepts_right_answers_and_fails_corrupted_ones(truth):
    doc = truth.corpus.files[1]["text"][7]
    plans = [
        truth.uuid(47),
        truth.substring(doc[5:17]),
        truth.vector(truth.corpus.files[0]["emb"][3], 10, nprobe=4, refine=50),
    ]
    for planned in plans:
        good = _matches(truth, planned)
        assert oracle.check(planned, good, 10, truth).ok, planned.kind
        # dropped match
        assert not oracle.check(planned, good[:-1], 10, truth).ok, planned.kind
        # dead row: a row no file ever held
        m = good[0]
        dead = [SearchMatch(m.file, 10_000, m.value, m.score)] + good[1:]
        assert not oracle.check(planned, dead, 10, truth).ok, planned.kind
        # wrong (file, row): right value, somebody else's location
        other = truth.corpus.paths[1 - truth.corpus.paths.index(m.file)]
        moved = [SearchMatch(other, m.row, m.value, m.score)] + good[1:]
        assert not oracle.check(planned, moved, 10, truth).ok, planned.kind
        # the same row twice
        assert not oracle.check(planned, good + good[:1], 10, truth).ok
    absent = oracle.absent_uuid(b"\0" * 32)
    assert oracle.check(absent, [], 10, truth).ok
    assert not oracle.check(absent, _matches(truth, plans[0]), 10, truth).ok


def test_vector_recall_is_scored_against_the_exact_top_k(truth):
    planned = truth.vector(truth.corpus.files[0]["emb"][3], 10, nprobe=4, refine=50)
    good = _matches(truth, planned)
    assert oracle.check(planned, good, 10, truth).recall == 1.0
    # Swap the two worst for rows outside the top-k: still a legal
    # answer (approximate search), but recall drops to 0.8.
    outside = [
        (f, r) for f in (0, 1) for r in range(40) if (f, r) not in planned.expect
    ][:2]
    extra = [
        SearchMatch(
            truth.corpus.paths[f], r, truth.corpus.files[f]["emb"][r],
            planned.query.distance(truth.corpus.files[f]["emb"][r]),
        )
        for f, r in outside
    ]
    answer = sorted(good[:8] + extra, key=lambda m: m.score)
    verdict = oracle.check(planned, answer, 10, truth)
    assert verdict.ok and verdict.recall == pytest.approx(0.8)


# -- statistics -------------------------------------------------------------
def test_percentile_refuses_thin_tails():
    assert stats.percentile(range(200), 0.95) == 189
    assert stats.percentile(range(20), 0.50) == 9
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(199), 0.95)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(19), 0.50)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(500), 0.99)


def test_spread_is_the_drivers_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / statistics.median(values)


# -- self time --------------------------------------------------------------
def test_self_time_on_a_nested_concurrent_tree_is_exact():
    # (id, parent, name, start, end, thread, n)
    spans = [
        (1, 0, "bench.op.query", 0.0, 10.0, 1, 0),
        (2, 1, "a", 1.0, 4.0, 1, 0),  # child on the caller's thread
        (3, 1, "b", 3.0, 7.0, 2, 0),  # worker, overlapping a on [3, 4]
        (4, 2, "a.inner", 2.0, 3.0, 1, 0),
        (5, 0, "bench.op.ack", 20.0, 21.0, 1, 0),  # a second, childless root
    ]
    selfs, overlap = trace.self_times(spans)
    assert selfs == {1: 4.0, 2: 2.0, 3: 4.0, 4: 1.0, 5: 1.0}
    assert overlap == 1.0
    assert trace.root_of(spans) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 5}
    # Σ self = Σ root duration + the second the two siblings overlapped.
    assert sum(selfs.values()) == (10.0 + 1.0) + overlap
    assert trace.reconcile(spans) == 0.0


def test_recorder_nests_spans_across_threads():
    import threading

    recorder = trace.SpanRecorder()
    recorder.active = True
    inner = recorder.wrap("layer.inner", lambda: None)

    def worker(parent):
        with recorder.attach(parent):
            inner()

    with recorder.op("query"):
        outer = recorder.current()
        inner()
        t = threading.Thread(target=worker, args=(outer,))
        t.start()
        t.join()
    by_name = {}
    for sid, parent, name, *_ in recorder.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (root_id, root_parent), = by_name["bench.op.query"]
    assert root_parent == 0 and recorder.ops == {root_id: "query"}
    assert [p for _, p in by_name["layer.inner"]] == [root_id, root_id]
    assert len({s[5] for s in recorder.spans if s[2] == "layer.inner"}) == 2
