"""Tests for the repro.chaos crash-fault harness.

Covers the crash-point registry (and its one-to-one sync with
docs/protocol.md), the exhaustive per-mutation crash matrices for
index/compact/vacuum, the seeded protocol fuzzer, the `repro chaos`
CLI subcommand, and two guard rails that ride along: FaultRule's
case-insensitive op matching and docstring presence in the
crash-safety-critical modules.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.chaos import (
    CRASH_POINTS,
    MUTATING_VERBS,
    ChaosConfig,
    ProtocolFuzzer,
    classify_crash_point,
    crash_matrix,
    run_chaos,
)
from repro.chaos.fuzzer import HINT_PERTURBATIONS
from repro.cli import main
from repro.core.client import RottnestClient
from repro.core.maintenance import compact_indices, vacuum_indices
from repro.errors import InjectedFault, SimulatedCrash
from repro.lake.log import TransactionLog
from repro.lake.table import LakeTable, TableConfig
from repro.maintain import MaintenancePipeline
from repro.storage.faults import FaultRule, FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

from tests.conftest import EVENT_SCHEMA, event_batch

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------
# crash-point registry
# ---------------------------------------------------------------------
class TestCrashPoints:
    def test_registry_names_are_well_formed(self):
        for name in CRASH_POINTS:
            verb, _, boundary = name.partition(":")
            assert verb in MUTATING_VERBS
            assert boundary and re.fullmatch(r"[a-z-]+", boundary)

    @pytest.mark.parametrize(
        ("verb", "op", "key", "expected"),
        [
            ("index", "PUT", "idx/e/files/ab12.index", "index:put-index-file"),
            ("compact", "PUT", "idx/e/files/ab12.index", "compact:put-merged-index"),
            ("index", "PUT", "idx/e/_meta/000003.json", "index:put-meta-commit"),
            ("compact", "PUT", "idx/e/_meta/000003.json", "compact:put-meta-commit"),
            ("vacuum", "PUT", "idx/e/_meta/000003.json", "vacuum:put-meta-commit"),
            (
                "vacuum",
                "PUT",
                "idx/e/_meta_checkpoints/000004.json",
                "vacuum:put-meta-checkpoint",
            ),
            ("vacuum", "DELETE", "idx/e/files/ab12.index", "vacuum:delete-index-file"),
            # ops arrive in whatever case the store layer used
            ("index", "put", "idx/e/files/ab12.index", "index:put-index-file"),
        ],
    )
    def test_classify(self, verb, op, key, expected):
        assert classify_crash_point(verb, op, key) == expected
        assert expected in CRASH_POINTS

    def test_unknown_boundary_is_not_in_registry(self):
        name = classify_crash_point("index", "PUT", "idx/e/elsewhere.bin")
        assert name == "index:unclassified-put"
        assert name not in CRASH_POINTS

    def test_docs_crash_matrix_matches_registry_one_to_one(self):
        """docs/protocol.md and CRASH_POINTS must name the same points."""
        text = (REPO_ROOT / "docs" / "protocol.md").read_text()
        documented = set(
            re.findall(
                r"`((?:index|compact|vacuum|ingest|drain|crack|obs):[a-z-]+)`",
                text,
            )
        )
        assert documented == set(CRASH_POINTS)


# ---------------------------------------------------------------------
# guard rails riding along with the harness
# ---------------------------------------------------------------------
class TestFaultRuleMatching:
    def test_op_matching_is_case_insensitive(self):
        """Regression: a lowercase op must arm a rule that actually
        fires (historically ``fail_next("put", …)`` matched nothing)."""
        store = FaultyObjectStore(InMemoryObjectStore())
        store.fail_next("put", "some/")
        with pytest.raises(InjectedFault):
            store.put("some/key", b"x")
        store.put("some/key", b"x")  # one-shot rule already consumed

    def test_mixed_case_op_from_caller_side(self):
        rule = FaultRule(op="PUT")
        assert rule.matches("put", "k")

    def test_crash_after_rejects_read_ops(self):
        with pytest.raises(ValueError):
            FaultRule(op="GET", mode="crash_after")

    def test_crash_after_leaves_mutation_durable(self):
        store = FaultyObjectStore(InMemoryObjectStore())
        store.crash_after("PUT")
        with pytest.raises(SimulatedCrash) as exc_info:
            store.put("a/key", b"payload")
        assert store.inner.get("a/key") == b"payload"
        assert exc_info.value.op == "PUT"
        assert exc_info.value.key == "a/key"


DOCSTRING_ENFORCED_MODULES = (
    "src/repro/core/maintenance.py",
    "src/repro/core/fsck.py",
    "src/repro/storage/__init__.py",
    "src/repro/storage/costs.py",
    "src/repro/storage/faults.py",
    "src/repro/storage/latency.py",
    "src/repro/storage/localfs.py",
    "src/repro/storage/object_store.py",
    "src/repro/storage/pool.py",
    "src/repro/storage/retry.py",
    "src/repro/storage/sched.py",
    "src/repro/storage/stats.py",
)


class TestDocstringPresence:
    """Mirror of the ruff ``D1`` gate in pyproject.toml.

    CI runs ruff, but this repo must keep the property checkable with
    the test suite alone: every public (and dunder) class/function in
    the crash-safety-critical modules carries a docstring, because
    those docstrings *are* the protocol's §IV-D correctness argument.
    """

    @pytest.mark.parametrize("rel_path", DOCSTRING_ENFORCED_MODULES)
    def test_module_is_fully_docstringed(self, rel_path):
        tree = ast.parse((REPO_ROOT / rel_path).read_text())
        assert ast.get_docstring(tree), f"{rel_path}: missing module docstring"
        missing = []
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            private = name.startswith("_") and not (
                name.startswith("__") and name.endswith("__")
            )
            if private:
                continue
            if not ast.get_docstring(node):
                missing.append(name)
        assert not missing, f"{rel_path}: missing docstrings on {missing}"


# ---------------------------------------------------------------------
# exhaustive crash matrices (the resumability acceptance criterion)
# ---------------------------------------------------------------------
def _make_client(store) -> RottnestClient:
    client = RottnestClient(
        store, "idx/events", LakeTable.open(store, "lake/events")
    )
    # Checkpoint on every commit so the *:put-meta-checkpoint crash
    # points are part of every matrix, not a 1-in-10 accident.
    client.meta.checkpoint_interval = 1
    return client


def _base_lake(batches: int = 2, rows: int = 120):
    """A lake with ``batches`` appended+trie-indexed files."""
    clock = SimClock(start=1_000_000.0)
    store = InMemoryObjectStore(clock=clock)
    lake = LakeTable.create(
        store,
        "lake/events",
        EVENT_SCHEMA,
        TableConfig(row_group_rows=200, page_target_bytes=2048),
    )
    for i in range(batches):
        lake.append(event_batch(rows, seed=i + 1))
        _make_client(store).index("uuid", "uuid_trie")
    return clock, store


class TestCrashMatrices:
    def test_index_every_crash_point_recoverable(self):
        clock, store = _base_lake(batches=1)
        LakeTable.open(store, "lake/events").append(event_batch(120, seed=9))
        matrix = crash_matrix(
            store,
            _make_client,
            "index",
            lambda c: c.index("uuid", "uuid_trie"),
            compare="coverage",  # index keys are salted; compare logically
        )
        assert matrix.mutations >= 2  # index file + commit (+ checkpoint)
        assert matrix.all_recoverable, matrix.describe()
        assert matrix.crash_points() <= set(CRASH_POINTS)
        assert "index:put-index-file" in matrix.crash_points()
        assert "index:put-meta-commit" in matrix.crash_points()

    def test_compact_every_crash_point_byte_identical(self):
        clock, store = _base_lake(batches=2)
        matrix = crash_matrix(
            store,
            _make_client,
            "compact",
            lambda c: compact_indices(c, "uuid", "uuid_trie"),
            compare="bytes",
        )
        assert matrix.mutations >= 2  # merged file + commit (+ checkpoint)
        assert matrix.all_recoverable, matrix.describe()
        assert matrix.crash_points() <= set(CRASH_POINTS)
        assert "compact:put-merged-index" in matrix.crash_points()
        assert "compact:put-meta-commit" in matrix.crash_points()
        assert "compact:put-meta-checkpoint" in matrix.crash_points()

    def test_vacuum_every_crash_point_byte_identical(self):
        clock, store = _base_lake(batches=2)
        compact_indices(_make_client(store), "uuid", "uuid_trie")
        clock.advance(7200.0)  # age superseded files past the timeout
        snapshot_id = LakeTable.open(store, "lake/events").latest_version()
        matrix = crash_matrix(
            store,
            _make_client,
            "vacuum",
            lambda c: vacuum_indices(c, snapshot_id=snapshot_id),
            compare="bytes",
        )
        # commit (+ checkpoint) + two physical deletions
        assert matrix.mutations >= 3
        assert matrix.all_recoverable, matrix.describe()
        assert matrix.crash_points() <= set(CRASH_POINTS)
        assert "vacuum:put-meta-commit" in matrix.crash_points()
        assert "vacuum:delete-index-file" in matrix.crash_points()

    def test_matrix_describe_reports_outcomes(self):
        clock, store = _base_lake(batches=2)
        matrix = crash_matrix(
            store,
            _make_client,
            "compact",
            lambda c: compact_indices(c, "uuid", "uuid_trie"),
            compare="bytes",
        )
        text = matrix.describe()
        assert "all recoverable" in text
        assert "compact:put-meta-commit" in text

    def test_rejects_unknown_compare_mode(self):
        clock, store = _base_lake(batches=1)
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            crash_matrix(
                store,
                _make_client,
                "index",
                lambda c: c.index("uuid", "uuid_trie"),
                compare="fuzzy",
            )


# ---------------------------------------------------------------------
# parallel maintenance: same crash points, same recoveries
# ---------------------------------------------------------------------
def _parallel(client, verb, *args, **kwargs):
    """One pipeline verb at four workers."""
    with MaintenancePipeline(client, workers=4) as pipe:
        return getattr(pipe, verb)(*args, **kwargs)


class TestParallelCrashMatrices:
    """The worker-pool paths must be crash-safe at every boundary the
    serial paths have — and at no boundary the registry doesn't know
    (see docs/protocol.md, "Parallel maintenance adds no new crash
    points")."""

    def test_parallel_index_every_crash_point_recoverable(self):
        clock, store = _base_lake(batches=1)
        LakeTable.open(store, "lake/events").append(event_batch(120, seed=9))
        matrix = crash_matrix(
            store,
            _make_client,
            "index",
            lambda c: _parallel(c, "index", "uuid", "uuid_trie"),
            compare="coverage",
        )
        assert matrix.mutations >= 2
        assert matrix.all_recoverable, matrix.describe()
        # Fanning the extraction reads changed no mutation boundary.
        assert matrix.crash_points() <= set(CRASH_POINTS)
        assert "index:put-index-file" in matrix.crash_points()
        assert "index:put-meta-commit" in matrix.crash_points()

    def test_parallel_compact_every_crash_point_byte_identical(self):
        clock, store = _base_lake(batches=4)
        # A small packing target splits the four per-file indices into
        # two merge groups, so merged-index PUTs really do race across
        # workers instead of collapsing into one task.
        target = 2 * max(
            r.size for r in _make_client(store).meta.records()
        ) + 1
        matrix = crash_matrix(
            store,
            _make_client,
            "compact",
            lambda c: _parallel(
                c, "compact", "uuid", "uuid_trie", target_bytes=target
            ),
            compare="bytes",
        )
        assert matrix.mutations >= 3  # two merged uploads + commit
        assert matrix.all_recoverable, matrix.describe()
        assert matrix.crash_points() <= set(CRASH_POINTS)
        assert "compact:put-merged-index" in matrix.crash_points()
        assert "compact:put-meta-commit" in matrix.crash_points()

    def test_worker_crash_propagates_and_orphans_recover(self):
        """A crash inside one compactor worker kills the whole run
        before the commit; sibling uploads already in flight are
        content-addressed orphans a plain re-run converges over."""
        from repro.chaos.harness import _logical_state

        clock, store = _base_lake(batches=4)
        target = 2 * max(
            r.size for r in _make_client(store).meta.records()
        ) + 1

        reference = store.clone()
        compact_indices(
            _make_client(reference), "uuid", "uuid_trie", target_bytes=target
        )

        wrecked = store.clone()
        faulty = FaultyObjectStore(wrecked)
        faulty.crash_after("PUT", "/files/")  # first merged-index upload
        with pytest.raises(SimulatedCrash):
            _parallel(
                _make_client(faulty),
                "compact",
                "uuid",
                "uuid_trie",
                target_bytes=target,
            )
        # No commit happened: searches still plan the small indices.
        crashed_meta = _make_client(wrecked).meta.records()
        base_meta = _make_client(store.clone()).meta.records()
        assert crashed_meta == base_meta

        # Recovery is the operation itself, serial and fault-free.
        compact_indices(
            _make_client(wrecked), "uuid", "uuid_trie", target_bytes=target
        )
        assert _logical_state(wrecked) == _logical_state(reference)


# ---------------------------------------------------------------------
# the randomized fuzzer
# ---------------------------------------------------------------------
class TestProtocolFuzzer:
    def test_clean_seeded_run(self):
        report = run_chaos(ChaosConfig(ops=120, seed=1))
        assert report.ok, report.describe()
        assert report.steps == 120
        assert report.searches_checked > 0
        assert set(report.crashes) <= set(CRASH_POINTS)
        assert "OK" in report.describe()

    def test_same_seed_same_history(self):
        a = ProtocolFuzzer(ChaosConfig(ops=80, seed=3)).run()
        b = ProtocolFuzzer(ChaosConfig(ops=80, seed=3)).run()
        assert a.actions == b.actions
        assert a.crashes == b.crashes
        assert a.recoveries == b.recoveries
        assert a.searches_checked == b.searches_checked
        assert a.degraded_queries == b.degraded_queries

    def test_same_seed_same_store(self):
        """Data-file and deletion-vector names come from a seeded
        entropy stream, so one seed leaves the same keys and bytes."""
        a = ProtocolFuzzer(ChaosConfig(ops=80, seed=3))
        b = ProtocolFuzzer(ChaosConfig(ops=80, seed=3))
        a.run()
        b.run()
        assert a.store.keys() == b.store.keys()
        assert a.store.dump() == b.store.dump()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_hint_perturbations_change_no_answer(self, seed):
        """Every kind of wrong hint, on fixed seeds: after each one both
        logs' tips equal a full replay, the invariants hold and a search
        matches the oracle; crashes next to the hint PUT are
        registered points."""
        report = run_chaos(ChaosConfig(ops=150, seed=seed))
        assert report.ok, report.describe()
        assert set(report.hints) == set(HINT_PERTURBATIONS)
        assert any(point.endswith("-hint") for point in report.crashes)
        assert set(report.crashes) <= set(CRASH_POINTS)

    def test_a_reader_trusting_a_stale_hint_is_caught(self, monkeypatch):
        """Break the probe (every next version 'missing') and the first
        stale or regressed hint must surface as a violation."""
        monkeypatch.setattr(TransactionLog, "_exists", lambda self, version: False)
        report = run_chaos(ChaosConfig(ops=150, seed=0))
        assert not report.ok
        assert report.violations[0].action in ("hint-stale", "hint-regress")

    def test_report_carries_replay_command(self):
        config = ChaosConfig(ops=10, seed=42)
        report = run_chaos(config)
        assert "--ops 10" in report.replay_command()
        assert "--seed 42" in report.replay_command()

    def test_detects_planted_invariant_violation(self):
        """A fuzzer that can't fail is no fuzzer: delete a live index
        file behind the protocol's back and the next audit must object."""
        fuzzer = ProtocolFuzzer(ChaosConfig(ops=0, seed=0))
        # Seed some indexed state by hand, then vandalize it; with zero
        # protocol steps the run reduces to its final invariant audit.
        fuzzer._append()
        fuzzer._fresh_client().index("uuid", "uuid_trie")
        victim = fuzzer._fresh_client().meta.records()[0].index_key
        fuzzer.store.delete(victim)
        report = fuzzer.run()
        assert not report.ok
        assert any(
            "invariant" in v.detail.lower() for v in report.violations
        ) or not report.final_invariants_ok
        assert "replay with:" in report.describe()


class TestChaosCli:
    def test_chaos_subcommand_clean_exit(self, capsys):
        assert main(["chaos", "--ops", "60", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "chaos run" in out
        assert "OK" in out

    def test_chaos_subcommand_fast_mode(self, capsys):
        assert main(["chaos", "--ops", "40", "--seed", "2", "--fast"]) == 0


class TestCrashTimeline:
    def test_crash_event_is_marked_on_rendered_timeline(self):
        """The doomed run's timeline must make the crash boundary loud."""
        from repro.obs.export import render_timeline
        from repro.obs.trace import Tracer, use_tracer

        store = FaultyObjectStore(InMemoryObjectStore())
        store.crash_after("PUT")
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(SimulatedCrash):
                with tracer.span("doomed"):
                    store.put("idx/files/x.index", b"v")
        root = tracer.last_root("doomed")
        assert root is not None
        assert "‼ CRASH PUT idx/files/x.index" in render_timeline(root)
