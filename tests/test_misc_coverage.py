"""Remaining small-surface coverage: replay, checkpoints, rendering, traces."""

import pytest

from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.actions import AddFile, SetSchema
from repro.lake.log import TransactionLog
from repro.lake.snapshot import Snapshot, replay
from repro.lake.table import LAKE_LOG
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import Request, RequestTrace
from repro.tco.model import copy_data_cost
from repro.tco.phase import compute_phase_diagram
from repro.tco.render import render

SIMPLE = Schema.of(Field("x", ColumnType.INT64))


class TestLogRanges:
    @pytest.fixture
    def log(self):
        store = InMemoryObjectStore()
        log = TransactionLog(store, "lake/t", LAKE_LOG, checkpoint_interval=5)
        log.try_commit(0, [SetSchema(schema=SIMPLE)])
        for i in range(1, 5):
            log.try_commit(i, [AddFile(path=f"f{i}", num_rows=1, size=1)])
        return log

    def _full_replay(self, log, version):
        return replay(version, [log.read_version(v) for v in range(version + 1)])

    def test_empty_range(self, log):
        # A checkpointed tip has an empty tail: one checkpoint GET, no
        # log GETs, and the same state as a full replay.
        log.checkpoint(4)
        before = log.store.stats.snapshot()
        state = log.state(4)
        assert log.store.stats.snapshot().delta(before).gets == 1
        assert state == self._full_replay(log, 4)

    def test_checkpoint_roundtrip(self, log):
        snap = self._full_replay(log, 4)
        log.checkpoint(3)  # not due at interval 5: nothing written
        assert log.versions() == (4, [])
        log.checkpoint(4)
        assert log.versions() == (4, [4])
        before = log.store.stats.snapshot()
        log.checkpoint(4)  # idempotent: already present, no PUT
        assert log.store.stats.snapshot().delta(before).puts == 0
        key = f"lake/t/{LAKE_LOG.checkpoint_dir}/{4:020d}.json"
        assert LAKE_LOG.load(log.store.get(key)) == snap
        assert log.state(4) == snap
        assert log.state(3) == self._full_replay(log, 3)  # before the checkpoint


class TestReplayWithBase:
    def test_base_plus_tail(self):
        full_log = [
            [SetSchema(schema=SIMPLE)],
            [AddFile(path="a", num_rows=1, size=1)],
            [AddFile(path="b", num_rows=2, size=2)],
        ]
        base = replay(1, full_log[:2])
        via_base = replay(2, full_log[2:], base=base)
        direct = replay(2, full_log)
        assert via_base == direct


class TestTraceAlgebra:
    def test_then_flattens_empty_rounds(self):
        a = RequestTrace()
        a.record(Request("GET", "x", 1))
        a.barrier()
        b = RequestTrace()
        combined = a.then(b)
        assert combined.depth == 1
        assert combined.total_requests == 1

    def test_then_orders_rounds(self):
        a = RequestTrace()
        a.record(Request("GET", "first", 1))
        b = RequestTrace()
        b.record(Request("GET", "second", 2))
        combined = a.then(b)
        assert [r[0].key for r in combined.rounds] == ["first", "second"]
        assert combined.depth == 2

    def test_then_both_empty(self):
        combined = RequestTrace().then(RequestTrace())
        assert combined.depth == 0


class TestRenderGeometry:
    def test_dimensions(self):
        a = copy_data_cost("a", monthly=1.0)
        b = copy_data_cost("b", monthly=2.0)
        d = compute_phase_diagram([a, b], resolution=32)
        art = render(d, width=20, height=8)
        lines = art.splitlines()
        assert len(lines) == 8 + 3  # rows + footer + axis + legend
        assert all("|" in line for line in lines[:8])

    def test_deterministic(self):
        a = copy_data_cost("a", monthly=1.0)
        b = copy_data_cost("b", monthly=2.0)
        d = compute_phase_diagram([a, b])
        assert render(d) == render(d)


class TestSnapshotHelpers:
    def test_contains_and_paths(self):
        snap = replay(
            1,
            [
                [SetSchema(schema=SIMPLE)],
                [AddFile(path="p", num_rows=3, size=30)],
            ],
        )
        assert snap.contains("p")
        assert not snap.contains("q")
        assert snap.file_paths == ["p"]
        assert Snapshot.from_json(snap.to_json()) == snap
