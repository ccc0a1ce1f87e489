"""Crash matrices for the cracking controller's tick (verb ``crack``).

The controller mutates the store through exactly two idempotent verbs —
targeted indexing of hot files and IVF-PQ cell refinement — both
committing like compaction does (content-addressed upload, idempotent
metadata insert). The bar is the same as for every other mutating verb:
crash at ANY mutation boundary, re-run a fresh controller whose heat
map is rebuilt from the same observations, and the store must converge
byte-for-byte on the uninterrupted tick's state (modulo metadata
checkpoints; see the harness docstring).

The heat map itself is deliberately *not* durable state: each replay
reconstructs it inside the operation closure, which is also the
restart story — a controller that loses its memory re-learns the
workload and proposes the same work over unchanged metadata.
"""

from __future__ import annotations

import dataclasses

from repro.chaos import CRASH_POINTS, crash_matrix
from repro.core.client import RottnestClient
from repro.core.daemon import MaintenanceDaemon
from repro.core.maintenance import covering_records
from repro.crack import (
    CrackController,
    CrackingPolicy,
    HeatKey,
    HeatMap,
    cell_scope,
)
from repro.lake.table import LakeTable, TableConfig
from repro.obs.timeseries import TelemetryHub, use_hub
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

from tests.conftest import EVENT_SCHEMA, event_batch

LAKE_ROOT = "lake/events"
INDEX_DIR = "idx/events"
LAKE_CONFIG = TableConfig(
    row_group_rows=64, page_target_bytes=4096, checkpoint_interval=1
)

#: Tick tunables for the matrices: a low hotness floor (the synthetic
#: heat is weight 10 per scope), splits allowed on any 2-member cell so
#: refinement always commits, and room for both verbs in one tick.
POLICY = CrackingPolicy(
    hotness_floor=0.5, refine_min_cell_rows=2, max_actions_per_tick=4
)


def _make_client(store) -> RottnestClient:
    # Fixed key entropy: targeted/refined index keys must be
    # deterministic for a crashed-then-recovered tick to be compared
    # byte-for-byte against the uninterrupted reference.
    client = RottnestClient(
        store,
        INDEX_DIR,
        LakeTable.open(store, LAKE_ROOT, LAKE_CONFIG),
        key_entropy=lambda: b"\x00\x00\x00\x00",
    )
    client.meta.checkpoint_interval = 1
    return client


def _uuid_heat(client: RottnestClient, hot_files: int) -> HeatMap:
    """Synthetic heat: the first ``hot_files`` lake files are hot."""
    heat = HeatMap()
    now = client.store.clock.now()
    for entry in client.lake.snapshot().files[:hot_files]:
        heat.observe(
            HeatKey(entry.path, "uuid", "UuidQuery"), 10.0, at_s=now
        )
    return heat


def _cell_heat(client: RottnestClient, index_key: str) -> HeatMap:
    """Synthetic heat: every cell of ``index_key`` is probe-hot."""
    heat = HeatMap()
    now = client.store.clock.now()
    for cell in range(4):
        heat.observe(
            HeatKey(cell_scope(index_key, cell), "emb", "VectorQuery"),
            10.0,
            at_s=now,
        )
    return heat


def _tick(client: RottnestClient, targets, heat: HeatMap) -> None:
    with use_hub(TelemetryHub()), MaintenanceDaemon(
        client,
        targets,
        policy=CrackController(client, cracking=POLICY, heat=heat),
        index_params={("emb", "ivf_pq"): {"nlist": 4, "m": 8}},
    ) as daemon:
        daemon.tick()


# ---------------------------------------------------------------------
# targeted indexing: hot files only, every boundary byte-identical
# ---------------------------------------------------------------------
class TestTargetedIndexCrashMatrix:
    def _base(self):
        clock = SimClock(start=1_000_000.0)
        store = InMemoryObjectStore(clock=clock)
        lake = LakeTable.create(store, LAKE_ROOT, EVENT_SCHEMA, LAKE_CONFIG)
        for i in range(4):
            lake.append(event_batch(30, seed=i + 1))
        return clock, store

    def test_every_crash_point_byte_identical(self):
        clock, store = self._base()
        matrix = crash_matrix(
            store,
            _make_client,
            "crack",
            lambda c: _tick(c, [("uuid", "uuid_trie")], _uuid_heat(c, 2)),
            compare="bytes",
        )
        # targeted index upload + meta commit + checkpoint + hint
        assert matrix.mutations == 4
        assert matrix.all_recoverable, matrix.describe()
        assert matrix.crash_points() <= set(CRASH_POINTS)
        assert matrix.crash_points() == {
            "crack:put-index-file",
            "crack:put-meta-commit",
            "crack:put-meta-checkpoint",
            "crack:put-meta-hint",
        }

    def test_cold_files_stay_uncovered_and_rerun_is_idle(self):
        clock, store = self._base()
        client = _make_client(store)
        _tick(client, [("uuid", "uuid_trie")], _uuid_heat(client, 2))
        covered = _make_client(store).meta.indexed_files("uuid", "uuid_trie")
        snap = _make_client(store).lake.snapshot()
        assert set(covered) == {f.path for f in snap.files[:2]}
        # Idempotence: a second controller over the same heat finds the
        # hot set covered and mutates nothing.
        before = store.stats.snapshot()
        client = _make_client(store)
        _tick(client, [("uuid", "uuid_trie")], _uuid_heat(client, 2))
        delta = store.stats.snapshot().delta(before)
        assert delta.puts + delta.deletes == 0


# ---------------------------------------------------------------------
# cell refinement: rewrite-and-commit, every boundary byte-identical
# ---------------------------------------------------------------------
class TestRefineCrashMatrix:
    def _base(self):
        """A vector-indexed lake plus the committed index's key.

        The heat must address the *pre-refinement* key, captured from
        base state: a closure that re-resolved "the covering record"
        would heat the refined file after a post-commit crash and
        propose endless re-refinement instead of converging.
        """
        clock = SimClock(start=1_000_000.0)
        store = InMemoryObjectStore(clock=clock)
        lake = LakeTable.create(store, LAKE_ROOT, EVENT_SCHEMA, LAKE_CONFIG)
        lake.append(event_batch(260, seed=1))
        _make_client(store).index("emb", "ivf_pq", params={"nlist": 4, "m": 8})
        key = covering_records(_make_client(store), "emb", "ivf_pq")[
            0
        ].index_key
        return clock, store, key

    def test_every_crash_point_byte_identical(self):
        clock, store, key = self._base()
        matrix = crash_matrix(
            store,
            _make_client,
            "crack",
            lambda c: _tick(c, [("emb", "ivf_pq")], _cell_heat(c, key)),
            compare="bytes",
        )
        # refined index upload + meta commit + checkpoint + hint
        assert matrix.mutations == 4
        assert matrix.all_recoverable, matrix.describe()
        assert matrix.crash_points() == {
            "crack:put-index-file",
            "crack:put-meta-commit",
            "crack:put-meta-checkpoint",
            "crack:put-meta-hint",
        }

    def test_refinement_supersedes_in_the_cover_and_rerun_is_idle(self):
        clock, store, key = self._base()
        client = _make_client(store)
        _tick(client, [("emb", "ivf_pq")], _cell_heat(client, key))
        cover = covering_records(_make_client(store), "emb", "ivf_pq")
        assert len(cover) == 1
        assert cover[0].index_key != key  # refined file took over
        # The old key no longer covers, so the same heat plans nothing.
        before = store.stats.snapshot()
        client = _make_client(store)
        _tick(client, [("emb", "ivf_pq")], _cell_heat(client, key))
        delta = store.stats.snapshot().delta(before)
        assert delta.puts + delta.deletes == 0


# ---------------------------------------------------------------------
# one tick doing both verbs: commits interleave, still converges
# ---------------------------------------------------------------------
class TestCombinedTickCrashMatrix:
    def test_both_verbs_in_one_tick_every_boundary(self):
        clock = SimClock(start=1_000_000.0)
        store = InMemoryObjectStore(clock=clock)
        lake = LakeTable.create(store, LAKE_ROOT, EVENT_SCHEMA, LAKE_CONFIG)
        lake.append(event_batch(260, seed=1))
        lake.append(event_batch(260, seed=2))
        seed_client = _make_client(store)
        snap = seed_client.lake.snapshot()
        seed_client.index(
            "emb",
            "ivf_pq",
            snapshot=dataclasses.replace(snap, files=(snap.files[0],)),
            params={"nlist": 4, "m": 8},
        )
        key = covering_records(_make_client(store), "emb", "ivf_pq")[
            0
        ].index_key

        def operation(c: RottnestClient) -> None:
            heat = _uuid_heat(c, 1).merge(_cell_heat(c, key))
            _tick(
                c, [("uuid", "uuid_trie"), ("emb", "ivf_pq")], heat
            )

        matrix = crash_matrix(
            store, _make_client, "crack", operation, compare="bytes"
        )
        # (upload + commit + checkpoint + hint) for each of the two verbs.
        assert matrix.mutations == 8
        assert matrix.all_recoverable, matrix.describe()
        assert matrix.crash_points() == {
            "crack:put-index-file",
            "crack:put-meta-commit",
            "crack:put-meta-checkpoint",
            "crack:put-meta-hint",
        }
