"""Closed-loop cracking simulation: observe -> rank -> act, under oracle.

The headline harness for ISSUE 9: a seeded Zipf trace replays against a
:class:`~repro.crack.controller.CrackController` on a sim clock, with
every search running under a tracer whose finished spans are the only
signal the controller sees. After every tick the suite re-asks the
tick's queries both ways — through whatever indices exist *right now*
and with ``use_indices=False`` — so "results match the brute-force
oracle mid-crack" is checked at every intermediate lake state, not just
at convergence. The other pinned properties, per seed:

* the top-``hot_k`` Zipf files are fully covered within a bounded
  number of ticks;
* total live index bytes stay under a fraction of the eager twin's
  (the cold tail is never built);
* at least one cold file is never indexed at all;
* a controller restarted mid-run with an *empty* heat map re-learns
  the workload and converges to the same coverage without re-doing
  committed work (the heat map is a hint, not durable state).

Everything is deterministic given the seed; a companion test pins two
identical runs to identical coverage trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import RottnestClient
from repro.core.daemon import MaintenanceDaemon
from repro.core.maintenance import covering_records
from repro.core.queries import UuidQuery, VectorQuery
from repro.crack import (
    CrackController,
    CrackingPolicy,
    HeatMap,
)
from repro.formats.schema import ColumnType, Field as SchemaField, Schema
from repro.lake.table import LakeTable, TableConfig
from repro.obs.trace import Tracer, use_tracer
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads.uuids import UuidWorkload

from tests.conftest import EVENT_SCHEMA, event_batch

SCHEMA = Schema.of(SchemaField("uuid", ColumnType.BINARY))
COLUMN = "uuid"
INDEX_TYPE = "uuid_trie"
FILES = 12
ROWS = 40
TICKS = 10
QUERIES_PER_TICK = 12
ZIPF_S = 1.1
TICK_INTERVAL_S = 600.0
SEEDS = [7, 23, 101]


def _deployment(seed: int):
    clock = SimClock(start=1_000_000.0)
    store = InMemoryObjectStore(clock=clock)
    lake = LakeTable.create(
        store,
        "lake/sim",
        SCHEMA,
        TableConfig(row_group_rows=16, page_target_bytes=2048),
    )
    gen = UuidWorkload(seed=seed)
    batches = [gen.batch(ROWS) for _ in range(FILES)]
    for batch in batches:
        lake.append({COLUMN: batch})
    client = RottnestClient(store, "idx/sim", lake)
    return clock, store, client, batches


def _trace(seed: int) -> list[list[tuple[int, int]]]:
    rng = np.random.default_rng(seed)
    weights = np.arange(1, FILES + 1, dtype=np.float64) ** (-ZIPF_S)
    probs = weights / weights.sum()
    return [
        [
            (int(rng.choice(FILES, p=probs)), int(rng.integers(ROWS)))
            for _ in range(QUERIES_PER_TICK)
        ]
        for _ in range(TICKS)
    ]


def _controller(
    client: RottnestClient,
) -> tuple[CrackController, MaintenanceDaemon]:
    controller = CrackController(
        client,
        cracking=CrackingPolicy(hotness_floor=6.0),
        heat=HeatMap(half_life_s=TICK_INTERVAL_S),
    )
    return controller, MaintenanceDaemon(
        client, [(COLUMN, INDEX_TYPE)], policy=controller
    )


def _live_index_bytes(client: RottnestClient) -> int:
    return sum(
        r.size for r in covering_records(client, COLUMN, INDEX_TYPE)
    )


def _rowset(matches):
    return {(m.file, m.row) for m in matches}


def _run(seed: int, *, restart_at: int | None = None):
    """One closed-loop run; returns (client, covered_by_tick list)."""
    clock, store, client, batches = _deployment(seed)
    controller, daemon = _controller(client)
    tracer = Tracer(clock=clock)
    hot_k = max(1, FILES // 4)
    hot_paths = {
        client.lake.snapshot().files[rank].path for rank in range(hot_k)
    }
    covered_by_tick = []
    for tick_no, tick in enumerate(_trace(seed)):
        if restart_at is not None and tick_no == restart_at:
            # Process death: the heat map is gone, the store is not.
            controller, daemon = _controller(client)
        asked = []
        with use_tracer(tracer):
            for fi, ri in tick:
                key = batches[fi][ri]
                res = client.search(COLUMN, UuidQuery(key), k=1)
                asked.append((key, _rowset(res.matches)))
        controller.observe(tracer.pop_finished())
        daemon.tick()
        # Oracle check mid-crack: the lake's index state just changed
        # under the workload's feet; both the answers captured before
        # the tick and the answers through the fresh indices must equal
        # the brute-force truth.
        for key, seen in asked:
            oracle = client.search(
                COLUMN, UuidQuery(key), k=1, use_indices=False
            )
            indexed = client.search(COLUMN, UuidQuery(key), k=1)
            assert _rowset(oracle.matches) == seen
            assert _rowset(indexed.matches) == _rowset(oracle.matches)
        covered = set(client.meta.indexed_files(COLUMN, INDEX_TYPE))
        covered_by_tick.append(frozenset(covered))
        clock.advance(TICK_INTERVAL_S)
    return client, hot_paths, covered_by_tick


@pytest.mark.parametrize("seed", SEEDS)
class TestCrackSimulation:
    def test_converges_on_the_hot_set_and_skips_the_cold_tail(self, seed):
        client, hot_paths, covered_by_tick = _run(seed)
        cover_tick = next(
            (
                i
                for i, covered in enumerate(covered_by_tick)
                if hot_paths <= covered
            ),
            None,
        )
        assert cover_tick is not None, "hot set never fully covered"
        assert cover_tick < TICKS // 2, (
            f"hot-set coverage took {cover_tick + 1} ticks"
        )
        # Coverage is monotone: the controller never un-indexes.
        for earlier, later in zip(covered_by_tick, covered_by_tick[1:]):
            assert earlier <= later
        # The cold tail stays brute-force.
        all_paths = {f.path for f in client.lake.snapshot().files}
        assert len(all_paths - covered_by_tick[-1]) >= 1

    def test_spends_a_fraction_of_eager_index_bytes(self, seed):
        client, _, _ = _run(seed)
        cracked_bytes = _live_index_bytes(client)
        _, _, eager_client, _ = _deployment(seed)
        eager_client.index(COLUMN, INDEX_TYPE)
        eager_bytes = _live_index_bytes(eager_client)
        assert 0 < cracked_bytes <= 0.8 * eager_bytes

    def test_restart_with_empty_heat_map_still_converges(self, seed):
        client, hot_paths, covered_by_tick = _run(
            seed, restart_at=TICKS // 2
        )
        assert hot_paths <= covered_by_tick[-1]
        # Re-learning must not redo committed work: every covered file
        # is covered by exactly one live record's file set.
        cover = covering_records(client, COLUMN, INDEX_TYPE)
        counts: dict[str, int] = {}
        for record in cover:
            for path in record.covered_files:
                counts[path] = counts.get(path, 0) + 1
        assert counts and set(counts.values()) == {1}

    def test_same_seed_replays_identically(self, seed):
        # Physical file names carry fresh entropy per deployment, so
        # compare coverage by append rank, which is seed-stable.
        def ranks(client, covered_by_tick):
            order = {
                f.path: i
                for i, f in enumerate(client.lake.snapshot().files)
            }
            return [
                frozenset(order[p] for p in covered)
                for covered in covered_by_tick
            ]

        client_a, _, first = _run(seed)
        client_b, _, second = _run(seed)
        assert ranks(client_a, first) == ranks(client_b, second)


class TestCrackSimulationVectors:
    """The refinement half of the loop: probes heat cells, cells split."""

    def test_probe_driven_refinement_stays_exact(self):
        clock = SimClock(start=1_000_000.0)
        store = InMemoryObjectStore(clock=clock)
        lake = LakeTable.create(
            store,
            "lake/sim-vec",
            EVENT_SCHEMA,
            TableConfig(row_group_rows=64, page_target_bytes=4096),
        )
        lake.append(event_batch(260, seed=1))
        client = RottnestClient(store, "idx/sim-vec", lake)
        client.index("emb", "ivf_pq", params={"nlist": 4, "m": 8})
        before = covering_records(client, "emb", "ivf_pq")[0]

        controller = CrackController(
            client,
            cracking=CrackingPolicy(
                hotness_floor=0.5,
                refine_min_cell_heat=4.0,
                refine_min_cell_rows=2,
            ),
            heat=HeatMap(half_life_s=TICK_INTERVAL_S),
        )
        rng = np.random.default_rng(5)
        total = sum(f.num_rows for f in lake.snapshot().files)
        queries = [
            VectorQuery(
                rng.normal(size=16).astype(np.float32),
                nprobe=4,
                refine=total,
            )
            for _ in range(6)
        ]
        tracer = Tracer(clock=clock)
        with use_tracer(tracer):
            for q in queries:
                client.search("emb", q, k=5)
        controller.observe(tracer.pop_finished())
        daemon = MaintenanceDaemon(
            client, [("emb", "ivf_pq")], policy=controller
        )
        report = daemon.tick()
        assert report.refined, "hot probes should trigger a cell split"

        after = covering_records(client, "emb", "ivf_pq")
        assert len(after) == 1
        assert after[0].index_key != before.index_key
        # The refined file has strictly more, smaller inverted lists...
        from repro.core.index_file import IndexFileReader

        refined = IndexFileReader.open(store, after[0].index_key)
        assert refined.params["nlist"] > 4
        # ...and exhaustive probes through it still equal brute force.
        for q in queries:
            exact = VectorQuery(
                q.vector, nprobe=refined.params["nlist"], refine=total
            )
            indexed = client.search("emb", exact, k=5)
            oracle = client.search("emb", exact, k=5, use_indices=False)
            assert _rowset(indexed.matches) == _rowset(oracle.matches)
