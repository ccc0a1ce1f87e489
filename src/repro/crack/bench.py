"""Cracked-vs-eager-vs-lazy benchmark on a Zipf-skewed workload.

One seeded run builds the same lake three times and plays the same
Zipf(:math:`s`) query trace against three deployments:

* **eager** — index every file up front (the paper's §IV default);
* **lazy** — never index, every query brute-forces;
* **cracked** — a :class:`~repro.crack.controller.CrackController`
  watches the span stream and indexes only what gets hot.

Measured: total index-build IO (bytes read + written by maintenance)
and the modeled p50 latency of *hot* queries after the controller has
converged. The acceptance shape is the cracking bet itself: cracked
must spend **no more build IO than eager** (it skips the cold tail)
while serving hot queries **within a small factor of fully-eager**
(and far ahead of lazy). Everything runs on a sim clock from one seed,
so the regression gate can pin the numbers.

Shared by ``benchmarks/bench_cracking.py`` (persists
``BENCH_cracking.json``) and the ``repro crack-bench`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.client import RottnestClient
from repro.core.daemon import MaintenanceDaemon
from repro.core.queries import UuidQuery
from repro.crack.controller import CrackController
from repro.crack.heat import HeatMap
from repro.crack.policy import CrackingPolicy
from repro.errors import CrackError
from repro.formats.schema import ColumnType, Field as SchemaField, Schema
from repro.lake.table import LakeTable, TableConfig, seeded_entropy
from repro.obs.trace import Tracer, use_tracer
from repro.shard.bench import percentile
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads.uuids import UuidWorkload

SCHEMA = Schema.of(SchemaField("uuid", ColumnType.BINARY))
LAKE_ROOT = "lake/crack-bench"
INDEX_DIR = "idx/crack-bench"
COLUMN = "uuid"
INDEX_TYPE = "uuid_trie"


@dataclass
class CrackBenchResult:
    """IO and latency numbers for one three-way deployment comparison."""

    files: int
    rows: int
    ticks: int
    queries_per_tick: int
    zipf_s: float
    seed: int
    p50_budget_ratio: float
    hot_k: int = 0
    eager_index_io: int = 0
    cracked_index_io: int = 0
    eager_hot_p50_ms: float = 0.0
    cracked_hot_p50_ms: float = 0.0
    lazy_hot_p50_ms: float = 0.0
    cracked_indexed_files: int = 0
    cold_files: int = 0
    hot_coverage: float = 0.0
    ticks_to_cover: int = -1

    # -- derived -------------------------------------------------------
    @property
    def io_ratio(self) -> float:
        """Cracked build IO as a fraction of eager's."""
        return (
            self.cracked_index_io / self.eager_index_io
            if self.eager_index_io
            else 0.0
        )

    @property
    def hot_p50_ratio(self) -> float:
        """Cracked hot-query p50 as a multiple of eager's."""
        return (
            self.cracked_hot_p50_ms / self.eager_hot_p50_ms
            if self.eager_hot_p50_ms
            else 0.0
        )

    @property
    def ok(self) -> bool:
        """The cracking bet, as a gate: less build IO than eager, hot
        queries nearly as fast as eager and faster than lazy, the hot
        set fully covered, and at least one cold file left alone."""
        return (
            self.cracked_index_io <= self.eager_index_io
            and self.cracked_hot_p50_ms
            <= self.p50_budget_ratio * self.eager_hot_p50_ms
            and self.cracked_hot_p50_ms < self.lazy_hot_p50_ms
            and self.hot_coverage == 1.0
            and self.cold_files >= 1
        )

    def describe(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"crack-bench: {self.files} files x {self.rows} rows, "
            f"Zipf({self.zipf_s:g}) trace, {self.ticks} ticks x "
            f"{self.queries_per_tick} queries (seed {self.seed})",
            f"  index IO:  eager {self.eager_index_io} B  "
            f"cracked {self.cracked_index_io} B  "
            f"(ratio {self.io_ratio:.2f})",
            f"  hot p50:   eager {self.eager_hot_p50_ms:.1f} ms  "
            f"cracked {self.cracked_hot_p50_ms:.1f} ms  "
            f"lazy {self.lazy_hot_p50_ms:.1f} ms  "
            f"(cracked/eager {self.hot_p50_ratio:.2f}, "
            f"budget {self.p50_budget_ratio:g})",
            f"  coverage:  top-{self.hot_k} hot files "
            f"{self.hot_coverage:.0%} covered "
            f"(by tick {self.ticks_to_cover}); "
            f"{self.cracked_indexed_files}/{self.files} files indexed, "
            f"{self.cold_files} left brute-force",
            f"  gate: {'ok' if self.ok else 'MISSED'}",
        ]
        return "\n".join(lines)


def zipf_probabilities(n: int, s: float) -> np.ndarray:
    """Zipf(s) probabilities over ranks 0..n-1 (rank 0 hottest)."""
    weights = (np.arange(1, n + 1, dtype=np.float64)) ** (-s)
    return weights / weights.sum()


def _deployment(seed: int, files: int, rows: int):
    """One fresh simulated lake, identical for a given seed: file names
    and index keys too, so its byte counts are."""
    clock = SimClock(start=1_000_000.0)
    store = InMemoryObjectStore(clock=clock)
    lake = LakeTable.create(
        store,
        LAKE_ROOT,
        SCHEMA,
        TableConfig(row_group_rows=16, page_target_bytes=2048),
        entropy=seeded_entropy(seed),
    )
    gen = UuidWorkload(seed=seed)
    batches = [gen.batch(rows) for _ in range(files)]
    for batch in batches:
        lake.append({COLUMN: batch})
    client = RottnestClient(store, INDEX_DIR, lake)
    return clock, store, client, batches


def _hot_p50_ms(client, probes: list[bytes]) -> float:
    """Modeled p50 latency over a batch of hot-key probes."""
    ms = []
    for key in probes:
        res = client.search(COLUMN, UuidQuery(key), k=1)
        ms.append(res.stats.estimated_latency() * 1000)
    return percentile(ms, 0.5)


def run_crack_bench(
    *,
    files: int = 8,
    rows: int = 200,
    ticks: int = 8,
    queries_per_tick: int = 10,
    zipf_s: float = 1.1,
    tick_interval_s: float = 600.0,
    hotness_floor: float = 6.0,
    hot_probes: int = 20,
    p50_budget_ratio: float = 1.3,
    seed: int = 23,
) -> CrackBenchResult:
    """Play one Zipf trace against eager, lazy, and cracked deployments.

    The trace is ``ticks x queries_per_tick`` point lookups whose
    target file follows Zipf(``zipf_s``) over append order (file 0
    hottest). The cracked deployment searches under a sim-clock tracer,
    folds the finished spans into the controller's heat map, and ticks
    once per interval; eager pays its full build up front; lazy never
    builds. Afterwards every deployment serves the same ``hot_probes``
    keys drawn from the top-``files // 4`` hot files, which is where
    the p50s come from.
    """
    if min(files, rows, ticks, queries_per_tick) <= 0:
        raise CrackError("nothing to benchmark (empty input)")
    result = CrackBenchResult(
        files=files,
        rows=rows,
        ticks=ticks,
        queries_per_tick=queries_per_tick,
        zipf_s=zipf_s,
        seed=seed,
        p50_budget_ratio=p50_budget_ratio,
        hot_k=max(1, files // 4),
    )
    rng = np.random.default_rng(seed)
    probs = zipf_probabilities(files, zipf_s)
    trace = [
        [
            (int(rng.choice(files, p=probs)), int(rng.integers(rows)))
            for _ in range(queries_per_tick)
        ]
        for _ in range(ticks)
    ]
    hot_ranks = list(range(result.hot_k))
    hot_probs = probs[hot_ranks] / probs[hot_ranks].sum()
    probe_picks = [
        (int(rng.choice(result.hot_k, p=hot_probs)), int(rng.integers(rows)))
        for _ in range(max(1, hot_probes))
    ]

    # -- eager: one full build up front --------------------------------
    clock, store, client, batches = _deployment(seed, files, rows)
    before = store.stats.snapshot()
    client.index(COLUMN, INDEX_TYPE)
    result.eager_index_io = _io_bytes(store, before)
    for tick in trace:
        for fi, ri in tick:
            client.search(COLUMN, UuidQuery(batches[fi][ri]), k=1)
        clock.advance(tick_interval_s)
    probes = [batches[fi][ri] for fi, ri in probe_picks]
    result.eager_hot_p50_ms = _hot_p50_ms(client, probes)

    # -- lazy: never build ---------------------------------------------
    clock, store, client, batches = _deployment(seed, files, rows)
    for tick in trace:
        for fi, ri in tick:
            client.search(COLUMN, UuidQuery(batches[fi][ri]), k=1)
        clock.advance(tick_interval_s)
    result.lazy_hot_p50_ms = _hot_p50_ms(client, probes)

    # -- cracked: the controller closes the loop -----------------------
    clock, store, client, batches = _deployment(seed, files, rows)
    hot_paths = {
        client.lake.snapshot().files[rank].path for rank in hot_ranks
    }
    controller = CrackController(
        client,
        cracking=CrackingPolicy(hotness_floor=hotness_floor),
        heat=HeatMap(half_life_s=tick_interval_s),
    )
    tracer = Tracer(clock=clock)
    with use_tracer(tracer), MaintenanceDaemon(
        client, [(COLUMN, INDEX_TYPE)], policy=controller
    ) as daemon:
        for tick_no, tick in enumerate(trace):
            for fi, ri in tick:
                client.search(COLUMN, UuidQuery(batches[fi][ri]), k=1)
            controller.observe_tracer(tracer)
            before = store.stats.snapshot()
            daemon.tick()
            result.cracked_index_io += _io_bytes(store, before)
            if result.ticks_to_cover < 0:
                covered = client.meta.indexed_files(COLUMN, INDEX_TYPE)
                if hot_paths <= set(covered):
                    result.ticks_to_cover = tick_no + 1
            clock.advance(tick_interval_s)
    covered = set(client.meta.indexed_files(COLUMN, INDEX_TYPE))
    result.cracked_indexed_files = len(covered)
    result.cold_files = files - len(covered)
    result.hot_coverage = len(hot_paths & covered) / len(hot_paths)
    result.cracked_hot_p50_ms = _hot_p50_ms(client, probes)
    return result


def _io_bytes(store, before) -> int:
    """Bytes moved (read + written) since ``before`` was snapshotted."""
    delta = store.stats.delta(before)
    return delta.bytes_read + delta.bytes_written
