"""Conformance matrix: workloads x maintenance states x parallelism.

Every cell runs the same contract: indexed search over the executor
equals the brute-force oracle (``use_indices=False`` over the same
executor) on the same lake state. The states walk the maintenance
lifecycle — unindexed, freshly indexed, half-compacted (a merged index
coexisting with newer per-file indices), and compacted-then-vacuumed —
and the whole matrix runs with both a serial and a parallel
:class:`~repro.maintain.MaintenancePipeline`, pinning that worker count
never changes *what* maintenance commits, only how fast. The cached
column serves every state through a :class:`~repro.serve.SearchServer`
whose cache keeps bytes *and* decoded index components, at budgets from
nothing kept to everything kept. The corrupt column flips one bit of
one data-page read at a time: each answer equals the oracle or raises
``FormatError``.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from typing import Callable

import numpy as np
import pytest

from repro.core.client import RottnestClient
from repro.core.index_file import IndexFileReader
from repro.core.maintenance import covering_records
from repro.core.queries import Query, SubstringQuery, UuidQuery, VectorQuery
from repro.errors import FormatError
from repro.lake.table import LakeTable, TableConfig
from repro.maintain import MaintenancePipeline
from repro.serve import SearchServer
from repro.serve.executor import SearchExecutor
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

from tests.conftest import EVENT_SCHEMA, event_batch, event_uuid


@dataclasses.dataclass(frozen=True)
class Workload:
    """One column's worth of the matrix: how to fill, index, and query."""

    name: str
    column: str
    index_type: str
    params: dict
    files: int
    rows: int
    queries: Callable[[LakeTable], list[tuple[Query, int]]]
    """Returns ``(query, k)`` pairs to run against every state."""


def _uuid_queries(lake: LakeTable) -> list[tuple[Query, int]]:
    present = [(1, 0), (2, 10), (4, 39)]
    queries = [(UuidQuery(event_uuid(s, i)), 100) for s, i in present]
    queries.append((UuidQuery(b"\x00" * 16), 100))  # absent
    return queries


def _text_queries(lake: LakeTable) -> list[tuple[Query, int]]:
    docs = lake.to_pylist("text")
    return [
        (SubstringQuery(docs[0][:8]), 10_000),
        (SubstringQuery(docs[-1][:8]), 10_000),
        (SubstringQuery("impossible-needle"), 10_000),
    ]


def _vector_queries(lake: LakeTable) -> list[tuple[Query, int]]:
    rng = np.random.default_rng(7)
    total = sum(f.num_rows for f in lake.snapshot().files)
    return [
        # Exhaustive settings (probe every list, refine everything) so
        # the ANN answer is exact and comparable to brute force.
        (VectorQuery(rng.normal(size=16).astype(np.float32), nprobe=4, refine=total), 5)
        for _ in range(2)
    ]


WORKLOADS = [
    Workload(
        name="uuids",
        column="uuid",
        index_type="uuid_trie",
        params={},
        files=4,
        rows=40,
        queries=_uuid_queries,
    ),
    Workload(
        name="text",
        column="text",
        index_type="fm",
        params={"block_size": 1024, "sample_rate": 8},
        files=4,
        rows=40,
        queries=_text_queries,
    ),
    Workload(
        name="vectors",
        column="emb",
        index_type="ivf_pq",
        params={"nlist": 4, "m": 8},
        files=3,
        rows=260,  # each per-file index call must clear ivf_pq's row floor
        queries=_vector_queries,
    ),
]


def _fresh(workload: Workload):
    store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    lake = LakeTable.create(
        store,
        "lake/events",
        EVENT_SCHEMA,
        TableConfig(row_group_rows=64, page_target_bytes=4096),
    )
    client = RottnestClient(store, "idx/events", lake)
    return store, lake, client


def _index(pipe: MaintenancePipeline, w: Workload) -> None:
    pipe.index(w.column, w.index_type, params=w.params)


# -- state recipes: how the lake reached its maintenance state ---------
def state_unindexed(w, store, lake, pipe):
    for i in range(w.files):
        lake.append(event_batch(w.rows, seed=i + 1))


def state_indexed(w, store, lake, pipe):
    for i in range(w.files):
        lake.append(event_batch(w.rows, seed=i + 1))
    _index(pipe, w)


def state_half_compacted(w, store, lake, pipe):
    """A merged index covering old files + a newer per-file index."""
    for i in range(w.files - 1):
        lake.append(event_batch(w.rows, seed=i + 1))
        _index(pipe, w)
    pipe.compact(w.column, w.index_type)
    lake.append(event_batch(w.rows, seed=w.files))
    _index(pipe, w)


def state_compacted_vacuumed(w, store, lake, pipe):
    for i in range(w.files):
        lake.append(event_batch(w.rows, seed=i + 1))
        _index(pipe, w)
    pipe.compact(w.column, w.index_type)
    store.clock.advance(7200.0)  # age superseded files past the timeout
    pipe.vacuum(snapshot_id=lake.latest_version())


def state_cracked(w, store, lake, pipe):
    """Half the lake indexed (the "hot" files), the rest brute-force.

    The mid-crack lake state the cracking controller leaves behind:
    indices cover only the files a skewed workload made hot, so every
    query plans a mixed indexed-plus-brute execution. No cell
    refinement here — the recipes must keep the vector workload's
    ``nprobe=4`` probes exhaustive for the oracle comparison.
    """
    for i in range(w.files):
        lake.append(event_batch(w.rows, seed=i + 1))
    snap = lake.snapshot()
    hot = snap.files[: max(1, len(snap.files) // 2)]
    pipe.index(
        w.column,
        w.index_type,
        snapshot=dataclasses.replace(snap, files=tuple(hot)),
        params=w.params,
    )


def state_mixed_layout(w, store, lake, pipe):
    """A trie index per file, each built as its file lands (the lake an
    index layout change once left half old, half new). This state has
    its own tests below instead of a row in ``STATES``."""
    for i in range(w.files):
        lake.append(event_batch(w.rows, seed=i + 1))
        _index(pipe, w)


STATES = {
    "unindexed": state_unindexed,
    "indexed": state_indexed,
    "half_compacted": state_half_compacted,
    "compacted_vacuumed": state_compacted_vacuumed,
    "cracked": state_cracked,
}


def _rowset(matches):
    return {(m.file, m.row) for m in matches}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_indexed_search_matches_bruteforce_oracle(workload, state, workers):
    store, lake, client = _fresh(workload)
    with MaintenancePipeline(client, workers=workers) as pipe:
        STATES[state](workload, store, lake, pipe)

    with SearchExecutor(client, max_searchers=workers) as ex:
        for query, k in workload.queries(lake):
            indexed = ex.search(workload.column, query, k=k)
            oracle = ex.search(workload.column, query, k=k, use_indices=False)
            assert _rowset(indexed.matches) == _rowset(oracle.matches), (
                f"{workload.name}/{state}/workers={workers}: "
                f"indexed != brute force for {query!r}"
            )
            if query.scoring:
                for a, b in zip(
                    sorted(indexed.matches, key=lambda m: m.score),
                    sorted(oracle.matches, key=lambda m: m.score),
                ):
                    assert a.score == pytest.approx(b.score)
            if state != "unindexed":
                assert indexed.stats.index_files_queried > 0


#: The cached column's budgets: nothing kept; the largest single decoded
#: value an unbounded cache keeps (so every value is admissible but one
#: query's values never all fit, and decoded entries are evicted and
#: rebuilt); everything kept.
CACHE_BUDGETS = ("one_byte", "evicting", "ample")


def _serve_twice(workload, store, lake, client, budget_bytes):
    """Answer every query twice (cold, then warm) through a server whose
    cache has ``budget_bytes``, each answer checked against brute force.
    Returns ``(builds per decoded value, the server's cache)``."""
    builds: collections.Counter = collections.Counter()
    with SearchServer.for_lake(
        store, client.index_dir, lake.root, cache_budget_bytes=budget_bytes,
        max_searchers=2,
    ) as server:
        cache, memo = server.client.store, server.client.store.memo

        def counting_memo(key, name, build=None):
            def counted():
                builds[key, name] += 1
                return build()

            return memo(key, name, build and counted)

        cache.memo = counting_memo
        for query, k in workload.queries(lake):
            oracle = client.search(workload.column, query, k=k, use_indices=False)
            for visit in ("cold", "warm"):
                served = server.query(workload.column, query, k=k)
                label = f"{workload.name}/{budget_bytes} bytes/{visit}: {query!r}"
                assert not served.degraded, label
                assert _rowset(served.matches) == _rowset(oracle.matches), label
                if query.scoring:
                    assert sorted(m.score for m in served.matches) == pytest.approx(
                        sorted(m.score for m in oracle.matches)
                    ), label
    return builds, cache


def _check_cached_column(workload, recipe, budget):
    store, lake, client = _fresh(workload)
    with MaintenancePipeline(client, workers=1) as pipe:
        recipe(workload, store, lake, pipe)
    budget_bytes = {"one_byte": 1, "evicting": 1 << 40, "ample": 1 << 40}[budget]
    if budget == "evicting":
        _, unbounded = _serve_twice(workload, store, lake, client, budget_bytes)
        budget_bytes = max(
            [charge for (_, part), (_, charge) in unbounded._entries.items()
             if isinstance(part, str)],
            default=1,
        )
    builds, cache = _serve_twice(workload, store, lake, client, budget_bytes)
    rebuilt = sorted(name for name, count in builds.items() if count > 1)
    if budget == "one_byte":
        assert cache.cached_bytes == 0
    elif budget == "ample":
        assert rebuilt == []  # every warm visit found its decoded values
    elif recipe is not state_unindexed:
        assert rebuilt  # decoded values were evicted and built again


@pytest.mark.parametrize("budget", CACHE_BUDGETS)
@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_cached_server_matches_bruteforce_oracle(workload, state, budget):
    _check_cached_column(workload, STATES[state], budget)


@pytest.mark.parametrize("budget", CACHE_BUDGETS)
def test_cached_server_serves_a_mixed_layout_lake(budget):
    """Per-file trie indices decode side by side."""
    _check_cached_column(WORKLOADS[0], state_mixed_layout, budget)


@pytest.mark.parametrize("workers", [1, 4])
def test_mixed_layout_lake_compacts_into_the_new_layout(workers):
    """Per-file trie indices answer side by side, and one ``compact``
    leaves one live index file."""
    w = WORKLOADS[0]
    store, lake, client = _fresh(w)

    def live_luts():
        return sorted(
            name
            for record in covering_records(client, w.column, w.index_type)
            for name in IndexFileReader.open(store, record.index_key).component_names()
            if name.startswith("lut")
        )

    def assert_oracle():
        with SearchExecutor(client, max_searchers=workers) as ex:
            for query, k in w.queries(lake):
                indexed = ex.search(w.column, query, k=k)
                oracle = ex.search(w.column, query, k=k, use_indices=False)
                assert _rowset(indexed.matches) == _rowset(oracle.matches), query
                assert indexed.stats.index_files_queried > 0

    with MaintenancePipeline(client, workers=workers) as pipe:
        state_mixed_layout(w, store, lake, pipe)
        assert live_luts() == ["lutb"] * 4
        assert_oracle()
        pipe.compact(w.column, w.index_type)
    assert live_luts() == ["lutb"]
    assert_oracle()


@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_sharded_router_matches_single_server_oracle(workload, state, n_shards):
    """The sharded deployment column: routing the lake through a
    scatter-gather router over {1, 4} shards returns exactly what one
    brute-force server returns, for every workload x lake state.

    Shard lakes salt their file names differently than the source, so
    the comparison canonicalizes on values (exact queries) and scores
    (top-k queries) rather than ``(file, row)`` identity.
    """
    from repro.obs.timeseries import TelemetryHub, use_hub
    from repro.shard import QueryRouter, ShardPlan

    store, lake, client = _fresh(workload)
    with MaintenancePipeline(client, workers=1) as pipe:
        STATES[state](workload, store, lake, pipe)

    # The deployment is always sharded by the uuid column (vectors are
    # not hashable keys); per-shard indexes mirror the lake state.
    indexes = (
        []
        if state == "unindexed"
        else [(workload.column, workload.index_type, workload.params)]
    )
    with use_hub(TelemetryHub()):
        deployment = ShardPlan(n_shards=n_shards).materialize(
            lake, "uuid", indexes=indexes
        )
        assert deployment.total_rows == lake.snapshot().num_rows
        with deployment, QueryRouter(deployment, hedge=None) as router:
            for query, k in workload.queries(lake):
                routed = router.query(workload.column, query, k=k)
                oracle = client.search(
                    workload.column, query, k=k, use_indices=False
                )
                assert routed.complete, (
                    f"{workload.name}/{state}/shards={n_shards}: "
                    f"shard failures for {query!r}"
                )
                if query.scoring:
                    assert sorted(m.score for m in routed.matches) == (
                        pytest.approx(sorted(m.score for m in oracle.matches))
                    )
                else:
                    assert sorted(m.value for m in routed.matches) == sorted(
                        m.value for m in oracle.matches
                    ), (
                        f"{workload.name}/{state}/shards={n_shards}: "
                        f"router != oracle for {query!r}"
                    )
                if workload.name == "uuids" and isinstance(query, UuidQuery):
                    # Hash placement prunes exact-key queries on the
                    # shard key down to the single owning shard.
                    assert routed.shards_pruned == n_shards - 1


# -- corrupt column: one flipped bit in a page read ---------------------
#: States whose every query reads the data files through index pages
#: only. A brute-force scan reads them as any writer left them, with
#: no checksum to hold a flipped bit in a raw chunk against.
CORRUPT_STATES = ("indexed", "half_compacted", "compacted_vacuumed")


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("state", CORRUPT_STATES)
@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_corrupt_page_reads_answer_like_the_oracle_or_raise(workload, state, workers):
    """Under a ``corrupt`` fault on the n-th data-file GET of a query,
    for every n the query makes, the answer equals the brute-force
    oracle or the query raises :class:`FormatError`: none is silently
    wrong."""
    store, lake, client = _fresh(workload)
    with MaintenancePipeline(client, workers=1) as pipe:
        STATES[state](workload, store, lake, pipe)
    faulty = FaultyObjectStore(store)
    corrupted = RottnestClient(faulty, client.index_dir, lake)
    raised = 0
    with SearchExecutor(corrupted, max_searchers=workers) as ex:
        for query, k in workload.queries(lake):
            oracle = client.search(workload.column, query, k=k, use_indices=False)
            for n in itertools.count():
                rule = faulty.corrupt_next(f"{lake.root}/data/", countdown=n, seed=n)
                try:
                    answer = ex.search(workload.column, query, k=k)
                except FormatError:
                    raised += 1
                else:
                    assert _rowset(answer.matches) == _rowset(oracle.matches), (
                        f"{workload.name}/{state}: GET {n} corrupt, {query!r}"
                    )
                faulty.clear_rules()
                if not rule.fired:
                    break
    assert raised


# -- fresh-tier axis: ingest states x workloads ------------------------
#: Ingested batches use seeds far from the appended files' so the two
#: populations never collide on values.
FRESH_SEEDS = (101, 102, 103, 104)

#: State name -> (seeds ingested before a drain, seeds ingested after).
#: "half_drained" therefore serves rows from both tiers at once.
FRESH_STATES = {
    "fresh_empty": ((), ()),
    "fresh_wal_only": ((), FRESH_SEEDS[:2]),
    "fresh_half_drained": (FRESH_SEEDS[:2], FRESH_SEEDS[2:]),
    "fresh_fully_drained": (FRESH_SEEDS[:2], ()),
}


@pytest.mark.parametrize("fresh_state", sorted(FRESH_STATES))
@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_fresh_tier_matches_union_oracle(workload, fresh_state):
    """The fresh-tier axis: for every workload and every ingest state
    (nothing ingested, WAL-only, half-drained, fully drained), a search
    through the fresh/lazy merge equals a brute-force oracle over the
    *union* of both tiers — materialized as a plain lake holding every
    appended and every ingested row. File identities differ between the
    deployments (the oracle knows nothing of WALs), so the comparison
    canonicalizes on values and scores, exactly like the sharded column.
    """
    from repro.ingest import IngestDrainer, IngestTier

    drained_seeds, wal_seeds = FRESH_STATES[fresh_state]
    store, lake, client = _fresh(workload)
    with MaintenancePipeline(client, workers=2) as pipe:
        for i in range(workload.files - 1):
            lake.append(event_batch(workload.rows, seed=i + 1))
        _index(pipe, workload)
        tier = IngestTier(store, "ingest/events", lake)
        client.fresh_tier = tier
        drainer = IngestDrainer(
            tier,
            pipeline=pipe,
            index_specs=[(workload.column, workload.index_type, workload.params)],
        )
        for seed in drained_seeds:
            tier.ingest(event_batch(workload.rows, seed=seed))
        if drained_seeds:
            drainer.drain()
        for seed in wal_seeds:
            tier.ingest(event_batch(workload.rows, seed=seed))

    # The union oracle: one flat lake holding every row of both tiers,
    # searched brute-force by a client with no fresh tier and no index.
    oracle_store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    oracle_lake = LakeTable.create(
        oracle_store,
        "lake/oracle",
        EVENT_SCHEMA,
        TableConfig(row_group_rows=64, page_target_bytes=4096),
    )
    for i in range(workload.files - 1):
        oracle_lake.append(event_batch(workload.rows, seed=i + 1))
    for seed in (*drained_seeds, *wal_seeds):
        oracle_lake.append(event_batch(workload.rows, seed=seed))
    oracle = RottnestClient(oracle_store, "idx/oracle", oracle_lake)

    queries = workload.queries(oracle_lake)  # sized to the union's rows
    fresh_probe = None
    if wal_seeds:
        # One probe whose answer lives only in undrained memtables.
        if workload.name == "uuids":
            fresh_probe = (UuidQuery(event_uuid(wal_seeds[0], 3)), 100)
        elif workload.name == "text":
            doc = event_batch(workload.rows, seed=wal_seeds[0])["text"][1]
            fresh_probe = (SubstringQuery(doc[:8]), 10_000)
        if fresh_probe is not None:
            queries = [*queries, fresh_probe]

    with SearchExecutor(client, max_searchers=2) as ex:
        for query, k in queries:
            merged = ex.search(workload.column, query, k=k)
            expected = oracle.search(
                workload.column, query, k=k, use_indices=False
            )
            label = f"{workload.name}/{fresh_state}"
            if query.scoring:
                assert sorted(m.score for m in merged.matches) == (
                    pytest.approx(sorted(m.score for m in expected.matches))
                ), f"{label}: merged scores != union oracle for {query!r}"
            else:
                assert sorted(m.value for m in merged.matches) == sorted(
                    m.value for m in expected.matches
                ), f"{label}: merged != union oracle for {query!r}"
        if fresh_probe is not None and not fresh_probe[0].scoring:
            probe_result = ex.search(
                workload.column, fresh_probe[0], k=fresh_probe[1]
            )
            assert any(
                m.file.startswith(tier.wal.prefix)
                for m in probe_result.matches
            ), f"{workload.name}/{fresh_state}: probe never hit the fresh tier"


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
def test_maintenance_states_commit_identically_at_any_width(workload):
    """Worker count is invisible in committed metadata: the covered
    files and index count after each state recipe are the same at
    parallelism 1 and 4. (Byte-level identity is pinned by the
    hypothesis property in test_chaos_resume.py.)"""
    by_width = {}
    for workers in (1, 4):
        store, lake, client = _fresh(workload)
        with MaintenancePipeline(client, workers=workers) as pipe:
            state_half_compacted(workload, store, lake, pipe)
        # Lake data-file names are salted per run (and leak into
        # compressed directory bytes), so compare shape only: index
        # count, per-index coverage width, and rows. Byte identity on
        # one store is pinned by the hypothesis property test.
        records = client.meta.records()
        by_width[workers] = sorted(
            (r.index_type, len(r.covered_files), r.num_rows)
            for r in records
        )
    assert by_width[1] == by_width[4]
