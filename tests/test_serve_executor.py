"""SearchExecutor: the pooled runner of the one search plan — same
results as the inline client, and stop-at-K pinned by request counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import RottnestClient
from repro.core.queries import RegexQuery, SubstringQuery, UuidQuery, VectorQuery
from repro.errors import RottnestIndexError
from repro.lake.table import LakeTable
from repro.serve import SearchExecutor
from repro.storage.stats import tracing

from tests.conftest import EVENT_SCHEMA, event_batch, event_uuid


def _shape(result):
    """Everything a caller can observe, minus the request trace."""
    return (
        [(m.file, m.row, m.score) for m in result.matches],
        result.stats.index_files_queried,
        result.stats.candidates,
        result.stats.pages_probed,
        result.stats.false_positives,
        result.stats.files_brute_forced,
    )


WORKLOAD_QUERIES = [
    ("uuid", UuidQuery(event_uuid(1, 5))),
    ("uuid", UuidQuery(event_uuid(2, 123))),
    ("uuid", UuidQuery(b"\x00" * 16)),  # absent
    ("text", SubstringQuery(event_batch(300, seed=1)["text"][10][:8])),
    ("text", SubstringQuery("no-such-substring-anywhere")),
    (
        "emb",
        VectorQuery(
            np.random.default_rng(0).normal(size=16).astype(np.float32),
            nprobe=8,
            refine=64,
        ),
    ),
]


UNINDEXED_QUERIES = [  # answered (partly) by the brute-force fill
    ("uuid", UuidQuery(event_uuid(3, 7))),  # only in the unindexed file
    ("uuid", UuidQuery(event_uuid(1, 5))),  # covered by the index
    ("text", SubstringQuery(event_batch(300, seed=3)["text"][0][:10])),
    ("emb", VectorQuery(event_batch(300, seed=3)["emb"][4], nprobe=8, refine=64)),
]


@pytest.mark.parametrize("width", [1, 3, 8])
def test_matches_sequential_search(indexed_client, width):
    """Result shape and total requests do not depend on the runner:
    across the UUID, substring and vector workloads, fully indexed and
    with an appended-but-unindexed file, a pool of any width returns
    what the inline ``RottnestClient.search`` returns. (One index
    record per column here, so stop-at-K cuts every runner at the same
    task; the cases below pin where it cuts.)"""
    with SearchExecutor(indexed_client, max_searchers=width) as executor:

        def check(queries):
            for column, query in queries:
                sequential = indexed_client.search(column, query, k=5)
                concurrent = executor.search(column, query, k=5)
                assert _shape(concurrent) == _shape(sequential), (column, query)
                # Same requests whatever the width; only the trace's
                # parallel structure (and thus latency) changes.
                assert (
                    concurrent.stats.trace.total_requests
                    == sequential.stats.trace.total_requests
                )

        check(WORKLOAD_QUERIES)
        indexed_client.lake.append(event_batch(300, seed=3))
        check(UNINDEXED_QUERIES)
    # Sanity: the unindexed-key query really used the brute-force path.
    result = indexed_client.search("uuid", UuidQuery(event_uuid(3, 7)), k=5)
    assert result.stats.files_brute_forced > 0
    assert len(result.matches) == 1


# -- stop-at-K, pinned by counts ----------------------------------------
def _touched(result) -> set[str]:
    """Every object key the search issued a request against."""
    return {req.key for round_ in result.stats.trace.rounds for req in round_}


@pytest.fixture
def three_records(store, small_config):
    """A lake of three files with one uuid index record per file;
    yields ``(client, records newest-first)`` — the plan's order."""
    lake = LakeTable.create(store, "lake/events", EVENT_SCHEMA, small_config)
    client = RottnestClient(store, "idx/events", lake)
    for seed in (1, 2, 3):
        lake.append(event_batch(300, seed=seed))
        client.index("uuid", "uuid_trie")
    records = client.meta.records()
    assert [len(r.covered_files) for r in records] == [1, 1, 1]
    return client, records[::-1]


def test_inline_runner_stops_at_k_between_index_records(three_records):
    """The first (newest) record satisfies K=1, so the inline runner
    issues nothing against the later records' index files or pages."""
    client, (first, *later) = three_records
    result = client.search("uuid", UuidQuery(event_uuid(3, 7)), k=1)
    assert len(result.matches) == 1
    assert result.matches[0].file in first.covered_files
    assert result.stats.index_files_queried == 1
    touched = _touched(result)
    assert first.index_key in touched
    for record in later:
        assert record.index_key not in touched
        assert not touched & set(record.covered_files)
    # A key only the oldest record holds needs all three.
    full = client.search("uuid", UuidQuery(event_uuid(1, 7)), k=1)
    assert full.stats.index_files_queried == 3


@pytest.mark.parametrize("width, launched", [(1, 1), (2, 2), (4, 3)])
def test_pool_launches_no_wave_after_k(three_records, width, launched):
    """Stop-at-K is checked between waves, never inside one: a pool
    runs whole waves of ``width`` tasks and launches none after the one
    that satisfied K."""
    client, (first, *later) = three_records
    with SearchExecutor(client, max_searchers=width) as executor:
        result = executor.search("uuid", UuidQuery(event_uuid(3, 7)), k=1)
    assert [m.file for m in result.matches] == list(first.covered_files)
    assert result.stats.index_files_queried == launched
    touched = _touched(result)
    for record in later[launched - 1 :]:
        assert record.index_key not in touched


@pytest.mark.parametrize("width, scanned", [(0, 1), (1, 1), (4, 3)])
def test_brute_force_fill_stops_at_k(client, width, scanned):
    """Same rule over uncovered files: every row matches the regex, so
    the first file scanned satisfies K=1 (width 0 = inline runner)."""
    client.lake.append(event_batch(300, seed=3))
    paths = sorted(client.lake.snapshot().file_paths)
    assert len(paths) == 3
    query = RegexQuery(".")
    if width:
        with SearchExecutor(client, max_searchers=width) as executor:
            result = executor.search("text", query, k=1)
    else:
        result = client.search("text", query, k=1)
    assert [m.file for m in result.matches] == paths[:1]
    assert result.stats.files_brute_forced == scanned
    assert _touched(result) & set(paths) == set(paths[:scanned])


def test_snapshot_and_partition_arguments(indexed_client):
    """Executor honors the same snapshot/partition plumbing."""
    old = indexed_client.lake.snapshot()
    indexed_client.lake.append(event_batch(300, seed=4))
    query = UuidQuery(event_uuid(4, 1))
    with SearchExecutor(indexed_client, max_searchers=2) as executor:
        assert executor.search("uuid", query, k=3, snapshot=old).matches == []
        fresh = executor.search("uuid", query, k=3)
        assert len(fresh.matches) == 1
        sequential = indexed_client.search("uuid", query, k=3)
        assert _shape(fresh) == _shape(sequential)


def test_wider_pool_never_slower(indexed_client):
    """Modeled latency is non-increasing in ``max_searchers``."""
    from repro.storage.latency import LatencyModel

    lat = LatencyModel()
    query = UuidQuery(event_uuid(1, 5))
    latencies = []
    for width in (1, 2, 4):
        with SearchExecutor(indexed_client, max_searchers=width) as executor:
            result = executor.search("uuid", query, k=5)
        latencies.append(result.stats.estimated_latency(lat))
    assert latencies[1] <= latencies[0] * 1.001
    assert latencies[2] <= latencies[1] * 1.001


def test_traces_are_per_thread(store):
    """Concurrent workers each record into their own RequestTrace; the
    caller's trace is untouched by other threads' requests."""
    import threading

    store.put("main", b"m")
    store.put("worker", b"w")
    seen = {}

    def worker():
        with tracing() as trace:  # this thread's own trace
            store.get("worker")
            store.get("worker")
        seen["trace"] = trace

    with tracing() as main_trace:
        store.get("main")
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=5)
    assert main_trace.total_requests == 1  # worker's GETs not mixed in
    assert seen["trace"].total_requests == 2
    # Cumulative IOStats counters still see every thread's requests.
    assert store.stats.gets == 3


def test_concurrent_iostats_increments_not_lost(store):
    """IOStats.record is lock-guarded: hammering from many threads
    loses no increments."""
    import threading

    store.put("k", b"v")
    n_threads, n_gets = 8, 50

    def hammer():
        for _ in range(n_gets):
            store.get("k")

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert store.stats.gets == n_threads * n_gets


def test_invalid_arguments(indexed_client):
    with pytest.raises(RottnestIndexError):
        SearchExecutor(indexed_client, max_searchers=0)
    with SearchExecutor(indexed_client) as executor:
        with pytest.raises(RottnestIndexError):
            executor.search("uuid", UuidQuery(b"\x00" * 16), k=0)
