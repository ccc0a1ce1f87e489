"""SearchServer: admission control, dedup, warmup, ServeStats."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.client import RottnestClient
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.core.queries import UuidQuery, VectorQuery
from repro.errors import CorruptPage, SimulatedCrash
from repro.storage.faults import FaultyObjectStore
from repro.errors import ServeError, ServerOverloaded
from repro.formats.page_reader import build_page_table
from repro.formats.reader import ParquetFile
from repro.lake.table import LakeTable
from repro.serve import CachingObjectStore, SearchServer, ServeStats, SingleFlight
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.retry import RetryingObjectStore
from repro.tco.throughput import ThroughputModel

from tests.conftest import event_uuid


# -- SingleFlight -----------------------------------------------------


class TestSingleFlight:
    def test_sequential_calls_each_lead(self):
        sf = SingleFlight()
        assert sf.do("k", lambda: 1) == 1
        assert sf.do("k", lambda: 2) == 2  # prior flight landed
        assert sf.leaders == 2 and sf.shared == 0

    def test_concurrent_calls_share_one_execution(self):
        sf = SingleFlight()
        started, release = threading.Event(), threading.Event()
        calls = []

        def work():
            calls.append(1)
            started.set()
            assert release.wait(timeout=5)
            return "answer"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(sf.do_detailed("k", work)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        assert started.wait(timeout=5)
        deadline = time.monotonic() + 5
        while sf.shared < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert len(calls) == 1  # the work ran exactly once
        assert sorted(r[1] for r in results) == [False, True, True, True]
        assert all(r[0] == "answer" for r in results)
        assert sf.leaders == 1 and sf.shared == 3

    def test_leader_exception_propagates_to_sharers(self):
        sf = SingleFlight()
        started, release = threading.Event(), threading.Event()

        def boom():
            started.set()
            assert release.wait(timeout=5)
            raise ValueError("leader failed")

        outcomes = []

        def caller():
            try:
                sf.do("k", boom)
                outcomes.append("ok")
            except ValueError:
                outcomes.append("raised")

        threads = [threading.Thread(target=caller) for _ in range(3)]
        for t in threads:
            t.start()
        assert started.wait(timeout=5)
        deadline = time.monotonic() + 5
        while sf.shared < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert outcomes == ["raised"] * 3

    def test_distinct_keys_do_not_share(self):
        sf = SingleFlight()
        assert sf.do("a", lambda: "a") == "a"
        assert sf.do("b", lambda: "b") == "b"
        assert sf.leaders == 2 and sf.shared == 0


# -- ServeStats -------------------------------------------------------


class TestServeStats:
    def test_percentiles_nearest_rank(self):
        stats = ServeStats()
        for latency in (0.4, 0.1, 0.3, 0.2, 0.5):
            stats.observe_latency(latency)
        assert stats.p50_s == pytest.approx(0.3, rel=0.02)
        assert stats.p99_s == pytest.approx(0.5, rel=0.02)
        assert stats.percentile(0.0) == pytest.approx(0.1, rel=0.02)
        assert stats.mean_latency_s == pytest.approx(0.3)
        assert stats.first_latency_s == 0.4
        assert stats.last_latency_s == 0.5

    def test_qps_estimate_littles_law(self):
        stats = ServeStats()
        stats.observe_latency(0.5)
        stats.observe_latency(0.5)
        assert stats.qps_estimate(8) == pytest.approx(16.0)
        assert ServeStats().qps_estimate(8) == 0.0

    def test_latency_memory_is_bounded(self):
        # The whole point of the sketch: per-query state stays O(1) no
        # matter how many queries flow through the server.
        stats = ServeStats()
        for i in range(50_000):
            stats.observe_latency(1e-4 * (1 + i % 997))
        assert stats.latency_sketch.count == 50_000
        assert stats.latency_sketch.bin_count <= stats.latency_sketch.max_bins
        assert stats.p99_s > stats.p50_s > 0

    def test_throughput_model_uses_measured_rpq(self):
        stats = ServeStats(queries=10, total_requests=250)
        assert stats.requests_per_query == 25.0
        model = stats.throughput_model()
        assert model.rottnest_requests_per_query == 25.0
        base = ThroughputModel()
        assert model.prefix_get_rps == base.prefix_get_rps
        # No data: the paper's assumed constant is kept.
        empty = ServeStats().throughput_model()
        assert (
            empty.rottnest_requests_per_query
            == base.rottnest_requests_per_query
        )

    def test_describe_mentions_everything(self):
        stats = ServeStats(queries=3, deduplicated=1)
        stats.observe_latency(0.2)
        text = stats.describe(max_inflight=4)
        assert "queries served" in text
        assert "1 deduplicated" in text
        assert "QPS ceiling" in text


# -- SearchServer -----------------------------------------------------


def _serving_stack(indexed_client, **kwargs):
    cached = CachingObjectStore(indexed_client.store)
    lake = LakeTable.open(cached, indexed_client.lake.root)
    client = RottnestClient(cached, indexed_client.index_dir, lake)
    return SearchServer(client, **kwargs)


def _gate_executor(server):
    """Make the server's executor block until released; returns the
    (started, release) events."""
    real = server.executor.search
    started, release = threading.Event(), threading.Event()

    def gated(*args, **kwargs):
        started.set()
        assert release.wait(timeout=10)
        return real(*args, **kwargs)

    server.executor.search = gated
    return started, release


class TestSearchServer:
    def test_basic_query(self, indexed_client):
        with _serving_stack(indexed_client) as server:
            result = server.query("uuid", UuidQuery(event_uuid(1, 5)), k=3)
            assert len(result.matches) == 1
            assert server.stats.queries == 1
            assert server.stats.total_requests > 0
            assert server.stats.first_latency_s > 0

    def test_results_match_plain_client(self, indexed_client):
        query = UuidQuery(event_uuid(2, 9))
        expected = indexed_client.search("uuid", query, k=3)
        with _serving_stack(indexed_client) as server:
            got = server.query("uuid", query, k=3)
        assert [(m.file, m.row) for m in got.matches] == [
            (m.file, m.row) for m in expected.matches
        ]

    def test_shed_on_overload(self, indexed_client):
        server = _serving_stack(
            indexed_client, max_inflight=1, shed_on_overload=True
        )
        with server:
            started, release = _gate_executor(server)
            query = UuidQuery(event_uuid(1, 5))
            worker = threading.Thread(
                target=lambda: server.query("uuid", query, k=3)
            )
            worker.start()
            assert started.wait(timeout=5)
            with pytest.raises(ServerOverloaded):
                server.query("uuid", UuidQuery(event_uuid(1, 6)), k=3)
            assert server.stats.rejected == 1
            release.set()
            worker.join(timeout=10)
            assert server.stats.queries == 1

    def test_blocking_admission_queues_instead(self, indexed_client):
        server = _serving_stack(indexed_client, max_inflight=1)
        with server:
            results = []
            query = UuidQuery(event_uuid(1, 5))

            def go(i):
                results.append(
                    server.query("uuid", UuidQuery(event_uuid(1, i)), k=3)
                )

            threads = [threading.Thread(target=go, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(results) == 4
            assert server.stats.rejected == 0

    def test_identical_inflight_queries_deduplicate(self, indexed_client):
        server = _serving_stack(indexed_client, max_inflight=4)
        with server:
            started, release = _gate_executor(server)
            query = UuidQuery(event_uuid(1, 5))
            results = []

            def go():
                results.append(server.query("uuid", query, k=3))

            threads = [threading.Thread(target=go) for _ in range(3)]
            for t in threads:
                t.start()
            assert started.wait(timeout=5)
            deadline = time.monotonic() + 5
            while server._flights.shared < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            for t in threads:
                t.join(timeout=10)
            assert server.stats.queries == 3
            assert server.stats.deduplicated == 2
            # One execution, billed once: the flight's requests are the
            # leader's, not the leader's once per caller.
            assert all(r is results[0] for r in results)
            flight_requests = results[0].stats.trace.total_requests
            assert flight_requests > 0
            assert server.stats.total_requests == flight_requests
            assert server.stats.requests_per_query == flight_requests / 3
            first = [(m.file, m.row) for m in results[0].matches]
            assert all(
                [(m.file, m.row) for m in r.matches] == first for r in results
            )

    def test_warmup_preloads_hot_path(self, indexed_client):
        with _serving_stack(indexed_client) as server:
            assert server.warmup() == 3  # one index file per column
            cache = server.stats.cache
            warmed_misses = cache.misses
            server.query("uuid", UuidQuery(event_uuid(1, 5)), k=3)
            # The query's metadata/index-tail reads hit the warm cache.
            assert cache.hits > 0
            assert cache.misses - warmed_misses < warmed_misses
            assert server.stats.cache_hit_rate > 0

    def test_warm_queries_send_no_discovery_requests(self, indexed_client):
        """After ``warmup`` a query finds both logs' tips in the cache:
        no LIST, no hint GET and no probe of the version past a tip
        reaches the store, as when the tip came from a cached LIST."""

        class ReadLog(InMemoryObjectStore):
            def __init__(self, source) -> None:
                super().__init__(clock=source.clock)
                self._objects = dict(source._objects)
                self.reads: list[str] = []

            def get(self, key, byte_range=None):
                self.reads.append(key)
                return super().get(key, byte_range)

            def list(self, prefix=""):
                self.reads.append(f"LIST {prefix}")
                return super().list(prefix)

        base = ReadLog(indexed_client.store)
        lake, meta = indexed_client.lake.log, indexed_client.meta.log
        probes = {
            f"{log.root}/{log.fmt.log_dir}/{log.latest_version() + 1:020d}.json"
            for log in (lake, meta)
        }
        discovery = probes | {lake.hint_key, meta.hint_key}
        server = SearchServer.for_lake(base, "idx/events", "lake/events")
        with server:
            server.warmup()
            for i in range(3):
                base.reads.clear()
                result = server.query("uuid", UuidQuery(event_uuid(1, 5 + i)), k=3)
                assert len(result.matches) == 1
                assert not [r for r in base.reads if r in discovery or "LIST" in r]

    def test_warmup_decodes_what_the_first_probe_decodes(self, indexed_client):
        """After warmup the opened reader, the page directory and the
        decoded LUT are cache hits: the first UUID query builds only the
        leaf it seeks into."""
        with _serving_stack(indexed_client) as server:
            server.warmup()
            cache, memo, built = server.client.store, server.client.store.memo, []
            cache.memo = lambda key, name, build=None: memo(
                key, name, build and (lambda: built.append(name) or build())
            )
            result = server.query("uuid", UuidQuery(event_uuid(1, 5)), k=3)
        assert len(result.matches) == 1
        assert [name.split(":")[0] for name in built] == ["leaf0"]

    def test_warmup_covers_the_trie_lut(self, client, monkeypatch):
        """With a tail too small to carry anything, the tail, directory,
        page directory and LUT are four separate ranges of an index
        file. ``warmup`` reads them through the index type's ``warm``
        hook, so a UUID query afterwards GETs leaves only."""
        from repro.core import componentize

        monkeypatch.setattr(componentize, "TAIL_SPECULATIVE_BYTES", 16)
        record = client.index("uuid", "uuid_trie")
        reader = IndexFileReader.open(client.store, record.index_key)
        sizes = {
            name: reader._reader.component_size(reader._names[name])
            for name in reader.component_names()
        }
        assert sizes["lutb"] != sizes["leaf0"]
        with _serving_stack(client) as server:
            assert server.warmup() == 1
            result = server.query("uuid", UuidQuery(event_uuid(1, 5)), k=3)
        assert len(result.matches) == 1
        index_gets = [
            r
            for round_ in result.stats.trace.rounds
            for r in round_
            if r.key == record.index_key
        ]
        assert [(r.op, r.nbytes) for r in index_gets] == [("GET", sizes["leaf0"])]

    def test_for_lake_assembles_full_stack(self, indexed_client):
        server = SearchServer.for_lake(
            indexed_client.store,
            indexed_client.index_dir,
            indexed_client.lake.root,
            cache_budget_bytes=32 << 20,
            max_searchers=2,
        )
        with server:
            assert isinstance(server.client.store, CachingObjectStore)
            assert server.client.store.budget_bytes == 32 << 20
            result = server.query("uuid", UuidQuery(event_uuid(1, 5)), k=3)
            assert len(result.matches) == 1
            assert server.stats.cache is server.client.store.cache_stats

    def test_finds_cache_stats_through_wrapper_chain(self, indexed_client):
        cached = CachingObjectStore(indexed_client.store)
        retrying = RetryingObjectStore(cached)
        lake = LakeTable.open(retrying, indexed_client.lake.root)
        client = RottnestClient(retrying, indexed_client.index_dir, lake)
        with SearchServer(client) as server:
            assert server.stats.cache is cached.cache_stats
        # And without a cache anywhere in the chain: stats stay None.
        bare = RottnestClient(
            indexed_client.store, indexed_client.index_dir, indexed_client.lake
        )
        with SearchServer(bare) as server:
            assert server.stats.cache is None
            assert server.stats.cache_hit_rate == 0.0

    def test_invalid_max_inflight(self, indexed_client):
        with pytest.raises(ServeError):
            SearchServer(indexed_client, max_inflight=0)


class TestDegradedServing:
    """Brute-force fallback when an index component read fails mid-query."""

    def _faulty_server(self, indexed_client):
        faulty = FaultyObjectStore(indexed_client.store)
        lake = LakeTable.open(faulty, indexed_client.lake.root)
        client = RottnestClient(faulty, indexed_client.index_dir, lake)
        return faulty, SearchServer(client, max_searchers=2)

    def test_index_read_failure_degrades_to_identical_answer(
        self, indexed_client
    ):
        faulty, server = self._faulty_server(indexed_client)
        query = UuidQuery(event_uuid(1, 5))
        with server:
            clean = server.query("uuid", query, k=3)
            assert server.stats.degraded == 0
            faulty.fail_next("GET", ".index")
            degraded = server.query("uuid", query, k=3)
            assert server.stats.degraded == 1
            assert [(m.file, m.row, bytes(m.value)) for m in degraded.matches] \
                == [(m.file, m.row, bytes(m.value)) for m in clean.matches]
            # Degraded mode planned no indices: pure scan.
            assert degraded.stats.index_files_queried == 0
            assert degraded.stats.files_brute_forced > 0

    def test_corrupt_data_page_raises_instead_of_degrading(self, indexed_client):
        """A data page that fails its CRC is damage in the data file. A
        scan reads the same bytes, and a raw uuid page has no check of
        its own, so a degraded answer would miss a present key without
        a sign. The flipped bit is written into the store, so every read
        of the page, the scan's too, sees it."""
        store = indexed_client.store
        path = indexed_client.lake.snapshot().file_paths[0]
        entry = build_page_table(ParquetFile(store, path).metadata, path, "uuid").entry(0)
        key = event_uuid(1, 0)
        data = bytearray(store.get(path))
        assert bytes(data[entry.offset + 1 : entry.offset + 17]) == key
        data[entry.offset + 5] ^= 0x10
        store.put(path, bytes(data))
        with SearchServer(indexed_client, max_searchers=2) as server:
            with pytest.raises(CorruptPage):
                server.query("uuid", UuidQuery(key), k=1)
            assert server.stats.degraded == 0

    def test_degraded_queries_counted_per_failure_not_forever(
        self, indexed_client
    ):
        faulty, server = self._faulty_server(indexed_client)
        query = UuidQuery(event_uuid(2, 17))
        with server:
            faulty.fail_next("GET", ".index")
            server.query("uuid", query, k=2)
            assert server.stats.degraded == 1
            # The fault was one-shot: the next query is served normally.
            healthy = server.query("uuid", query, k=2)
            assert server.stats.degraded == 1
            assert healthy.stats.index_files_queried > 0

    def test_missing_component_degrades_to_the_oracle_answer(
        self, indexed_client
    ):
        """An index file whose header lacks a component its querier asks
        for — here inverted list 0 — is a ``FormatError`` however the
        querier reads it, so the query is answered degraded, not failed."""
        store = indexed_client.store
        record = next(
            r for r in indexed_client.meta.records() if r.index_type == "ivf_pq"
        )
        reader = IndexFileReader.open(store, record.index_key)
        writer = IndexFileWriter(
            reader.index_type, reader.column, reader.directory, params=reader.params
        )
        names = [n for n in reader.component_names() if n != "__pages__"]
        for name, blob in zip(names, reader.components(names)):
            writer.add_component("gone0" if name == "list0" else name, blob)
        store.put(record.index_key, writer.finish())

        query = VectorQuery(np.ones(16, dtype=np.float32), nprobe=8, refine=600)
        oracle = indexed_client.search("emb", query, k=5, use_indices=False)
        with _serving_stack(indexed_client) as server:
            served = server.query("emb", query, k=5)
        assert served.degraded and server.stats.degraded == 1
        assert sorted((m.file, m.row) for m in served.matches) == sorted(
            (m.file, m.row) for m in oracle.matches
        )

    def test_corrupt_codebook_header_degrades_to_the_oracle_answer(
        self, indexed_client
    ):
        """A ``pq`` header claiming ``k=128, sub=4`` over the bytes of
        ``k=256, sub=2`` codebooks is a ``FormatError`` when the probe
        decodes it (not an ``IndexError`` mid-scan), so the server
        answers degraded with the brute-force answer."""
        store = indexed_client.store
        record = next(
            r for r in indexed_client.meta.records() if r.index_type == "ivf_pq"
        )
        reader = IndexFileReader.open(store, record.index_key)
        offset, _, _, codec = reader._reader._entry(reader._names["pq"])
        data = bytearray(store.get(record.index_key))
        assert codec == 0 and data[offset : offset + 12] == np.asarray(
            [8, 256, 2], dtype="<u4"
        ).tobytes()
        data[offset + 4 : offset + 12] = np.asarray([128, 4], dtype="<u4").tobytes()
        store.put(record.index_key, bytes(data))

        query = VectorQuery(np.ones(16, dtype=np.float32), nprobe=8, refine=600)
        oracle = indexed_client.search("emb", query, k=5, use_indices=False)
        with _serving_stack(indexed_client) as server:
            served = server.query("emb", query, k=5)
        assert served.degraded and server.stats.degraded == 1
        assert [(m.file, m.row, m.score) for m in served.matches] == [
            (m.file, m.row, m.score) for m in oracle.matches
        ]

    def test_simulated_crash_is_not_masked_as_degradation(
        self, indexed_client
    ):
        """SimulatedCrash is a chaos-harness signal, not a store fault;
        the serve layer must let it out instead of retrying around it."""
        faulty, server = self._faulty_server(indexed_client)
        with server:
            # Searches never mutate, so hit the one GET-adjacent seam we
            # can: a crash_after rule on mutations plus an index() call
            # through the same store (sanity that the exception escapes
            # wrapper layers unchanged).
            faulty.crash_after("PUT")
            with pytest.raises(SimulatedCrash):
                # "bloom" on uuid is the one index the fixture hasn't
                # built yet, so this actually uploads (and crashes).
                server.client.index("uuid", "bloom")
            assert server.stats.degraded == 0
