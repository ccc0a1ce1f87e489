"""The query-serving front end: admission control, warmup, stats.

:class:`SearchServer` is the piece the ROADMAP's "heavy traffic" north
star needs in front of :class:`~repro.core.client.RottnestClient`: it
owns a :class:`~repro.serve.executor.SearchExecutor` (bounded
concurrency *within* a query), an optional
:class:`~repro.serve.cache.CachingObjectStore` (reuse *across*
queries), per-server admission control (bounded concurrency *across*
queries), single-flight deduplication of identical in-flight queries,
and a warmup path that pre-loads the hot read path — the
metadata-table state, every opened index file, its decoded page
directory and the decoded structures each probe starts from — so the
first user-facing query already runs warm.

:class:`ServeStats` aggregates what operators watch (QPS estimate,
cache hit rate, modeled latency percentiles) and feeds the measured
requests-per-query back into :mod:`repro.tco.throughput`, replacing
that model's assumed constant with an observed one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.core.client import RottnestClient, SearchResult
from repro.core.index_file import IndexFileReader
from repro.core.queries import Query, VectorQuery
from repro.errors import (
    CorruptPage,
    FormatError,
    ObjectStoreError,
    ServeError,
    ServerOverloaded,
)
from repro.indices.base import querier_for
from repro.lake.snapshot import Snapshot
from repro.lake.table import LakeTable
from repro.obs.attribution import attribute, price_trace
from repro.obs.flight import get_flight_recorder
from repro.obs.timeseries import QuantileSketch, get_hub
from repro.obs.trace import get_tracer
from repro.serve.cache import CacheStats, CachingObjectStore
from repro.serve.executor import SearchExecutor
from repro.serve.singleflight import SingleFlight
from repro.storage.latency import LatencyModel
from repro.storage.object_store import ObjectStore
from repro.storage.pool import Run
from repro.tco.throughput import ThroughputModel


@dataclass
class ServeStats:
    """Aggregate serving report for one :class:`SearchServer`.

    Latency percentiles are backed by a mergeable
    :class:`~repro.obs.timeseries.QuantileSketch`, so memory stays
    O(sketch bins) — constant in query count — while ``p50_s`` /
    ``p90_s`` / ``p99_s`` remain available at the sketch's configured
    relative accuracy (1% by default). The first and last modeled
    latencies are kept verbatim for the cold-vs-warm comparison the
    ``serve-bench`` CLI and benchmarks print.
    """

    queries: int = 0
    rejected: int = 0  # shed by admission control
    deduplicated: int = 0  # served by another query's flight
    degraded: int = 0  # answered via brute-force fallback
    fresh_matches: int = 0  # matches served from the ingest fresh tier
    total_requests: int = 0  # object-store requests across all queries
    latency_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    first_latency_s: float | None = None  # the cold query
    last_latency_s: float | None = None  # the most recent (warm) query
    cache: CacheStats | None = None

    def observe_latency(self, seconds: float) -> None:
        """Record one modeled per-query latency."""
        if self.first_latency_s is None:
            self.first_latency_s = seconds
        self.last_latency_s = seconds
        self.latency_sketch.observe(seconds)

    @property
    def mean_latency_s(self) -> float:
        return self.latency_sketch.mean

    def percentile(self, q: float) -> float:
        return self.latency_sketch.quantile(q)

    @property
    def p50_s(self) -> float:
        return self.percentile(0.50)

    @property
    def p90_s(self) -> float:
        return self.percentile(0.90)

    @property
    def p99_s(self) -> float:
        return self.percentile(0.99)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate if self.cache is not None else 0.0

    @property
    def requests_per_query(self) -> float:
        return self.total_requests / self.queries if self.queries else 0.0

    def qps_estimate(self, max_inflight: int) -> float:
        """Little's-law throughput ceiling: ``max_inflight`` queries in
        flight, each holding a slot for its mean modeled latency."""
        mean = self.mean_latency_s
        return max_inflight / mean if mean > 0 else 0.0

    def throughput_model(self, base: ThroughputModel | None = None) -> ThroughputModel:
        """A §VII-D3 throughput model with the *measured* requests per
        query in place of the paper's assumed constant."""
        base = base or ThroughputModel()
        rpq = self.requests_per_query
        if rpq <= 0:
            return base
        return replace(base, rottnest_requests_per_query=rpq)

    def describe(self, max_inflight: int | None = None) -> str:
        lines = [
            f"queries served:    {self.queries} "
            f"({self.deduplicated} deduplicated, {self.rejected} shed, "
            f"{self.degraded} degraded)",
            f"requests/query:    {self.requests_per_query:.1f}",
            f"modeled latency:   p50 {self.p50_s * 1000:.1f} ms  "
            f"p90 {self.p90_s * 1000:.1f} ms  p99 {self.p99_s * 1000:.1f} ms",
        ]
        if self.cache is not None:
            lines.append(
                f"cache:             {self.cache.hits} hits / "
                f"{self.cache.misses} misses "
                f"(hit rate {self.cache.hit_rate:.1%}, "
                f"{self.cache.evictions} evictions)"
            )
        if max_inflight is not None:
            lines.append(
                f"QPS ceiling:       ~{self.qps_estimate(max_inflight):.1f} "
                f"at {max_inflight} in-flight"
            )
        return "\n".join(lines)


def _query_fingerprint(query: Query):
    """Hashable identity of a query for single-flight deduplication."""
    if isinstance(query, VectorQuery):
        return (
            "vector",
            query.vector.tobytes(),
            query.nprobe,
            query.refine,
        )
    return (type(query).__name__, repr(query))


class SearchServer:
    """Serves concurrent queries over one indexed lake column set."""

    def __init__(
        self,
        client: RottnestClient,
        *,
        max_searchers: int = 4,
        max_inflight: int = 8,
        shed_on_overload: bool = False,
        latency_model: LatencyModel | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ServeError(f"max_inflight must be >= 1, got {max_inflight}")
        self.client = client
        self.executor = SearchExecutor(client, max_searchers=max_searchers)
        self.max_inflight = max_inflight
        self.shed_on_overload = shed_on_overload
        self.latency_model = latency_model or LatencyModel()
        self.stats = ServeStats(cache=self._find_cache_stats(client.store))
        self._admission = threading.BoundedSemaphore(max_inflight)
        self._flights = SingleFlight()
        self._stats_lock = threading.Lock()

    @classmethod
    def for_lake(
        cls,
        store: ObjectStore,
        index_dir: str,
        lake_root: str,
        *,
        cache_budget_bytes: int | None = None,
        **kwargs,
    ) -> "SearchServer":
        """Assemble the full serving stack over a raw store: wrap it in
        a :class:`CachingObjectStore`, re-open the lake and client
        through the cache, and build the server on top."""
        cached = CachingObjectStore(
            store,
            **(
                {"budget_bytes": cache_budget_bytes}
                if cache_budget_bytes is not None
                else {}
            ),
        )
        lake = LakeTable.open(cached, lake_root)
        client = RottnestClient(cached, index_dir, lake)
        return cls(client, **kwargs)

    @staticmethod
    def _find_cache_stats(store: ObjectStore) -> CacheStats | None:
        """Walk a wrapper chain (retry/cache/faults) to the cache, if
        one is stacked anywhere in it."""
        seen = 0
        while store is not None and seen < 8:
            if isinstance(store, CachingObjectStore):
                return store.cache_stats
            store = getattr(store, "inner", None)
            seen += 1
        return None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "SearchServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving -------------------------------------------------------
    def warmup(self) -> int:
        """Pre-load the hot read path into the cache.

        Reads the metadata-table state, then opens every index file and
        runs its index type's ``warm`` hook, which decodes what each
        probe decodes before its first dependent round — the page
        directory, the trie's lookup table, the FM index's last rank
        block, the IVF centroids — so the cache holds the opened reader
        and those decoded forms, not just their bytes. Returns the
        number of index files warmed. Without a caching store this
        still works; it just warms nothing.
        """
        warmed = 0
        for record in self.client.meta.records():
            reader = IndexFileReader.open(
                self.client.store, record.index_key, size=record.size
            )
            querier_for(reader.index_type).warm(reader)
            warmed += 1
        return warmed

    def query(
        self,
        column: str,
        query: Query,
        *,
        k: int = 10,
        snapshot: Snapshot | None = None,
        partition: str | None = None,
    ) -> SearchResult:
        """Admission-controlled, deduplicated search.

        Identical queries in flight at the same moment share one
        execution (both callers get the same :class:`SearchResult`).
        With ``shed_on_overload`` the call raises
        :class:`~repro.errors.ServerOverloaded` instead of queueing when
        ``max_inflight`` queries are already running.

        If an index component read fails mid-query (store fault,
        vacuumed or corrupt index file), the query is transparently
        re-executed without indices — a brute-force scan returns the
        identical answer, just slower. A degraded answer is marked on
        the result (``result.degraded``, the same object for the leader
        and every shared caller) and counted in
        :attr:`ServeStats.degraded` and the ``serve.degraded`` series so
        operators see an index-health regression as a rate, not an
        outage. A data page that fails its CRC
        (:class:`~repro.errors.CorruptPage`) is not degraded: the scan
        would read the same damaged bytes, so it raises.
        """
        hub, clock = get_hub(), self.client.store.clock
        if self.shed_on_overload:
            admitted = self._admission.acquire(blocking=False)
            if not admitted:
                with self._stats_lock:
                    self.stats.rejected += 1
                # Not ``serve.queries``: a shed query was never answered,
                # and that series is the availability SLO's denominator.
                hub.series("serve.rejected").observe(at_s=clock.now())
                raise ServerOverloaded(
                    f"{self.max_inflight} queries already in flight"
                )
        else:
            self._admission.acquire()
        inflight = hub.series("serve_inflight_queries")
        inflight.add(1, at_s=clock.now())
        try:
            flight_key = (
                column,
                _query_fingerprint(query),
                k,
                snapshot.version if snapshot is not None else None,
                partition,
            )
            # Only the flight leader executes, so only it holds the
            # finished span tree (and therefore the attribution bill)
            # and only it is billed the flight's requests — those of
            # every attempt, so a degraded query's failed first attempt
            # counts too; shared callers record a latency observation
            # and nothing else — costs were incurred exactly once.
            flight = {"root": None, "run": None}

            def execute() -> SearchResult:
                with Run() as run, get_tracer().span(
                    "serve.query", column=column, k=k
                ) as root:
                    flight["root"], flight["run"] = root, run
                    try:
                        return self.executor.search(
                            column,
                            query,
                            k=k,
                            snapshot=snapshot,
                            partition=partition,
                        )
                    except CorruptPage:
                        # The data file itself is damaged: a scan reads
                        # the same bytes, unchecked, and could answer
                        # wrong without a sign.
                        raise
                    except (ObjectStoreError, FormatError):
                        # Graceful degradation: an index component read
                        # failed (file vacuumed under us, corrupt blob,
                        # transient store fault). Indices only
                        # accelerate — the same answer is reachable by
                        # scanning, so serve it degraded rather than
                        # failing the query. Data-file losses surface
                        # as SnapshotNotFound, and damage as
                        # CorruptPage, and still propagate.
                        with self._stats_lock:
                            self.stats.degraded += 1
                        with get_tracer().span(
                            "serve.degraded", column=column, k=k
                        ):
                            result = self.executor.search(
                                column,
                                query,
                                k=k,
                                snapshot=snapshot,
                                partition=partition,
                                use_indices=False,
                            )
                        result.degraded = True
                        return result

            result, shared = self._flights.do_detailed(flight_key, execute)
            modeled_s = result.stats.estimated_latency(self.latency_model)
            fresh_matches = self._count_fresh(result)
            with self._stats_lock:
                self.stats.queries += 1
                if shared:
                    self.stats.deduplicated += 1
                else:
                    self.stats.total_requests += flight["run"].trace.total_requests
                self.stats.observe_latency(modeled_s)
                self.stats.fresh_matches += fresh_matches
            self._record_telemetry(
                hub,
                modeled_s,
                root=flight["root"],
                run=flight["run"],
                degraded=result.degraded and not shared,
                fresh_matches=fresh_matches,
            )
            return result
        finally:
            inflight.add(-1, at_s=clock.now())
            self._admission.release()

    def _count_fresh(self, result: SearchResult) -> int:
        """Matches served from the ingest fresh tier (WAL-backed
        memtables), recognized by their WAL-segment file identity."""
        tier = getattr(self.client, "fresh_tier", None)
        if tier is None:
            return 0
        prefix = tier.wal.prefix
        return sum(1 for m in result.matches if m.file.startswith(prefix))

    def _record_telemetry(
        self,
        hub,
        modeled_s: float,
        *,
        root,
        run,
        degraded: bool,
        fresh_matches: int = 0,
    ) -> None:
        """Feed the per-query outcome into the process telemetry hub.

        Every caller (leader or deduplicated) contributes a latency
        observation and a query count — that is what it experienced.
        Only the flight leader carries ``root`` and ``run`` (``None``
        marks a deduplicated caller), so only it is billed into
        ``serve.cost_usd``, which the cost ledger folds: the spend
        happened once. The bill is attributed from the finished span
        tree, or priced from the run's trace when the tracer kept no
        spans; the tail and flight recorders need the spans. When the
        flight recorder retains the query, its trace id rides the
        latency observation as the sketch's exemplar.
        """
        at_s = self.client.store.clock.now()
        trace_id: str | None = None
        bill = cost_usd = None
        if root is not None and root.end_s is not None:
            bill = attribute(root, latency=self.latency_model)
            cost_usd = bill.total_cost_usd()
            recorder = get_flight_recorder()
            if recorder is not None:
                retained = recorder.record(
                    root,
                    latency_s=modeled_s,
                    at_s=at_s,
                    error=degraded,
                    hub=hub,
                )
                if retained is not None:
                    trace_id = retained.trace_id
        elif run is not None:
            _, cost_usd = price_trace(run.trace, latency=self.latency_model)
        hub.quantiles("serve.latency_s").observe(
            modeled_s, at_s=at_s, trace_id=trace_id
        )
        hub.series("serve.queries").observe(1.0, at_s=at_s)
        if root is None:
            hub.series("serve.deduplicated").observe(1.0, at_s=at_s)
        if fresh_matches:
            hub.series("ingest.fresh_matches").observe(
                float(fresh_matches), at_s=at_s
            )
        if degraded:
            hub.series("serve.degraded").observe(1.0, at_s=at_s)
        if cost_usd is not None:
            hub.series("serve.cost_usd").observe(cost_usd, at_s=at_s)
        if bill is not None:
            hub.tail.record_bill(bill, modeled_s, at_s=at_s, degraded=degraded)
