"""Scatter-gather query router over a sharded deployment.

:class:`QueryRouter` is the stateless front door of a
:class:`~repro.shard.plan.ShardDeployment`: it prunes shards that
cannot hold matches (hash placement for exact-key queries, min-max
spans for range placement, partition sets always), fans the survivors
out over a :class:`~repro.storage.pool.TracedPool` so an N-shard
query's latency composes per wave (max within a wave, sum across
waves) exactly like the executor's modeled fan-out, load-balances each
shard across its replicas round-robin, hedges slow primaries to a
replica per :class:`~repro.shard.hedge.HedgePolicy`, and merges the
per-shard answers — a global top-k heap merge for scoring queries, a
deterministic union for exact ones.

Failure is per shard, never silent: a shard whose index reads fail
degrades to brute-force inside its own :class:`~repro.serve
.SearchServer` (exact answers, counted degraded); a shard whose *data*
reads fail is reported in :attr:`RoutedResult.failed_shards` (partial
mode) or raises :class:`~repro.errors.ShardUnavailable` (error mode).
Per-shard latency/traffic land in the telemetry hub under
``router.shard<N>.*`` — the same sketches the hedge policy and the
per-shard SLOs (:func:`repro.shard.slo.router_slo`) read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.queries import Query
from repro.core.results import SearchMatch, merge_exact, merge_topk
from repro.core.search import probe_fresh
from repro.errors import ShardError, ShardUnavailable
from repro.obs.attribution import price_iostats
from repro.obs.timeseries import get_hub
from repro.obs.trace import get_tracer
from repro.shard.hedge import HedgePolicy
from repro.shard.plan import ShardDeployment, ShardGroup, ShardReplica
from repro.storage.costs import CostModel
from repro.storage.pool import TracedPool
from repro.storage.stats import IOStats

#: Instance type the per-shard searcher compute is priced on.
ROUTER_INSTANCE = "c6i.2xlarge"
#: Prices of a routed query's requests and searcher compute.
ROUTER_COSTS = CostModel()


@dataclass
class ShardOutcome:
    """What one shard contributed to a routed query."""

    shard_id: int
    replica_id: int = 0
    matches: list[SearchMatch] = field(default_factory=list)
    latency_s: float = 0.0
    requests: int = 0
    request_usd: float = 0.0
    hedged: bool = False
    hedge_won: bool = False
    degraded: bool = False
    error: Exception | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class RoutedResult:
    """Merged answer plus per-shard accounting for one routed query."""

    matches: list[SearchMatch]
    outcomes: list[ShardOutcome]
    shards_pruned: int
    modeled_latency_s: float
    request_usd: float
    compute_usd: float

    @property
    def shards_queried(self) -> int:
        return len(self.outcomes)

    @property
    def failed_shards(self) -> list[int]:
        return [o.shard_id for o in self.outcomes if o.failed]

    @property
    def degraded_shards(self) -> list[int]:
        return [o.shard_id for o in self.outcomes if o.degraded]

    @property
    def hedges(self) -> int:
        return sum(1 for o in self.outcomes if o.hedged)

    @property
    def hedge_wins(self) -> int:
        return sum(1 for o in self.outcomes if o.hedge_won)

    @property
    def total_requests(self) -> int:
        return sum(o.requests for o in self.outcomes)

    @property
    def cost_usd(self) -> float:
        return self.request_usd + self.compute_usd

    @property
    def complete(self) -> bool:
        """True when every queried shard answered."""
        return not any(o.failed for o in self.outcomes)


class QueryRouter:
    """Stateless scatter-gather router over a :class:`ShardDeployment`.

    ``fanout`` bounds how many shards are queried concurrently (one
    TracedPool wave); it defaults to the shard count, so a healthy
    deployment answers in a single wave whose modeled latency is the
    slowest shard, not the sum. ``on_shard_failure`` picks between
    raising :class:`ShardUnavailable` (``"error"``, default) and
    returning a partial result with :attr:`RoutedResult.failed_shards`
    populated (``"partial"``) — failures are reported either way,
    never silently dropped from the merge.
    """

    def __init__(
        self,
        deployment: ShardDeployment,
        *,
        fanout: int | None = None,
        hedge: HedgePolicy | None = HedgePolicy(),
        prune: bool = True,
        on_shard_failure: str = "error",
        fresh_tier=None,
    ) -> None:
        if on_shard_failure not in ("error", "partial"):
            raise ShardError(
                "on_shard_failure must be 'error' or 'partial', "
                f"got {on_shard_failure!r}"
            )
        self.deployment = deployment
        self.hedge = hedge
        #: Optional :class:`repro.ingest.IngestTier` over the *source*
        #: lake. Shards are materialized from committed lake data, so
        #: acked-but-undrained rows exist on no shard; the router
        #: merges the tier's fresh view as one more sorted run so the
        #: sharded path honors the same freshness contract as a single
        #: server. The probe is pinned to the snapshot the shards were
        #: materialized from (and leased against eviction via
        #: ``tier.pin``): a drain committed after materialization
        #: advances the *current* floor, but its rows are on no shard —
        #: probing the current snapshot would silently drop them.
        self.fresh_tier = fresh_tier
        self._fresh_snapshot = None
        self._fresh_lease = None
        if fresh_tier is not None:
            self._fresh_snapshot = (
                deployment.source_snapshot or fresh_tier.lake.snapshot()
            )
            self._fresh_lease = fresh_tier.pin(self._fresh_snapshot)
        self.prune = prune
        self.on_shard_failure = on_shard_failure
        self.fanout = fanout or max(1, deployment.n_shards)
        # Shard requests are recorded inside each replica's server,
        # whose traces nest inside the pool task's on the same thread.
        self._pool = TracedPool(
            workers=self.fanout,
            thread_name_prefix="router",
            span_name="router:shard",
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self.fresh_tier is not None and self._fresh_lease is not None:
            self.fresh_tier.unpin(self._fresh_lease)
            self._fresh_lease = None
        self._pool.close()

    def __enter__(self) -> "QueryRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving -------------------------------------------------------
    def query(
        self,
        column: str,
        query: Query,
        *,
        k: int = 10,
        partition: str | None = None,
    ) -> RoutedResult:
        """Scatter ``query`` to eligible shards, gather, merge top-k."""
        hub = get_hub()
        at_s = self.deployment.clock.now() if self.deployment.clock else 0.0
        groups, pruned = self.deployment.route(
            column, query, partition=partition, prune=self.prune
        )
        if pruned:
            hub.series("router_shards_pruned_total").observe(pruned, at_s=at_s)
        with get_tracer().span("router.query", column=column, k=k):
            tasks = [
                partial(self._query_shard, group, column, query, k, partition, hub)
                for group in groups
            ]
            outcomes: list[ShardOutcome] = []
            if tasks:
                _, outcomes = self._pool.run(tasks)

        failed = [o for o in outcomes if o.failed]
        if failed and self.on_shard_failure == "error":
            # Unanswered, so not in ``router.queries``.
            hub.series("router.failed").observe(at_s=at_s)
            raise ShardUnavailable(
                f"{len(failed)} shard(s) failed: "
                + ", ".join(
                    f"shard{o.shard_id}: {o.error}" for o in failed
                )
            ) from failed[0].error

        answered = [o for o in outcomes if not o.failed]
        per_shard = [o.matches for o in answered]
        if self.fresh_tier is not None and partition is None:
            # The fresh tier is one more sorted run in the global
            # merge, probed at the *materialization* snapshot's floor
            # (not the lake's current one — rows drained since then are
            # on no shard).
            per_shard.append(
                probe_fresh(
                    self.fresh_tier, column, query, k, self._fresh_snapshot
                )
            )
        if query.scoring:
            matches = merge_topk(per_shard, k)
        else:
            matches = merge_exact(per_shard, k)

        # Wave composition: within a wave shards run in parallel (max),
        # waves run sequentially (sum) — TracedPool's execution shape.
        modeled = 0.0
        for start in range(0, len(outcomes), self.fanout):
            wave = outcomes[start : start + self.fanout]
            modeled += max((o.latency_s for o in wave), default=0.0)
        request_usd = sum(o.request_usd for o in outcomes)
        compute_usd = sum(
            ROUTER_COSTS.compute_cost(ROUTER_INSTANCE, o.latency_s)
            for o in outcomes
        )

        hub.quantiles("router.latency_s").observe(modeled, at_s=at_s)
        hub.series("router.queries").observe(1.0, at_s=at_s)
        hub.series("router.cost_usd").observe(
            request_usd + compute_usd, at_s=at_s
        )
        return RoutedResult(
            matches=matches,
            outcomes=outcomes,
            shards_pruned=pruned,
            modeled_latency_s=modeled,
            request_usd=request_usd,
            compute_usd=compute_usd,
        )

    # -- per-shard execution -------------------------------------------
    def _query_shard(
        self,
        group: ShardGroup,
        column: str,
        query: Query,
        k: int,
        partition: str | None,
        hub,
    ) -> ShardOutcome:
        shard_id = group.shard_id
        at_s = self.deployment.clock.now() if self.deployment.clock else 0.0
        replica = group.pick()
        outcome = ShardOutcome(shard_id=shard_id, replica_id=replica.replica_id)
        try:
            result, latency = self._attempt(
                replica, column, query, k, partition
            )
        except Exception as exc:
            outcome.error = exc
            hub.series(f"router.shard{shard_id}.queries").observe(1.0, at_s=at_s)
            hub.series(f"router.shard{shard_id}.failed").observe(1.0, at_s=at_s)
            return outcome
        outcome.degraded = result.degraded
        outcome.requests = result.stats.trace.total_requests
        outcome.request_usd = price_iostats(
            IOStats().fold(result.stats.trace), ROUTER_COSTS
        )

        threshold = self._hedge_threshold(group, shard_id, hub)
        if threshold is not None and latency > threshold:
            outcome.hedged = True
            hub.series("router.hedges").observe(1.0, at_s=at_s)
            peer = group.peer_of(replica)
            try:
                # The hedge runs under a span tagged `hedge=True` plus
                # the originating trace id, so critical-path attribution
                # and the flight recorder can tell a hedged retry from
                # an independent query (and never double-count winner
                # and loser as two slow queries).
                with get_tracer().span(
                    "router.hedge",
                    hedge=True,
                    shard=shard_id,
                    origin_trace_id=self._origin_trace_id(),
                ):
                    hedge_result, hedge_latency = self._attempt(
                        peer, column, query, k, partition
                    )
                # The hedge launches when the primary crosses the
                # threshold; whichever answer lands first wins and the
                # loser is cancelled. Both sets of issued requests are
                # still paid for.
                effective = threshold + hedge_latency
                outcome.requests += hedge_result.stats.trace.total_requests
                outcome.request_usd += price_iostats(
                    IOStats().fold(hedge_result.stats.trace), ROUTER_COSTS
                )
                if effective < latency:
                    outcome.hedge_won = True
                    hub.series("router.hedge_wins").observe(1.0, at_s=at_s)
                    result, latency = hedge_result, effective
                    outcome.degraded = hedge_result.degraded
                    outcome.replica_id = peer.replica_id
            except Exception:
                pass  # hedge lost by dying; the primary answer stands

        outcome.matches = result.matches
        outcome.latency_s = latency
        hub.quantiles(f"router.shard{shard_id}.latency_s").observe(
            latency, at_s=at_s
        )
        hub.series(f"router.shard{shard_id}.queries").observe(1.0, at_s=at_s)
        return outcome

    @staticmethod
    def _origin_trace_id() -> str:
        """Identity of the query this hedge retries: the root span's
        retained trace id when the flight recorder assigned one, else
        the root span id (stable within the process)."""
        span = get_tracer().current()
        if span is None:
            return ""
        while span.parent is not None:
            span = span.parent
        return str(span.attributes.get("trace_id", span.span_id))

    def _attempt(
        self,
        replica: ShardReplica,
        column: str,
        query: Query,
        k: int,
        partition: str | None,
    ):
        """One replica query: (result, modeled latency).

        Degradation (index-read failure -> brute-force retry) happens
        inside the replica's server, which marks the answer it returns
        (``result.degraded``) — per query, not per server.
        """
        result = replica.server.query(column, query, k=k, partition=partition)
        return result, result.stats.estimated_latency(replica.latency_model)

    def _hedge_threshold(
        self, group: ShardGroup, shard_id: int, hub
    ) -> float | None:
        if self.hedge is None or len(group.replicas) < 2:
            return None
        sketch = hub.quantiles(f"router.shard{shard_id}.latency_s").merged()
        return self.hedge.threshold_s(sketch)
