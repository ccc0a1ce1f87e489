"""Sharded multi-node serving: shard planning + scatter-gather routing.

The production-scale layer over one-lake serving: a
:class:`~repro.shard.plan.ShardPlan` splits a lake into N shards (hash
or range on a key column) with R replica servers each, and a
:class:`~repro.shard.router.QueryRouter` scatter-gathers queries over
the deployment — pruning shards the predicate rules out, modeling
latency per fan-out wave, hedging slow primaries to replicas
(:class:`~repro.shard.hedge.HedgePolicy`), and merging per-shard
results with a global top-k heap merge. :func:`~repro.shard.slo
.router_slo` wires the per-shard series into the burn-rate SLO
machinery, and :mod:`repro.shard.bench` is the modeled scaling
scenario behind ``repro shard-bench`` and
``benchmarks/bench_sharding.py``.
"""

from repro.shard.hedge import HedgePolicy
from repro.shard.plan import (
    SHARD_INDEX_DIR,
    SHARD_LAKE_ROOT,
    ShardDeployment,
    ShardGroup,
    ShardPlan,
    ShardReplica,
    ShardSpec,
    hash_shard,
)
from repro.core.results import merge_exact, merge_topk
from repro.shard.router import QueryRouter, RoutedResult, ShardOutcome
from repro.shard.slo import router_slo, shard_latency_series

__all__ = [
    "SHARD_INDEX_DIR",
    "SHARD_LAKE_ROOT",
    "HedgePolicy",
    "QueryRouter",
    "RoutedResult",
    "ShardDeployment",
    "ShardGroup",
    "ShardOutcome",
    "ShardPlan",
    "ShardReplica",
    "ShardSpec",
    "hash_shard",
    "merge_exact",
    "merge_topk",
    "router_slo",
    "shard_latency_series",
]
