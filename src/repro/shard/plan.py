"""Shard planning: partition one lake into N shards plus replicas.

A :class:`ShardPlan` says *how* a lake is split — ``hash`` (uniform,
routable for exact-key lookups) or ``range`` (contiguous key spans,
routable for range predicates) on one key column, with ``replicas``
serving copies per shard. :meth:`ShardPlan.materialize` executes the
plan: it reads the source lake's live rows once, buckets them by shard
(preserving Hive-style partitions, so partition pruning keeps working
inside every shard), writes one independent lake per shard, builds the
requested indexes per shard (tolerating :class:`~repro.errors
.IndexAborted` when a shard falls under an index's row floor — the
shard then serves brute-force, which is still exact), and stands up
``replicas`` :class:`~repro.serve.SearchServer` instances per shard,
each with its own cache and latency model.

The resulting :class:`ShardDeployment` is the routing table the
:class:`~repro.shard.router.QueryRouter` scatter-gathers over: per
shard it records the key min/max, the partition set, and the row
count, which is what pruning consults. Replicas of one shard share the
shard's object store (same bytes) but never a cache — they model
separate serving nodes.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.core.client import RottnestClient
from repro.core.queries import Query, UuidQuery, may_hold
from repro.errors import IndexAborted, ShardError
from repro.lake.table import LakeTable, TableConfig
from repro.serve.server import SearchServer
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore, ObjectStore

#: Every shard lake lives at the same root inside its own store.
SHARD_LAKE_ROOT = "lake/shard"

#: Every shard's index metadata table lives here inside its own store.
SHARD_INDEX_DIR = "idx/shard"


def key_bytes(key: object) -> bytes:
    """Canonical bytes of a shard key for hashing."""
    if isinstance(key, (bytes, bytearray, memoryview)):
        return bytes(key)
    if isinstance(key, str):
        return key.encode("utf-8")
    return str(key).encode("utf-8")


def hash_shard(key: object, n_shards: int) -> int:
    """Stable hash placement of ``key`` into ``n_shards`` buckets."""
    digest = hashlib.sha1(key_bytes(key)).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass(frozen=True)
class ShardSpec:
    """Routing metadata for one shard, recorded at materialize time."""

    shard_id: int
    num_rows: int
    data_files: int
    key_min: object = None
    key_max: object = None
    partitions: frozenset = frozenset()


@dataclass
class ShardReplica:
    """One serving node for a shard: a server plus its latency model.

    Replicas of a shard share the shard store (same bytes) but each
    wraps it in its own :class:`~repro.serve.cache.CachingObjectStore`
    — separate node, separate memory. The latency model is per replica
    so benchmarks and chaos tests can make one node slow.
    """

    shard_id: int
    replica_id: int
    server: SearchServer
    latency_model: LatencyModel


class ShardGroup:
    """One shard: its spec, store, and replica set with round-robin."""

    def __init__(
        self,
        spec: ShardSpec,
        store: ObjectStore,
        replicas: list[ShardReplica],
    ) -> None:
        self.spec = spec
        self.store = store
        self.replicas = replicas
        self._rr = 0
        self._lock = threading.Lock()

    @property
    def shard_id(self) -> int:
        return self.spec.shard_id

    def pick(self) -> ShardReplica:
        """Next replica, round-robin — the router's load balancing."""
        with self._lock:
            replica = self.replicas[self._rr % len(self.replicas)]
            self._rr += 1
        return replica

    def peer_of(self, replica: ShardReplica) -> ShardReplica | None:
        """A different replica to hedge to (None without replication)."""
        if len(self.replicas) < 2:
            return None
        index = self.replicas.index(replica)
        return self.replicas[(index + 1) % len(self.replicas)]

    def maintenance_client(self) -> RottnestClient:
        """An uncached client on the shard store, for index builds."""
        return RottnestClient(
            self.store, SHARD_INDEX_DIR, LakeTable.open(self.store, SHARD_LAKE_ROOT)
        )


@dataclass(frozen=True)
class ShardPlan:
    """How to split a lake: N shards by hash or range, R replicas."""

    n_shards: int
    shard_by: str = "hash"
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ShardError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.replicas < 1:
            raise ShardError(f"replicas must be >= 1, got {self.replicas}")
        if self.shard_by not in ("hash", "range"):
            raise ShardError(
                f"shard_by must be 'hash' or 'range', got {self.shard_by!r}"
            )

    # -- assignment ----------------------------------------------------
    def assign(self, key: object, boundaries: Sequence = ()) -> int:
        """Shard for ``key`` (range mode needs the fitted boundaries)."""
        if self.shard_by == "hash":
            return hash_shard(key, self.n_shards)
        return bisect_right(list(boundaries), key)

    def fit_boundaries(self, keys: Sequence) -> tuple:
        """Range-mode cut points: ``boundaries[i]`` is the smallest key
        of shard ``i + 1`` under an equi-depth split of ``keys``."""
        if self.shard_by != "range" or self.n_shards == 1 or not keys:
            return ()
        ordered = sorted(keys)
        cuts = []
        for i in range(1, self.n_shards):
            cuts.append(ordered[min(len(ordered) - 1, i * len(ordered) // self.n_shards)])
        return tuple(cuts)

    # -- materialization -----------------------------------------------
    def materialize(
        self,
        source: LakeTable,
        key_column: str,
        *,
        indexes: Sequence[tuple[str, str, dict]] = (),
        store_factory: Callable[[int], ObjectStore] | None = None,
        latency_model_for: Callable[[int, int], LatencyModel] | None = None,
        config: TableConfig | None = None,
        cache_budget_bytes: int | None = None,
        server_kwargs: dict | None = None,
    ) -> "ShardDeployment":
        """Split ``source``'s live rows into per-shard lakes + servers.

        ``indexes`` is ``(column, index_type, params)`` triples built on
        every shard (skipped per shard on :class:`IndexAborted`, e.g.
        the ivf_pq row floor — that shard serves brute-force).
        ``store_factory(shard_id)`` supplies each shard's object store
        (defaults to in-memory stores sharing the source clock, so the
        whole deployment runs on one simulated timeline);
        ``latency_model_for(shard_id, replica_id)`` supplies per-node
        latency models (defaults to the stock model everywhere).
        """
        snap = source.snapshot()
        schema = source.schema
        if key_column not in schema.names:
            raise ShardError(
                f"key column {key_column!r} not in schema {schema.names}"
            )
        config = config or source.config

        # One buffered pass over the source: (partition, columns) per file.
        buffered: list[tuple[str | None, dict[str, list]]] = []
        all_keys: list = []
        for entry in snap.files:
            columns = source.read_group(snap, [entry])
            buffered.append((LakeTable.partition_of(entry.path), columns))
            all_keys.extend(columns[key_column])
        boundaries = self.fit_boundaries(all_keys)

        clock = source.store.clock
        factory = store_factory or (
            lambda shard_id: InMemoryObjectStore(clock=clock)
        )
        stores = [factory(i) for i in range(self.n_shards)]
        lakes = [
            LakeTable.create(stores[i], SHARD_LAKE_ROOT, schema, config)
            for i in range(self.n_shards)
        ]

        rows: list[int] = [0] * self.n_shards
        files: list[int] = [0] * self.n_shards
        mins: list = [None] * self.n_shards
        maxs: list = [None] * self.n_shards
        partitions: list[set] = [set() for _ in range(self.n_shards)]
        for partition, columns in buffered:
            per_shard: dict[int, dict[str, list]] = {}
            for row, key in enumerate(columns[key_column]):
                shard = self.assign(key, boundaries)
                bucket = per_shard.setdefault(
                    shard, {name: [] for name in schema.names}
                )
                for name in schema.names:
                    bucket[name].append(columns[name][row])
                rows[shard] += 1
                if mins[shard] is None or key < mins[shard]:
                    mins[shard] = key
                if maxs[shard] is None or key > maxs[shard]:
                    maxs[shard] = key
            for shard in sorted(per_shard):
                lakes[shard].append(per_shard[shard], partition=partition)
                files[shard] += 1
                if partition is not None:
                    partitions[shard].add(partition)

        groups = []
        for shard_id in range(self.n_shards):
            spec = ShardSpec(
                shard_id=shard_id,
                num_rows=rows[shard_id],
                data_files=files[shard_id],
                key_min=mins[shard_id],
                key_max=maxs[shard_id],
                partitions=frozenset(partitions[shard_id]),
            )
            groups.append(ShardGroup(spec, stores[shard_id], replicas=[]))

        deployment = ShardDeployment(
            plan=self,
            key_column=key_column,
            boundaries=boundaries,
            groups=groups,
            clock=clock,
            source_snapshot=snap,
        )
        if indexes:
            deployment.build_indexes(indexes)

        for group in groups:
            for replica_id in range(self.replicas):
                model = (
                    latency_model_for(group.shard_id, replica_id)
                    if latency_model_for is not None
                    else LatencyModel()
                )
                kwargs = dict(server_kwargs or {})
                kwargs.setdefault("latency_model", model)
                server = SearchServer.for_lake(
                    group.store,
                    SHARD_INDEX_DIR,
                    SHARD_LAKE_ROOT,
                    cache_budget_bytes=cache_budget_bytes,
                    **kwargs,
                )
                group.replicas.append(
                    ShardReplica(
                        shard_id=group.shard_id,
                        replica_id=replica_id,
                        server=server,
                        latency_model=model,
                    )
                )
        return deployment


@dataclass
class ShardDeployment:
    """A materialized plan: shard groups plus the routing metadata."""

    plan: ShardPlan
    key_column: str
    boundaries: tuple
    groups: list[ShardGroup]
    clock: object = None
    #: The source-lake snapshot the shards were built from. Routers
    #: pin their fresh-tier probe to it: rows drained into the source
    #: lake *after* materialization exist on no shard, so they must
    #: keep being served fresh, not vanish below an advanced floor.
    source_snapshot: object = None
    _closed: bool = field(default=False, repr=False)

    @property
    def n_shards(self) -> int:
        return len(self.groups)

    @property
    def total_rows(self) -> int:
        return sum(g.spec.num_rows for g in self.groups)

    def assign(self, key: object) -> int:
        """Shard that owns ``key`` under this deployment's plan."""
        return self.plan.assign(key, self.boundaries)

    # -- pruning -------------------------------------------------------
    def route(
        self,
        column: str,
        query: Query,
        *,
        partition: str | None = None,
        prune: bool = True,
    ) -> tuple[list[ShardGroup], int]:
        """Shards that may hold matches, and how many were pruned.

        Pruning is sound by construction: hash placement means an
        exact-key query on the shard key can only match its assigned
        shard; range placement gives contiguous key spans checked
        against each shard's min/max; partitioned appends preserve the
        partition inside each shard, so a shard without the partition
        cannot contribute. Empty shards never contribute.
        """
        if not prune:
            return list(self.groups), 0
        eligible = []
        for group in self.groups:
            spec = group.spec
            if spec.num_rows == 0:
                continue
            if partition is not None and partition not in spec.partitions:
                continue
            if column == self.key_column and not self._may_contain(spec, query):
                continue
            eligible.append(group)
        return eligible, len(self.groups) - len(eligible)

    def _may_contain(self, spec: ShardSpec, query: Query) -> bool:
        if self.plan.shard_by == "hash":
            if isinstance(query, UuidQuery):
                return spec.shard_id == self.assign(query.key)
            return True
        return may_hold(query, spec.key_min, spec.key_max)

    # -- maintenance ---------------------------------------------------
    def build_indexes(self, indexes: Sequence[tuple[str, str, dict]]) -> int:
        """Build ``(column, type, params)`` indexes on every shard.

        Returns the number of successful builds. A shard under an
        index's row floor aborts (:class:`IndexAborted`) and is left
        unindexed — its queries brute-force, which is still exact.
        """
        built = 0
        for group in self.groups:
            client = group.maintenance_client()
            for column, index_type, params in indexes:
                try:
                    client.index(column, index_type, params=dict(params))
                    built += 1
                except IndexAborted:
                    continue
        return built

    def warmup(self) -> int:
        """Warm every replica's cache; returns index files warmed."""
        return sum(
            replica.server.warmup()
            for group in self.groups
            for replica in group.replicas
        )

    # -- lifecycle -----------------------------------------------------
    def replicas(self) -> Iterator[ShardReplica]:
        """All replicas across all shards."""
        for group in self.groups:
            yield from group.replicas

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for replica in self.replicas():
            replica.server.close()

    def __enter__(self) -> "ShardDeployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
