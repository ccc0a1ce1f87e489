"""Shared benchmark scaffolding.

Each figure benchmark builds an MB-scale simulated deployment, measures
per-query behaviour (request traces -> modeled latency, bytes, request
counts), and *scales storage-linear quantities* to the paper's dataset
sizes (304 GB C4 text, 2 B x 128 B hashes, SIFT-1B). §VII-D2 of the
paper justifies the linear extrapolation: all TCO parameters except
``cpq_r`` scale almost perfectly linearly with dataset size under a
fixed distribution, and ``cpq_r`` is ~constant after index compaction.

Indexing compute (``ic_r``) is priced with calibrated *native* indexing
throughputs rather than this repo's Python wall-clock (the paper's
indexer is Rust; pricing Python's slowness into the TCO would distort
the diagrams — see EXPERIMENTS.md "Substitutions").
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.client import RottnestClient, SearchResult
from repro.engines.bruteforce import BruteForceModel
from repro.obs.export import update_bench_json
from repro.engines.dedicated import OPENSEARCH_MODEL
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig, seeded_entropy
from repro.storage.costs import GB, CostModel
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore
from repro.tco.model import ApproachCost
from repro.util.clock import SimClock
from repro.workloads.text import TextWorkload
from repro.workloads.uuids import UuidWorkload
from repro.workloads.vectors import VectorWorkload

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Paper dataset sizes (compressed bytes on S3).
PAPER_TEXT_BYTES = 304 * GB
PAPER_UUID_BYTES = 2_000_000_000 * 128  # 2B 128-byte hashes, ~fully random
PAPER_VECTOR_BYTES = 1_000_000_000 * 128  # SIFT-1B at 128 x u8 -> bytes

#: Calibrated end-to-end native indexing throughput (bytes of raw data
#: per second per c6i.2xlarge, including compaction passes) per index
#: type; see EXPERIMENTS.md. The paper's indexer is native Rust, so
#: pricing ic_r off this repo's Python wall-clock would distort TCO.
NATIVE_INDEX_RATE = {"fm": 8e6, "uuid_trie": 6e6, "ivf_pq": 0.8e6}

#: Rottnest single-searcher latencies the paper reports at full dataset
#: scale (§VII-A). Micro-scale simulated indices are shallower, so the
#: headline phase diagrams use these; the measured-micro variants are
#: reported alongside.
PAPER_LATENCY = {"fm": 4.6, "uuid_trie": 1.7, "ivf_pq": 2.3}

SEARCHER_INSTANCE = "c6i.2xlarge"
BRUTE_WORKERS = 8  # the paper's most cost-efficient brute configuration

#: Per-workload brute-force scan models. The per-worker rate is the
#: decompress+match throughput of one r6i.4xlarge, calibrated so the
#: 64-worker latencies land near the paper's §VII-A numbers
#: (substring 19.8 s, UUID 7.3 s, vector 12.4 s at full dataset scale).
BRUTE_MODELS = {
    "fm": BruteForceModel(scan_rate_bytes_per_s=0.35e9),
    "uuid_trie": BruteForceModel(scan_rate_bytes_per_s=0.9e9),
    "ivf_pq": BruteForceModel(scan_rate_bytes_per_s=0.23e9),
}

COSTS = CostModel()
LATENCY = LatencyModel()


def results_path(name: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return os.path.join(RESULTS_DIR, name)


def write_result(name: str, text: str) -> None:
    with open(results_path(name), "w") as f:
        f.write(text if text.endswith("\n") else text + "\n")


def write_bench(
    bench: str,
    measurement: str,
    *,
    metrics: dict,
    params: dict | None = None,
) -> dict:
    """Merge one measurement into ``results/BENCH_<bench>.json``.

    Machine-readable companion to :func:`write_result`: successive PRs
    diff these files to track the perf trajectory (schema in
    :mod:`repro.obs.export`).
    """
    return update_bench_json(
        results_path(f"BENCH_{bench}.json"),
        bench,
        measurement,
        metrics=metrics,
        params=params,
    )


@dataclass
class Scenario:
    """One simulated deployment plus its measured sizes."""

    store: InMemoryObjectStore
    lake: LakeTable
    client: RottnestClient
    column: str
    index_type: str
    data_bytes: int
    index_bytes: int

    @property
    def expansion(self) -> float:
        """Index bytes per data byte (drives ``cpm_r``)."""
        return self.index_bytes / self.data_bytes


def build_text_scenario(
    *,
    docs_per_file: int = 400,
    files: int = 3,
    avg_chars: int = 400,
    seed: int = 0,
) -> Scenario:
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("text", ColumnType.STRING))
    lake = LakeTable.create(
        store, "lake/text", schema,
        TableConfig(row_group_rows=2000, page_target_bytes=64 * 1024),
        entropy=seeded_entropy(0),
    )
    gen = TextWorkload(seed=seed, vocabulary_size=2000)
    for _ in range(files):
        lake.append({"text": gen.documents(docs_per_file, avg_chars)})
    client = RottnestClient(store, "idx/text", lake)
    client.index(
        "text",
        "fm",
        params={
            "block_size": 32 * 1024,
            "sample_rate": 64,
            # The paper's storage profile: no per-position page map.
            "store_pagemap": False,
        },
    )
    return Scenario(
        store=store,
        lake=lake,
        client=client,
        column="text",
        index_type="fm",
        data_bytes=lake.snapshot().total_bytes,
        index_bytes=store.total_bytes("idx/text/files/"),
    )


def build_uuid_scenario(
    *, keys_per_file: int = 8000, files: int = 3, seed: int = 0,
    key_nbytes: int = 128,
) -> Scenario:
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("uuid", ColumnType.BINARY))
    lake = LakeTable.create(
        store, "lake/uuid", schema,
        TableConfig(row_group_rows=4000, page_target_bytes=64 * 1024),
        entropy=seeded_entropy(0),
    )
    gen = UuidWorkload(seed=seed, nbytes=key_nbytes)  # paper: 128-byte hashes
    for _ in range(files):
        lake.append({"uuid": gen.batch(keys_per_file)})
    client = RottnestClient(store, "idx/uuid", lake)
    client.index("uuid", "uuid_trie")
    scenario = Scenario(
        store=store,
        lake=lake,
        client=client,
        column="uuid",
        index_type="uuid_trie",
        data_bytes=lake.snapshot().total_bytes,
        index_bytes=store.total_bytes("idx/uuid/files/"),
    )
    scenario.uuid_gen = gen  # type: ignore[attr-defined]
    return scenario


def build_vector_scenario(
    *,
    vectors_per_file: int = 3000,
    files: int = 2,
    dim: int = 64,
    nlist: int = 48,
    m: int = 16,
    seed: int = 0,
    n_clusters: int = 48,
    noise_scale: float = 1.0,
) -> Scenario:
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("emb", ColumnType.VECTOR, vector_dim=dim))
    lake = LakeTable.create(
        store, "lake/vec", schema,
        TableConfig(row_group_rows=5000, page_target_bytes=64 * 1024),
        entropy=seeded_entropy(0),
    )
    gen = VectorWorkload(
        dim=dim, n_clusters=n_clusters, noise_scale=noise_scale, seed=seed
    )
    chunks = [gen.batch(vectors_per_file) for _ in range(files)]
    for chunk in chunks:
        lake.append({"emb": chunk})
    client = RottnestClient(store, "idx/vec", lake)
    client.index("emb", "ivf_pq", params={"nlist": nlist, "m": m})
    scenario = Scenario(
        store=store,
        lake=lake,
        client=client,
        column="emb",
        index_type="ivf_pq",
        data_bytes=lake.snapshot().total_bytes,
        index_bytes=store.total_bytes("idx/vec/files/"),
    )
    scenario.vector_gen = gen  # type: ignore[attr-defined]
    scenario.corpus = np.vstack(chunks)  # type: ignore[attr-defined]
    return scenario


def mean_search_latency(results: list[SearchResult]) -> float:
    """Average modeled wall-clock latency over search results."""
    return float(
        np.mean([r.stats.estimated_latency(LATENCY) for r in results])
    )


def searcher_cpq(latency_s: float) -> float:
    """Dollars per Rottnest query: one searcher instance for the query's
    duration (shared-nothing, §VIII)."""
    return latency_s * COSTS.instance_hourly(SEARCHER_INSTANCE) / 3600.0


def approaches_for(
    *,
    name_suffix: str,
    paper_bytes: int,
    expansion: float,
    rottnest_latency_s: float,
    index_type: str,
    dedicated_model=OPENSEARCH_MODEL,
    brute_model: BruteForceModel | None = None,
    extra_monthly_storage_bytes: float = 0.0,
) -> tuple[ApproachCost, ApproachCost, ApproachCost]:
    """(copy_data, brute_force, rottnest) at paper scale."""
    brute_model = brute_model or BRUTE_MODELS.get(index_type, BruteForceModel())
    cpm_i = dedicated_model.monthly_cost(paper_bytes, COSTS)
    cpm_bf = COSTS.storage_monthly(paper_bytes)
    cpq_bf = brute_model.cost_per_query(paper_bytes, BRUTE_WORKERS, COSTS)
    brute_latency = brute_model.latency(paper_bytes, BRUTE_WORKERS)
    index_bytes = paper_bytes * expansion + extra_monthly_storage_bytes
    cpm_r = COSTS.storage_monthly(int(paper_bytes + index_bytes))
    ic_r = (
        paper_bytes
        / NATIVE_INDEX_RATE[index_type]
        * COSTS.instance_hourly(SEARCHER_INSTANCE)
        / 3600.0
    )
    copy = ApproachCost(
        name="copy-data",
        cost_per_month=cpm_i,
        min_latency_s=dedicated_model.query_latency_s,
    )
    brute = ApproachCost(
        name="brute-force",
        cost_per_month=cpm_bf,
        cost_per_query=cpq_bf,
        min_latency_s=brute_latency,
    )
    rott = ApproachCost(
        name="rottnest",
        index_cost=ic_r,
        cost_per_month=cpm_r,
        cost_per_query=searcher_cpq(rottnest_latency_s),
        min_latency_s=rottnest_latency_s,
    )
    return copy, brute, rott
