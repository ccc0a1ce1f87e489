"""Baseline engines: the brute-force scan cluster model and copy-data
systems. The scan itself is the search plan with ``use_indices=False``."""

from repro.engines.bruteforce import BruteForceModel
from repro.engines.dedicated import (
    LANCEDB_MODEL,
    OPENSEARCH_MODEL,
    DedicatedModel,
    DedicatedSearchSystem,
    lance_cold_latency,
)

__all__ = [
    "BruteForceModel",
    "DedicatedModel",
    "DedicatedSearchSystem",
    "OPENSEARCH_MODEL",
    "LANCEDB_MODEL",
    "lance_cold_latency",
]
