"""Rottnest index types and the type registry.

Importing this package registers the three built-in index types:
``uuid_trie``, ``fm`` (substring) and ``ivf_pq`` (vector ANN).
"""

from repro.indices.base import (
    ExactQuerier,
    IndexBuilder,
    IndexQuerier,
    ScoringQuerier,
    builder_for,
    querier_for,
    register,
    registered_types,
)
from repro.indices.bloom import BloomBuilder, BloomQuerier
from repro.indices.fm.fm_index import FmBuilder, FmQuerier
from repro.indices.minmax import MinMaxBuilder, MinMaxQuerier
from repro.indices.uuid_trie import UuidTrieBuilder, UuidTrieQuerier
from repro.indices.vector.ivf_pq import IvfPqBuilder, IvfPqQuerier

register(BloomBuilder, BloomQuerier)
register(MinMaxBuilder, MinMaxQuerier)
register(UuidTrieBuilder, UuidTrieQuerier)
register(FmBuilder, FmQuerier)
register(IvfPqBuilder, IvfPqQuerier)

__all__ = [
    "ExactQuerier",
    "IndexBuilder",
    "IndexQuerier",
    "ScoringQuerier",
    "builder_for",
    "querier_for",
    "register",
    "registered_types",
    "BloomBuilder",
    "MinMaxBuilder",
    "MinMaxQuerier",
    "BloomQuerier",
    "UuidTrieBuilder",
    "UuidTrieQuerier",
    "FmBuilder",
    "FmQuerier",
    "IvfPqBuilder",
    "IvfPqQuerier",
]
