"""Search query types.

A query carries everything the search path needs: how to use an index
(which index type can serve it), how to verify a candidate row in situ
(``matches``), and — for scoring queries — how to rank.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.errors import TCOError


@dataclass(frozen=True)
class UuidQuery:
    """Exact match on a binary identifier column.

    Served by the binary trie or (with more false-positive probes) the
    Bloom-filter index; the search planner uses whichever index files
    exist, preferring earlier entries of ``index_types``.
    """

    key: bytes
    index_types = ("uuid_trie", "bloom", "minmax")
    scoring = False

    def matches(self, value) -> bool:
        return bytes(value) == self.key

    def index_probe(self):
        return self.key


@dataclass(frozen=True)
class SubstringQuery:
    """Exact substring match on a string column."""

    needle: str
    index_types = ("fm",)
    scoring = False

    def matches(self, value) -> bool:
        return self.needle in value

    def index_probe(self):
        return self.needle


@dataclass(frozen=True)
class RegexQuery:
    """Regular-expression match on a string column.

    No Rottnest index accelerates general regexes; the search client
    falls back to brute-force scanning for these (still benefiting from
    top-K early exit). Included for API parity with the paper's
    motivating workloads.
    """

    pattern: str
    index_types: tuple = ()
    scoring = False

    def matches(self, value) -> bool:
        return re.search(self.pattern, value) is not None


@dataclass(frozen=True)
class VectorQuery:
    """Approximate nearest-neighbour query on a vector column.

    ``nprobe`` — coarse lists probed; ``refine`` — PQ candidates
    re-ranked with full-precision vectors (paper §V-C3). Both trade
    recall against query cost.
    """

    vector: np.ndarray
    nprobe: int = 8
    refine: int = 100
    index_types = ("ivf_pq",)
    scoring = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vector", np.asarray(self.vector, dtype=np.float32).reshape(-1)
        )
        if self.nprobe < 1 or self.refine < 1:
            raise TCOError("nprobe and refine must be >= 1")

    def distance(self, value) -> float:
        diff = np.asarray(value, dtype=np.float32) - self.vector
        return float(np.dot(diff, diff))


@dataclass(frozen=True)
class RangeQuery:
    """Inclusive range match on a comparable column (int / string /
    binary). Served by the min-max zone-map index — the structured-
    attribute counterpart of the search indices: highly selective on
    clustered/sorted columns, useless on high-cardinality random ones
    (the §II-B failure the paper starts from)."""

    lo: object
    hi: object
    index_types = ("minmax",)
    scoring = False

    def __post_init__(self) -> None:
        if type(self.lo) is not type(self.hi):
            raise TCOError(
                f"range endpoints must share a type, got "
                f"{type(self.lo).__name__} and {type(self.hi).__name__}"
            )
        if self.lo > self.hi:
            raise TCOError(f"empty range: {self.lo!r} > {self.hi!r}")

    def matches(self, value) -> bool:
        if isinstance(self.lo, bytes):
            value = bytes(value)
        return self.lo <= value <= self.hi

    def index_probe(self):
        return (self.lo, self.hi)


Query = UuidQuery | SubstringQuery | RegexQuery | RangeQuery | VectorQuery


def may_hold(query: Query | None, lo, hi) -> bool:
    """Whether values spanning ``[lo, hi]`` (a row group's footer stats,
    a shard's key span) can hold a match of ``query``.

    Only key lookups and ranges have bounds to test; every other query
    (and a full scan, ``None``) may match anywhere, and so may
    incomparable types.
    """
    try:
        if isinstance(query, UuidQuery):
            return lo <= query.key <= hi
        if isinstance(query, RangeQuery):
            return not (query.hi < lo or hi < query.lo)
    except TypeError:
        pass
    return True
