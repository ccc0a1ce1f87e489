"""Search query types.

A query carries everything the search path needs: how to use an index
(which index type can serve it), how to verify a candidate row in situ
(``matches`` on a value, ``page_hits`` on a whole inflated page), and —
for scoring queries — how to rank.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import TCOError
from repro.formats.encoding import decode_values, require_utf8, value_bounds
from repro.formats.schema import ColumnType, Field


class ExactQuery:
    """Verification shared by the exact (non-scoring) queries."""

    scoring = False

    def page_hits(self, field: Field, raw: bytes, count: int) -> Iterator[tuple]:
        """``(index, value)`` of every value of an inflated page of
        ``count`` values of ``field`` that :meth:`matches`, in page
        order.

        Whatever can reject the page — a :class:`~repro.errors.FormatError`
        for a page that does not decode — runs before this returns; the
        matching runs as the hits are read, so a reader that stops early
        (stop-at-K) skips it for the rest of its pages. Here the page is
        decoded; a query that can verify in the encoded bytes overrides
        this with the same hits and the same errors."""
        values = decode_values(field, raw, count)
        return ((i, v) for i, v in enumerate(values) if self.matches(v))


@dataclass(frozen=True)
class UuidQuery(ExactQuery):
    """Exact match on a binary identifier column.

    Served by the binary trie or (with more false-positive probes) the
    Bloom-filter index; the search planner uses whichever index files
    exist, preferring earlier entries of ``index_types``.
    """

    key: bytes
    index_types = ("uuid_trie", "bloom", "minmax")

    def matches(self, value) -> bool:
        return bytes(value) == self.key

    def index_probe(self):
        return self.key

    def page_hits(self, field: Field, raw: bytes, count: int) -> Iterator[tuple]:
        """On a BINARY page: ``bytes.find`` for the key, kept where an
        occurrence is a whole value — it starts at a value's start and
        is that value's length. Only those values are sliced out."""
        if field.type is not ColumnType.BINARY:
            return super().page_hits(field, raw, count)
        return _whole_values(raw, *value_bounds(raw, count), self.key)


@dataclass(frozen=True)
class SubstringQuery(ExactQuery):
    """Exact substring match on a string column."""

    needle: str

    @property
    def index_types(self) -> tuple[str, ...]:
        """The FM index serves a needle that is non-empty UTF-8 without
        NUL (its row separator); any other needle is scanned, so it gets
        the brute-force answer whether or not an index exists."""
        return ("fm",) if _fm_servable(self.needle) else ()

    def matches(self, value) -> bool:
        return self.needle in value

    def index_probe(self):
        return self.needle

    def page_hits(self, field: Field, raw: bytes, count: int) -> Iterator[tuple]:
        """On a STRING page: ``bytes.find`` for the UTF-8 needle, kept
        where an occurrence lies inside one value; the search resumes
        after that value. The page is rejected if any value is not
        UTF-8, as decoding it would be; only hit values are decoded."""
        if field.type is not ColumnType.STRING or not _fm_servable(self.needle):
            return super().page_hits(field, raw, count)
        starts, ends = value_bounds(raw, count)
        require_utf8(raw, starts, ends)
        return _values_containing(raw, starts, ends, self.needle.encode("utf-8"))


def _whole_values(raw: bytes, starts, ends, key: bytes) -> Iterator[tuple]:
    """``(index, value)`` of the values of ``raw`` equal to ``key``."""
    count = len(starts)
    pos = raw.find(key)
    while pos >= 0:
        i = bisect_left(starts, pos)  # first value starting at or after
        if i < count and starts[i] == pos:
            if ends[i] - pos == len(key):
                yield i, raw[pos : ends[i]]
            i += 1
        if i == count:
            return
        pos = raw.find(key, starts[i])


def _values_containing(raw: bytes, starts, ends, needle: bytes) -> Iterator[tuple]:
    """``(index, decoded value)`` of the values of ``raw`` that contain
    ``needle`` (non-empty)."""
    pos = raw.find(needle)
    while pos >= 0:
        i = bisect_right(starts, pos) - 1
        if i >= 0 and pos + len(needle) <= ends[i]:
            yield i, raw[starts[i] : ends[i]].decode("utf-8")
            pos = ends[i]
        else:  # in a prefix, or running past its value's end
            pos += 1
        pos = raw.find(needle, pos)


def _fm_servable(needle: str) -> bool:
    try:
        encoded = needle.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return bool(encoded) and b"\x00" not in encoded


@dataclass(frozen=True)
class RegexQuery(ExactQuery):
    """Regular-expression match on a string column.

    No Rottnest index accelerates general regexes; the search client
    falls back to brute-force scanning for these (still benefiting from
    top-K early exit). Included for API parity with the paper's
    motivating workloads.
    """

    pattern: str
    index_types: tuple = ()

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
class RangeQuery(ExactQuery):
    """Inclusive range match on a comparable column (int / string /
    binary). Served by the min-max zone-map index — the structured-
    attribute counterpart of the search indices: highly selective on
    clustered/sorted columns, useless on high-cardinality random ones
    (the §II-B failure the paper starts from)."""

    lo: object
    hi: object
    index_types = ("minmax",)

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
