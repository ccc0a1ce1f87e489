"""Index interfaces and the type registry.

Each Rottnest index type supplies two classes:

* an :class:`IndexBuilder` — in-memory construction from page values,
  merging (for compaction), and serialization into an index file; and
* an :class:`IndexQuerier` — querying the *componentized* on-storage
  layout, fetching only the components a query needs.

Posting granularity is the data page (paper §V-A): exact-match builders
consume ``(global_page_id, values)`` batches and return candidate page
ids; the vector builder additionally keeps per-row offsets so PQ scores
can be refined row by row, and its querier returns its candidates as
parallel arrays, so the search plan cuts them to ``refine`` before it
turns a single one into a page.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Iterable, Iterator

import numpy as np

from repro.errors import RottnestIndexError, UnknownIndexType
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory


class IndexBuilder(ABC):
    """In-memory index under construction."""

    type_name: ClassVar[str]
    #: Indexing aborts in favour of brute force below this many rows
    #: (paper footnote 2; vector indices need enough data to train).
    min_rows: ClassVar[int] = 1

    @classmethod
    @abstractmethod
    def build(cls, pages: Iterable[tuple[int, list]], **params) -> "IndexBuilder":
        """Construct from ``(global_page_id, values)`` batches."""

    @abstractmethod
    def write(self, writer: IndexFileWriter) -> None:
        """Serialize into componentized form."""

    @classmethod
    @abstractmethod
    def load(cls, reader: IndexFileReader) -> "IndexBuilder":
        """Reconstruct the in-memory form from an index file (full
        download; used by compaction merges)."""

    @classmethod
    @abstractmethod
    def merge_streaming(
        cls, parts: Iterable["IndexBuilder"], gid_offsets: list[int]
    ) -> "IndexBuilder":
        """Merge several indices; part ``i``'s global page ids shift up
        by ``gid_offsets[i]`` in the merged index.

        ``parts`` may be lazy: compaction hands a generator that loads
        one index file at a time, and a type that can folds each part
        into the running merge and drops it before the next load, so
        peak memory is ~(merged-so-far + one part) instead of all parts
        at once. A list and a generator of the same parts must give
        byte-identical files — compaction's content-addressed
        idempotence depends on it. Pair parts with offsets through
        :func:`paired`, which refuses a count mismatch or no parts.
        """


def paired(
    parts: Iterable[IndexBuilder], gid_offsets: Iterable[int]
) -> Iterator[tuple[IndexBuilder, int]]:
    """``(part, gid_offset)`` pairs, pulling each part only when it is
    needed; once the parts run out, a :class:`RottnestIndexError`
    unless there was at least one part and exactly one per offset."""
    offsets = list(gid_offsets)
    it = iter(parts)
    count = 0
    # zip pulls offsets first so a surplus part stays in ``it`` for
    # the leftover check below instead of being silently consumed.
    for offset, part in zip(offsets, it):
        count += 1
        yield part, offset
    if count == 0 or count != len(offsets) or next(it, None) is not None:
        raise RottnestIndexError("parts/offsets length mismatch")


class IndexQuerier(ABC):
    """Query-side view over an opened index file."""

    type_name: ClassVar[str]

    def __init__(self, reader: IndexFileReader) -> None:
        self.reader = reader

    @property
    def directory(self) -> PageDirectory:
        return self.reader.directory

    @classmethod
    def warm(cls, reader: IndexFileReader) -> None:
        """Decode what every probe of this type decodes before its first
        dependent round, through the same ``reader.decoded`` calls the
        probe makes, so a caching store serves the probe its decoded
        form: the page directory, plus whatever a subclass adds."""
        reader.directory


class ExactQuerier(IndexQuerier):
    """Exact-match indices return candidate pages (may include false
    positives; never false negatives)."""

    @abstractmethod
    def candidate_pages(self, query) -> list[int]:
        """Global page ids possibly containing ``query``."""


class ScoringQuerier(IndexQuerier):
    """Scoring indices return approximately-ranked row candidates."""

    @abstractmethod
    def candidates(self, query) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row candidates as parallel ``(gids, offsets, scores)`` arrays
        — global page id, row offset within the page, approximate
        score (a distance: smaller is better) — best first."""


_REGISTRY: dict[str, tuple[type[IndexBuilder], type[IndexQuerier]]] = {}


def register(builder: type[IndexBuilder], querier: type[IndexQuerier]) -> None:
    name = builder.type_name
    if querier.type_name != name:
        raise ValueError(
            f"builder/querier type mismatch: {name!r} vs {querier.type_name!r}"
        )
    _REGISTRY[name] = (builder, querier)


def builder_for(type_name: str) -> type[IndexBuilder]:
    try:
        return _REGISTRY[type_name][0]
    except KeyError:
        raise UnknownIndexType(
            f"no index type {type_name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def querier_for(type_name: str) -> type[IndexQuerier]:
    try:
        return _REGISTRY[type_name][1]
    except KeyError:
        raise UnknownIndexType(
            f"no index type {type_name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_types() -> list[str]:
    return sorted(_REGISTRY)
