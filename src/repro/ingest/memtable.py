"""In-memory image of one WAL segment's rows: the unindexed fresh segment.

The fresh tier needs correctness, not an index (the write-read
decoupling survey in PAPERS.md: a small segment, unindexed or lightly
indexed). A memtable is therefore just the batch's append-only columns,
plus the two structures that cost nothing per character to keep: a
``bytes -> rows`` dict per BINARY column for exact/UUID lookups and a
flat float32 buffer per VECTOR column for brute-force scoring.

Every other query is answered by the query's own predicate
(``matches`` / ``distance``) over the rows, so the fresh tier equals
the lake's brute-force path by construction. ``needle in value`` is a C
``memmem``; a few hundred pending rows cost microseconds, where an ack
that indexed every character cost milliseconds.
"""

from __future__ import annotations

import numpy as np

from repro.core.client import SearchMatch
from repro.core.queries import Query, UuidQuery
from repro.formats.schema import ColumnType, Schema


class Memtable:
    """Searchable image of one WAL segment (one ingest batch)."""

    def __init__(self, seq: int, wal_key: str, schema: Schema) -> None:
        self.seq = seq
        self.wal_key = wal_key
        self.schema = schema
        self.columns: dict[str, list] = {name: [] for name in schema.names}
        self.num_rows = 0
        self._inverted: dict[str, dict[bytes, list[int]]] = {}
        self._vectors: dict[str, np.ndarray | None] = {}
        for f in schema.fields:
            if f.type is ColumnType.BINARY:
                self._inverted[f.name] = {}
            elif f.type is ColumnType.VECTOR:
                self._vectors[f.name] = None

    def insert(self, columns: dict[str, list]) -> int:
        """Append one canonical batch; returns rows inserted."""
        n = len(next(iter(columns.values()), []))
        base = self.num_rows
        for f in self.schema.fields:
            values = columns[f.name]
            self.columns[f.name].extend(values)
            if f.type is ColumnType.BINARY:
                inv = self._inverted[f.name]
                for i, value in enumerate(values):
                    inv.setdefault(bytes(value), []).append(base + i)
            elif f.type is ColumnType.VECTOR:
                block = np.asarray(values, dtype=np.float32)
                prior = self._vectors[f.name]
                self._vectors[f.name] = (
                    block if prior is None else np.vstack([prior, block])
                )
        self.num_rows += n
        return n

    # -- search --------------------------------------------------------
    def search(self, column: str, query: Query) -> list[SearchMatch]:
        """All verified matches in this memtable (unbounded; the tier
        applies ``k``). Scoring queries return every row scored."""
        values = self.columns[column]
        if query.scoring:
            scores = self._scores(column, query)
            return [
                SearchMatch(
                    file=self.wal_key,
                    row=row,
                    value=values[row],
                    score=scores[row],
                )
                for row in range(self.num_rows)
            ]
        if isinstance(query, UuidQuery) and column in self._inverted:
            rows = self._inverted[column].get(bytes(query.key), ())
        else:
            rows = range(self.num_rows)
        return [
            SearchMatch(file=self.wal_key, row=row, value=values[row])
            for row in rows
            if query.matches(values[row])
        ]

    def _scores(self, column: str, query: Query) -> list[float]:
        buffer = self._vectors.get(column)
        if buffer is not None:
            # Flat brute-force pass over the float32 buffer, scored with
            # the query's own distance so fresh and lazy tiers agree to
            # the last bit (merge order must not depend on the tier).
            return [query.distance(buffer[row]) for row in range(len(buffer))]
        return [query.distance(v) for v in self.columns[column]]
