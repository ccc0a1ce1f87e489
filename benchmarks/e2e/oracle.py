"""Answer checking against the generated data.

Each query the harness issues carries what the generated rows say the
answer must be. An answer that disagrees counts as a failed operation:

* exact kinds — every returned row exists, holds the returned value,
  satisfies the predicate, appears once, and
  ``len(matches) == min(k, true matches)``;
* UUID — additionally the one known ``(file, row)`` when the key lives
  in a lake file the oracle placed;
* vector — every returned row exists with that exact vector, ranks
  ascending by distance, ``len == min(k, rows)``; quality is scored as
  recall against the exact numpy top-k rather than pass/fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import SubstringQuery, UuidQuery, VectorQuery
from repro.workloads import exact_knn


@dataclass(frozen=True)
class Verdict:
    ok: bool
    recall: float  # |answer ∩ oracle top-k| / |oracle top-k|; 1.0 when both empty


@dataclass
class Planned:
    """One query plus the oracle's expectation for it."""

    kind: str  # "uuid" | "substring" | "vector"
    column: str
    query: object
    #: uuid: the ``(file index, row)`` the oracle placed the key at, True
    #: when it only knows the key is present (fresh or drained rows),
    #: None when absent. substring: set of ``(file index, row)``.
    #: vector: the exact top-k as a list of ``(file index, row)``.
    expect: object


class LakeOracle:
    """Ground truth for a lake whose files the benchmark generated.

    Expectations are phrased in file *indices* (append order); the data
    file paths — salted by the lake on every append — are bound late
    with :meth:`bind`, so one plan serves every replay of a round.
    """

    def __init__(self, corpus) -> None:
        self.corpus = corpus
        self.rows = corpus.rows_per_file
        self._docs = (
            [f["text"] for f in corpus.files] if "text" in corpus.columns else []
        )
        self._vectors = corpus.all_vectors() if "emb" in corpus.columns else None
        self._file_of: dict[str, int] = {}
        self.bind(corpus.paths)

    def bind(self, paths) -> None:
        self._file_of = {path: i for i, path in enumerate(paths)}

    def uuid(self, flat_row: int) -> Planned:
        where = divmod(flat_row, self.rows)
        key = self.corpus.files[where[0]]["uuid"][where[1]]
        return Planned("uuid", "uuid", UuidQuery(key), where)

    def substring(self, needle: str) -> Planned:
        truth = {
            (f, r)
            for f, docs in enumerate(self._docs)
            for r, doc in enumerate(docs)
            if needle in doc
        }
        return Planned("substring", "text", SubstringQuery(needle), truth)

    def vector(self, vector: np.ndarray, k: int, *, nprobe: int, refine: int) -> Planned:
        top = exact_knn(self._vectors, vector, k)
        truth = [divmod(int(i), self.rows) for i in top]
        query = VectorQuery(vector, nprobe=nprobe, refine=refine)
        return Planned("vector", "emb", query, truth)

    def locate(self, match) -> tuple[int, int] | None:
        """``(file index, row)`` of a match, None for an unknown file."""
        file_index = self._file_of.get(match.file)
        return None if file_index is None else (file_index, match.row)

    def holds(self, column: str, match) -> bool:
        """Whether the returned row exists and holds the returned value."""
        where = self.locate(match)
        if where is None or not 0 <= match.row < self.rows:
            return False
        value = self.corpus.files[where[0]][column][match.row]
        if column == "emb":
            return bool(np.array_equal(np.asarray(match.value), value))
        return match.value == value


def absent_uuid(key: bytes) -> Planned:
    return Planned("uuid", "uuid", UuidQuery(key), None)


def present_uuid(key: bytes) -> Planned:
    """A key known to be acked, wherever it currently lives."""
    return Planned("uuid", "uuid", UuidQuery(key), True)


def check(planned: Planned, matches, k: int, oracle: LakeOracle | None) -> Verdict:
    """Judge ``matches`` (a ``SearchResult.matches`` list) for one query."""
    where = [(m.file, m.row) for m in matches]
    if len(set(where)) != len(where):
        return Verdict(False, 0.0)
    if planned.kind == "uuid":
        return _check_uuid(planned, matches, oracle)
    if planned.kind == "substring":
        return _check_substring(planned, matches, k, oracle)
    return _check_vector(planned, matches, k, oracle)


def _check_uuid(planned: Planned, matches, oracle) -> Verdict:
    key = planned.query.key
    if planned.expect is None:
        return Verdict(not matches, 1.0 if not matches else 0.0)
    ok = len(matches) == 1 and bytes(matches[0].value) == key
    if ok and planned.expect is not True:
        ok = oracle.locate(matches[0]) == planned.expect
    return Verdict(ok, 1.0 if ok else 0.0)


def _check_substring(planned: Planned, matches, k: int, oracle) -> Verdict:
    truth = planned.expect
    needle = planned.query.needle
    want = min(k, len(truth))
    ok = len(matches) == want
    found = 0
    for m in matches:
        hit = oracle.locate(m) in truth
        found += hit
        ok = ok and hit and needle in m.value and oracle.holds("text", m)
    return Verdict(ok, found / want if want else (1.0 if not matches else 0.0))


def _check_vector(planned: Planned, matches, k: int, oracle) -> Verdict:
    truth = planned.expect
    scores = [m.score for m in matches]
    ok = len(matches) == min(k, len(truth)) and scores == sorted(scores)
    for m in matches:
        ok = ok and oracle.holds("emb", m)
    found = len({oracle.locate(m) for m in matches} & set(truth))
    return Verdict(ok, found / len(truth) if truth else 1.0)
