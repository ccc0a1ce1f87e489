"""Search results: what ``search`` and ``explain`` return, and how
sorted runs of result rows — lazy tier, fresh tier, shards — merge into
one answer."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.storage.latency import LatencyModel
from repro.storage.stats import RequestTrace


@dataclass(frozen=True)
class SearchMatch:
    """One verified result row."""

    file: str
    row: int  # file-global row index
    value: object  # the matched column value
    score: float | None = None  # distance for scoring queries


@dataclass
class SearchStats:
    """Accounting for one search call; ``trace`` is its run's
    (:class:`~repro.storage.pool.Run`)."""

    trace: RequestTrace = field(default_factory=RequestTrace)
    index_files_queried: int = 0
    files_brute_forced: int = 0
    pages_probed: int = 0
    candidates: int = 0
    false_positives: int = 0

    def estimated_latency(self, model: LatencyModel | None = None) -> float:
        """Wall-clock estimate under the store's latency model."""
        return (model or LatencyModel()).trace_latency(self.trace)


@dataclass
class SearchResult:
    matches: list[SearchMatch]
    stats: SearchStats
    #: Answered by a serving layer's brute-force fallback after an index
    #: read failed (same rows, slower); set by ``SearchServer.query``.
    degraded: bool = False


@dataclass(frozen=True)
class SearchPlan:
    """What a search would do, without doing it (``explain``)."""

    column: str
    snapshot_version: int
    candidate_files: tuple[str, ...]  # files in scope after filtering
    index_files: tuple[tuple[str, str, int], ...]  # (key, type, files covered)
    uncovered_files: tuple[str, ...]  # would be brute-force scanned

    def describe(self) -> str:
        lines = [
            f"search plan for column {self.column!r} "
            f"@ snapshot v{self.snapshot_version}",
            f"  files in scope: {len(self.candidate_files)}",
        ]
        for key, index_type, covered in self.index_files:
            lines.append(
                f"  index {key} ({index_type}) -> {covered} file(s)"
            )
        if self.uncovered_files:
            lines.append(
                f"  brute-force scan: {len(self.uncovered_files)} file(s)"
            )
        else:
            lines.append("  brute-force scan: none (fully covered)")
        return "\n".join(lines)


def _rank_key(match: SearchMatch):
    return (match.score, match.file, match.row)


def _row_key(match: SearchMatch):
    return (match.file, match.row)


def merge_topk(
    ranked: Sequence[Sequence[SearchMatch]], k: int
) -> list[SearchMatch]:
    """Global top-k heap merge of scored result lists.

    Equivalent to sorting the union by ``(score, file, row)`` and
    taking the first ``k`` (the property test pins this), but does the
    k-way merge with a heap over sorted runs. Ties on score break
    deterministically on ``(file, row)``.
    """
    runs = [sorted(matches, key=_rank_key) for matches in ranked]
    merged = heapq.merge(*runs, key=_rank_key)
    return [match for _, match in zip(range(k), merged)]


def merge_exact(
    lists: Sequence[Sequence[SearchMatch]], k: int
) -> list[SearchMatch]:
    """Deterministic union of exact-match lists, truncated to k."""
    runs = [sorted(matches, key=_row_key) for matches in lists]
    merged = heapq.merge(*runs, key=_row_key)
    return [match for _, match in zip(range(k), merged)]
