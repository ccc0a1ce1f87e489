"""Query heat map: decayed per-scope counters fed from search spans.

The cracking controller needs to know *where queries land*, not just
how many there are. This module keeps one exponentially-decayed counter
per :class:`HeatKey` — a (scope, column, query kind) triple where the
scope is either a lake file path or an IVF-PQ cell address
(``"{index_key}#cell={i}"``). The counters are fed from the span trees
the one search plan (:mod:`repro.core.search`) already emits, whoever
runs it: the brute-force span records which files it scanned, the
page-reading span which files it touched, and the vector index-probe
span which inverted lists each probe actually hit. No new
instrumentation path exists just for cracking — if tracing is on, the
heat map can be fed.

Decay is exact, not tick-based: a cell stores ``(value, stamp)`` and
its heat at time ``t`` is ``value * 2**(-(t - stamp) / half_life_s)``.
Because every observation is one exponential term and exponentials are
linear under addition, two maps merge by plain addition after
re-stamping to a common time — so a merged map's heat at any time is
the sum of its parts' (the hypothesis property in
``tests/test_crack_heat.py``), the same mergeability contract the
quantile sketches in ``repro.obs.timeseries`` satisfy. Maps from many
searchers can therefore be combined in any order and the controller
sees one consistent ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CrackError
from repro.obs.trace import Span

#: Default decay half-life. One hour: a file that stops being queried
#: loses ~94% of its heat in four hours, which is the time scale at
#: which leaving it un-indexed becomes the right TCO call again.
DEFAULT_HALF_LIFE_S = 3600.0

#: Separator between an index key and a cell ordinal in a cell scope.
CELL_SEP = "#cell="


@dataclass(frozen=True, order=True)
class HeatKey:
    """One heat counter's identity.

    ``scope`` is a lake file path (file-granularity heat, feeds the
    index/don't-index decision) or ``"{index_key}#cell={i}"`` (IVF-PQ
    cell-granularity heat, feeds the split/refine decision). ``kind``
    is the query class name so the policy can weigh workloads
    differently (a brute-forced vector scan costs far more than a
    brute-forced UUID probe).
    """

    scope: str
    column: str
    kind: str

    @property
    def is_cell(self) -> bool:
        return CELL_SEP in self.scope

    @property
    def cell(self) -> tuple[str, int] | None:
        """(index_key, cell ordinal) for cell scopes, else ``None``."""
        if not self.is_cell:
            return None
        key, _, ordinal = self.scope.rpartition(CELL_SEP)
        return key, int(ordinal)


def cell_scope(index_key: str, cell: int) -> str:
    """The scope string addressing one inverted list of one index file."""
    return f"{index_key}{CELL_SEP}{int(cell)}"


class HeatMap:
    """Mergeable, exactly-decaying query-heat counters."""

    def __init__(self, *, half_life_s: float = DEFAULT_HALF_LIFE_S) -> None:
        if half_life_s <= 0:
            raise CrackError(f"half_life_s must be positive, got {half_life_s}")
        self.half_life_s = float(half_life_s)
        # key -> (value, stamp): heat at time `stamp` is `value`.
        self._cells: dict[HeatKey, tuple[float, float]] = {}

    # -- core ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: HeatKey) -> bool:
        return key in self._cells

    def keys(self) -> list[HeatKey]:
        return sorted(self._cells)

    def _factor(self, dt_s: float) -> float:
        # Signed exponent: asking about a time before the stamp scales
        # the value *up*, keeping heat(t) a single consistent
        # exponential through every re-stamp (what makes a merge add
        # heats exactly, not just approximately).
        return 2.0 ** (-dt_s / self.half_life_s)

    def heat(self, key: HeatKey, *, at_s: float) -> float:
        """Current heat of ``key`` at time ``at_s`` (0 if absent)."""
        cell = self._cells.get(key)
        if cell is None:
            return 0.0
        value, stamp = cell
        return value * self._factor(at_s - stamp)

    def observe(self, key: HeatKey, weight: float = 1.0, *, at_s: float) -> None:
        """Add ``weight`` heat to ``key`` at time ``at_s``.

        Out-of-order observations are fine: both the stored value and
        the new weight are re-stamped to the later of the two times, so
        ingest order never changes the resulting function of time.
        """
        if weight < 0:
            raise CrackError(f"heat weight must be >= 0, got {weight}")
        cell = self._cells.get(key)
        if cell is None:
            self._cells[key] = (float(weight), float(at_s))
            return
        value, stamp = cell
        common = max(stamp, at_s)
        self._cells[key] = (
            value * self._factor(common - stamp)
            + weight * self._factor(common - at_s),
            common,
        )

    def merge(self, other: "HeatMap") -> "HeatMap":
        """Fold ``other`` into ``self`` (pointwise heat addition).

        Requires matching half-lives — adding exponentials with
        different rates is not a single exponential, so such maps have
        no exact merged form.
        """
        if other.half_life_s != self.half_life_s:
            raise CrackError(
                f"cannot merge heat maps with different half-lives "
                f"({self.half_life_s} vs {other.half_life_s})"
            )
        for key, (value, stamp) in other._cells.items():
            self.observe(key, value, at_s=stamp)
        return self

    def copy(self) -> "HeatMap":
        clone = HeatMap(half_life_s=self.half_life_s)
        clone._cells = dict(self._cells)
        return clone

    def evict_cold(self, floor: float, *, at_s: float) -> int:
        """Drop every key whose heat at ``at_s`` is below ``floor``.

        Never drops a key at or above the floor — the invariant the
        hypothesis suite pins — so eviction only forgets scopes the
        policy would not act on anyway. Returns how many were dropped.
        """
        if floor < 0:
            raise CrackError(f"hotness floor must be >= 0, got {floor}")
        cold = [k for k in self._cells if self.heat(k, at_s=at_s) < floor]
        for key in cold:
            del self._cells[key]
        return len(cold)

    # -- aggregated views ----------------------------------------------
    def hottest(
        self,
        *,
        at_s: float,
        column: str | None = None,
        cells: bool | None = None,
        limit: int | None = None,
    ) -> list[tuple[HeatKey, float]]:
        """Keys by descending heat (ties broken by key, so the ranking
        is deterministic), optionally filtered by column and by
        file/cell scope kind."""
        rows = [
            (key, self.heat(key, at_s=at_s))
            for key in self._cells
            if (column is None or key.column == column)
            and (cells is None or key.is_cell == cells)
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows if limit is None else rows[:limit]

    def file_heat(self, *, at_s: float, column: str | None = None) -> dict[str, float]:
        """Summed heat per file path (all query kinds folded)."""
        out: dict[str, float] = {}
        for key, value in self.hottest(at_s=at_s, column=column, cells=False):
            out[key.scope] = out.get(key.scope, 0.0) + value
        return out

    def cell_heat(self, *, at_s: float) -> dict[tuple[str, int], float]:
        """Summed heat per (index_key, cell ordinal)."""
        out: dict[tuple[str, int], float] = {}
        for key, value in self.hottest(at_s=at_s, cells=True):
            addr = key.cell
            assert addr is not None
            out[addr] = out.get(addr, 0.0) + value
        return out

    # -- span ingestion ------------------------------------------------
    def observe_spans(self, spans: list[Span], *, at_s: float | None = None) -> int:
        """Feed finished span trees into the map.

        Every ``search`` span in a tree counts — a root when the client
        or an executor was called directly, a child of ``serve.query``
        when a server answered. Reads the attributes
        :mod:`repro.core.search` records, on whichever phase span
        carries them: the query kind on the ``search`` span,
        ``scanned_files`` (brute-force phase), ``probed_files`` (the
        phase that read pages) and ``cell_probes`` (the IVF-PQ cells
        each vector probe landed in). Trees without a search (daemon
        ticks, index runs) are ignored. Returns the number of
        observations made. ``at_s`` defaults to each search span's end
        time — correct when the tracer runs on the store's sim clock.
        """
        observed = 0
        for search in (s for root in spans for s in root.find_all("search")):
            column = str(search.attributes.get("column", ""))
            kind = str(search.attributes.get("kind", "?"))
            when = at_s if at_s is not None else float(search.end_s or search.start_s)
            for span in search.walk():
                attrs = span.attributes
                # Brute-scanned files are the expensive ones (a full-
                # file read per query until indexed); probed files are
                # where indexed queries land; cells are the inverted
                # lists a vector probe actually hit.
                scopes = [
                    *attrs.get("scanned_files", ()),
                    *attrs.get("probed_files", ()),
                ]
                for index_key, probed in attrs.get("cell_probes", ()):
                    scopes.extend(cell_scope(str(index_key), int(c)) for c in probed)
                for scope in scopes:
                    self.observe(
                        HeatKey(scope=str(scope), column=column, kind=kind),
                        1.0,
                        at_s=when,
                    )
                observed += len(scopes)
        return observed

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "half_life_s": self.half_life_s,
            "cells": [
                [k.scope, k.column, k.kind, value, stamp]
                for k, (value, stamp) in sorted(self._cells.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HeatMap":
        try:
            hm = cls(half_life_s=float(payload["half_life_s"]))
            for scope, column, kind, value, stamp in payload["cells"]:
                hm._cells[HeatKey(str(scope), str(column), str(kind))] = (
                    float(value),
                    float(stamp),
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise CrackError(f"malformed heat-map payload: {exc}") from exc
        return hm
