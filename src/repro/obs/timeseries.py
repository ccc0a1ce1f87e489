"""The telemetry store: windowed series, quantile sketches, one hub.

Every named fact a running :class:`SearchServer`, store, cache, router
or maintenance daemon reports lives in one :class:`TelemetryHub`, as
one of two instruments over the same ring of fixed-width time windows
(:class:`_WindowRing` — indexing, eviction, the late-observation rule,
merge and the dict round trip are written once):

* :class:`WindowedSeries` — commutative per-window aggregates
  (count/sum/min/max), so rates are available per window and
  observations arriving out of order *within* a window land identically
  (an invariance a hypothesis test pins). It is also a cumulative
  counter (an exact all-time count/total that survives eviction) and a
  gauge (the last value ``set``).
* :class:`WindowedQuantiles` — one :class:`QuantileSketch` per window:
  a DDSketch-style mergeable sketch with log-spaced bins, so any
  quantile estimate is within a configured *relative* error of a true
  sample at that rank, merge is associative and commutative (per-window
  sketches roll up into multi-window percentiles exactly), and memory
  is bounded by ``max_bins`` regardless of observation count.

Members are addressed ``hub.series(name, **labels)``; the
``name{k="v"}`` text form exists only in snapshots and in the
Prometheus exposition (:mod:`repro.obs.metrics`). A query's or a
maintenance run's bill is stored once, as a cost series;
:class:`CostLedger` is a read-only fold of those series that lets the
dashboard place a deployment on the TCO phase diagram. A hub snapshot is
read only in the shape :meth:`TelemetryHub.snapshot` writes; any other
(a ledger section, windows as a list, a series without its all-time
``count``/``total``) is a :class:`~repro.errors.FormatError`.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass

from repro.errors import FormatError
from repro.obs.critical_path import TailRecorder
from repro.obs.trace import ProcessDefault

#: Default window width for hub series (operators think in minutes).
DEFAULT_WINDOW_S = 60.0

#: Default retained windows per series (4 hours at 60 s windows).
DEFAULT_CAPACITY = 240

#: Default relative-error bound for quantile sketches (1%).
DEFAULT_RELATIVE_ACCURACY = 0.01


class QuantileSketch:
    """Mergeable quantile sketch with a relative-error guarantee.

    DDSketch-style: a positive value ``v`` lands in bin
    ``ceil(log_gamma(v))`` where ``gamma = (1 + a) / (1 - a)`` for
    relative accuracy ``a``; the bin's midpoint estimate
    ``2 * gamma^i / (gamma + 1)`` is then within ``a * v`` of every
    value the bin holds. Bin counts are a plain dict, so ``merge`` is
    bin-wise addition — associative, commutative, and exact (two
    sketches over disjoint sample sets merge into precisely the sketch
    of the union). Values at or below ``min_positive`` share one zero
    bin. When the sketch exceeds ``max_bins`` the *lowest* bins collapse
    together, trading accuracy at the cheap end of the distribution to
    keep the tail — the percentiles operators watch — exact to the
    bound. Thread-safe.
    """

    __slots__ = (
        "relative_accuracy",
        "max_bins",
        "min_positive",
        "_gamma",
        "_log_gamma",
        "_bins",
        "_zero_count",
        "count",
        "sum",
        "_min",
        "_max",
        "exemplar",
        "_lock",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        *,
        max_bins: int = 2048,
        min_positive: float = 1e-12,
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        self.relative_accuracy = relative_accuracy
        self.max_bins = max_bins
        self.min_positive = min_positive
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._bins: dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: (value, trace_id) of the largest exemplar-tagged observation —
        #: the retained flight trace a dashboard p99 bar links to.
        self.exemplar: tuple[float, str] | None = None
        self._lock = threading.Lock()

    # -- ingest --------------------------------------------------------
    def observe(self, value: float, *, trace_id: str | None = None) -> None:
        """Record one non-negative observation.

        ``trace_id`` attaches an exemplar: the sketch remembers the
        (value, trace id) pair with the largest value, so quantile
        estimates near the tail can link back to a retained trace.
        """
        if value < 0:
            raise ValueError(f"sketch values must be >= 0, got {value}")
        with self._lock:
            self.count += 1
            self.sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if trace_id is not None and (
                self.exemplar is None or value >= self.exemplar[0]
            ):
                self.exemplar = (float(value), str(trace_id))
            if value <= self.min_positive:
                self._zero_count += 1
                return
            index = math.ceil(math.log(value) / self._log_gamma)
            self._bins[index] = self._bins.get(index, 0) + 1
            if len(self._bins) > self.max_bins:
                self._collapse_locked()

    def _collapse_locked(self) -> None:
        """Fold the lowest bin into its neighbor (keeps the tail exact)."""
        ordered = sorted(self._bins)
        lowest, neighbor = ordered[0], ordered[1]
        self._bins[neighbor] += self._bins.pop(lowest)

    # -- read ----------------------------------------------------------
    @property
    def total(self) -> float:
        """``sum``, under the name every window cell shares."""
        return self.sum

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def bin_count(self) -> int:
        """Bins currently held — the O(1)-in-observations memory bound."""
        with self._lock:
            return len(self._bins) + (1 if self._zero_count else 0)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (nearest rank, 0-indexed).

        The estimate is within ``relative_accuracy`` (relative) of the
        true sample at rank ``round(q * (count - 1))``, clamped to the
        observed min/max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = int(math.floor(q * (self.count - 1) + 0.5))
            if rank < self._zero_count:
                return self._min if self._min > 0 else 0.0
            cumulative = self._zero_count
            estimate = self._max
            for index in sorted(self._bins):
                cumulative += self._bins[index]
                if cumulative > rank:
                    estimate = 2.0 * self._gamma**index / (self._gamma + 1.0)
                    break
            return min(max(estimate, self._min), self._max)

    def count_above(self, threshold: float) -> int:
        """Approximate count of observations above ``threshold``.

        Whole bins are classified by their midpoint estimate, so the
        boundary bin may be counted either way — an error bounded by
        that single bin's population (used for SLO burn rates, where
        the threshold sits far from the bulk of the distribution).
        """
        with self._lock:
            return sum(
                n
                for index, n in self._bins.items()
                if 2.0 * self._gamma**index / (self._gamma + 1.0) > threshold
            )

    # -- merge ---------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """This sketch plus ``other`` as a new sketch (inputs unchanged).

        Associative and commutative; both sketches must share the same
        relative accuracy so bins line up.
        """
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different relative accuracy: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}"
            )
        merged = QuantileSketch(
            self.relative_accuracy,
            max_bins=max(self.max_bins, other.max_bins),
            min_positive=self.min_positive,
        )
        for source in (self, other):
            with source._lock:
                for index, n in source._bins.items():
                    merged._bins[index] = merged._bins.get(index, 0) + n
                merged._zero_count += source._zero_count
                merged.count += source.count
                merged.sum += source.sum
                merged._min = min(merged._min, source._min)
                merged._max = max(merged._max, source._max)
                # Tuple comparison (value, then trace id) keeps the
                # exemplar choice commutative under merge reordering.
                if source.exemplar is not None and (
                    merged.exemplar is None
                    or source.exemplar > merged.exemplar
                ):
                    merged.exemplar = source.exemplar
        while len(merged._bins) > merged.max_bins:
            merged._collapse_locked()
        return merged

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        with self._lock:
            data = {
                "relative_accuracy": self.relative_accuracy,
                "max_bins": self.max_bins,
                "bins": {str(i): n for i, n in self._bins.items()},
                "zero_count": self._zero_count,
                "count": self.count,
                "sum": self.sum,
                "min": self._min if self.count else None,
                "max": self._max if self.count else None,
            }
            if self.exemplar is not None:
                data["exemplar"] = {
                    "value": self.exemplar[0],
                    "trace_id": self.exemplar[1],
                }
            return data

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        sketch = cls(
            float(data["relative_accuracy"]),
            max_bins=int(data.get("max_bins", 2048)),
        )
        sketch._bins = {int(i): int(n) for i, n in data["bins"].items()}
        sketch._zero_count = int(data["zero_count"])
        sketch.count = int(data["count"])
        sketch.sum = float(data["sum"])
        if data.get("min") is not None:
            sketch._min = float(data["min"])
        if data.get("max") is not None:
            sketch._max = float(data["max"])
        exemplar = data.get("exemplar")
        if exemplar is not None:
            sketch.exemplar = (
                float(exemplar["value"]),
                str(exemplar["trace_id"]),
            )
        return sketch


@dataclass
class WindowAggregate:
    """Commutative per-window aggregates (order-invariant by design)."""

    index: int
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "WindowAggregate") -> "WindowAggregate":
        """This window plus a peer's as a new aggregate (commutative)."""
        return WindowAggregate(
            index=self.index,
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WindowAggregate":
        agg = cls(index=int(data["index"]))
        agg.count = int(data["count"])
        agg.total = float(data["total"])
        if data.get("min") is not None:
            agg.min = float(data["min"])
        if data.get("max") is not None:
            agg.max = float(data["max"])
        return agg


class _WindowRing:
    """A ring of fixed-width time windows, written once for both kinds.

    ``observe(value, at_s=t)`` lands in window ``floor(t / window_s)``;
    only the newest ``capacity`` windows are retained. Eviction runs
    when the newest window advances, never per observation. An
    observation older than the horizon is counted in ``late_dropped``
    and reaches no window; one with no ``at_s`` (a caller that owns no
    clock) reaches no window either. Both still count in the exact
    all-time ``count()`` / ``total()``, which survive eviction — a
    series is also a cumulative counter — and ``last`` holds the value
    most recently ``set``, for current-value facts. ``first_at_s`` /
    ``last_at_s`` are the exact earliest and latest ``at_s`` observed.

    The cell of a window is the subclass's ``_cell_type``: a
    :class:`WindowAggregate` or a :class:`QuantileSketch`. Both offer
    ``observe``, ``count``, ``total``, a ``merge`` returning a new
    cell, and a dict round trip. Thread-safe.
    """

    _cell_type: type

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        *,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.window_s = window_s
        self.capacity = capacity
        self.late_dropped = 0
        self.last: float | None = None
        self.first_at_s: float | None = None
        self.last_at_s: float | None = None
        self._count = 0
        self._total = 0.0
        self._cells: dict = {}
        self._newest: int | None = None
        self._lock = threading.Lock()

    def _new_cell(self, index: int):
        raise NotImplementedError

    def _observe_locked(
        self, value: float, at_s: float | None, **cell_kwargs
    ) -> None:
        """Count ``value`` all-time and, unless it has no ``at_s`` or is
        older than the horizon, in the window it lands in."""
        if at_s is not None:
            if self.first_at_s is None or at_s < self.first_at_s:
                self.first_at_s = at_s
            if self.last_at_s is None or at_s > self.last_at_s:
                self.last_at_s = at_s
            index = int(at_s // self.window_s)
            if self._newest is None or index > self._newest:
                self._newest = index
                for stale in [i for i in self._cells if i <= index - self.capacity]:
                    del self._cells[stale]
            if index <= self._newest - self.capacity:
                self.late_dropped += 1
            else:
                cell = self._cells.get(index)
                if cell is None:
                    cell = self._cells[index] = self._new_cell(index)
                cell.observe(value, **cell_kwargs)
        self._count += 1
        self._total += value

    # -- read ----------------------------------------------------------
    def _tail(self, last: int | None) -> list[tuple]:
        """Retained (window index, cell) pairs, oldest first."""
        with self._lock:
            indices = sorted(self._cells)
            if last is not None:
                indices = indices[-last:]
            return [(i, self._cells[i]) for i in indices]

    def count(self, last: int | None = None) -> int:
        """Observations in the last ``last`` windows; all-time if None."""
        if last is None:
            with self._lock:
                return self._count
        return sum(cell.count for _, cell in self._tail(last))

    def total(self, last: int | None = None) -> float:
        """Sum of values over the last ``last`` windows; all-time if
        None (eviction never lowers it)."""
        if last is None:
            with self._lock:
                return self._total
        return sum(cell.total for _, cell in self._tail(last))

    # -- merge ---------------------------------------------------------
    def merge(self, other):
        """Fold ``other`` into ``self``, window-index-wise.

        Both must share ``window_s`` so indices line up. Cells merge
        pairwise into new cells (``self`` never aliases ``other``),
        all-time totals add, ``last`` folds by max (two processes'
        "bytes cached" describe peaks, not a sum), the observed span by
        min/max — and there is *no*
        eviction: a snapshot fold must be associative and commutative,
        and capacity-based eviction mid-fold would make the result
        depend on merge order. Capacity applies only to live
        observation. Returns ``self``.
        """
        if other.window_s != self.window_s:
            raise ValueError(
                "cannot merge series with different window widths: "
                f"{self.window_s} vs {other.window_s}"
            )
        with other._lock:
            cells = dict(other._cells)
            capacity, late, last = other.capacity, other.late_dropped, other.last
            count, total = other._count, other._total
            span = (other.first_at_s, other.last_at_s)
        with self._lock:
            self.capacity = max(self.capacity, capacity)
            self.late_dropped += late
            self._count += count
            self._total += total
            if last is not None:
                self.last = last if self.last is None else max(self.last, last)
            firsts = [t for t in (self.first_at_s, span[0]) if t is not None]
            lasts = [t for t in (self.last_at_s, span[1]) if t is not None]
            self.first_at_s = min(firsts, default=None)
            self.last_at_s = max(lasts, default=None)
            for index, cell in cells.items():
                mine = self._cells.get(index) or self._new_cell(index)
                self._cells[index] = mine.merge(cell)
            self._newest = max(self._cells, default=None)
        return self

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        with self._lock:
            return {
                "window_s": self.window_s,
                "capacity": self.capacity,
                "late_dropped": self.late_dropped,
                "count": self._count,
                "total": self._total,
                "last": self.last,
                "first_at_s": self.first_at_s,
                "last_at_s": self.last_at_s,
                "windows": {
                    str(i): self._cells[i].to_dict() for i in sorted(self._cells)
                },
            }

    @classmethod
    def from_dict(cls, data: dict, **kwargs):
        ring = cls(
            float(data["window_s"]), capacity=int(data["capacity"]), **kwargs
        )
        for index, row in data["windows"].items():
            ring._cells[int(index)] = cls._cell_type.from_dict(row)
        ring._newest = max(ring._cells, default=None)
        ring.late_dropped = int(data.get("late_dropped", 0))
        ring._count = int(data["count"])
        ring._total = float(data["total"])
        ring.last = data.get("last")
        ring.first_at_s = data.get("first_at_s")
        ring.last_at_s = data.get("last_at_s")
        return ring


class WindowedSeries(_WindowRing):
    """Windowed count/sum/min/max — a rate, a counter and a gauge.

    Aggregation per window is commutative, so observations arriving
    out of order within a window produce identical state.
    """

    _cell_type = WindowAggregate

    def _new_cell(self, index: int) -> WindowAggregate:
        return WindowAggregate(index=index)

    def observe(self, value: float = 1.0, *, at_s: float | None = None) -> None:
        if value < 0:  # totals are cumulative counters; gauges use set/add
            raise ValueError(f"series observations must be >= 0, got {value}")
        with self._lock:
            self._observe_locked(value, at_s)

    def set(self, value: float, *, at_s: float | None = None) -> None:
        """Gauge write: ``value`` becomes ``last`` and is sampled into
        its window, whose min/max then bound the gauge over time."""
        with self._lock:
            self.last = value
            self._observe_locked(value, at_s)

    def add(self, delta: float, *, at_s: float | None = None) -> None:
        """Move the gauge by ``delta`` (queries in flight, slots held)."""
        with self._lock:
            self.last = (self.last or 0) + delta
            self._observe_locked(self.last, at_s)

    def points(self) -> list[WindowAggregate]:
        """Retained windows, oldest first."""
        return [cell for _, cell in self._tail(None)]


class WindowedQuantiles(_WindowRing):
    """One :class:`QuantileSketch` per retained time window.

    Per-window percentiles answer "what was p99 *this minute*"; the
    associative sketch merge rolls any span of windows into one sketch,
    so multi-window percentiles (the SLO horizon, the dashboard's
    headline p99) are computed from the same state without retaining a
    single raw sample.
    """

    _cell_type = QuantileSketch

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        *,
        capacity: int = DEFAULT_CAPACITY,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> None:
        super().__init__(window_s, capacity=capacity)
        self.relative_accuracy = relative_accuracy

    def _new_cell(self, index: int) -> QuantileSketch:
        return QuantileSketch(self.relative_accuracy)

    def observe(
        self, value: float, *, at_s: float, trace_id: str | None = None
    ) -> None:
        with self._lock:
            self._observe_locked(value, at_s, trace_id=trace_id)

    def windows(self) -> list[tuple[int, QuantileSketch]]:
        """Retained (window index, sketch) pairs, oldest first."""
        return self._tail(None)

    def merged(self, last: int | None = None) -> QuantileSketch:
        """All (or the last ``last``) windows merged into one sketch."""
        merged = QuantileSketch(self.relative_accuracy)
        for _, sketch in self._tail(last):
            merged = merged.merge(sketch)
        return merged

    def to_dict(self) -> dict:
        return {**super().to_dict(), "relative_accuracy": self.relative_accuracy}

    @classmethod
    def from_dict(cls, data: dict) -> "WindowedQuantiles":
        return super().from_dict(
            data, relative_accuracy=float(data["relative_accuracy"])
        )


@dataclass(frozen=True)
class CostLedger:
    """Observed dollars in the TCO model's own coordinates (``index_cost
    + cost_per_month * months + cost_per_query * queries``): a read-only
    fold of the hub series each fact is stored in once —
    ``serve.cost_usd`` per billed query, ``maintain.<op>.cost_usd`` per
    verb run (``index`` is the one-time index cost, every other verb
    ongoing maintenance), the ``storage.data_bytes`` /
    ``storage.index_bytes`` gauges, and the first and last time a cost
    was observed. Folding through :mod:`repro.tco` happens at render
    time.
    """

    serve_usd: float = 0.0
    serve_queries: int = 0
    maintain_usd: float = 0.0
    index_build_usd: float = 0.0
    data_bytes: int = 0
    index_bytes: int = 0
    first_at_s: float | None = None
    last_at_s: float | None = None

    @classmethod
    def of(cls, hub: "TelemetryHub") -> "CostLedger":
        series = {n: m[()] for n, m in hub.families().items() if () in m}
        empty = WindowedSeries()
        serve = series.get("serve.cost_usd", empty)
        index = series.get("maintain.index.cost_usd", empty)
        verbs = [
            m
            for n, m in series.items()
            if re.fullmatch(r"maintain\.\w+\.cost_usd", n) and m is not index
        ]
        spent = [serve, index, *verbs]
        return cls(
            serve_usd=serve.total(),
            serve_queries=serve.count(),
            maintain_usd=sum((m.total() for m in verbs), 0.0),
            index_build_usd=index.total(),
            data_bytes=int(series.get("storage.data_bytes", empty).last or 0),
            index_bytes=int(series.get("storage.index_bytes", empty).last or 0),
            first_at_s=min((m.first_at_s for m in spent if m.first_at_s is not None), default=None),
            last_at_s=max((m.last_at_s for m in spent if m.last_at_s is not None), default=None),
        )

    @property
    def cost_per_query_usd(self) -> float:
        return self.serve_usd / self.serve_queries if self.serve_queries else 0.0

    @property
    def elapsed_s(self) -> float:
        if self.first_at_s is None or self.last_at_s is None:
            return 0.0
        return self.last_at_s - self.first_at_s


def format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    """``k="v",...`` with the Prometheus text format's label-value
    escaping (backslash, newline, double quote)."""
    return ",".join(
        '{}="{}"'.format(
            key,
            str(value)
            .replace("\\", "\\\\")
            .replace("\n", "\\n")
            .replace('"', '\\"'),
        )
        for key, value in labels
    )


class SeriesFamily:
    """The labeled members of one name (``store_requests_total{op}``);
    ``total()`` sums across them."""

    def __init__(self, members: dict[tuple, _WindowRing]) -> None:
        self.members = members

    def total(self, last: int | None = None) -> float:
        return sum(m.total(last) for m in self.members.values())


class TelemetryHub:
    """The one place a named series lives: windowed series, sketches,
    and tail samples of a process.

    Every layer reports here — ``hub.series(name, **labels)`` for
    counts, sums and current values, ``hub.quantiles(name, **labels)``
    for distributions; label values are strings, and a name is one kind
    with one set of label names (anything else raises). The SLO
    evaluator, the dashboard, ``repro top`` and the Prometheus
    exposition (:mod:`repro.obs.metrics`) read them back.
    ``snapshot()`` / ``from_snapshot`` round-trip the whole hub through
    JSON so a benchmark run can emit its telemetry and
    ``repro slo-check`` / ``repro dashboard`` can evaluate it in another
    process.
    """

    def __init__(
        self,
        *,
        window_s: float = DEFAULT_WINDOW_S,
        capacity: int = DEFAULT_CAPACITY,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> None:
        self.window_s = window_s
        self.capacity = capacity
        self.relative_accuracy = relative_accuracy
        self.tail = TailRecorder()
        # Keyed (name, sorted label items): the ``name{k="v"}`` text
        # form is built by snapshot() and the renderer, never per request.
        self._members: dict[tuple, _WindowRing] = {}
        self._kinds: dict[str, tuple] = {}  # name -> (kind, label names)
        self._lock = threading.Lock()

    def _member(self, kind: type, name: str, labels: dict):
        items = tuple(labels.items())
        key = (name, items if len(items) < 2 else tuple(sorted(items)))
        # Per-request path: one dict read, no hub lock (a member, once
        # registered, is never replaced). Creation and every mismatch
        # take the lock below.
        member = self._members.get(key)
        if type(member) is kind:
            return member
        shape = (kind, tuple(label for label, _ in key[1]))
        with self._lock:
            if self._kinds.setdefault(name, shape) != shape:
                known, names = self._kinds[name]
                raise ValueError(
                    f"{name!r} is a {known.__name__} with labels {names}, "
                    f"not a {kind.__name__} with labels {shape[1]}"
                )
            member = self._members.get(key)
            if member is None:
                extra = (
                    {"relative_accuracy": self.relative_accuracy}
                    if kind is WindowedQuantiles
                    else {}
                )
                member = self._members[key] = kind(
                    self.window_s, capacity=self.capacity, **extra
                )
            return member

    @property
    def ledger(self) -> CostLedger:
        """The cost series folded into TCO coordinates (computed on read)."""
        return CostLedger.of(self)

    def series(self, name: str, **labels: str) -> WindowedSeries:
        return self._member(WindowedSeries, name, labels)

    def quantiles(self, name: str, **labels: str) -> WindowedQuantiles:
        return self._member(WindowedQuantiles, name, labels)

    def families(self) -> dict[str, dict[tuple, _WindowRing]]:
        """Every instrument by name: ``{name: {label items: member}}``,
        names and members sorted."""
        with self._lock:
            items = sorted(self._members.items(), key=lambda item: item[0])
        grouped: dict[str, dict[tuple, _WindowRing]] = {}
        for (name, labels), member in items:
            grouped.setdefault(name, {})[labels] = member
        return grouped

    def get(self, name: str) -> _WindowRing | SeriesFamily | None:
        """The series or sketch called ``name`` — for a labeled name its
        :class:`SeriesFamily` — or ``None``; never creates one."""
        members = self.families().get(name)
        if members is None:
            return None
        return members[()] if list(members) == [()] else SeriesFamily(members)

    def _names(self, kind: type) -> list[str]:
        with self._lock:
            return sorted(n for n, (k, _) in self._kinds.items() if k is kind)

    def series_names(self) -> list[str]:
        """Names of every registered windowed series, sorted."""
        return self._names(WindowedSeries)

    def quantile_names(self) -> list[str]:
        """Names of every registered quantile series, sorted."""
        return self._names(WindowedQuantiles)

    def merge(self, other: "TelemetryHub") -> "TelemetryHub":
        """Fold another hub in: series, sketches and tail.

        The snapshot store uses this to fold telemetry from independent
        processes/shards/runs; every component merge is commutative and
        associative (window-wise addition, all-time totals adding,
        last-values by max, bin-wise sketch addition, sorted tail-sample
        union), so the fold result is
        independent of merge order — the property the hypothesis suite
        pins. Returns ``self``.
        """
        if other.window_s != self.window_s:
            raise ValueError(
                "cannot merge hubs with different window widths: "
                f"{self.window_s} vs {other.window_s}"
            )
        with other._lock:
            members = dict(other._members)
        for (name, labels), member in members.items():
            self._member(type(member), name, dict(labels)).merge(member)
        self.tail.merge(other.tail)
        return self

    def snapshot(self) -> dict:
        """JSON-safe dump of every series, sketch and tail sample; a
        labeled member is keyed ``name{k="v"}`` and carries its
        ``labels``."""
        with self._lock:
            members = dict(self._members)
        data = {
            "window_s": self.window_s,
            "capacity": self.capacity,
            "relative_accuracy": self.relative_accuracy,
            "series": {},
            "quantiles": {},
            "tail": self.tail.to_dict(),
        }
        for (name, labels), member in members.items():
            entry = member.to_dict()
            if labels:
                entry["labels"] = dict(labels)
                name = f"{name}{{{format_labels(labels)}}}"
            section = "series" if isinstance(member, WindowedSeries) else "quantiles"
            data[section][name] = entry
        return data

    @classmethod
    def from_snapshot(cls, data: dict) -> "TelemetryHub":
        """The hub :meth:`snapshot` dumped, or a :class:`FormatError`
        for data of any other shape."""
        try:
            unknown = set(data) - _HUB_SECTIONS
            if unknown:
                raise ValueError(f"unknown sections {sorted(unknown)}")
            hub = cls(
                window_s=float(data["window_s"]),
                capacity=int(data["capacity"]),
                relative_accuracy=float(data["relative_accuracy"]),
            )
            for section, kind in (
                ("series", WindowedSeries),
                ("quantiles", WindowedQuantiles),
            ):
                for text, entry in data.get(section, {}).items():
                    name = text.partition("{")[0]
                    labels = tuple(sorted(entry.get("labels", {}).items()))
                    hub._members[name, labels] = kind.from_dict(entry)
                    hub._kinds[name] = (kind, tuple(label for label, _ in labels))
            hub.tail = TailRecorder.from_dict(data.get("tail", {"samples": []}))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"not a hub snapshot: {exc!r}") from None
        return hub


#: The sections :meth:`TelemetryHub.snapshot` writes.
_HUB_SECTIONS = frozenset(
    ("window_s", "capacity", "relative_accuracy", "series", "quantiles", "tail")
)


#: The process-wide default telemetry hub.
_default_hub = ProcessDefault(TelemetryHub())
get_hub, set_hub, use_hub = _default_hub.get, _default_hub.set, _default_hub.use
