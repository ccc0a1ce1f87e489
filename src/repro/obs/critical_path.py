"""Critical-path extraction and aggregate tail attribution.

Two questions a single :class:`~repro.obs.attribution.QueryBill` cannot
answer:

* **"What made *this* query slow?"** — the bill sums each phase's
  modeled time, but with a fan-out executor the phases overlap; the
  wall clock follows the *critical path*: the chain of spans you reach
  by always descending into the last-finishing child.
  :func:`critical_path` extracts that chain and the *self time* of each
  link (its duration minus the part covered by the next link), so the
  slowest query's latency reads as a story — "420 ms total, 310 ms of
  it waiting on ``probe:pages``".
* **"What makes the *tail* slow?"** — one trace cannot say whether p99
  is a different animal from p50. :class:`TailRecorder` keeps a bounded
  ring of per-query samples (total latency plus the per-phase split
  from the bill), and :func:`tail_attribution` compares the phase mix
  of a mid-band cohort (queries around the median) against the tail
  cohort (queries at or above p99): each phase's share of either cohort
  and its tail/median amplification. The headline is the paper's serve
  story in one line — e.g. "p50 is index probes; p99 is page reads".

Per-phase seconds come from :func:`repro.obs.attribution.attribute`
bills, so the cohort totals reconcile with the dollars-and-requests
accounting rather than forming a parallel bookkeeping scheme.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.obs.attribution import PHASE_ORDER, QueryBill
from repro.obs.trace import Span

#: Queries retained for tail attribution (oldest evicted).
DEFAULT_TAIL_CAPACITY = 4096


@dataclass(frozen=True)
class CriticalStep:
    """One link of a critical path: a span and its self time."""

    name: str
    phase: str | None
    start_s: float
    end_s: float
    duration_s: float
    self_s: float
    requests: int


def critical_path(root: Span) -> list[CriticalStep]:
    """The follow-the-last-finishing-child chain through ``root``.

    From each span, descend into the child that finished last — that
    child is what the parent was still waiting on when everything else
    had already returned, which under fan-out concurrency is the span
    actually holding the wall clock. Each step's ``self_s`` is its
    duration minus the portion covered by the next step, so the self
    times sum to the root's duration and point at where time was spent
    rather than merely awaited. Unfinished children are skipped. A
    step's ``requests`` are the ones its span issued itself
    (:attr:`~repro.obs.trace.Span.own_requests`).
    """
    steps: list[CriticalStep] = []
    span: Span | None = root
    while span is not None:
        finished = [c for c in span.children if c.end_s is not None]
        next_span = max(finished, key=lambda c: c.end_s) if finished else None
        end_s = span.end_s if span.end_s is not None else span.start_s
        duration_s = max(end_s - span.start_s, 0.0)
        self_s = duration_s - (next_span.duration_s if next_span else 0.0)
        steps.append(
            CriticalStep(
                name=span.name,
                phase=(
                    str(span.attributes["phase"])
                    if "phase" in span.attributes
                    else None
                ),
                start_s=span.start_s,
                end_s=end_s,
                duration_s=duration_s,
                self_s=max(self_s, 0.0),
                requests=len(span.own_requests),
            )
        )
        span = next_span
    return steps


def render_critical_path(steps: list[CriticalStep]) -> str:
    """ASCII rendering of a critical path, one indented line per link."""
    if not steps:
        return "(empty critical path)"
    lines = ["critical path (follow the last-finishing child):"]
    for depth, step in enumerate(steps):
        phase = f" [{step.phase}]" if step.phase else ""
        requests = f" ({step.requests} req)" if step.requests else ""
        lines.append(
            f"  {'  ' * depth}{step.name}{phase}: "
            f"{step.duration_s * 1000:.2f} ms total, "
            f"{step.self_s * 1000:.2f} ms self{requests}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class TailSample:
    """One query's latency and per-phase split, as kept for attribution."""

    total_s: float
    at_s: float
    query: str = ""
    phase_s: dict[str, float] = field(default_factory=dict)
    degraded: bool = False

    def to_dict(self) -> dict:
        return {
            "total_s": self.total_s,
            "at_s": self.at_s,
            "query": self.query,
            "phase_s": dict(self.phase_s),
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TailSample":
        return cls(
            total_s=float(data["total_s"]),
            at_s=float(data["at_s"]),
            query=str(data.get("query", "")),
            phase_s={k: float(v) for k, v in data.get("phase_s", {}).items()},
            degraded=bool(data.get("degraded", False)),
        )


class TailRecorder:
    """Bounded ring of :class:`TailSample` rows (O(capacity) memory)."""

    def __init__(self, capacity: int = DEFAULT_TAIL_CAPACITY) -> None:
        self.capacity = capacity
        self._samples: deque[TailSample] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(
        self,
        total_s: float,
        *,
        at_s: float,
        query: str = "",
        phase_s: dict[str, float] | None = None,
        degraded: bool = False,
    ) -> None:
        sample = TailSample(
            total_s=total_s,
            at_s=at_s,
            query=query,
            phase_s=dict(phase_s or {}),
            degraded=degraded,
        )
        with self._lock:
            self._samples.append(sample)

    def record_bill(
        self,
        bill: QueryBill,
        total_s: float,
        *,
        at_s: float,
        degraded: bool = False,
    ) -> None:
        """Record a query via its attribution bill's per-phase seconds."""
        self.record(
            total_s,
            at_s=at_s,
            query=bill.query,
            phase_s={p.phase: p.est_latency_s for p in bill.phases},
            degraded=degraded,
        )

    def samples(self) -> list[TailSample]:
        with self._lock:
            return list(self._samples)

    def merge(self, other: "TailRecorder") -> "TailRecorder":
        """Fold a peer recorder in: sorted sample union, newest kept.

        Samples are re-sorted by (time, latency, query) — a total order
        over their content — then truncated to the larger of the two
        capacities, so the merged ring is independent of merge order
        (the snapshot-fold commutativity property). Returns ``self``.
        """
        merged = self.samples() + other.samples()
        merged.sort(
            key=lambda s: (
                s.at_s,
                s.total_s,
                s.query,
                s.degraded,
                sorted(s.phase_s.items()),
            )
        )
        with self._lock:
            self.capacity = max(self.capacity, other.capacity)
            self._samples = deque(merged, maxlen=self.capacity)
        return self

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "samples": [s.to_dict() for s in self.samples()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TailRecorder":
        recorder = cls(capacity=int(data.get("capacity", DEFAULT_TAIL_CAPACITY)))
        for row in data.get("samples", []):
            recorder._samples.append(TailSample.from_dict(row))
        return recorder


@dataclass(frozen=True)
class PhaseTailRow:
    """One phase's footprint in the median vs tail cohorts."""

    phase: str
    mid_mean_s: float
    mid_share: float
    tail_mean_s: float
    tail_share: float

    @property
    def amplification(self) -> float:
        """How much more of this phase a tail query carries vs a median
        one (∞-free: 0-mean midpoints report the tail mean ratio vs the
        smallest representable baseline)."""
        if self.mid_mean_s <= 0.0:
            return float("inf") if self.tail_mean_s > 0.0 else 1.0
        return self.tail_mean_s / self.mid_mean_s


@dataclass
class TailReport:
    """Per-phase median-vs-tail decomposition over many queries."""

    rows: list[PhaseTailRow]
    p50_s: float
    tail_threshold_s: float
    tail_q: float
    mid_count: int
    tail_count: int
    sample_count: int

    def dominant(self, *, tail: bool) -> PhaseTailRow | None:
        """The phase with the largest share of the chosen cohort."""
        if not self.rows:
            return None
        return max(self.rows, key=lambda r: r.tail_share if tail else r.mid_share)

    def headline(self) -> str:
        """The one-line story: what drives the tail vs the median."""
        if not self.rows:
            return "tail attribution: no phase-tagged samples yet"
        tail_row = self.dominant(tail=True)
        mid_row = self.dominant(tail=False)
        amp = tail_row.amplification
        amp_txt = f"{amp:.1f}x" if amp != float("inf") else ">100x"
        return (
            f"p{self.tail_q * 100:g} is dominated by {tail_row.phase} "
            f"({tail_row.tail_share:.0%} of tail latency, {amp_txt} its "
            f"median-cohort time); p50 is {mid_row.phase} "
            f"({mid_row.mid_share:.0%} of median latency)"
        )

    def describe(self) -> str:
        header = (
            f"{'phase':<12} {'p50 mean ms':>12} {'p50 share':>10} "
            f"{'tail mean ms':>13} {'tail share':>11} {'amplif':>8}"
        )
        lines = [
            (
                f"tail attribution — {self.sample_count} queries, median "
                f"cohort n={self.mid_count}, tail cohort n={self.tail_count} "
                f"(>= p{self.tail_q * 100:g} = "
                f"{self.tail_threshold_s * 1000:.1f} ms)"
            ),
            header,
            "-" * len(header),
        ]
        for row in self.rows:
            amp = row.amplification
            amp_txt = f"{amp:>7.1f}x" if amp != float("inf") else "    inf"
            lines.append(
                f"{row.phase:<12} {row.mid_mean_s * 1000:>12.2f} "
                f"{row.mid_share:>10.1%} {row.tail_mean_s * 1000:>13.2f} "
                f"{row.tail_share:>11.1%} {amp_txt}"
            )
        lines.append(self.headline())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "p50_s": self.p50_s,
            "tail_threshold_s": self.tail_threshold_s,
            "tail_q": self.tail_q,
            "mid_count": self.mid_count,
            "tail_count": self.tail_count,
            "sample_count": self.sample_count,
            "headline": self.headline(),
            "rows": [
                {
                    "phase": r.phase,
                    "mid_mean_s": r.mid_mean_s,
                    "mid_share": r.mid_share,
                    "tail_mean_s": r.tail_mean_s,
                    "tail_share": r.tail_share,
                    "amplification": (
                        r.amplification
                        if r.amplification != float("inf")
                        else None
                    ),
                }
                for r in self.rows
            ],
        }


def _rank(sorted_totals: list[float], q: float) -> float:
    index = int(round(q * (len(sorted_totals) - 1)))
    return sorted_totals[index]


def tail_attribution(
    samples: list[TailSample],
    *,
    tail_q: float = 0.99,
    mid_band: tuple[float, float] = (0.4, 0.6),
) -> TailReport:
    """Compare the phase mix of median-ish queries against tail queries.

    The *median cohort* is the samples whose total latency falls in the
    ``mid_band`` quantile band (default 0.4–0.6 — "a typical query");
    the *tail cohort* is every sample at or above the ``tail_q``
    latency. Per phase, the report carries the mean seconds spent in
    each cohort, that mean's share of the cohort's total, and the
    tail/median amplification. Phases are ordered canonically
    (:data:`~repro.obs.attribution.PHASE_ORDER` first).
    """
    if not samples:
        return TailReport(
            rows=[],
            p50_s=0.0,
            tail_threshold_s=0.0,
            tail_q=tail_q,
            mid_count=0,
            tail_count=0,
            sample_count=0,
        )
    by_total = sorted(samples, key=lambda s: s.total_s)
    totals = [s.total_s for s in by_total]
    p50 = _rank(totals, 0.5)
    threshold = _rank(totals, tail_q)
    lo = int(round(mid_band[0] * (len(by_total) - 1)))
    hi = int(round(mid_band[1] * (len(by_total) - 1)))
    mid = by_total[lo : hi + 1]
    tail = [s for s in by_total if s.total_s >= threshold]

    phases: list[str] = []
    for sample in samples:
        for phase in sample.phase_s:
            if phase not in phases:
                phases.append(phase)
    ordered = [p for p in PHASE_ORDER if p in phases]
    ordered.extend(p for p in sorted(phases) if p not in PHASE_ORDER)

    def cohort_means(cohort: list[TailSample]) -> dict[str, float]:
        if not cohort:
            return {p: 0.0 for p in ordered}
        return {
            p: sum(s.phase_s.get(p, 0.0) for s in cohort) / len(cohort)
            for p in ordered
        }

    mid_means = cohort_means(mid)
    tail_means = cohort_means(tail)
    mid_total = sum(mid_means.values())
    tail_total = sum(tail_means.values())
    rows = [
        PhaseTailRow(
            phase=p,
            mid_mean_s=mid_means[p],
            mid_share=mid_means[p] / mid_total if mid_total else 0.0,
            tail_mean_s=tail_means[p],
            tail_share=tail_means[p] / tail_total if tail_total else 0.0,
        )
        for p in ordered
    ]
    return TailReport(
        rows=rows,
        p50_s=p50,
        tail_threshold_s=threshold,
        tail_q=tail_q,
        mid_count=len(mid),
        tail_count=len(tail),
        sample_count=len(samples),
    )
