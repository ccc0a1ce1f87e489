"""Declarative SLOs evaluated as multi-window burn rates.

An SLO here is an objective over the telemetry hub's windowed series —
"99% of queries under 1 s", "99.9% of queries served non-degraded",
"at most $0.005 of spend per query" — evaluated the way alerting
literature recommends: as **burn rates** over two horizons. The *long*
horizon (every retained window) answers "is the error budget actually
being consumed faster than allowed", the *short* horizon (the most
recent windows) answers "is it still happening now"; an objective is
breached only when **both** exceed the burn threshold, so a long-past
incident doesn't page forever and a two-query blip doesn't page at all.

Three objective kinds map onto the hub:

* :class:`LatencyObjective` — fraction of observations in a
  :class:`~repro.obs.timeseries.WindowedQuantiles` above a threshold,
  against the error budget implied by the target quantile (p99 ≤ 1 s
  means at most 1% of queries may exceed 1 s).
* :class:`AvailabilityObjective` — a bad-event series (degraded
  fallbacks, ``serve.degraded``)
  over a total-event series, against ``1 - target``.
* :class:`CostObjective` — windowed mean dollars per query against a
  budget (burn = observed / budget; the "error budget" is the budget
  itself).

``repro slo-check`` folds :meth:`SLO.evaluate` into an exit code so CI
can gate benchmark runs on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.timeseries import TelemetryHub

#: Windows in the short (recent) burn horizon.
DEFAULT_SHORT_WINDOWS = 5

#: Burn rate at/above which a horizon counts as burning.
DEFAULT_BREACH_BURN = 1.0


@dataclass(frozen=True)
class BurnRate:
    """Error-budget consumption over the two horizons."""

    long_burn: float
    short_burn: float
    long_events: int
    short_events: int

    def breached(self, threshold: float = DEFAULT_BREACH_BURN) -> bool:
        return self.long_burn > threshold and self.short_burn > threshold


@dataclass(frozen=True)
class LatencyObjective:
    """``quantile`` of ``series`` must stay at or under ``threshold_s``."""

    name: str
    quantile: float = 0.99
    threshold_s: float = 1.0
    series: str = "serve.latency_s"

    @property
    def error_budget(self) -> float:
        return 1.0 - self.quantile

    def measure(self, hub: TelemetryHub, *, short_windows: int) -> "ObjectiveStatus":
        wq = hub.quantiles(self.series)
        long_sketch = wq.merged()
        short_sketch = wq.merged(last=short_windows)

        def burn(sketch) -> float:
            if sketch.count == 0:
                return 0.0
            bad = sketch.count_above(self.threshold_s) / sketch.count
            return bad / self.error_budget

        rate = BurnRate(
            long_burn=burn(long_sketch),
            short_burn=burn(short_sketch),
            long_events=long_sketch.count,
            short_events=short_sketch.count,
        )
        observed = long_sketch.quantile(self.quantile)
        return ObjectiveStatus(
            name=self.name,
            kind="latency",
            ok=not rate.breached(),
            burn=rate,
            observed=observed,
            limit=self.threshold_s,
            unit="s",
            detail=(
                f"p{self.quantile * 100:g} = {observed * 1000:.1f} ms "
                f"(limit {self.threshold_s * 1000:.0f} ms) over "
                f"{long_sketch.count} queries"
            ),
        )


@dataclass(frozen=True)
class AvailabilityObjective:
    """Fraction of good events must stay at or above ``target``."""

    name: str
    target: float = 0.999
    total_series: str = "serve.queries"
    bad_series: str = "serve.degraded"

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def measure(self, hub: TelemetryHub, *, short_windows: int) -> "ObjectiveStatus":
        total = hub.series(self.total_series)
        bad = hub.series(self.bad_series)

        def burn(last: int | None) -> tuple[float, int]:
            n = total.count(last)
            if n == 0:
                return 0.0, 0
            bad_fraction = bad.count(last) / n
            return bad_fraction / self.error_budget, n

        long_burn, long_n = burn(None)
        short_burn, short_n = burn(short_windows)
        rate = BurnRate(
            long_burn=long_burn,
            short_burn=short_burn,
            long_events=long_n,
            short_events=short_n,
        )
        availability = (
            1.0 - bad.count(None) / long_n if long_n else 1.0
        )
        return ObjectiveStatus(
            name=self.name,
            kind="availability",
            ok=not rate.breached(),
            burn=rate,
            observed=availability,
            limit=self.target,
            unit="",
            detail=(
                f"availability {availability:.4%} "
                f"(target {self.target:.3%}) over {long_n} queries, "
                f"{bad.count(None)} degraded"
            ),
        )


@dataclass(frozen=True)
class CostObjective:
    """Windowed mean dollars per query must stay at or under the budget."""

    name: str
    budget_usd_per_query: float = 5e-3
    cost_series: str = "serve.cost_usd"

    def measure(self, hub: TelemetryHub, *, short_windows: int) -> "ObjectiveStatus":
        series = hub.series(self.cost_series)

        def burn(last: int | None) -> tuple[float, int]:
            n = series.count(last)
            if n == 0:
                return 0.0, 0
            per_query = series.total(last) / n
            return per_query / self.budget_usd_per_query, n

        long_burn, long_n = burn(None)
        short_burn, short_n = burn(short_windows)
        rate = BurnRate(
            long_burn=long_burn,
            short_burn=short_burn,
            long_events=long_n,
            short_events=short_n,
        )
        observed = series.total(None) / long_n if long_n else 0.0
        return ObjectiveStatus(
            name=self.name,
            kind="cost",
            ok=not rate.breached(),
            burn=rate,
            observed=observed,
            limit=self.budget_usd_per_query,
            unit="USD/query",
            detail=(
                f"${observed:.3e}/query "
                f"(budget ${self.budget_usd_per_query:.3e}) over "
                f"{long_n} queries"
            ),
        )


@dataclass(frozen=True)
class ObjectiveStatus:
    """One objective's verdict, burn rates, and observed value."""

    name: str
    kind: str
    ok: bool
    burn: BurnRate
    observed: float
    limit: float
    unit: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "long_burn": self.burn.long_burn,
            "short_burn": self.burn.short_burn,
            "long_events": self.burn.long_events,
            "short_events": self.burn.short_events,
            "observed": self.observed,
            "limit": self.limit,
            "unit": self.unit,
            "detail": self.detail,
        }


@dataclass
class SLOReport:
    """Every objective's status plus the overall verdict."""

    statuses: list[ObjectiveStatus]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.statuses)

    @property
    def total_events(self) -> int:
        return max((s.burn.long_events for s in self.statuses), default=0)

    def describe(self) -> str:
        lines = ["SLO status:"]
        for s in self.statuses:
            verdict = "OK    " if s.ok else "BREACH"
            lines.append(
                f"  [{verdict}] {s.name}: {s.detail} "
                f"(burn long {s.burn.long_burn:.2f} / "
                f"short {s.burn.short_burn:.2f})"
            )
        lines.append(
            "overall: " + ("all objectives met" if self.ok else "SLO BREACHED")
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "objectives": [s.to_dict() for s in self.statuses],
        }


@dataclass
class SLO:
    """A named bundle of objectives evaluated against one hub."""

    objectives: list = field(default_factory=list)
    short_windows: int = DEFAULT_SHORT_WINDOWS

    def evaluate(self, hub: TelemetryHub) -> SLOReport:
        return SLOReport(
            statuses=[
                obj.measure(hub, short_windows=self.short_windows)
                for obj in self.objectives
            ]
        )


def default_slo(
    *,
    latency_p99_s: float = 1.0,
    availability: float = 0.999,
    cost_usd_per_query: float = 5e-3,
) -> SLO:
    """The serving SLO this repo's benchmarks are gated on.

    Defaults sit well clear of the committed ``BENCH_serving.json``
    numbers (worst modeled latency ≈ 0.65 s, worst per-query cost
    ≈ $9e-4) so the gate trips on regressions, not on noise.
    """
    return SLO(
        objectives=[
            LatencyObjective(
                name=f"latency_p99_le_{latency_p99_s:g}s",
                quantile=0.99,
                threshold_s=latency_p99_s,
            ),
            AvailabilityObjective(
                name=f"availability_ge_{availability:g}",
                target=availability,
            ),
            CostObjective(
                name=f"cost_le_{cost_usd_per_query:g}_usd_per_query",
                budget_usd_per_query=cost_usd_per_query,
            ),
        ]
    )
