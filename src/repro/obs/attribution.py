"""Per-query cost attribution: span tree -> dollars and seconds.

A finished ``search`` span tree carries one
:class:`~repro.storage.stats.RequestTrace` per *phase* span (the plan,
index probing, in-situ page reads, and the brute-force fill — the
decomposition behind the paper's Fig. 8 curves). Joining those traces
with the storage latency model (§V-B) and the cloud cost model (§VI)
yields a :class:`QueryBill`: per-phase request counts, bytes, modeled
wall-clock, S3 request dollars, and searcher-instance compute dollars.

The bill is *accounting-exact* by construction: every object-store
request a query issues is recorded in exactly one phase's trace, so the
bill's total op counts equal the :class:`~repro.storage.stats.IOStats`
delta across the query, and the bill's total request cost — computed
from the summed counts, not by summing rounded per-phase dollars —
equals that delta priced by :meth:`CostModel.request_cost` to the bit.
``repro profile`` prints the reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import Span
from repro.storage.costs import CostModel
from repro.storage.latency import LatencyModel
from repro.storage.stats import IOStats, RequestTrace

#: Canonical phase order for bills (spans tag themselves via the
#: ``phase`` attribute; unknown phases are appended after these).
#: ``probe`` is an exact query's index probe + page read, fused per index
#: record; scoring queries keep the two apart (their sort is a barrier).
PHASE_ORDER = ("plan", "fresh", "probe", "index_probe", "page_read", "brute_force")

#: The searcher instance the paper prices queries against (§VII).
DEFAULT_INSTANCE = "c6i.2xlarge"


@dataclass(kw_only=True)
class PhaseBill(IOStats):
    """One phase's request counts — an :class:`IOStats` folded from its
    spans' traces — plus the time and dollars they cost."""

    phase: str
    spans: int = 0
    est_latency_s: float = 0.0
    request_cost_usd: float = 0.0
    compute_cost_usd: float = 0.0

    @property
    def requests(self) -> int:
        return self.total_requests

    @property
    def cost_usd(self) -> float:
        return self.request_cost_usd + self.compute_cost_usd


def _summed(name: str) -> property:
    """A :class:`QueryBill` total: the phases' ``name`` summed."""
    return property(lambda self: sum(getattr(p, name) for p in self.phases))


@dataclass
class QueryBill:
    """The full per-query decomposition (Fig. 8's bars, per request)."""

    query: str
    instance_type: str
    instance_hourly_usd: float
    phases: list[PhaseBill] = field(default_factory=list)

    # -- totals (computed from summed counts, never from per-phase $) --
    gets = _summed("gets")
    puts = _summed("puts")
    lists = _summed("lists")
    heads = _summed("heads")
    deletes = _summed("deletes")
    requests = _summed("requests")
    bytes_read = _summed("bytes_read")
    bytes_written = _summed("bytes_written")
    est_latency_s = _summed("est_latency_s")
    compute_cost_usd = _summed("compute_cost_usd")

    def total_request_cost_usd(self, costs: CostModel | None = None) -> float:
        """Summed op counts priced in one shot — the figure that must
        (and does) equal the query's IOStats delta priced the same way."""
        costs = costs or CostModel()
        return costs.request_cost(
            gets=self.gets, puts=self.puts, lists=self.lists, heads=self.heads
        )

    def total_cost_usd(self, costs: CostModel | None = None) -> float:
        return self.total_request_cost_usd(costs) + self.compute_cost_usd

    def describe(self, costs: CostModel | None = None) -> str:
        costs = costs or CostModel()
        header = (
            f"{'phase':<12} {'req':>5} {'GET':>5} {'PUT':>4} {'LIST':>4} "
            f"{'bytes':>10} {'est ms':>9} {'request $':>12} {'compute $':>12}"
        )
        lines = [
            f"per-query bill — {self.query} "
            f"({self.instance_type} @ ${self.instance_hourly_usd:.3f}/h)",
            header,
            "-" * len(header),
        ]
        for p in self.phases:
            lines.append(
                f"{p.phase:<12} {p.requests:>5} {p.gets:>5} {p.puts:>4} "
                f"{p.lists:>4} {_human_bytes(p.bytes_read + p.bytes_written):>10} "
                f"{p.est_latency_s * 1000:>9.2f} {p.request_cost_usd:>12.3e} "
                f"{p.compute_cost_usd:>12.3e}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<12} {self.requests:>5} {self.gets:>5} {self.puts:>4} "
            f"{self.lists:>4} "
            f"{_human_bytes(self.bytes_read + self.bytes_written):>10} "
            f"{self.est_latency_s * 1000:>9.2f} "
            f"{self.total_request_cost_usd(costs):>12.3e} "
            f"{self.compute_cost_usd:>12.3e}"
        )
        lines.append(
            f"total cost: ${self.total_cost_usd(costs):.3e} per query "
            f"(~{self.est_latency_s * 1000:.1f} ms modeled)"
        )
        return "\n".join(lines)


def price_iostats(stats: IOStats, costs: CostModel | None = None) -> float:
    """An :class:`IOStats` (delta) priced by the cost model — the
    reference figure query bills reconcile against."""
    costs = costs or CostModel()
    return costs.request_cost(
        gets=stats.gets, puts=stats.puts, lists=stats.lists, heads=stats.heads
    )


def price_trace(
    trace: RequestTrace,
    *,
    latency: LatencyModel | None = None,
    costs: CostModel | None = None,
    instance_type: str = DEFAULT_INSTANCE,
) -> tuple[float, float]:
    """A run's trace priced without its span tree: ``(modeled seconds,
    dollars)``, the dollars being its requests (:func:`price_iostats`)
    plus the instance time spent waiting on them. What a run bills when
    the tracer keeps no spans to :func:`attribute`."""
    latency = latency or LatencyModel()
    costs = costs or CostModel()
    seconds = latency.trace_latency(trace)
    compute = seconds * costs.instance_hourly(instance_type) / 3600.0
    return seconds, price_iostats(IOStats().fold(trace), costs) + compute


def attribute(
    root: Span,
    *,
    latency: LatencyModel | None = None,
    costs: CostModel | None = None,
    instance_type: str = DEFAULT_INSTANCE,
) -> QueryBill:
    """Join a finished span tree with the latency/cost models.

    Walks ``root`` collecting spans tagged with a ``phase`` attribute
    (each carrying the :class:`RequestTrace` of the store requests that
    phase issued) and produces the per-phase bill. Spans without the
    tag — worker task spans, per-request events — contribute nothing,
    so concurrent executor traces are not double counted.
    """
    latency = latency or LatencyModel()
    costs = costs or CostModel()
    hourly = costs.instance_hourly(instance_type)

    by_phase: dict[str, PhaseBill] = {}
    for span in root.walk():
        phase = span.attributes.get("phase")
        if phase is None:
            continue
        bill = by_phase.setdefault(str(phase), PhaseBill(phase=str(phase)))
        bill.spans += 1
        trace = span.trace
        if trace is None:
            continue
        bill.fold(trace)
        phase_latency = latency.trace_latency(trace)
        bill.est_latency_s += phase_latency
        bill.compute_cost_usd += phase_latency * hourly / 3600.0

    for bill in by_phase.values():
        bill.request_cost_usd = price_iostats(bill, costs)

    ordered = [by_phase[p] for p in PHASE_ORDER if p in by_phase]
    ordered.extend(
        by_phase[p] for p in sorted(by_phase) if p not in PHASE_ORDER
    )
    return QueryBill(
        query=root.name,
        instance_type=instance_type,
        instance_hourly_usd=hourly,
        phases=ordered,
    )


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GB"  # pragma: no cover - unreachable
