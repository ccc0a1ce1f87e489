"""Maximum-throughput analysis (§VII-D3).

The TCO framework compares total cost, but each approach also has a
QPS ceiling:

* copy-data clusters are bounded by their nodes' disk IOPS/CPU —
  typically thousands of QPS per replica set;
* Rottnest and brute force share S3's ~5500 GET/s per-prefix limit.
  Brute force additionally needs a whole cluster per concurrent query;
  Rottnest spends `requests_per_query` GETs, capping it at tens to low
  hundreds of QPS.

The paper's conclusion, which :func:`throughput_analysis` checks: by
the time a workload would exceed Rottnest's QPS ceiling, the TCO phase
diagram has *already* handed the win to the copy-data approach, so the
throughput limit does not change any conclusions (10 QPS sustained for
10 months = 2.52x10^7 total queries, past the upper boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TCOError
from repro.tco.phase import PhaseDiagram

SECONDS_PER_MONTH = 730.0 * 3600.0


@dataclass(frozen=True)
class ThroughputModel:
    """Rottnest's QPS ceiling: S3's per-prefix GET rate spread over its
    requests per query (the one ceiling the §VII-D3 check needs)."""

    prefix_get_rps: float = 5500.0
    rottnest_requests_per_query: float = 50.0

    def __post_init__(self) -> None:
        if self.rottnest_requests_per_query <= 0:
            raise TCOError("requests per query must be positive")

    @property
    def rottnest_max_qps(self) -> float:
        return self.prefix_get_rps / self.rottnest_requests_per_query

    def sustained_queries(self, qps: float, months: float) -> float:
        """Total queries if run at ``qps`` for ``months``."""
        return qps * months * SECONDS_PER_MONTH


@dataclass(frozen=True)
class ThroughputAnalysis:
    rottnest_max_qps: float
    queries_at_cap: float  # total queries at the cap over the horizon
    copy_data_boundary: float | None  # upper edge of Rottnest's win band
    cap_binds_before_boundary: bool

    @property
    def conclusion_unchanged(self) -> bool:
        """True when the QPS cap lies beyond the point where copy-data
        already wins on cost — the paper's §VII-D3 finding."""
        return not self.cap_binds_before_boundary


def throughput_analysis(
    diagram: PhaseDiagram,
    *,
    months: float = 10.0,
    model: ThroughputModel | None = None,
    rottnest_name: str = "rottnest",
) -> ThroughputAnalysis:
    """Check whether Rottnest's QPS ceiling changes the TCO verdict."""
    model = model or ThroughputModel()
    qps = model.rottnest_max_qps
    queries_at_cap = model.sustained_queries(qps, months)
    band = diagram.win_band(rottnest_name, months)
    boundary = band[1] if band else None
    binds = boundary is not None and queries_at_cap < boundary
    return ThroughputAnalysis(
        rottnest_max_qps=qps,
        queries_at_cap=queries_at_cap,
        copy_data_boundary=boundary,
        cap_binds_before_boundary=binds,
    )
