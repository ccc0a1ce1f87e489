"""Brute-force scan baseline (the paper's PySpark-on-EMR setup).

The scan itself is the search plan with ``use_indices=False``
(:meth:`RottnestClient.search <repro.core.client.RottnestClient.search>`):
every in-scope file is read through the lake's one live-row scan, and
its bytes are the run's trace. This module keeps the **cluster scaling
model** calibrated to Figure 8a/8b: near-linear speedup at small
clusters, a knee around ~32 workers where fixed startup/coordination
time stops shrinking, and therefore a cost per query that is flat early
and grows once extra workers only burn money.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.costs import CostModel


@dataclass(frozen=True)
class BruteForceModel:
    """Latency/cost model of a scan cluster."""

    scan_rate_bytes_per_s: float = 2.0e9
    """Compressed bytes one worker decompresses + matches per second
    (16 vCPUs of an r6i.4xlarge)."""

    startup_s: float = 0.8
    """Fixed per-query overhead: task scheduling + S3 first bytes."""

    coordination_s_per_log2_workers: float = 0.15
    """Coordination/shuffle overhead growing with cluster size."""

    serial_fraction: float = 0.004
    """Fraction of the scan that does not parallelize (planning,
    result merge) — the Amdahl term that caps speedup."""

    instance_type: str = "r6i.4xlarge"

    def latency(self, scan_bytes: int, workers: int) -> float:
        """Seconds for a full scan of ``scan_bytes`` on ``workers``."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        work = scan_bytes / self.scan_rate_bytes_per_s
        return (
            self.startup_s
            + self.coordination_s_per_log2_workers * float(np.log2(workers + 1))
            + work * self.serial_fraction
            + work / workers
        )

    def cost_per_query(
        self, scan_bytes: int, workers: int, costs: CostModel | None = None
    ) -> float:
        """Dollars per normalized (full-scan) query."""
        costs = costs or CostModel()
        hourly = costs.instance_hourly(self.instance_type)
        return self.latency(scan_bytes, workers) * workers * hourly / 3600.0
