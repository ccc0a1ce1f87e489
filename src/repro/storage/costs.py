"""Cloud cost model (AWS-like public prices, us-east-1, mid-2024).

The TCO framework (Section VI of the paper) prices three approaches:

* copy-data: always-on dedicated cluster (instances + 3x EBS replicas),
* brute force: S3 storage of compressed Parquet + per-query scan compute,
* Rottnest: S3 storage of Parquet + index files, one-time indexing
  compute, and per-query single-instance compute.

Prices here are constants so experiments are reproducible; all are
overridable for sensitivity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GB = 1024**3

#: On-demand hourly prices for the instance types the paper uses.
DEFAULT_INSTANCE_PRICES: dict[str, float] = {
    "r6i.4xlarge": 1.008,  # brute-force Spark workers (16 vCPU)
    "r6i.xlarge": 0.252,
    "r6g.large": 0.1008,  # OpenSearch data nodes
    "r6g.xlarge": 0.2016,  # LanceDB nodes
    "c6i.2xlarge": 0.340,  # Rottnest indexer / searcher
}

HOURS_PER_MONTH = 730.0


@dataclass(frozen=True)
class CostModel:
    """Unit prices used to convert measured resources into dollars."""

    s3_storage_per_gb_month: float = 0.023
    s3_get_per_request: float = 0.0004 / 1000.0
    s3_put_per_request: float = 0.005 / 1000.0
    s3_list_per_request: float = 0.005 / 1000.0
    opensearch_ebs_per_gb_month: float = 0.135  # managed-service premium
    instance_prices: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_INSTANCE_PRICES)
    )

    def instance_hourly(self, instance_type: str) -> float:
        """On-demand hourly price for ``instance_type`` (KeyError if unknown)."""
        try:
            return self.instance_prices[instance_type]
        except KeyError:
            raise KeyError(
                f"unknown instance type {instance_type!r}; known: "
                f"{sorted(self.instance_prices)}"
            ) from None

    def storage_monthly(self, nbytes: int) -> float:
        """S3 storage cost per month for ``nbytes``."""
        return (nbytes / GB) * self.s3_storage_per_gb_month

    def compute_cost(self, instance_type: str, seconds: float, count: int = 1) -> float:
        """Cost of running ``count`` instances for ``seconds``."""
        return self.instance_hourly(instance_type) * (seconds / 3600.0) * count

    def request_cost(
        self, gets: int = 0, puts: int = 0, lists: int = 0, heads: int = 0
    ) -> float:
        """Dollar cost of a request mix — the term coalescing shrinks.
        S3 prices a HEAD as a GET-class request."""
        return (
            (gets + heads) * self.s3_get_per_request
            + puts * self.s3_put_per_request
            + lists * self.s3_list_per_request
        )
