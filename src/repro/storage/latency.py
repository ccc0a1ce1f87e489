"""Object storage latency model.

Calibrated to the paper's Figure 10a measurement of S3 byte-range GETs:

* request latency is *flat* with respect to size until roughly 1 MB
  (dominated by time-to-first-byte), and
* grows *linearly* with size beyond that (per-request stream bandwidth),
* this shape holds from 1 to 512 concurrent requests, after which the
  instance NIC and the per-prefix request rate start to matter.

The model converts a :class:`~repro.storage.stats.RequestTrace` into an
estimated wall-clock latency: rounds execute sequentially, requests in a
round execute in parallel subject to a concurrency cap, the instance
bandwidth, and S3's ~5500 GET/s per-prefix throttle (paper §VII-D3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.stats import RequestTrace


@dataclass(frozen=True)
class LatencyModel:
    """Parameters of the simulated object store's performance envelope."""

    first_byte_s: float = 0.030
    """Time to first byte for any request (GET/PUT/HEAD/DELETE)."""

    free_bytes: int = 1 << 20
    """Size below which request latency is flat (Fig. 10a knee, ~1 MB)."""

    stream_bandwidth_bps: float = 90e6
    """Per-request streaming bandwidth beyond ``free_bytes`` (~90 MB/s)."""

    instance_bandwidth_bps: float = 12.5e9
    """Aggregate NIC bandwidth of the querying instance (100 Gbps)."""

    max_concurrency: int = 512
    """Connections one instance keeps in flight at once."""

    prefix_get_rps: float = 5500.0
    """S3 GET requests/second per key prefix before throttling."""

    list_latency_s: float = 0.100
    """Latency of one LIST page (LISTs are slow and unparallelisable)."""

    def request_latency(self, nbytes: int) -> float:
        """Latency of a single isolated request of ``nbytes``."""
        extra = max(0, nbytes - self.free_bytes)
        return self.first_byte_s + extra / self.stream_bandwidth_bps

    def round_latency(self, sizes: list[int]) -> float:
        """Latency of one parallel round of requests.

        Requests are issued in waves of at most ``max_concurrency``; the
        round finishes when the slowest wave finishes. Aggregate-bandwidth
        and per-prefix-RPS floors are then applied, since neither can be
        beaten by adding connections.
        """
        if not sizes:
            return 0.0
        waves = -(-len(sizes) // self.max_concurrency)  # ceil division
        slowest = max(sizes)
        wave_latency = self.request_latency(slowest)
        latency = waves * wave_latency
        bandwidth_floor = sum(sizes) / self.instance_bandwidth_bps
        rps_floor = len(sizes) / self.prefix_get_rps
        return max(latency, bandwidth_floor, rps_floor)

    def trace_latency(self, trace: RequestTrace) -> float:
        """Estimated wall-clock latency of an entire dependency trace."""
        total = 0.0
        for round_ in trace.rounds:
            if not round_:
                continue
            lists = [r for r in round_ if r.op == "LIST"]
            others = [r for r in round_ if r.op != "LIST"]
            round_total = self.round_latency([r.nbytes for r in others])
            # LIST pages are sequential per listing; approximate with one
            # page per recorded LIST request.
            round_total += len(lists) * self.list_latency_s
            total += round_total
        return total
