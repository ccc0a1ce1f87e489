"""The parallel maintenance pipeline (write-path twin of ``repro.serve``).

The paper's lazy maintenance protocol (§IV) is cheap because its three
verbs are rare and coarse — but our serial ``index`` loop extracted one
Parquet file at a time and ``compact`` merged one group at a time, so
wall-clock grew linearly with lake size while the read path (the query
executor) already fanned out. :class:`MaintenancePipeline` closes that
gap:

* ``index`` fans per-file page-value extraction across a bounded
  worker pool; the index structure is still built and committed on the
  calling thread, so the committed bytes and metadata are identical to
  the serial run for any worker count.
* ``compact`` merges independent bin-packed groups concurrently;
  uploads are content-addressed, the commit is one single-threaded
  metadata insert, and a streaming merge bounds per-worker memory.
* Every worker records a per-thread request trace under a phase-tagged
  span, so one finished pipeline run attributes to dollars and modeled
  seconds with :func:`repro.obs.attribution.attribute` — reconciling
  against the store's :class:`~repro.storage.stats.IOStats` delta
  exactly as query bills do.

Sharing an :class:`~repro.storage.pool.IOBudget` between a pipeline and
a query executor caps their *combined* in-flight store tasks: the
backpressure signal that lets the daemon overlap maintenance ticks with
live serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.client import RottnestClient
from repro.core.maintenance import (
    DEFAULT_COMPACT_TARGET_BYTES,
    DEFAULT_COMPACT_THRESHOLD_BYTES,
    VacuumReport,
    compact_indices,
    vacuum_indices,
)
from repro.meta.metadata_table import IndexRecord
from repro.obs.attribution import DEFAULT_INSTANCE, QueryBill, attribute
from repro.obs.metrics import get_registry
from repro.obs.timeseries import get_hub
from repro.obs.trace import Span, get_tracer
from repro.storage.costs import CostModel
from repro.storage.latency import LatencyModel
from repro.storage.pool import IOBudget, TracedPool
from repro.storage.stats import RequestTrace

_RUNS = get_registry().counter(
    "maintain_runs_total",
    "Pipeline maintenance runs by verb.",
    ("op",),
)
_TASKS = get_registry().counter(
    "maintain_worker_tasks_total",
    "Worker tasks the pipeline fanned out, by verb.",
    ("op",),
)
_MODELED_SECONDS = get_registry().counter(
    "maintain_modeled_seconds_total",
    "Modeled store-latency seconds spent in maintenance, by verb.",
    ("op",),
)


@dataclass
class MaintainReport:
    """One pipeline run: what was committed and what it cost.

    ``trace`` is the phase traces composed sequentially (plan →
    extract/merge waves → commit), so
    ``LatencyModel().trace_latency(report.trace)`` is the modeled
    wall-clock of the run at the pipeline's worker count; ``root`` is
    the finished span tree for full cost attribution.
    ``interleave_iterations`` and ``rows_sorted`` are what an FM
    compaction's interleave merges counted (passes run; rows stably
    sorted over them, ``passes * n`` without the active set), zero for
    every other run.
    """

    op: str
    workers: int
    records: list[IndexRecord] = field(default_factory=list)
    trace: RequestTrace = field(default_factory=RequestTrace)
    root: Span | None = None
    worker_tasks: int = 0
    interleave_iterations: int = 0
    rows_sorted: int = 0

    def modeled_latency(self, model: LatencyModel | None = None) -> float:
        """Modeled seconds for the run under ``model``."""
        return (model or LatencyModel()).trace_latency(self.trace)

    def bill(
        self,
        *,
        latency: LatencyModel | None = None,
        costs: CostModel | None = None,
        instance_type: str = DEFAULT_INSTANCE,
    ) -> QueryBill:
        """Per-phase cost attribution, same machinery as query bills."""
        if self.root is None:
            raise ValueError("report has no span tree to attribute")
        return attribute(
            self.root, latency=latency, costs=costs, instance_type=instance_type
        )


class MaintenancePipeline:
    """Runs maintenance verbs for one client over a bounded worker pool.

    Usable as a context manager; :meth:`close` shuts the pool down.
    Committed state is byte-identical to the serial client calls — the
    pipeline only changes *when* the reads happen, never what gets
    written (a hypothesis property test pins this).
    """

    def __init__(
        self,
        client: RottnestClient,
        *,
        workers: int = 4,
        budget: IOBudget | None = None,
    ) -> None:
        self.client = client
        self.workers = workers
        self.budget = budget
        self._pool = TracedPool(
            client.store,
            workers=workers,
            thread_name_prefix="maintainer",
            span_name="maintainer:task",
            budget=budget,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "MaintenancePipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs ---------------------------------------------------------
    def index(
        self,
        column: str,
        index_type: str,
        *,
        snapshot=None,
        params: dict | None = None,
    ) -> MaintainReport:
        """Parallel :meth:`RottnestClient.index`; returns a report."""
        with get_tracer().span(
            "maintain.index",
            column=column,
            index_type=index_type,
            workers=self.workers,
        ) as root:
            record = self.client.index(
                column,
                index_type,
                snapshot=snapshot,
                params=params,
                pool=self._pool,
            )
        return self._report(
            "index", root, [record] if record is not None else []
        )

    def compact(
        self,
        column: str,
        index_type: str,
        *,
        threshold_bytes: int = DEFAULT_COMPACT_THRESHOLD_BYTES,
        target_bytes: int = DEFAULT_COMPACT_TARGET_BYTES,
    ) -> MaintainReport:
        """Parallel :func:`compact_indices`; returns a report."""
        with get_tracer().span(
            "maintain.compact",
            column=column,
            index_type=index_type,
            workers=self.workers,
        ) as root:
            records = compact_indices(
                self.client,
                column,
                index_type,
                threshold_bytes=threshold_bytes,
                target_bytes=target_bytes,
                pool=self._pool,
            )
        return self._report("compact", root, records)

    def vacuum(self, *, snapshot_id: int) -> VacuumReport:
        """Serial :func:`vacuum_indices` passthrough.

        Vacuum is a metadata commit plus one-by-one physical deletes
        whose ordering *is* its crash-safety argument — there is
        nothing safe to fan out, so the pipeline keeps it sequential.
        """
        report = vacuum_indices(self.client, snapshot_id=snapshot_id)
        _RUNS.inc(op="vacuum")
        get_hub().series("maintain.vacuum.runs").observe(
            1.0, at_s=self.client.store.clock.now()
        )
        return report

    # -- internals -----------------------------------------------------
    def _report(
        self, op: str, root: Span, records: list[IndexRecord]
    ) -> MaintainReport:
        trace = RequestTrace()
        tasks = 0
        merge_stats = {"interleave_iterations": 0, "rows_sorted": 0}
        for span in root.walk():
            if span.name == "compact.merge":
                for name in merge_stats:
                    merge_stats[name] = span.attributes.get(name, 0)
            if span.name.endswith(":task"):
                tasks += 1
                continue  # task traces are owned by their phase span
            if span.attributes.get("phase") and span.trace is not None:
                trace = trace.then(span.trace)
        report = MaintainReport(
            op=op,
            workers=self.workers,
            records=records,
            trace=trace,
            root=root,
            worker_tasks=tasks,
            **merge_stats,
        )
        _RUNS.inc(op=op)
        if tasks:
            _TASKS.inc(tasks, op=op)
        modeled_s = report.modeled_latency()
        _MODELED_SECONDS.inc(modeled_s, op=op)

        hub = get_hub()
        at_s = self.client.store.clock.now()
        bill = report.bill()
        request_usd = bill.total_request_cost_usd()
        compute_usd = bill.compute_cost_usd
        hub.ledger.record_maintain(op, request_usd, compute_usd, at_s=at_s)
        hub.series(f"maintain.{op}.modeled_s").observe(modeled_s, at_s=at_s)
        hub.series("maintain.cost_usd").observe(
            request_usd + compute_usd, at_s=at_s
        )
        return report
