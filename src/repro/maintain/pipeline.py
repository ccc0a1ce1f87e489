"""The maintenance pipeline: the one place a maintenance verb is *run and
reported* (write-path twin of ``repro.serve``).

The verbs — ``index``, ``compact``, ``vacuum``, ``refine`` — are written
once in :mod:`repro.core.maintenance`, parameterised by a worker pool.
:class:`MaintenancePipeline` owns that pool (the only ``TracedPool``
maintenance ever constructs: ``index`` fans per-file extraction across
it, ``compact`` its independent merge groups; committed bytes are
identical for any worker count) and the one reporter. Every run — and
every planning read a scheduler makes through
:meth:`MaintenancePipeline.plan` — happens under phase-tagged spans
that own their request traces. A run's trace and task count come from
its :class:`~repro.storage.pool.Run`, as a search's do, and
:meth:`MaintenancePipeline._report` turns them and the finished span
tree into a :class:`MaintainReport` whose bill reconciles with the
store's :class:`~repro.storage.stats.IOStats` delta exactly as query
bills do,
one ``maintain.<op>.runs{outcome}`` observation, the other ``maintain.*``
hub series and its bill as ``maintain.<op>.cost_usd``, which the cost
ledger folds (``index`` is the one-time build cost, everything else
ongoing maintenance) — whoever
asked for the run: a caller, the drain, or a
:class:`~repro.core.daemon.MaintenanceDaemon` tick under any policy.

The pipeline's ``workers`` is the one bound on its in-flight store
tasks; it shares no semaphore with a query executor, so a maintenance
run beside live serving changes neither side's width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import IndexAborted
from repro.core.client import RottnestClient
from repro.core.maintenance import (
    DEFAULT_COMPACT_TARGET_BYTES,
    DEFAULT_COMPACT_THRESHOLD_BYTES,
    VacuumReport,
    compact_indices,
    refine_index,
    vacuum_indices,
)
from repro.meta.metadata_table import IndexRecord
from repro.obs.attribution import (
    DEFAULT_INSTANCE,
    QueryBill,
    attribute,
    price_trace,
)
from repro.obs.timeseries import get_hub
from repro.obs.trace import Span, get_tracer
from repro.storage.costs import CostModel
from repro.storage.latency import LatencyModel
from repro.storage.pool import Run, TracedPool, phase
from repro.storage.stats import RequestTrace

T = TypeVar("T")


@dataclass
class MaintainReport:
    """One pipeline run: what was committed and what it cost.

    ``outcome`` is ``committed`` (the run changed the store), ``noop``
    (nothing was due) or ``aborted`` (``index`` raised
    :class:`~repro.errors.IndexAborted`; the caller sees the exception,
    the report only feeds telemetry). ``records`` are the index records
    the run published; ``vacuum`` is what a vacuum pass removed.
    ``trace`` is the phase traces composed sequentially (plan →
    extract/merge waves → commit), so
    ``LatencyModel().trace_latency(report.trace)`` is the modeled
    wall-clock of the run at the pipeline's worker count, tracer on or
    off; ``worker_tasks`` is the pool tasks it ran; ``root`` is the
    finished span tree for full cost attribution.
    """

    op: str
    workers: int
    outcome: str = "noop"
    records: list[IndexRecord] = field(default_factory=list)
    vacuum: VacuumReport | None = None
    trace: RequestTrace = field(default_factory=RequestTrace)
    root: Span | None = None
    worker_tasks: int = 0

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
    """Runs and reports maintenance verbs for one client over a bounded
    worker pool.

    Usable as a context manager; :meth:`close` shuts the pool down.
    Committed state is byte-identical for any worker count — the
    pipeline only changes *when* the reads happen, never what gets
    written (a hypothesis property test pins this).
    """

    def __init__(
        self,
        client: RottnestClient,
        *,
        workers: int = 4,
    ) -> None:
        self.client = client
        self.workers = workers
        self._pool = TracedPool(
            workers=workers,
            thread_name_prefix="maintainer",
            span_name="maintainer:task",
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
        """:meth:`RottnestClient.index` on the pool; returns a report.
        :class:`~repro.errors.IndexAborted` is reported, then raised."""
        return self._run(
            "index",
            self.client.index,
            column,
            index_type,
            snapshot=snapshot,
            params=params,
            pool=self._pool,
        )

    def compact(
        self,
        column: str,
        index_type: str,
        *,
        threshold_bytes: int = DEFAULT_COMPACT_THRESHOLD_BYTES,
        target_bytes: int = DEFAULT_COMPACT_TARGET_BYTES,
    ) -> MaintainReport:
        """:func:`compact_indices` on the pool; returns a report."""
        return self._run(
            "compact",
            compact_indices,
            self.client,
            column,
            index_type,
            threshold_bytes=threshold_bytes,
            target_bytes=target_bytes,
            pool=self._pool,
        )

    def vacuum(self, *, snapshot_id: int) -> MaintainReport:
        """:func:`vacuum_indices` (sequential: its commit-then-delete
        ordering is its crash-safety argument); ``report.vacuum`` is
        what it removed."""
        return self._run(
            "vacuum", vacuum_indices, self.client, snapshot_id=snapshot_id
        )

    def refine(
        self,
        record: IndexRecord,
        cells,
        *,
        min_cell_rows: int = 32,
        max_nlist: int = 64,
        seed: int = 0,
    ) -> MaintainReport:
        """:func:`refine_index` (one file in, one file out — nothing to
        fan out); returns a report."""
        return self._run(
            "refine",
            refine_index,
            self.client,
            record,
            cells,
            min_cell_rows=min_cell_rows,
            max_nlist=max_nlist,
            seed=seed,
        )

    def plan(self, step: Callable[[], T]) -> T:
        """Run a scheduler's planning reads as a billed ``plan`` phase.

        A daemon deciding what is due reads the lake log and the
        metadata table before (and between) verb runs; routing those
        reads through here is what makes a tick's bills add up to its
        ``IOStats`` delta. Planning is ongoing maintenance spend, not a
        verb run: it moves ``maintain.plan.cost_usd`` and ``maintain.plan.modeled_s``,
        and no ``maintain.{op}.runs`` series.
        """
        with Run() as run, phase("maintain.plan", "plan") as root:
            planned = step()
        self._bill("plan", root, run)
        return planned

    # -- internals -----------------------------------------------------
    def _run(self, op: str, verb: Callable, *args, **kwargs) -> MaintainReport:
        with Run() as run, get_tracer().span(
            f"maintain.{op}", workers=self.workers
        ) as root:
            try:
                result = verb(*args, **kwargs)
            except IndexAborted:
                # Too few rows yet, an input vanished, a timeout: the
                # reads still happened, so the run is billed and counted
                # before the caller sees the abort.
                self._report(op, root, run, None, aborted=True)
                raise
        return self._report(op, root, run, result)

    def _report(
        self,
        op: str,
        root: Span,
        run: Run,
        result: object,
        *,
        aborted: bool = False,
    ) -> MaintainReport:
        """Run and span root → report → hub series."""
        vacuum = result if isinstance(result, VacuumReport) else None
        if isinstance(result, IndexRecord):
            records = [result]
        else:
            records = result if isinstance(result, list) else []
        removed = vacuum and (vacuum.deleted_records or vacuum.deleted_objects)
        if aborted:
            outcome = "aborted"
        else:
            outcome = "committed" if records or removed else "noop"

        hub, at_s = get_hub(), self.client.store.clock.now()
        hub.series(f"maintain.{op}.runs", outcome=outcome).observe(at_s=at_s)
        if run.tasks:
            hub.series("maintain_worker_tasks_total", op=op).observe(
                run.tasks, at_s=at_s
            )
        self._bill(op, root, run)
        return MaintainReport(
            op=op,
            workers=self.workers,
            outcome=outcome,
            records=records,
            vacuum=vacuum,
            trace=run.trace,
            root=root,
            worker_tasks=run.tasks,
        )

    def _bill(self, op: str, root: Span, run: Run) -> None:
        """One run's (or planning step's) spend → hub series: attributed
        from its span tree, or priced from the run's trace when the
        tracer keeps no spans."""
        if get_tracer().enabled:
            bill = attribute(root)
            modeled_s, cost_usd = bill.est_latency_s, bill.total_cost_usd()
        else:
            modeled_s, cost_usd = price_trace(run.trace)
        hub = get_hub()
        at_s = self.client.store.clock.now()
        hub.series(f"maintain.{op}.modeled_s").observe(modeled_s, at_s=at_s)
        hub.series(f"maintain.{op}.cost_usd").observe(cost_usd, at_s=at_s)
