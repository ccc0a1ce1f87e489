"""Maintenance daemon: one tick that runs what a policy says is due.

The paper's APIs are deliberately manual — "can be called from any VM
instance or serverless function" — and in production someone schedules
them. This module is that someone. A *policy* is anything with a
``name`` and a ``plan(daemon)`` that yields :class:`Work` — one call on
the daemon's :class:`~repro.maintain.pipeline.MaintenancePipeline` per
item — and :meth:`MaintenanceDaemon.tick` is the only scheduler loop:
ask the policy for the next item (a billed ``plan`` phase), run it
through the pipeline (which bills and reports it), repeat.

:class:`MaintenancePolicy` is the schedule-driven policy (thresholds on
uncovered files and small index files, a vacuum interval);
:class:`~repro.crack.controller.CrackController` is the query-driven
one. Driving ticks from a cron job (or, in tests, from a
:class:`~repro.util.clock.SimClock`) yields the paper's deployment story
without any resident process state — the daemon can crash and restart
anywhere, because all a policy's inputs come from the metadata table
and the lake log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import IndexAborted
from repro.core.client import RottnestClient
from repro.core.maintenance import VacuumReport, covering_records
from repro.maintain.pipeline import MaintainReport, MaintenancePipeline
from repro.meta.metadata_table import IndexRecord
from repro.obs.timeseries import get_hub
from repro.obs.trace import get_tracer

@dataclass(frozen=True)
class Work:
    """One unit of work a policy proposes: the pipeline call
    ``pipeline.<op>(*args, **kwargs)`` (``op`` ∈ index / compact /
    vacuum / refine)."""

    op: str
    args: tuple = ()
    kwargs: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class MaintenancePolicy:
    """When is each maintenance operation worth running? The
    schedule-driven producer of a tick's :class:`Work`."""

    name = "schedule"

    index_min_new_files: int = 1
    """Run ``index`` when at least this many uncovered files exist."""

    index_min_new_bytes: int = 0
    """...and they total at least this many bytes."""

    compact_min_small_files: int = 4
    """Run ``compact`` when this many sub-threshold index files exist."""

    compact_threshold_bytes: int = 16 * 1024 * 1024

    vacuum_interval_s: float = 7 * 24 * 3600.0
    """Run ``vacuum`` at most this often (it LISTs the bucket)."""

    retain_snapshots: int = 1
    """Vacuum keeps indices for the last N lake snapshots."""

    # -- due? ---------------------------------------------------------
    def index_due(
        self, client: RottnestClient, column: str, index_type: str
    ) -> bool:
        snap = client.lake.snapshot()
        covered = client.meta.indexed_files(column, index_type)
        new = [f for f in snap.files if f.path not in covered]
        if len(new) < self.index_min_new_files:
            return False
        return sum(f.size for f in new) >= self.index_min_new_bytes

    def compact_due(
        self, client: RottnestClient, column: str, index_type: str
    ) -> bool:
        small = [
            r
            for r in covering_records(client, column, index_type)
            if r.size < self.compact_threshold_bytes
        ]
        return len(small) >= self.compact_min_small_files

    def vacuum_due(self, now: float, last_vacuum: float | None) -> bool:
        return last_vacuum is None or now - last_vacuum >= self.vacuum_interval_s

    # -- plan ---------------------------------------------------------
    def plan(self, daemon: "MaintenanceDaemon") -> Iterator[Work]:
        """Everything currently due, one item at a time.

        Lazy on purpose: each due-check runs when the tick asks for the
        next item — after the previous one ran — so the index that
        lands the Nth small file trips its compaction in the same tick.
        """
        client = daemon.client
        for column, index_type in daemon.targets:
            if self.index_due(client, column, index_type):
                params = daemon.index_params.get((column, index_type))
                yield Work("index", (column, index_type), {"params": params})
            if self.compact_due(client, column, index_type):
                yield Work(
                    "compact",
                    (column, index_type),
                    {"threshold_bytes": self.compact_threshold_bytes},
                )
        if self.vacuum_due(client.store.clock.now(), daemon.last_vacuum):
            latest = client.lake.latest_version()
            snapshot_id = max(0, latest - self.retain_snapshots + 1)
            yield Work("vacuum", (), {"snapshot_id": snapshot_id})


@dataclass
class TickReport:
    """What one daemon tick did, assembled from its pipeline runs."""

    indexed: list[IndexRecord] = field(default_factory=list)
    index_aborts: list[str] = field(default_factory=list)
    compacted: list[IndexRecord] = field(default_factory=list)
    vacuum: VacuumReport | None = None
    refined: list[IndexRecord] = field(default_factory=list)
    """Index files rewritten in place by cell refinement (only the
    cracking policy proposes it)."""

    @property
    def idle(self) -> bool:
        return (
            not self.indexed
            and not self.index_aborts
            and not self.compacted
            and not self.refined
            and self.vacuum is None
        )

    def absorb(self, run: MaintainReport) -> None:
        """Fold one finished pipeline run in."""
        if run.op == "vacuum":
            self.vacuum = run.vacuum
        else:
            published = {
                "index": self.indexed,
                "compact": self.compacted,
                "refine": self.refined,
            }
            published[run.op].extend(run.records)


class MaintenanceDaemon:
    """Runs a policy's maintenance for a set of (column, index type)
    targets through one :class:`MaintenancePipeline`."""

    def __init__(
        self,
        client: RottnestClient,
        targets: list[tuple[str, str]],
        *,
        policy=None,
        index_params: dict[tuple[str, str], dict] | None = None,
        workers: int = 1,
    ) -> None:
        self.client = client
        self.targets = list(targets)
        self.policy = policy or MaintenancePolicy()
        self.index_params = dict(index_params or {})
        #: Store-clock time of this daemon's last vacuum (process state:
        #: a restarted daemon vacuums on its first tick).
        self.last_vacuum: float | None = None
        self.pipeline = MaintenancePipeline(client, workers=workers)

    def close(self) -> None:
        """Shut down the pipeline's worker pool."""
        self.pipeline.close()

    def __enter__(self) -> "MaintenanceDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def tick(self) -> TickReport:
        """Run everything the policy proposes; returns what happened.

        Each run bills itself through the pipeline, so a tick that
        indexes, compacts and vacuums lands its spend in each verb's
        cost series; the policy's own reads are billed as ``plan``.
        ``index`` aborts (e.g. too few rows for a vector index yet) are
        recorded, not raised — the data stays brute-force searchable
        and a later tick retries.
        """
        report = TickReport()
        pipeline = self.pipeline
        with get_tracer().span("maintain.tick", policy=self.policy.name) as span:
            works = iter(self.policy.plan(self))
            while (work := pipeline.plan(lambda: next(works, None))) is not None:
                try:
                    run = getattr(pipeline, work.op)(*work.args, **work.kwargs)
                except IndexAborted as exc:
                    report.index_aborts.append(
                        f"{work.args[0]}/{work.args[1]}: {exc}"
                    )
                    continue
                report.absorb(run)
                if run.op == "vacuum":
                    self.last_vacuum = self.client.store.clock.now()
            span.set("idle", report.idle)
            span.set("indexed", len(report.indexed))
            span.set("compacted", len(report.compacted))
            span.set("refined", len(report.refined))
        get_hub().series(
            "maintenance_ticks_total",
            policy=self.policy.name,
            outcome="idle" if report.idle else "acted",
        ).observe(at_s=self.client.store.clock.now())
        return report
