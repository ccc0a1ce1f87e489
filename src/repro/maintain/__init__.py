"""Parallel maintenance pipeline (public surface).

The heart of the package is :class:`MaintenancePipeline`: the
maintenance-side twin of :class:`repro.serve.executor.SearchExecutor`,
fanning per-file index builds and independent compaction merge groups
across a bounded :class:`repro.storage.pool.TracedPool` whose
``workers`` is the one bound on its concurrency.
"""

from repro.maintain.pipeline import MaintainReport, MaintenancePipeline
from repro.storage.pool import TracedPool

__all__ = [
    "MaintainReport",
    "MaintenancePipeline",
    "TracedPool",
]
