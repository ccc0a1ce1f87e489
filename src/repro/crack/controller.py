"""The cracking controller: heat map -> ranked work for the daemon's tick.

:class:`CrackController` is a *policy* of
:class:`~repro.core.daemon.MaintenanceDaemon` — there is one tick, and
cracking drives it from *observed queries* instead of a schedule. The
controller keeps the heat map (fed with search span trees), and each
tick it asks the :class:`~repro.crack.policy.CrackingPolicy` to rank
work by expected benefit per IO, then proposes the top few items as
ordinary pipeline runs:

* **targeted indexing** — ``index`` with a snapshot restricted to the
  currently-hot uncovered files, so only they get indexed and cold
  files stay on the brute-force path;
* **cell refinement** — ``refine``
  (:func:`~repro.core.maintenance.refine_index`) rewrites one IVF-PQ
  file with its hottest inverted lists split in two, publishing exactly
  like compaction does (content-addressed upload, idempotent metadata
  insert), so the old file becomes vacuum fodder.

It never proposes ``compact`` or ``vacuum``: the schedule policy's
vacuum runs off *wall-clock* state that lives on the daemon object, not
in the store, which would make a crash-recovered tick diverge from an
uninterrupted one. Cracking commits only through the two idempotent
verbs above, which is what lets the ``repro chaos`` matrix prove
byte-identical convergence after a crash at every PUT (see ``crack:*``
rows in ``docs/protocol.md``).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.core.daemon import MaintenanceDaemon, Work
from repro.core.maintenance import covering_records
from repro.crack.heat import HeatMap
from repro.crack.policy import CrackingPolicy
from repro.obs.timeseries import get_hub
from repro.obs.trace import Span, get_tracer


class CrackController:
    """Query-adaptive maintenance policy: index what is hot, leave the
    rest.

    Feed it span trees with :meth:`observe` (or let it drain the
    ambient tracer with :meth:`observe_tracer`), hand it to a
    ``MaintenanceDaemon(..., policy=controller)`` and tick that. All
    durable inputs live in the store — the heat map is a *hint*, not
    state the protocol depends on: a controller restarted with an empty
    map simply re-learns the workload and converges to the same
    coverage, which is what the simulation harness's restart leg pins.
    """

    name = "cracking"

    def __init__(
        self,
        client,
        *,
        cracking: CrackingPolicy | None = None,
        heat: HeatMap | None = None,
        snapshots=None,
    ) -> None:
        self.client = client
        self.cracking = cracking or CrackingPolicy()
        self.heat = heat if heat is not None else HeatMap()
        #: Optional :class:`~repro.obs.store.SnapshotStore`. When set,
        #: every tick spills the heat map into a durable telemetry
        #: snapshot so dashboards (and later runs) can fold it. The
        #: chaos matrices pass ``None``: snapshot commits are ``obs``
        #: mutations, not part of the ``crack`` verb's boundary set.
        self.snapshots = snapshots

    # -- observe -------------------------------------------------------
    def observe(self, spans: list[Span]) -> int:
        """Fold finished search span trees into the heat map."""
        return self.heat.observe_spans(spans)

    def observe_tracer(self, tracer=None) -> int:
        """Drain the (given or ambient) tracer's finished roots."""
        tracer = tracer or get_tracer()
        return self.observe(tracer.pop_finished())

    # -- introspection -------------------------------------------------
    def hot_files(self, column: str, *, at_s: float | None = None) -> list[str]:
        """Live lake files currently at or above the hotness floor."""
        if at_s is None:
            at_s = self.client.store.clock.now()
        snap_paths = set(self.client.lake.snapshot().file_paths)
        return sorted(
            path
            for path, h in self.heat.file_heat(at_s=at_s, column=column).items()
            if h >= self.cracking.hotness_floor and path in snap_paths
        )

    def hot_coverage(
        self, column: str, index_type: str, *, at_s: float | None = None
    ) -> float:
        """Fraction of hot files covered by ``index_type`` (1.0 if none
        are hot — nothing to crack is full coverage, not zero)."""
        hot = self.hot_files(column, at_s=at_s)
        if not hot:
            return 1.0
        covered = self.client.meta.indexed_files(column, index_type)
        return sum(1 for path in hot if path in covered) / len(hot)

    # -- plan ----------------------------------------------------------
    def plan(self, daemon: MaintenanceDaemon) -> Iterator[Work]:
        """The tick's top-ranked work against the heat map.

        Lazy like every policy: an item is resolved against live state
        when the tick asks for it, after the previous one ran. What
        follows the last item runs once the tick has run them all — the
        per-tick heat snapshot spill.
        """
        client, cracking = self.client, self.cracking
        at_s = client.store.clock.now()
        # Bound heat-map memory. The eviction floor is far below the
        # action floor so forgetting a key can never change a decision
        # (the evict_cold invariant the hypothesis suite pins).
        self.heat.evict_cold(cracking.hotness_floor / 1e3, at_s=at_s)
        ranked = cracking.plan(client, self.heat, daemon.targets, at_s=at_s)
        # Attempts count: an item that resolves to nothing (or aborts)
        # still spent its slot, which bounds a tick's IO.
        for work in ranked[: cracking.max_actions_per_tick]:
            target = (work.column, work.index_type)
            if work.action == "index":
                snap = client.lake.snapshot()
                keep = set(work.files)
                sub = dataclasses.replace(
                    snap, files=tuple(f for f in snap.files if f.path in keep)
                )
                if sub.files:
                    params = daemon.index_params.get(target)
                    yield Work("index", target, {"snapshot": sub, "params": params})
                continue
            # Re-resolve the record against live metadata: the planned
            # key may have been superseded (e.g. by a recovery re-run).
            live = {r.index_key: r for r in covering_records(client, *target)}
            if work.index_key in live:
                yield Work(
                    "refine",
                    (live[work.index_key], work.cells),
                    {
                        "min_cell_rows": cracking.refine_min_cell_rows,
                        "max_nlist": cracking.max_nlist,
                    },
                )
        hub = get_hub()
        hub.series("crack.heat_keys").observe(float(len(self.heat)), at_s=at_s)
        if self.snapshots is not None:
            self.snapshots.commit(hub, heat=self.heat, source="crack", at_s=at_s)
