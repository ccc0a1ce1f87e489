"""Durable, mergeable telemetry snapshots: the cross-run axis.

A :class:`~repro.obs.timeseries.TelemetryHub` dies with its process; a
``TELEMETRY_*.json`` file captures one run of one process. This module
adds the missing axis — *time across runs and space across processes* —
by committing periodic snapshots of the whole telemetry plane into the
lake's own :class:`~repro.storage.object_store.ObjectStore` (the
paper's point about metadata-scale artifacts belonging in the lake
applies to operational metadata too):

* the hub (every named series and per-window quantile sketch — store,
  cache and scheduler counters included, with the cost series the
  cost ledger folds — tail samples, per-shard ``router.shard{N}.*`` SLO state),
* the crack heat map (:class:`repro.crack.heat.HeatMap` payloads), and
* the ids of durably retained flight traces.

Every component was built mergeable — window-wise commutative
aggregates, all-time totals adding, bin-wise sketch addition,
exponential heat addition — so :func:`fold_snapshots` folds any number of
snapshot payloads from any processes/shards/runs into one, and the
result is independent of merge order (associativity + commutativity
pinned by hypothesis in ``tests/test_obs_store.py``). The folded
payload feeds the dashboard's time-travel panels: this run vs prior
runs, trend lines for the ``BENCH_*`` headline metrics.

Commits are crash-safe the same way every other artifact here is:
content-addressed keys (``{root}/_snapshots/{id}.json``), idempotent
puts (existing keys are skipped, so a crashed commit re-run converges
then idles), and a registered crash point (``obs:put-snapshot``)
exercised by the chaos matrix.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.obs.timeseries import TelemetryHub

if TYPE_CHECKING:  # circular-import-free type hints only
    from repro.crack.heat import HeatMap
    from repro.obs.slo import SLO
    from repro.storage.object_store import ObjectStore

#: Key directory for telemetry snapshots (under the obs root).
SNAPSHOT_DIR = "_snapshots"

#: Version tag inside every snapshot payload.
SNAPSHOT_SCHEMA = "repro.obs.snapshot/v1"


def snapshot_key(root: str, snapshot_id: str) -> str:
    """Object-store key of one committed snapshot."""
    return f"{root}/{SNAPSHOT_DIR}/{snapshot_id}.json"


# ---------------------------------------------------------------------
# snapshot payloads and folding
# ---------------------------------------------------------------------
def snapshot_payload(
    hub: TelemetryHub | None = None,
    *,
    heat: "HeatMap | None" = None,
    slo: "SLO | None" = None,
    source: str = "",
    at_s: float = 0.0,
    flights: list[str] | tuple[str, ...] = (),
) -> dict:
    """One process's telemetry plane as a JSON-safe snapshot payload."""
    payload: dict = {
        "schema": SNAPSHOT_SCHEMA,
        "sources": [source] if source else [],
        "at_s": float(at_s),
        "hub": hub.snapshot() if hub is not None else None,
        "heat": heat.to_dict() if heat is not None else None,
        "flights": sorted(str(f) for f in flights),
        "slo_reports": [],
    }
    if slo is not None and hub is not None:
        report = slo.evaluate(hub).to_dict()
        payload["slo_reports"] = [{"source": source, "report": report}]
    return payload


def validate_snapshot(payload: dict) -> None:
    """Raise :class:`ReproError` unless ``payload`` follows the schema."""
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise ReproError(
            f"bad snapshot schema {payload.get('schema')!r}; "
            f"want {SNAPSHOT_SCHEMA!r}"
        )
    if not isinstance(payload.get("sources"), list):
        raise ReproError("snapshot lacks a 'sources' list")


def fold_snapshots(payloads: list[dict]) -> dict:
    """Fold snapshot payloads from any processes/shards/runs into one.

    Every component folds commutatively (hub merge, heat merge,
    sorted unions for sources/flights/SLO reports), so the
    result is independent of the order payloads are supplied in — the
    property the hypothesis suite pins. Per-snapshot SLO reports are
    point-in-time verdicts, not mergeable state: they are collected
    (sorted) rather than combined; re-evaluate an SLO over the folded
    hub for a cross-run verdict. The ``"metrics"`` section snapshots
    carried before the registry folded into the hub is ignored.
    """
    if not payloads:
        return snapshot_payload()
    for payload in payloads:
        validate_snapshot(payload)
    hub: TelemetryHub | None = None
    heat_payload: dict | None = None
    sources: set[str] = set()
    flights: set[str] = set()
    reports: list[dict] = []
    at_s = max(float(p.get("at_s", 0.0)) for p in payloads)
    for payload in payloads:
        sources.update(payload.get("sources", []))
        flights.update(payload.get("flights", []))
        reports.extend(payload.get("slo_reports", []))
        if payload.get("hub") is not None:
            piece = TelemetryHub.from_snapshot(payload["hub"])
            hub = piece if hub is None else hub.merge(piece)
        if payload.get("heat") is not None:
            from repro.crack.heat import HeatMap

            piece_heat = HeatMap.from_dict(payload["heat"])
            if heat_payload is None:
                heat_payload = piece_heat.to_dict()
            else:
                heat_payload = (
                    HeatMap.from_dict(heat_payload).merge(piece_heat).to_dict()
                )
    reports.sort(key=lambda r: json.dumps(r, sort_keys=True))
    return {
        "schema": SNAPSHOT_SCHEMA,
        "sources": sorted(sources),
        "at_s": at_s,
        "hub": hub.snapshot() if hub is not None else None,
        "heat": heat_payload,
        "flights": sorted(flights),
        "slo_reports": reports,
    }


# ---------------------------------------------------------------------
# the durable store
# ---------------------------------------------------------------------
class SnapshotStore:
    """Commit, list, load, and fold telemetry snapshots in a lake.

    One instance per object store + obs root. Commit is idempotent by
    content address, so a crashed commit re-run converges
    byte-identically and then idles (the chaos-matrix contract); the
    PUT is the registered ``obs:put-snapshot`` crash point.
    """

    def __init__(self, store: "ObjectStore", root: str = "obs") -> None:
        self.store = store
        self.root = root

    def commit(
        self,
        hub: TelemetryHub | None = None,
        *,
        heat: "HeatMap | None" = None,
        slo: "SLO | None" = None,
        source: str = "",
        flights: list[str] | tuple[str, ...] = (),
        at_s: float | None = None,
    ) -> str:
        """Snapshot the given telemetry plane; returns the object key."""
        when = at_s if at_s is not None else self.store.clock.now()
        payload = snapshot_payload(
            hub,
            heat=heat,
            slo=slo,
            source=source,
            at_s=when,
            flights=flights,
        )
        return self.commit_payload(payload)

    def commit_payload(self, payload: dict) -> str:
        """Commit a pre-built payload (used by folds and tests)."""
        validate_snapshot(payload)
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        snapshot_id = hashlib.sha256(body).hexdigest()[:16]
        key = snapshot_key(self.root, snapshot_id)
        if not self.store.exists(key):
            self.store.put(key, body)
        return key

    def keys(self) -> list[str]:
        """Keys of every committed snapshot, sorted."""
        prefix = f"{self.root}/{SNAPSHOT_DIR}/"
        return [
            info.key
            for info in self.store.list(prefix)
            if info.key.endswith(".json")
        ]

    def load(self, key: str) -> dict:
        payload = json.loads(self.store.get(key).decode("utf-8"))
        validate_snapshot(payload)
        return payload

    def snapshots(self) -> list[dict]:
        """Every committed snapshot payload, oldest first."""
        payloads = [self.load(key) for key in self.keys()]
        payloads.sort(
            key=lambda p: (
                float(p.get("at_s", 0.0)),
                json.dumps(p.get("sources", []), sort_keys=True),
            )
        )
        return payloads

    def fold(self, keys: list[str] | None = None) -> dict:
        """Fold the chosen (default: all) snapshots into one payload."""
        chosen = keys if keys is not None else self.keys()
        return fold_snapshots([self.load(key) for key in chosen])

    def folded_hub(self, keys: list[str] | None = None) -> TelemetryHub | None:
        """The folded hub across the chosen snapshots, if any carry one."""
        folded = self.fold(keys)
        if folded.get("hub") is None:
            return None
        return TelemetryHub.from_snapshot(folded["hub"])
