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

Snapshots and retained flight traces (:mod:`repro.obs.flight`) are one
:class:`ObjectKind` of durable object, content-addressed
(``{root}/_snapshots/{id}.json``) and written put-if-absent, so a
crashed commit re-run converges then idles; the PUT is a crash point
(``obs:put-snapshot``) exercised by the chaos matrix. Reading one
object names its key in a :class:`ReproError` when it is corrupt or of
a foreign schema; reading all skips such objects and counts them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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


# ---------------------------------------------------------------------
# content-addressed JSON objects: the one durable kind
# ---------------------------------------------------------------------
def canonical_json(payload: dict) -> bytes:
    """The stored bytes of a JSON object; content ids hash exactly these."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def content_id(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()[:16]


def check_envelope(payload: object, schema: str) -> dict:
    """``payload`` if it is a JSON object tagged ``schema``, else a
    :class:`ValueError` saying why not."""
    if not isinstance(payload, dict):
        raise ValueError(f"not a JSON object but {type(payload).__name__}")
    if payload.get("schema") != schema:
        raise ValueError(f"bad schema tag {payload.get('schema')!r}; want {schema!r}")
    return payload


@dataclass(frozen=True)
class ObjectKind:
    """Content-addressed JSON objects ``{root}/{directory}/{id}.json``.

    ``parse`` turns a schema-checked payload into the object a reader
    gets; it raises ``ValueError``/``KeyError``/``TypeError`` or a
    :class:`ReproError` on a payload it cannot use. ``order`` sorts
    what :meth:`read_all` returns.
    """

    directory: str
    schema: str
    noun: str
    parse: Callable[[dict], object]
    order: Callable[[object], object]

    def key(self, root: str, object_id: str) -> str:
        return f"{root}/{self.directory}/{object_id}.json"

    def put(self, store: "ObjectStore", root: str, object_id: str, body: bytes) -> bool:
        """HEAD, then PUT if absent; whether a PUT was issued."""
        key = self.key(root, object_id)
        if store.exists(key):
            return False
        store.put(key, body)
        return True

    def ids(self, store: "ObjectStore", root: str) -> list[str]:
        """LIST the directory: every stored object's id, sorted."""
        prefix = f"{root}/{self.directory}/"
        names = (info.key[len(prefix):] for info in store.list(prefix))
        return sorted(name[: -len(".json")] for name in names if name.endswith(".json"))

    def read(self, store: "ObjectStore", key: str):
        """GET, decode, schema-check and parse one object, or raise a
        :class:`ReproError` naming ``key``."""
        data = store.get(key)
        try:
            return self.parse(check_envelope(json.loads(data.decode("utf-8")), self.schema))
        except (ValueError, KeyError, TypeError, ReproError) as exc:
            raise ReproError(f"unreadable {self.noun} {key}: {exc}") from None

    def read_all(self, store: "ObjectStore", root: str) -> tuple[list, int]:
        """Every readable object, sorted, and how many were skipped."""
        objects, skipped = [], 0
        for object_id in self.ids(store, root):
            try:
                objects.append(self.read(store, self.key(root, object_id)))
            except ReproError:
                skipped += 1
        return sorted(objects, key=self.order), skipped


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


def validate_snapshot(payload: dict) -> dict:
    """``payload``, or a :class:`ReproError` unless it follows the
    schema, its hub included (a hub of another shape is a
    :class:`~repro.errors.FormatError`)."""
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise ReproError(
            f"bad snapshot schema {payload.get('schema')!r}; "
            f"want {SNAPSHOT_SCHEMA!r}"
        )
    if not isinstance(payload.get("sources"), list):
        raise ReproError("snapshot lacks a 'sources' list")
    if payload.get("hub") is not None:
        TelemetryHub.from_snapshot(payload["hub"])
    return payload


#: Committed telemetry snapshots, read oldest first.
SNAPSHOTS = ObjectKind(
    SNAPSHOT_DIR,
    SNAPSHOT_SCHEMA,
    "telemetry snapshot",
    validate_snapshot,
    lambda p: (float(p.get("at_s", 0.0)), json.dumps(p.get("sources", []), sort_keys=True)),
)


def snapshot_key(root: str, snapshot_id: str) -> str:
    """Object-store key of one committed snapshot."""
    return SNAPSHOTS.key(root, snapshot_id)


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
    heat: "HeatMap | None" = None
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
            heat = piece_heat if heat is None else heat.merge(piece_heat)
    reports.sort(key=lambda r: json.dumps(r, sort_keys=True))
    folded = snapshot_payload(hub, heat=heat, at_s=at_s, flights=sorted(flights))
    folded.update(sources=sorted(sources), slo_reports=reports)
    return folded


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
        self, hub: TelemetryHub | None = None, *, at_s: float | None = None, **parts
    ) -> str:
        """Snapshot the given telemetry plane (``heat``, ``slo``,
        ``source`` and ``flights`` as for :func:`snapshot_payload`, at
        ``at_s`` or the store clock's now); returns the object key."""
        when = at_s if at_s is not None else self.store.clock.now()
        return self.commit_payload(snapshot_payload(hub, at_s=when, **parts))

    def commit_payload(self, payload: dict) -> str:
        """Commit a pre-built payload (used by folds and tests)."""
        body = canonical_json(validate_snapshot(payload))
        snapshot_id = content_id(body)
        SNAPSHOTS.put(self.store, self.root, snapshot_id, body)
        return snapshot_key(self.root, snapshot_id)

    def keys(self) -> list[str]:
        """Keys of every committed snapshot, sorted."""
        return [
            snapshot_key(self.root, snapshot_id)
            for snapshot_id in SNAPSHOTS.ids(self.store, self.root)
        ]

    def load(self, key: str) -> dict:
        return SNAPSHOTS.read(self.store, key)

    def snapshots(self) -> list[dict]:
        """Every readable committed snapshot payload, oldest first."""
        return load_snapshots(self.store, self.root)[0]

    def fold(self, keys: list[str] | None = None) -> dict:
        """Fold the chosen snapshots (default: every readable one) into
        one payload."""
        if keys is None:
            return fold_snapshots(self.snapshots())
        return fold_snapshots([self.load(key) for key in keys])


def load_snapshots(
    store: "ObjectStore", root: str = "obs"
) -> tuple[list[dict], int]:
    """Every readable committed snapshot payload, oldest first, and the
    number of objects skipped as unreadable."""
    return SNAPSHOTS.read_all(store, root)
