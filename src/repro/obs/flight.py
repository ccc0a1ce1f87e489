"""Tail-sampling flight recorder: durably retain the traces that matter.

Everything else in ``repro.obs`` aggregates — sketches, burn rates,
cost series. After a p99 breach the operator's question is the
opposite of an aggregate: *"show me the trace of a query that was
slow."* The flight recorder answers it with tail sampling: every
finished query's span tree flows past, but only the interesting ones
are retained —

* **errored/degraded queries** (the serve layer fell back to
  brute-force, or the router marked a shard failed),
* **SLO-window breaches** (the burn-rate evaluator says the error
  budget is burning when the query lands), and
* **tail latencies** — queries at or above a live
  :class:`~repro.obs.timeseries.QuantileSketch` quantile threshold
  (p99 by default), measured over everything the recorder has seen.

Retention is bounded twice over: at most ``capacity`` traces and at
most ``budget_bytes`` of serialized trace bytes are resident, oldest
evicted first (a hypothesis property pins that no arrival/latency
sequence can exceed either budget). A retained :class:`FlightTrace`
is its span tree and nothing else: the serialized span rows carry each
phase's request rounds, so the bill, the critical path and the slow
phase are computed when the trace is read, priced by the reader's
models (``repro traces`` prints them through
:func:`~repro.obs.export.explain`, as ``repro profile`` does a live
query).

Durable traces are one :class:`~repro.obs.store.ObjectKind`, the
durable object telemetry snapshots are too: content-addressed
(``{root}/_flights/{trace_id}.json`` where the id is a truncated
SHA-256 of the canonical payload with the id blank), written
put-if-absent (a crashed :meth:`FlightRecorder.persist` re-run
converges and then idles; the PUT is the registered ``obs:put-flight``
crash point exercised by the chaos matrix in
``tests/test_obs_chaos.py``), and read back through one reader:
:func:`load_flight` raises a :class:`ReproError` naming an unreadable
object's key, :func:`load_flights` skips such objects and counts them.

Hedged retries (``repro.shard.router``) tag their spans with
``hedge=True``; the recorder skips any query whose span tree sits
under a hedge span, so a hedge winner and its loser are never
double-counted as two independent slow queries — the retry is
attributed to its originating trace instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.obs.attribution import attribute
from repro.obs.critical_path import critical_path
from repro.obs.export import span_to_dict, span_tree_from_dicts
from repro.obs.store import ObjectKind, canonical_json, check_envelope, content_id
from repro.obs.timeseries import QuantileSketch, TelemetryHub
from repro.obs.trace import ProcessDefault, Span

if TYPE_CHECKING:  # circular-import-free type hints only
    from repro.obs.slo import SLO
    from repro.storage.object_store import ObjectStore

#: Key directory for retained flight traces (under the obs root).
FLIGHT_DIR = "_flights"

#: Version tag inside every persisted flight trace.
FLIGHT_SCHEMA = "repro.obs.flight/v2"

#: Default resident ring budgets.
DEFAULT_FLIGHT_CAPACITY = 64
DEFAULT_FLIGHT_BUDGET_BYTES = 1 << 20

#: Default live tail-retention quantile and its warmup.
DEFAULT_TAIL_QUANTILE = 0.99
DEFAULT_MIN_SAMPLES = 20


@dataclass
class FlightTrace:
    """One retained ("black-boxed") query trace: its span tree, nothing
    derived. The bill, critical path and slow phase are computed from
    the spans when read, priced by the reader's models."""

    trace_id: str
    reason: str  # "error" | "slo-breach" | "tail"
    latency_s: float
    at_s: float
    query: str
    spans: list[dict] = field(default_factory=list)
    nbytes: int = 0

    def root(self) -> Span:
        """The span tree, rebuilt for rendering, pricing and walks."""
        return span_tree_from_dicts(self.spans)

    def summary(self) -> tuple[str, float]:
        """``(slow_phase, cost_usd)`` from one rebuild and one bill of
        the span tree under the default models."""
        root = self.root()
        bill = attribute(root)
        phases = [p for p in bill.phases if p.est_latency_s > 0]
        if phases:
            slow = max(phases, key=lambda p: p.est_latency_s).phase
        else:
            tagged = [s for s in critical_path(root) if s.phase]
            slow = max(tagged, key=lambda s: s.self_s).phase if tagged else ""
        return slow, bill.total_cost_usd()

    @property
    def slow_phase(self) -> str:
        """The phase with the most modeled time under the default
        models; when no phase issued a request, the tagged span with the
        most critical-path self time."""
        return self.summary()[0]

    def to_dict(self) -> dict:
        fields = ("trace_id", "reason", "latency_s", "at_s", "query", "spans")
        return {"schema": FLIGHT_SCHEMA, **{f: getattr(self, f) for f in fields}}

    @classmethod
    def from_dict(cls, data: dict) -> "FlightTrace":
        check_envelope(data, FLIGHT_SCHEMA)
        trace = cls(
            trace_id=str(data["trace_id"]),
            reason=str(data["reason"]),
            latency_s=float(data["latency_s"]),
            at_s=float(data["at_s"]),
            query=str(data.get("query", "")),
            spans=list(data.get("spans", [])),
        )
        trace.nbytes = len(trace.serialize())
        return trace

    def serialize(self) -> bytes:
        """Canonical JSON bytes — what :meth:`FlightRecorder.persist`
        puts and what the content hash covers."""
        return canonical_json(self.to_dict())

    def describe(self) -> str:
        """One summary line for ``repro top``."""
        slow, cost = self.summary()
        return (
            f"{self.trace_id}  {self.latency_s * 1000:9.2f} ms  "
            f"{self.reason:<10}  {slow or '-':<12} "
            f"{self.query}  ${cost:.3e}"
        )


#: Durably retained flight traces, read slowest first.
FLIGHTS = ObjectKind(
    FLIGHT_DIR,
    FLIGHT_SCHEMA,
    "flight trace",
    FlightTrace.from_dict,
    lambda f: (-f.latency_s, f.trace_id),
)


def flight_key(root: str, trace_id: str) -> str:
    """Object-store key of one retained trace."""
    return FLIGHTS.key(root, trace_id)


class FlightRecorder:
    """Bounded tail-sampling ring of retained query traces.

    Hook it in with :func:`use_flight_recorder`; the serve layer feeds
    every leader query's finished root span through :meth:`record`.
    Thread-safe (the serve path is concurrent).
    """

    def __init__(
        self,
        store: "ObjectStore | None" = None,
        *,
        root: str = "obs",
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
        budget_bytes: int = DEFAULT_FLIGHT_BUDGET_BYTES,
        tail_quantile: float = DEFAULT_TAIL_QUANTILE,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        slo: "SLO | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        if not 0.0 < tail_quantile <= 1.0:
            raise ValueError(
                f"tail_quantile must be in (0, 1], got {tail_quantile}"
            )
        self.store = store
        self.root = root
        self.capacity = int(capacity)
        self.budget_bytes = int(budget_bytes)
        self.tail_quantile = float(tail_quantile)
        self.min_samples = int(min_samples)
        self.slo = slo
        self._sketch = QuantileSketch()
        self._retained: list[FlightTrace] = []
        self._resident_bytes = 0
        self._persisted: set[str] = set()
        self._lock = threading.Lock()
        # Counters for `repro top` and tests.
        self.observed = 0
        self.retained_total = 0
        self.evicted = 0
        self.oversized_dropped = 0
        self.hedges_skipped = 0

    # -- live threshold ------------------------------------------------
    def threshold_s(self) -> float | None:
        """The live tail-retention latency threshold (None in warmup)."""
        if self._sketch.count < self.min_samples:
            return None
        return self._sketch.quantile(self.tail_quantile)

    @staticmethod
    def _under_hedge(span: Span) -> bool:
        """Whether ``span`` sits under a hedged-retry ancestor."""
        node: Span | None = span
        while node is not None:
            if bool(node.attributes.get("hedge", False)):
                return True
            node = node.parent
        return False

    # -- ingest --------------------------------------------------------
    def record(
        self,
        root_span: Span | None,
        *,
        latency_s: float,
        at_s: float,
        error: bool = False,
        hub: TelemetryHub | None = None,
    ) -> FlightTrace | None:
        """Consider one finished query for retention.

        Returns the retained :class:`FlightTrace` (its ``trace_id`` is
        the exemplar the caller should attach to sketches/histograms)
        or ``None`` when the query is not interesting enough to keep.
        """
        if root_span is None or latency_s < 0:
            return None
        if self._under_hedge(root_span):
            # A hedged retry of a query already being recorded: do not
            # double-count winner and loser as two slow queries.
            with self._lock:
                self.hedges_skipped += 1
            return None
        # Classify against the sketch *before* absorbing this sample,
        # so the threshold reflects the population prior to arrival.
        threshold = self.threshold_s()
        reason: str | None = None
        if error:
            reason = "error"
        elif self.slo is not None and hub is not None:
            if not self.slo.evaluate(hub).ok:
                reason = "slo-breach"
        if (
            reason is None
            and threshold is not None
            and latency_s >= threshold
        ):
            reason = "tail"
        self._sketch.observe(max(latency_s, 0.0))
        with self._lock:
            self.observed += 1
        if reason is None:
            return None
        flight = self._build(root_span, latency_s, at_s, reason)
        with self._lock:
            if flight.nbytes > self.budget_bytes:
                # One trace alone would blow the byte budget: drop it
                # rather than violate the bound the property test pins.
                self.oversized_dropped += 1
                return None
            self._retained.append(flight)
            self._resident_bytes += flight.nbytes
            while (
                len(self._retained) > self.capacity
                or self._resident_bytes > self.budget_bytes
            ):
                evicted = self._retained.pop(0)
                self._resident_bytes -= evicted.nbytes
                self.evicted += 1
            self.retained_total += 1
        root_span.set("trace_id", flight.trace_id)
        return flight

    def _build(
        self, root_span: Span, latency_s: float, at_s: float, reason: str
    ) -> FlightTrace:
        flight = FlightTrace(
            trace_id="",
            reason=reason,
            latency_s=float(latency_s),
            at_s=float(at_s),
            query=str(root_span.attributes.get("query", root_span.name)),
            spans=[span_to_dict(s) for s in root_span.walk()],
        )
        # Content-address the trace: the id is derived from the payload
        # with the id field blank, so identical traces share a key and
        # persistence is naturally idempotent.
        flight.trace_id = content_id(flight.serialize())
        flight.nbytes = len(flight.serialize())
        return flight

    # -- read ----------------------------------------------------------
    def traces(self) -> list[FlightTrace]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._retained)

    def get(self, trace_id: str) -> FlightTrace | None:
        """Retained trace by id (unique prefixes accepted)."""
        with self._lock:
            matches = [
                t for t in self._retained if t.trace_id.startswith(trace_id)
            ]
        return matches[0] if len(matches) == 1 else None

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._retained)

    # -- durability ----------------------------------------------------
    def persist(self, store: "ObjectStore | None" = None) -> int:
        """Durably PUT every retained trace not yet written.

        Content-addressed and existence-checked, so re-running after a
        crash converges byte-identically and a clean re-run makes zero
        mutations (the chaos-matrix idempotence contract). Returns the
        number of traces written. The PUT is the registered
        ``obs:put-flight`` crash point.
        """
        target = store if store is not None else self.store
        if target is None:
            raise ValueError("flight recorder has no object store to persist to")
        written = 0
        for flight in self.traces():
            if flight.trace_id not in self._persisted and FLIGHTS.put(
                target, self.root, flight.trace_id, flight.serialize()
            ):
                written += 1
            self._persisted.add(flight.trace_id)
        return written


# ---------------------------------------------------------------------
# durable reads
# ---------------------------------------------------------------------
def list_flights(store: "ObjectStore", root: str = "obs") -> list[str]:
    """Trace ids of every durably retained flight, sorted."""
    return FLIGHTS.ids(store, root)


def load_flight(
    store: "ObjectStore", trace_id: str, root: str = "obs"
) -> FlightTrace:
    """One durably retained flight by id (unique prefixes accepted)."""
    matches = [t for t in list_flights(store, root) if t.startswith(trace_id)]
    if not matches:
        raise ReproError(f"no retained flight trace matches {trace_id!r}")
    if len(matches) > 1:
        raise ReproError(
            f"ambiguous flight trace id {trace_id!r}: matches {matches}"
        )
    return FLIGHTS.read(store, flight_key(root, matches[0]))


def load_flights(
    store: "ObjectStore", root: str = "obs"
) -> tuple[list[FlightTrace], int]:
    """Every readable durably retained flight, slowest first, and the
    number of objects skipped as unreadable (corrupt JSON or a foreign
    schema, such as a flight written by an older build)."""
    return FLIGHTS.read_all(store, root)


# ---------------------------------------------------------------------
# process-wide default recorder (None = flight recording off)
# ---------------------------------------------------------------------
_default_recorder = ProcessDefault(None)
get_flight_recorder, set_flight_recorder, use_flight_recorder = (
    _default_recorder.get, _default_recorder.set, _default_recorder.use
)
