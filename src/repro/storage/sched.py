"""Batched & coalescing I/O scheduler for the hot read path.

The paper's economics (§VI; Airphant makes the identical argument for
cloud-oriented indexing) are *request*-dominated, not bandwidth-
dominated: an object-store GET costs a fixed per-request fee plus
~30 ms of first-byte latency, while the marginal byte is nearly free.
A search touches many small byte ranges — page-table slices, index
components, data pages — and issuing each as its own blocking
``ObjectStore.get`` pays the per-request price every time.

This module is the single planning/dispatch point for batched reads:

* :func:`plan_reads` sorts per-key byte ranges and coalesces ranges
  whose gap is at most ``gap_threshold`` bytes into one
  :class:`MergedGet`, tracking exactly which original request maps to
  which slice of the merged payload.
* :func:`execute_plan` dispatches the merged GETs through a plain
  ``store.get``, so *every* store in the stack composes for free:
  fault injection fires per merged request, ``IOStats`` and request
  traces see the real (merged) requests, retries retry the merged
  request, and the caching store's override serves cache-hit
  sub-ranges and coalesces only the misses.

Accounting contract (keeps ``repro profile`` reconciliation honest):
the merged GET is recorded **once**, with its merged byte count, in
``IOStats`` and the per-thread trace — exactly what the wire would
carry. The gap ("waste") bytes a coalesced GET reads but no caller
asked for are billed explicitly to the process-wide
``io_coalesced_waste_bytes_total`` counter, never double-counted into
``IOStats``, so attribution still reconciles exactly against stats
deltas by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.timeseries import get_hub

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.object_store import ObjectStore

#: Ranges closer than this many bytes merge into one GET by default.
#: Small relative to a data page (~2-64 KiB here, row-group sized in
#: real lakes) but large enough to fuse the adjacent-page common case
#: (delta-encoded page tables make neighbours exactly contiguous).
DEFAULT_GAP_THRESHOLD = 4096


@dataclass(frozen=True)
class RangeRequest:
    """One caller-visible byte range: ``length`` bytes at ``offset``."""

    key: str
    offset: int
    length: int

    def __post_init__(self) -> None:
        """Reject negative offsets/lengths at plan time, not GET time."""
        if self.offset < 0 or self.length < 0:
            raise ValueError(
                f"invalid range ({self.offset}, {self.length}) for {self.key!r}"
            )

    @property
    def end(self) -> int:
        """Exclusive end offset of the range."""
        return self.offset + self.length


@dataclass(frozen=True)
class MergedGet:
    """One wire request covering one or more :class:`RangeRequest`s.

    ``parts`` keeps ``(original_index, request)`` pairs so the merged
    payload can be sliced back out byte-identically and in the caller's
    order; ``waste`` is the number of gap bytes fetched that belong to
    no part (coalescing overhead, billed to
    ``io_coalesced_waste_bytes_total`` at dispatch).
    """

    key: str
    offset: int
    length: int
    parts: tuple[tuple[int, RangeRequest], ...]
    waste: int

    @property
    def end(self) -> int:
        """Exclusive end offset of the merged range."""
        return self.offset + self.length

    def slice(self, index: int, data: bytes) -> bytes:
        """Cut part ``index``'s bytes out of the merged payload."""
        _, request = self.parts[index]
        start = request.offset - self.offset
        return data[start : start + request.length]


def plan_reads(
    requests: Sequence[RangeRequest],
    gap_threshold: int = DEFAULT_GAP_THRESHOLD,
) -> list[MergedGet]:
    """Sort per-key ranges and coalesce near-adjacent ones.

    Pure planning — no I/O. Requests on the same key whose gap is at
    most ``gap_threshold`` bytes (overlapping and exactly-adjacent
    ranges always qualify) merge into one :class:`MergedGet`; requests
    on different keys never merge. The plan is deterministic: keys in
    first-appearance order, parts sorted by ``(offset, length,
    original index)``.
    """
    if gap_threshold < 0:
        raise ValueError(f"negative gap_threshold {gap_threshold}")
    by_key: dict[str, list[tuple[int, RangeRequest]]] = {}
    for index, request in enumerate(requests):
        by_key.setdefault(request.key, []).append((index, request))

    plan: list[MergedGet] = []
    for key, group in by_key.items():
        group.sort(key=lambda item: (item[1].offset, item[1].length, item[0]))
        run: list[tuple[int, RangeRequest]] = []
        start = end = covered = 0

        def flush() -> None:
            """Close the current run into a :class:`MergedGet`."""
            if run:
                plan.append(
                    MergedGet(
                        key=key,
                        offset=start,
                        length=end - start,
                        parts=tuple(run),
                        waste=(end - start) - covered,
                    )
                )

        for index, request in group:
            if run and request.offset <= end + gap_threshold:
                covered += max(0, request.end - max(end, request.offset))
                end = max(end, request.end)
                run.append((index, request))
            else:
                flush()
                run = [(index, request)]
                start, end = request.offset, request.end
                covered = request.length
        flush()
    return plan


def execute_plan(
    store: "ObjectStore",
    requests: Sequence[RangeRequest],
    plan: Iterable[MergedGet],
) -> list[bytes]:
    """Dispatch a read plan; return payloads in original request order.

    Each :class:`MergedGet` becomes exactly one ``store.get`` (so
    stats, traces, caching, retries, and fault injection all see the
    real wire request); its payload is sliced back into per-request
    byte strings. All merged GETs live in the *same* trace round — no
    barrier is inserted — so the latency model prices them as one
    parallel wave, which is what a real batched dispatcher would do.
    A failed merged GET raises: the fault really does fail the whole
    wire request, and the caller's read with it.
    """
    results: list[bytes] = [b""] * len(requests)
    hub = get_hub()
    for merged in plan:
        at_s = store.clock.now()
        hub.series("io_merged_gets_total").observe(at_s=at_s)
        hub.series("io_coalesced_subranges_total").observe(
            len(merged.parts), at_s=at_s
        )
        if merged.waste:
            hub.series("io_coalesced_waste_bytes_total").observe(
                merged.waste, at_s=at_s
            )
        data = store.get(merged.key, (merged.offset, merged.length))
        for position, (index, _) in enumerate(merged.parts):
            results[index] = merged.slice(position, data)
    return results
