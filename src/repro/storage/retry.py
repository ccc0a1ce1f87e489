"""Retrying object-store wrapper.

Real object stores throw transient 5xx/throttling errors; clients retry
with backoff. This wrapper retries idempotent operations (GET / HEAD /
LIST / DELETE and plain PUT — an overwrite with identical bytes is
idempotent) a bounded number of times. Conditional PUTs are **never**
retried blindly: after a network error the first attempt may have
landed, and retrying would misreport a success as
:class:`~repro.errors.PreconditionFailed`; the transaction layers
already handle that by re-reading.

Backoff delays use *decorrelated jitter* (the AWS architecture-blog
scheme): each wait is drawn uniformly from ``[base, 3 * previous]`` and
capped at ``max_backoff_s``. Without jitter, clients that fail together
retry together and re-overload the store in synchronized waves — the
serve executor runs many concurrent searchers, so this matters. The
jitter comes from a seeded RNG and the waits advance the store's clock,
so tests with a :class:`~repro.util.clock.SimClock` stay instant and
deterministic.
"""

from __future__ import annotations

import random

from repro.errors import (
    InvalidByteRange,
    ObjectNotFound,
    ObjectStoreError,
    PreconditionFailed,
    SimulatedCrash,
)
from repro.obs.timeseries import get_hub
from repro.storage.object_store import ObjectInfo, ObjectStore
from repro.util.clock import SimClock

#: Errors that are permanent facts about the request, never transient.
_PERMANENT = (ObjectNotFound, PreconditionFailed, InvalidByteRange)


class RetryingObjectStore(ObjectStore):
    """Wraps a store with bounded exponential backoff on transient
    failures."""

    def __init__(
        self,
        inner: ObjectStore,
        *,
        max_attempts: int = 4,
        base_backoff_s: float = 0.1,
        max_backoff_s: float = 10.0,
        jitter_seed: int | None = 0,
    ) -> None:
        """Wrap ``inner``; IO accounting is shared with it."""
        super().__init__(inner.clock)
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if max_backoff_s < base_backoff_s:
            raise ValueError("max_backoff_s must be >= base_backoff_s")
        self.inner = inner
        self.max_attempts = max_attempts
        self.base_backoff_s = base_backoff_s
        self.max_backoff_s = max_backoff_s
        self._rng = random.Random(jitter_seed)
        self.stats = inner.stats
        self.retries = 0

    def _next_delay(self, previous: float) -> float:
        """Decorrelated jitter: uniform in ``[base, 3 * previous]``,
        capped at ``max_backoff_s``; always strictly positive."""
        high = max(self.base_backoff_s, 3.0 * previous)
        delay = self._rng.uniform(self.base_backoff_s, high)
        return min(self.max_backoff_s, delay)

    def _backoff(self, delay: float) -> None:
        if isinstance(self.clock, SimClock):
            self.clock.advance(delay)
        else:  # pragma: no cover - wall-clock path
            import time

            time.sleep(delay)

    def _retrying(self, operation, *args, **kwargs):
        last: Exception | None = None
        delay = self.base_backoff_s
        for attempt in range(self.max_attempts):
            try:
                return operation(*args, **kwargs)
            except _PERMANENT:
                raise
            except SimulatedCrash:
                # A simulated process death is not a transient store
                # error: the mutation beneath it is durable and the
                # "process" is gone. Retrying would both resurrect the
                # dead client and re-run the mutation, consuming chaos
                # crash countdowns twice per boundary. (SimulatedCrash
                # is not an ObjectStoreError, but pin it explicitly so
                # an exception-hierarchy change cannot silently break
                # one-crash-per-rule semantics.)
                raise
            except ObjectStoreError as exc:
                last = exc
                self.retries += 1
                hub, at_s = get_hub(), self.clock.now()
                hub.series(
                    "store_retries_total", op=operation.__name__.upper()
                ).observe(at_s=at_s)
                if attempt + 1 < self.max_attempts:
                    delay = self._next_delay(delay)
                    hub.series("store_backoff_seconds_total").observe(
                        delay, at_s=at_s
                    )
                    self._backoff(delay)
        raise last  # type: ignore[misc]

    # -- operations ---------------------------------------------------
    def put(self, key: str, data: bytes, *, if_none_match: bool = False) -> ObjectInfo:
        """PUT with retries; conditional PUTs pass through un-retried."""
        if if_none_match:
            # Not idempotent: a lost response may mean the put landed.
            return self.inner.put(key, data, if_none_match=True)
        return self._retrying(self.inner.put, key, data)

    def get(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        """GET with retries."""
        return self._retrying(self.inner.get, key, byte_range)

    def head(self, key: str) -> ObjectInfo:
        """HEAD with retries."""
        return self._retrying(self.inner.head, key)

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        """LIST with retries."""
        return self._retrying(self.inner.list, prefix)

    def delete(self, key: str) -> None:
        """DELETE with retries (idempotent: missing keys are no-ops)."""
        return self._retrying(self.inner.delete, key)
