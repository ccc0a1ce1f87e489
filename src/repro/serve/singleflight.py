"""Single-flight deduplication of concurrent identical work.

When many clients miss the cache on the same hot object (or issue the
same query) at the same instant, the naive path issues one object-store
fetch *per caller* — a thundering herd that multiplies both cost and
per-prefix request rate. :class:`SingleFlight` collapses the herd: the
first caller for a key becomes the *leader* and executes the work; every
concurrent caller for the same key blocks on the leader's result and
shares it (exceptions included). Callers arriving after the flight has
landed start a fresh one, so results are never stale beyond the flight
itself.

This is the Go ``golang.org/x/sync/singleflight`` pattern; both the
caching store and the search server are built on it.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


class _Flight:
    """One in-progress call; carries its outcome to the waiters."""

    __slots__ = ("landed", "result", "error", "sharers")

    def __init__(self) -> None:
        # Held until the call lands. A bare lock, not an Event: every
        # cache miss starts a flight, and an Event costs ten times more
        # to create and set.
        self.landed = threading.Lock()
        self.landed.acquire()
        self.result: object = None
        self.error: BaseException | None = None
        self.sharers = 0  # callers that joined instead of executing


class SingleFlight:
    """Thread-safe per-key deduplication of in-flight calls."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}
        self.leaders = 0  # calls that actually executed the work
        self.shared = 0  # calls served by somebody else's flight

    def do(self, key: Hashable, fn: Callable[[], T]) -> T:
        """Run ``fn`` once per key among concurrent callers.

        The leader's return value (or exception) is delivered to every
        caller that joined while the flight was in progress.
        """
        return self.do_detailed(key, fn)[0]

    def do_detailed(self, key: Hashable, fn: Callable[[], T]) -> tuple[T, bool]:
        """Like :meth:`do`, but also reports whether this caller shared
        another caller's flight instead of executing ``fn`` itself."""
        with self._lock:
            flight = self._flights.get(key)
            leading = flight is None
            if leading:
                flight = _Flight()
                self._flights[key] = flight
                self.leaders += 1
            else:
                flight.sharers += 1
                self.shared += 1
        if leading:
            try:
                flight.result = fn()
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.landed.release()
            return flight.result, False  # type: ignore[return-value]
        with flight.landed:  # wait for the landing, then let the next waiter by
            pass
        if flight.error is not None:
            raise flight.error
        return flight.result, True  # type: ignore[return-value]
