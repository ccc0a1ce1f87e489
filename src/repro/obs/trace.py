"""Hierarchical spans with cross-thread context propagation.

A :class:`Span` is one timed region of work with attributes and
children; a :class:`Tracer` maintains a per-thread stack of active
spans so nested ``with tracer.span(...)`` blocks form a tree::

    with tracer.span("search"):
        with tracer.span("probe:fm"):
            ...

Concurrency is first-class because the serve executor fans one query
across worker threads: the submitting thread captures
``tracer.current()`` and each worker re-attaches it with
:meth:`Tracer.attach`, so worker task spans parent under the right
query span even though they start on a different thread.

Timing is clock-aware: a tracer built with ``clock=None`` stamps spans
from ``time.perf_counter`` (real wall time), while passing the store's
:class:`~repro.util.clock.SimClock` makes span durations exactly the
simulated time that elapsed (e.g. retry backoff advances), keeping
tests deterministic.

Object-store requests are not spans of their own — at thousands per
query that would dominate the cost of tracing. A request is recorded
once, in the :class:`~repro.storage.stats.RequestTrace` of the phase
(or pool task) that issued it, and that trace hangs on the phase's
span: :attr:`Span.own_requests` is what the timeline renders as
``GET key [nbytes]`` leaves.

The process-wide default tracer is reached with :func:`get_tracer`;
scoped code (tests, the ``repro profile`` command) swaps it with
:func:`use_tracer`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.util.clock import Clock

if TYPE_CHECKING:  # circular-import-free type hints only
    from repro.storage.stats import Request, RequestTrace

#: Spans kept on a tracer after their root finishes (oldest dropped).
DEFAULT_KEEP_FINISHED = 256

_span_ids = itertools.count(1)


class Span:
    """One timed node of a trace tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent",
        "start_s",
        "end_s",
        "attributes",
        "children",
        "thread",
        "trace",
    )

    def __init__(self, name: str, *, parent: "Span | None", start_s: float) -> None:
        self.name = name
        self.span_id = next(_span_ids)
        self.parent = parent
        self.start_s = start_s
        self.end_s: float | None = None
        self.attributes: dict[str, object] = {}
        self.children: list[Span] = []
        self.thread = threading.current_thread().name
        #: The :class:`RequestTrace` of a phase (billed by
        #: ``obs.attribution``) or of one pool task inside it.
        self.trace: "RequestTrace | None" = None

    # -- structure -----------------------------------------------------
    @property
    def parent_id(self) -> int | None:
        return self.parent.span_id if self.parent is not None else None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, key: str, value: object) -> "Span":
        self.attributes[key] = value
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [s for s in self.walk() if s.name == name]

    @property
    def own_requests(self) -> list["Request"]:
        """The requests this span issued itself, in round order: its
        trace's, unless a child has a trace of its own (a pooled phase,
        whose tasks each keep theirs)."""
        if self.trace is None or any(c.trace is not None for c in self.children):
            return []
        return [request for round_ in self.trace.rounds for request in round_]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Builds span trees from nested/concurrent instrumented regions."""

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        enabled: bool = True,
        keep_finished: int = DEFAULT_KEEP_FINISHED,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.finished: deque[Span] = deque(maxlen=keep_finished)
        self._tls = threading.local()
        self._lock = threading.Lock()

    # -- time ----------------------------------------------------------
    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.now()
        return time.perf_counter()

    # -- context -------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current(self) -> Span | None:
        """The innermost active span on the calling thread, if any."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: object):
        """Open a child span of the calling thread's current span."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, parent=parent, start_s=self._now())
        if attributes:
            span.attributes.update(attributes)
        if parent is not None:
            # Appending under the tracer lock keeps sibling lists intact
            # when workers attach the same parent from many threads.
            with self._lock:
                parent.children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end_s = self._now()
            stack.pop()
            if parent is None:
                with self._lock:
                    self.finished.append(span)

    @contextmanager
    def attach(self, parent: Span | None):
        """Adopt ``parent`` as the calling thread's current span.

        This is the cross-thread propagation primitive: the submitting
        thread captures :meth:`current`, ships it with the task, and the
        worker wraps its body in ``attach`` so spans it opens become
        children of the submitter's span. ``attach(None)`` is a no-op.
        """
        if not self.enabled or parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    # -- results -------------------------------------------------------
    def pop_finished(self) -> list[Span]:
        """Drain and return completed root spans, oldest first."""
        with self._lock:
            roots = list(self.finished)
            self.finished.clear()
        return roots

    def last_root(self, name: str | None = None) -> Span | None:
        """Most recently finished root span (optionally by name)."""
        with self._lock:
            for span in reversed(self.finished):
                if name is None or span.name == name:
                    return span
        return None


class _NullSpan(Span):
    """Shared inert span handed out by disabled tracers."""

    def __init__(self) -> None:
        super().__init__("null", parent=None, start_s=0.0)

    def set(self, key: str, value: object) -> "Span":
        return self

    # Every thread shares this span: a trace assigned to it would be
    # whichever phase finished last, on any thread.
    @property
    def trace(self) -> None:
        return None

    @trace.setter
    def trace(self, value: "RequestTrace | None") -> None:
        pass


_NULL_SPAN = _NullSpan()


class ProcessDefault:
    """One process-wide default (the tracer, the telemetry hub, the
    flight recorder): read it, replace it, or replace it for a block."""

    def __init__(self, value) -> None:
        self.value = value
        self._lock = threading.Lock()

    def get(self):
        """The current default."""
        return self.value

    def set(self, value):
        """Replace the default; returns the previous one."""
        with self._lock:
            previous, self.value = self.value, value
        return previous

    @contextmanager
    def use(self, value):
        """Scope: make ``value`` the default for the duration of the block."""
        previous = self.set(value)
        try:
            yield value
        finally:
            self.set(previous)


#: The process-wide default tracer.
_default_tracer = ProcessDefault(Tracer())
get_tracer, set_tracer, use_tracer = (
    _default_tracer.get, _default_tracer.set, _default_tracer.use
)
