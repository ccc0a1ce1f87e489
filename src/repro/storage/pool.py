"""Bounded, trace-aware worker pool shared by serving and maintenance.

:class:`TracedPool` generalizes the fan-out machinery that
:class:`~repro.serve.executor.SearchExecutor` pioneered for queries so
the maintenance write path (:mod:`repro.maintain`) can reuse it
verbatim: tasks run in waves of ``workers``; each task records into
its own trace, opened on the worker thread with
:func:`~repro.storage.stats.tracing` (a worker never sees the
submitter's requests, nor the submitter a worker's); traces within a
wave merge with ``merge_parallel`` (they really were in
flight together), waves compose sequentially with ``then`` (only
``workers`` requests can be outstanding at once). Payloads come back
in task order regardless of completion order — determinism of results
never depends on scheduling. A pool's ``workers`` is the one bound
on its concurrency: pools share no semaphore, so a maintenance pool
and a query executor each keep their own width.

The trace of a *run* — one search, one maintenance verb — is built
from its phases. :class:`Run` opens one on the calling thread;
:func:`end_phase` hangs each finished phase trace on its span (for
attribution) and composes it into the open run in finish order, and
:meth:`TracedPool.run` counts its tasks there. The run's trace needs no
span tree, so it is the same whether the tracer is on or off. A run
records nothing itself: the requests are recorded by the phases'
traces, and a run only composes them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.errors import RottnestIndexError
from repro.obs.trace import Span, get_tracer
from repro.storage.stats import RequestTrace, _open, tracing

T = TypeVar("T")


class Run:
    """One operation's requests: its phase traces composed in order,
    and the pool tasks it ran. ``with Run() as run`` opens it on the
    calling thread; a run opened inside another one nests: when it
    closes, its trace and tasks join the outer run's."""

    __slots__ = ("trace", "tasks")

    def __init__(self) -> None:
        """Start with no requests and no tasks."""
        self.trace = RequestTrace()
        self.tasks = 0

    def __enter__(self) -> "Run":
        """Open the run on the calling thread."""
        _open.runs.append(self)
        return self

    def __exit__(self, *exc) -> None:
        """Close the run; an outer run takes its trace and tasks."""
        stack = _open.runs
        stack.pop()
        if stack:
            outer = stack[-1]
            outer.trace = outer.trace.then(self.trace)
            outer.tasks += self.tasks


def end_phase(span: Span, trace: RequestTrace) -> None:
    """A phase finished: ``trace`` becomes its span's (for attribution)
    and runs after everything the open run holds so far."""
    span.trace = trace
    stack = _open.runs
    if stack:
        stack[-1].trace = stack[-1].trace.then(trace)


def run_inline(
    tasks: list[Callable[[], T]],
    *,
    compose: Callable[[RequestTrace, RequestTrace], RequestTrace] = RequestTrace.then,
) -> tuple[RequestTrace, list[T]]:
    """:meth:`TracedPool.run` without the pool: no thread, no future.

    Tasks run one at a time on the calling thread, each under its own
    trace, composed with ``then`` by default — one blocking task after
    another, the shape a one-worker pool records — or with
    ``RequestTrace.merge_parallel`` for independent tasks modeled as
    issued together. A raising task stops the run; its error carries
    the run's requests so far (:func:`spent`).
    """
    combined = RequestTrace()
    payloads: list[T] = []
    for fn in tasks:
        with tracing() as trace:
            try:
                payloads.append(fn())
            except BaseException as error:
                error.spent = compose(combined, trace)
                raise
        combined = compose(combined, trace)
    return combined, payloads


def spent(error: BaseException) -> RequestTrace:
    """The requests of the run that ``error`` stopped — its finished
    tasks' and the failed ones' — empty when no run raised it."""
    return getattr(error, "spent", None) or RequestTrace()


def run_phase(span: Span, run: Callable, tasks: list, **kwargs) -> list:
    """``run(tasks, **kwargs)`` as the whole of phase ``span``: its
    trace ends the phase (:func:`end_phase`) even when a task raises.
    Returns the payloads."""
    try:
        trace, payloads = run(tasks, **kwargs)
    except BaseException as error:
        end_phase(span, spent(error))
        raise
    end_phase(span, trace)
    return payloads


@contextmanager
def phase(name: str, tag: str, **attributes: object) -> Iterator[Span]:
    """A span tagged ``phase=tag`` that owns the calling thread's
    request trace — how sequential round trips (planning reads,
    commits) get attributed: every request inside lands in exactly one
    phase's trace, so bills add up to the ``IOStats`` delta."""
    with get_tracer().span(name, phase=tag, **attributes) as span, tracing() as trace:
        try:
            yield span
        finally:
            end_phase(span, trace)


class TracedPool:
    """Runs tasks in bounded waves, recording per-worker traces.

    Usable as a context manager; :meth:`close` shuts the pool down.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        thread_name_prefix: str = "worker",
        span_name: str = "worker:task",
    ) -> None:
        """Create a pool of ``workers`` threads."""
        if workers < 1:
            raise RottnestIndexError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.span_name = span_name
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=thread_name_prefix
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut the pool down, waiting for in-flight tasks."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "TracedPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the pool."""
        self.close()

    # -- fan-out machinery ---------------------------------------------
    def _traced(
        self, fn: Callable[[], T], parent: Span | None, span_name: str
    ) -> Callable[[], tuple[RequestTrace, T]]:
        """Wrap a task so it records store requests into its own trace
        and returns ``(trace, payload)``.

        ``parent`` is the submitting thread's current span: the worker
        re-attaches it so its task span (which keeps the task's trace)
        lands under the right root even though it runs on a pool
        thread.
        """

        def run() -> tuple[RequestTrace, T]:
            """Worker-side body: attach span, trace, run the task; a
            raising task's error carries its trace (:func:`spent`)."""
            tracer = get_tracer()
            with tracer.attach(parent), tracer.span(
                span_name
            ) as task_span, tracing() as trace:
                try:
                    payload = fn()
                except BaseException as error:
                    error.spent = trace
                    raise
                finally:
                    # Per-task trace for the timeline; the *phase* span
                    # owns the merged wave trace, so attribution counts
                    # each request once (task spans carry no ``phase``
                    # attr).
                    task_span.trace = trace
            return trace, payload

        return run

    def run(
        self, tasks: list[Callable[[], T]], *, span_name: str | None = None
    ) -> tuple[RequestTrace, list[T]]:
        """Run tasks on the pool in waves of ``workers``.

        Traces within a wave merge in parallel; waves compose
        sequentially. Payloads come back in task order regardless of
        completion order, which is what keeps results deterministic.
        Errors are collected per wave and the first (in task order) is
        re-raised — including :class:`~repro.errors.SimulatedCrash`,
        so chaos injection in any worker kills the whole operation
        exactly as it would the serial loop. It carries the run's
        requests up to and including that wave's (:func:`spent`).
        """
        name = span_name or self.span_name
        parent = get_tracer().current()
        stack = _open.runs
        combined = RequestTrace()
        payloads: list[T] = []
        width = self.workers
        for start in range(0, len(tasks), width):
            wave = tasks[start : start + width]
            if stack:
                stack[-1].tasks += len(wave)
            futures = [
                self._pool.submit(self._traced(fn, parent, name)) for fn in wave
            ]
            wave_trace = RequestTrace()
            errors: list[BaseException] = []
            for future in futures:
                try:
                    trace, payload = future.result()
                    payloads.append(payload)
                except BaseException as error:  # collect, then re-raise first
                    errors.append(error)
                    trace = spent(error)
                wave_trace = wave_trace.merge_parallel(trace)
            combined = combined.then(wave_trace)
            if errors:
                errors[0].spent = combined
                raise errors[0]
        return combined, payloads
