"""Concurrent search execution (paper Fig. 8c/8d).

Rottnest's defining serving property is that index-file queries are
*independent*: one query fans its index probes and in-situ page reads
across searchers, latency stays ~flat (the dependency *depth* is the
floor) while cost grows ~linearly with searcher count.

:class:`SearchExecutor` owns the bounded searcher pool and runs the one
search plan (:mod:`repro.core.search`, which documents how waves and
their traces compose) on it. Matches are those of
:meth:`RottnestClient.search <repro.core.client.RottnestClient.search>`
— the same plan, run inline.
"""

from __future__ import annotations

from repro.core.client import RottnestClient
from repro.core.queries import Query
from repro.core.results import SearchResult
from repro.core.search import run_search
from repro.errors import RottnestIndexError
from repro.storage.pool import TracedPool


class SearchExecutor:
    """Runs one query's search plan across ``max_searchers`` workers.

    Usable as a context manager; :meth:`close` shuts the pool down.
    Results are interchangeable with ``client.search`` — only the
    request trace (and therefore modeled latency/cost) differs.
    """

    def __init__(
        self,
        client: RottnestClient,
        *,
        max_searchers: int = 4,
    ) -> None:
        if max_searchers < 1:
            raise RottnestIndexError(
                f"max_searchers must be >= 1, got {max_searchers}"
            )
        self.client = client
        self.max_searchers = max_searchers
        # The fan-out machinery (per-worker traces, deterministic
        # payload order) lives in TracedPool, shared with the
        # maintenance pipeline; ``max_searchers`` is its one bound on
        # in-flight tasks.
        self._pool = TracedPool(
            workers=max_searchers,
            thread_name_prefix="searcher",
            span_name="searcher:task",
        )

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "SearchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def search(self, column: str, query: Query, **options) -> SearchResult:
        """Concurrent equivalent of :meth:`RottnestClient.search`, with
        the same keyword options (``k``, ``snapshot``, ``partition``,
        ``file_predicate``, ``use_indices``).

        ``use_indices=False`` fans the brute-force scans across the
        pool — the degraded mode :class:`~repro.serve.server
        .SearchServer` falls back to when an index component read fails
        mid-query.
        """
        return run_search(self.client, self._pool, column, query, **options)
