"""The four workloads.

Each one is a closed loop on at most two threads: an operation is issued
only after the previous one returned. A workload owns three things — a
timed ``setup``, a ``round`` of fixed operations that returns its
samples, and (``ingest_mixed`` only) a ``finish`` check. Oracle work and
input planning always happen outside the timed calls.
"""

from __future__ import annotations

import sys
import threading
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core import RottnestClient, fsck
from repro.ingest import IngestDrainer, IngestTier
from repro.lake import LakeTable
from repro.maintain import MaintenancePipeline
from repro.obs import TelemetryHub, use_hub
from repro.obs.flight import FlightRecorder, use_flight_recorder
from repro.obs.slo import default_slo
from repro.obs.trace import Tracer, use_tracer
from repro.serve import SearchServer
from repro.storage import LatencyModel
from repro.workloads import uuid_key

from benchmarks.e2e import data, oracle
from benchmarks.e2e.trace import SpanStore

K = 10
NPROBE = 4
REFINE = 50
ABSENT_SHARE = 0.2
NEEDLE_CHARS = 12
LATENCY = LatencyModel()
INGEST_ROOT = "ingest/t"


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults fit the driver's time cap on a 2-core
    box (the issue's 1,500-row files scaled down; workload count and the
    200 samples behind every p95 are kept)."""

    l8_files: int = 8
    l8_rows: int = 500
    cold_per_kind: int = 70  # x3 kinds = 210 queries per round
    hot_uuid_keys: int = 200
    hot_substring_keys: int = 50
    hot_per_client: int = 100  # x2 clients = 200 queries per round
    bm_files: int = 6
    bm_rows: int = 300
    bm_per_kind: int = 70
    im_seed_files: int = 4
    im_seed_rows: int = 500
    im_steps: int = 48  # x5 searches = 240 queries per round
    im_batch: int = 25
    im_avg_chars: int = 120


SMOKE = Sizes(
    l8_files=4,
    l8_rows=160,
    hot_uuid_keys=60,
    hot_substring_keys=20,
    hot_per_client=100,
    bm_files=4,
    bm_rows=160,
    im_seed_files=2,
    im_seed_rows=160,
    im_steps=42,
    im_batch=8,
    im_avg_chars=60,
)


@dataclass
class QuerySample:
    kind: str
    wall_s: float
    slot: int  # calibration slot the query ran in (see stats.Pacer)
    modeled_ms: float
    requests: int
    depth: int
    pages: int
    candidates: int
    false_positives: int
    recall: float
    speed: float = 1.0  # wall x speed = calibrated time; set at round end


@dataclass
class Round:
    """What one round measured. ``wall_s`` is raw, the ``cal_`` fields
    are in calibrated time."""

    wall_s: float = 0.0
    cal_wall_s: float = 0.0
    queries: list[QuerySample] = field(default_factory=list)
    cal_queries_per_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (wall seconds, calibration slot) of every operation that counts
    #: toward the round's wall time
    timings: list[tuple[float, int]] = field(default_factory=list)
    #: live index bytes per index type + "data" (lake bytes), end of round
    index_sizes: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class NullRecorder:
    """Stands in for the span recorder on untraced runs."""

    _null = nullcontext()

    def op(self, kind: str):
        return self._null


class Workload:
    """Base: store wrapping, guarded operations, query bookkeeping."""

    name = ""
    #: round variants the traced pass cycles through
    variants = ("plain", "traced")

    def __init__(self, seed: int, sizes: Sizes, pacer, recorder=None) -> None:
        self.seed = seed
        self.sizes = sizes
        self.pacer = pacer
        self.recorder = recorder or NullRecorder()
        self.gen = data.Generators(seed)
        self.span_stores: list[SpanStore] = []
        self._errors_shown = 0

    # -- plumbing ------------------------------------------------------
    def wrap(self, store):
        """The store every layer sees: the raw one, or — on the traced
        pass — a :class:`SpanStore` around it."""
        if isinstance(self.recorder, NullRecorder):
            return store
        wrapped = SpanStore(store, self.recorder)
        self.span_stores.append(wrapped)
        return wrapped

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def _timed(self, kind: str, what: str, fn):
        """``(result or None, wall seconds, calibration slot, raised)`` of
        one operation, run as a root span of ``kind``."""
        slot = self.pacer.start()
        raised = False
        with self.recorder.op(kind):
            start = perf_counter()
            try:
                result = fn()
            except Exception:
                raised, result = True, None
                if self._errors_shown < 3:
                    self._errors_shown += 1
                    print(f"[{self.name}] {what} raised:", file=sys.stderr)
                    traceback.print_exc()
            wall = perf_counter() - start
        return result, wall, slot, raised

    def guarded(self, round_: Round, kind: str, fn):
        """Run one non-query operation; ``(result or None, wall seconds)``.
        Raising counts as a failed operation."""
        result, wall, slot, raised = self._timed(kind, kind, fn)
        round_.attempted += 1
        round_.failed += raised
        round_.timings.append((wall, slot))
        return result, wall

    def timed_query(self, search, planned: oracle.Planned):
        """``(SearchResult or None, wall seconds, slot)`` of one search call."""
        return self._timed("query", f"{planned.kind} query", lambda: search(planned))[:3]

    def judge(self, round_: Round, planned, result, wall_s, slot, truth) -> None:
        """Check one answer and file its sample (outside any timing)."""
        round_.attempted += 1
        if result is None:
            round_.failed += 1
            return
        verdict = oracle.check(planned, result.matches, K, truth)
        if not verdict.ok:
            round_.failed += 1
        stats = result.stats
        round_.queries.append(
            QuerySample(
                kind=planned.kind,
                wall_s=wall_s,
                slot=slot,
                modeled_ms=stats.estimated_latency(LATENCY) * 1000.0,
                requests=stats.trace.total_requests,
                depth=stats.trace.depth,
                pages=stats.pages_probed,
                candidates=stats.candidates,
                false_positives=stats.false_positives,
                recall=verdict.recall,
            )
        )

    def run_queries(self, round_: Round, search, plan, truth) -> None:
        """Issue ``plan`` one query at a time, then check the answers."""
        answered = [(p, *self.timed_query(search, p)) for p in plan]
        for planned, result, wall, slot in answered:
            round_.timings.append((wall, slot))
            self.judge(round_, planned, result, wall, slot, truth)

    def close_round(self, round_: Round, *, concurrent: bool = False) -> Round:
        """Take the closing calibration reading and total the round up.

        Sequential rounds: wall = Σ operation walls, throughput =
        queries ÷ time inside search calls. ``concurrent`` rounds carry
        one timing, the stopwatch over all clients."""
        pacer = self.pacer
        pacer.lap()
        for q in round_.queries:
            q.speed = pacer.speed(q.slot)
        round_.wall_s = sum(wall for wall, _ in round_.timings)
        round_.cal_wall_s = sum(
            wall * pacer.speed(slot) for wall, slot in round_.timings
        )
        cal_query_s = (
            round_.cal_wall_s
            if concurrent
            else sum(q.wall_s * q.speed for q in round_.queries)
        )
        round_.cal_queries_per_s = len(round_.queries) / cal_query_s
        return round_

    # -- per-workload API ------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, variant: str) -> Round:
        raise NotImplementedError

    def finish(self) -> tuple[int, int]:
        """End-of-run checks: ``(attempted, failed)``."""
        return 0, 0

    def counters(self) -> dict:
        """Program-side counters the per-layer table reads at the end."""
        return {}

    def close(self) -> None:
        pass


def _interleave(*streams):
    return [item for group in zip(*streams) for item in group]


class _Keys:
    """Query planning over a generated lake: keys never repeat in a run."""

    def __init__(self, workload: Workload, corpus: data.Corpus) -> None:
        self.workload = workload
        self.corpus = corpus
        self.truth = oracle.LakeOracle(corpus)
        total = len(corpus.files) * corpus.rows_per_file
        self._uuid_rows = workload.rng(1).permutation(total)
        self._doc_rows = workload.rng(2).permutation(total)
        self._uuid_at = self._doc_at = self._absent_at = 0
        self._needles: set[str] = set()

    def present_uuid(self) -> oracle.Planned:
        row = int(self._uuid_rows[self._uuid_at % len(self._uuid_rows)])
        self._uuid_at += 1
        return self.truth.uuid(row)

    def absent_uuid(self) -> oracle.Planned:
        self._absent_at += 1
        key = uuid_key(f"absent{self.workload.seed}", self._absent_at, data.UUID_BYTES)
        return oracle.absent_uuid(key)

    def present_substring(self, rng, *, unique: bool = False) -> oracle.Planned:
        """A needle cut from a generated document; ``unique`` keeps only
        needles exactly one row contains."""
        while True:
            row = int(self._doc_rows[self._doc_at % len(self._doc_rows)])
            self._doc_at += 1
            file_index, r = divmod(row, self.corpus.rows_per_file)
            doc = self.corpus.files[file_index]["text"][r]
            if len(doc) <= NEEDLE_CHARS:
                continue
            start = int(rng.integers(len(doc) - NEEDLE_CHARS))
            needle = doc[start : start + NEEDLE_CHARS]
            if needle in self._needles:
                continue
            planned = self.truth.substring(needle)
            if unique and len(planned.expect) != 1:
                continue
            self._needles.add(needle)
            return planned

    def absent_substring(self) -> oracle.Planned:
        self._absent_at += 1
        # Upper case and digits never occur mid-word in generated text.
        needle = f"QXZ{self._absent_at:09d}"
        return self.truth.substring(needle)

    def vector(self, vector) -> oracle.Planned:
        return self.truth.vector(vector, K, nprobe=NPROBE, refine=REFINE)

    def mixed_round(self, round_index: int, per_kind: int):
        """``per_kind`` substring + uuid + vector queries, interleaved,
        :data:`ABSENT_SHARE` of the exact kinds absent."""
        rng = self.workload.rng(3, round_index)
        absent = rng.random(2 * per_kind) < ABSENT_SHARE
        substrings = [
            self.absent_substring() if miss else self.present_substring(rng)
            for miss in absent[:per_kind]
        ]
        uuids = [
            self.absent_uuid() if miss else self.present_uuid()
            for miss in absent[per_kind:]
        ]
        centers = self.workload.gen.vector.centers
        picks = rng.integers(len(centers), size=per_kind)
        noise = rng.normal(size=(per_kind, data.VECTOR_DIM))
        vectors = [
            self.vector((centers[c] + n).astype(np.float32))
            for c, n in zip(picks, noise)
        ]
        return _interleave(substrings, uuids, vectors)


def build_l8(workload: Workload):
    """The shared lake ``L8`` of ``cold_search`` and ``hot_serve``: same
    seed, byte-identical contents. Returns ``(store, corpus)``."""
    sizes = workload.sizes
    corpus = data.generate_corpus(
        workload.gen, ("text", "uuid", "emb"), sizes.l8_files, sizes.l8_rows
    )
    store = workload.wrap(data.new_store())
    client = data.build_lake(store, corpus)
    workload.l8_index_sizes = data.index_sizes(client)
    return store, corpus


class ColdSearch(Workload):
    name = "cold_search"

    def setup(self) -> None:
        self.store, corpus = build_l8(self)
        self.keys = _Keys(self, corpus)

    def _search(self, planned: oracle.Planned):
        # The paper's stateless searcher: nothing survives a query.
        lake = LakeTable.open(self.store, data.LAKE_ROOT)
        client = RottnestClient(self.store, data.INDEX_DIR, lake)
        return client.search(planned.column, planned.query, k=K)

    def round(self, index: int, variant: str) -> Round:
        plan = self.keys.mixed_round(index, self.sizes.cold_per_kind)
        out = Round(index_sizes=self.l8_index_sizes)
        self.run_queries(out, self._search, plan, self.keys.truth)
        return self.close_round(out)


class HotServe(Workload):
    name = "hot_serve"
    variants = ("plain", "traced", "tracer_off", "flight_off")
    CLIENTS = 2

    def setup(self) -> None:
        sizes = self.sizes
        self.store, corpus = build_l8(self)
        keys = _Keys(self, corpus)
        self.truth = keys.truth
        rng = self.rng(4)
        self.uuid_keys = [keys.present_uuid() for _ in range(sizes.hot_uuid_keys)]
        # One matching row per needle (a log-line lookup): with Zipf
        # traffic a handful of keys carry the round, and needles of 1 to
        # 10+ candidate pages would make its cost a property of the seed.
        self.substring_keys = [
            keys.present_substring(rng, unique=True)
            for _ in range(sizes.hot_substring_keys)
        ]
        self.cache_budget_bytes = self._half_working_set()
        self.stack = ExitStack()
        self.hub = TelemetryHub()
        self.flight = FlightRecorder(self.store, root="obs", slo=default_slo())
        # Exactly what `repro serve-bench --flight` installs.
        self.stack.enter_context(use_hub(self.hub))
        self.stack.enter_context(use_flight_recorder(self.flight))
        self.server = self.stack.enter_context(self._server(self.cache_budget_bytes))
        self.server.warmup()

    def _server(self, cache_budget_bytes: int) -> SearchServer:
        return SearchServer.for_lake(
            self.store,
            data.INDEX_DIR,
            data.LAKE_ROOT,
            cache_budget_bytes=cache_budget_bytes,
            max_searchers=2,
            max_inflight=4,
        )

    def _half_working_set(self) -> int:
        """Half the bytes one full pass over the key set leaves in an
        unbounded cache — so the working set does not fit and LRU
        eviction runs."""
        with self._server(1 << 40) as server:
            for planned in self.uuid_keys + self.substring_keys:
                server.query(planned.column, planned.query, k=K)
            return max(1, server.client.store.cached_bytes // 2)

    def _zipf(self, rng, keys, order, count: int):
        """``count`` draws from ``keys``, Zipf(1.1) over the ranking ``order``."""
        ranks = np.arange(1, len(keys) + 1, dtype=np.float64)
        weights = ranks**-1.1
        picks = rng.choice(len(keys), size=count, p=weights / weights.sum())
        return [keys[order[i]] for i in picks]

    def _client_plans(self, round_index: int):
        """Both clients' queries for one round. The key set is fixed for
        the run; which keys are popular is re-drawn every round
        (popularity drift), so a run averages over several Zipf heads
        instead of inheriting the cost of one seed's top few keys."""
        ranking = self.rng(7, round_index)
        uuid_order = ranking.permutation(len(self.uuid_keys))
        substring_order = ranking.permutation(len(self.substring_keys))
        count = self.sizes.hot_per_client
        plans = []
        for client in range(self.CLIENTS):
            rng = self.rng(5, round_index, client)
            uuids = iter(self._zipf(rng, self.uuid_keys, uuid_order, count))
            substrings = iter(
                self._zipf(rng, self.substring_keys, substring_order, count)
            )
            plans.append(
                [
                    next(uuids) if rng.random() < 0.7 else next(substrings)
                    for _ in range(count)
                ]
            )
        return plans

    def _search(self, planned: oracle.Planned):
        return self.server.query(planned.column, planned.query, k=K)

    def round(self, index: int, variant: str) -> Round:
        plans = self._client_plans(index)
        answered: list[list] = [[] for _ in plans]
        gate = threading.Barrier(self.CLIENTS + 1)

        def client(slot: int) -> None:
            gate.wait()
            for planned in plans[slot]:
                answered[slot].append((planned, *self.timed_query(self._search, planned)))

        threads = [
            threading.Thread(target=client, args=(slot,)) for slot in range(self.CLIENTS)
        ]
        with ExitStack() as stack:
            if variant == "tracer_off":
                stack.enter_context(use_tracer(Tracer(enabled=False)))
            if variant == "flight_off":
                stack.enter_context(use_flight_recorder(None))
            # One calibration slot spans the whole round: a reading taken
            # while the clients run would only measure its own fight for
            # the interpreter lock.
            slot = self.pacer.lap()
            self.pacer.hold = True
            try:
                for t in threads:
                    t.start()
                gate.wait()
                start = perf_counter()
                for t in threads:
                    t.join()
                wall = perf_counter() - start
            finally:
                self.pacer.hold = False
        self.store.clock.advance(1.0)
        out = Round(index_sizes=self.l8_index_sizes, timings=[(wall, slot)])
        for client_answers in answered:
            for planned, result, query_wall, query_slot in client_answers:
                self.judge(out, planned, result, query_wall, query_slot, self.truth)
        # A client that died early leaves operations unattempted.
        missing = sum(len(p) for p in plans) - out.attempted
        out.attempted += missing
        out.failed += missing
        return self.close_round(out, concurrent=True)

    def counters(self) -> dict:
        cache = self.server.stats.cache
        return {
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "queries": self.server.stats.queries,
            "deduplicated": self.server.stats.deduplicated,
        }

    def close(self) -> None:
        self.stack.close()


class BuildMaintain(Workload):
    name = "build_maintain"
    COLUMNS = ("text", "uuid", "emb")

    def _inputs(self, index: int):
        """A fresh corpus and query plan: every round builds new data, so
        a run averages over inputs and nothing can be reused across
        rounds."""
        sizes = self.sizes
        corpus = data.generate_corpus(
            self.gen, self.COLUMNS, sizes.bm_files, sizes.bm_rows
        )
        keys = _Keys(self, corpus)
        return corpus, keys.truth, keys.mixed_round(index, sizes.bm_per_kind)

    def setup(self) -> None:
        # What this workload sets up is its first round's inputs.
        self.next_inputs = self._inputs(0)

    def round(self, index: int, variant: str) -> Round:
        out = Round()
        corpus, truth, plan = self.next_inputs or self._inputs(index)
        self.next_inputs = None
        store = self.wrap(data.new_store())
        lake, client = data.create_lake(store, self.COLUMNS)
        io_start = store.stats.snapshot()
        walls = {"index": 0.0, "compact": 0.0}
        with MaintenancePipeline(client, workers=2) as pipe:
            for i, columns in enumerate(corpus.files):
                self.guarded(out, "append", lambda: lake.append(columns))
                store.clock.advance(1.0)
                if (i + 1) % 2:
                    continue
                for column in self.COLUMNS:
                    index_type, params = data.INDEX_SPECS[column]
                    _, wall = self.guarded(
                        out,
                        "index",
                        lambda: pipe.index(column, index_type, params=params),
                    )
                    walls["index"] += wall
            for column in self.COLUMNS:
                index_type, _ = data.INDEX_SPECS[column]
                _, wall = self.guarded(
                    out, "compact", lambda: pipe.compact(column, index_type)
                )
                walls["compact"] += wall
            store.clock.advance(client.index_timeout_s + 1.0)
            _, vacuum_wall = self.guarded(
                out,
                "vacuum",
                lambda: pipe.vacuum(snapshot_id=lake.latest_version()),
            )
        report, _ = self.guarded(out, "fsck", lambda: fsck(client))
        if report is not None and not (
            report.invariants_hold
            and not report.orphan_index_files
            and not report.stale_records
        ):
            print(f"[{self.name}] fsck not clean:\n{report.describe()}", file=sys.stderr)
            out.failed += 1
        io = store.stats.snapshot().delta(io_start)

        truth.bind(lake.snapshot().file_paths)
        self.run_queries(
            out, lambda p: client.search(p.column, p.query, k=K), plan, truth
        )

        raw = sum(corpus.raw_bytes(c) for c in self.COLUMNS)
        out.index_sizes = data.index_sizes(client)
        extra = out.extra
        extra.update(
            user_bytes=raw,
            index_s=walls["index"],
            compact_s=walls["compact"],
            vacuum_ms=vacuum_wall * 1000.0,
            bytes_put=io.bytes_written,
        )
        for column in self.COLUMNS:
            index_type, _ = data.INDEX_SPECS[column]
            extra[f"built_bytes.{index_type}"] = corpus.raw_bytes(column)
            extra[f"merged_bytes.{index_type}"] = corpus.raw_bytes(column)
        return self.close_round(out)


class IngestMixed(Workload):
    name = "ingest_mixed"
    COLUMNS = ("uuid", "text")
    FRESH_SEARCHES = 3
    OLD_SEARCHES = 2
    DRAIN_EVERY = 10
    INDEX_EVERY = 20

    def setup(self) -> None:
        sizes = self.sizes
        corpus = data.generate_corpus(
            self.gen, self.COLUMNS, sizes.im_seed_files, sizes.im_seed_rows
        )
        self.base = data.new_store()
        lake, client = data.create_lake(self.base, self.COLUMNS)
        for columns in corpus.files:
            lake.append(columns)
            self.base.clock.advance(1.0)
        client.index("uuid", "uuid_trie")
        corpus.paths = list(lake.snapshot().file_paths)
        self.keys = _Keys(self, corpus)
        self.last = None

    def _inputs(self, index: int):
        """This round's batches and, per step, its five searches. Every
        round ingests new rows into a clone of the pre-seeded lake."""
        sizes = self.sizes
        batches = [
            self.gen.file(self.COLUMNS, sizes.im_batch, avg_chars=sizes.im_avg_chars)
            for _ in range(sizes.im_steps)
        ]
        rng = self.rng(6, index)
        plan = []
        for batch in batches:
            picks = rng.choice(sizes.im_batch, size=self.FRESH_SEARCHES, replace=False)
            fresh = [oracle.present_uuid(batch["uuid"][int(i)]) for i in picks]
            old = [self.keys.present_uuid() for _ in range(self.OLD_SEARCHES)]
            plan.append(fresh + old)
        return batches, plan

    def round(self, index: int, variant: str) -> Round:
        # Drop the previous round's tiers first: every round must start
        # from the same heap, or the collector's work grows with uptime.
        self.last = None
        out = Round()
        batches, plan = self._inputs(index)
        store = self.wrap(self.base.clone())
        lake = LakeTable.open(store, data.LAKE_ROOT)
        client = RottnestClient(
            store, data.INDEX_DIR, lake, key_entropy=data.counter_entropy()
        )
        tier = IngestTier(store, INGEST_ROOT, lake)
        client.fresh_tier = tier
        drainer = IngestDrainer(tier)
        search = lambda p: client.search(p.column, p.query, k=K)
        io_start = store.stats.snapshot()
        ack_walls = []
        drained_rows = wal_bytes = 0
        for step, batch in enumerate(batches, start=1):
            wal_before = store.stats.bytes_written
            _, wall = self.guarded(out, "ack", lambda: tier.ingest(batch))
            wal_bytes += store.stats.bytes_written - wal_before
            ack_walls.append(wall)
            store.clock.advance(1.0)
            self.run_queries(out, search, plan[step - 1], self.keys.truth)
            if step % self.DRAIN_EVERY == 0:
                report, _ = self.guarded(out, "drain", drainer.drain)
                drained_rows += report.rows if report is not None else 0
            if step % self.INDEX_EVERY == 0:
                self.guarded(out, "index", lambda: client.index("uuid", "uuid_trie"))
        pending_rows = tier.pending_rows()
        recovered, recover_wall = self.guarded(
            out, "recover", lambda: IngestTier(store, INGEST_ROOT, lake)
        )
        io = store.stats.snapshot().delta(io_start)
        out.index_sizes = data.index_sizes(client)
        indexed_batches = len(batches) // self.INDEX_EVERY * self.INDEX_EVERY
        out.extra.update(
            **{"built_bytes.uuid_trie": indexed_batches * self.sizes.im_batch * data.UUID_BYTES},
            ack_walls=ack_walls,
            rows_acked=len(batches) * self.sizes.im_batch,
            wal_bytes=wal_bytes,
            user_bytes=sum(len(v) for b in batches for col in b.values() for v in col),
            drained_rows=drained_rows,
            recover_s=recover_wall,
            recover_rows=pending_rows,
            bytes_put=io.bytes_written,
        )
        self.last = (store, recovered, batches)
        return self.close_round(out)

    def finish(self) -> tuple[int, int]:
        """Durability: a tier recovered from the store alone must serve
        every acked key — all keys of the undrained batches (what replay
        rebuilds) plus two keys of every drained batch."""
        store, recovered, batches = self.last
        if recovered is None:
            return 1, 1
        lake = LakeTable.open(store, data.LAKE_ROOT)
        client = RottnestClient(store, data.INDEX_DIR, lake)
        client.fresh_tier = recovered
        drained = len(batches) // self.DRAIN_EVERY * self.DRAIN_EVERY
        keys = [k for batch in batches[drained:] for k in batch["uuid"]]
        keys += [k for batch in batches[:drained] for k in batch["uuid"][:2]]
        check = Round()
        self.run_queries(
            check,
            lambda p: client.search(p.column, p.query, k=K),
            [oracle.present_uuid(key) for key in keys],
            self.keys.truth,
        )
        return check.attempted, check.failed


WORKLOADS = {
    w.name: w for w in (ColdSearch, HotServe, BuildMaintain, IngestMixed)
}
