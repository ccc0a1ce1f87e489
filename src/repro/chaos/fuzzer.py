"""Randomized crash-fault fuzzer for the whole maintenance protocol.

One :class:`ProtocolFuzzer` run is a seeded, fully deterministic
history: simulated clients interleave ``append`` / ``ingest`` /
``index`` / ``search`` / ``compact`` / ``vacuum`` / ``drain`` against
one in-memory lake (plus its real-time ingest tier), and
with configurable probability each mutating operation's client is
killed right after one of its object-store mutations
(:class:`~repro.errors.SimulatedCrash`). After every crash the
Existence/Consistency invariants are audited from a fresh client, the
crash point is classified against the documented registry
(:data:`~repro.chaos.points.CRASH_POINTS`), and — sometimes — a fresh
client re-runs the interrupted operation to prove recovery needs no
special tooling.

Searches are checked against an in-memory oracle of every row ever
appended, so index corruption shows up as a wrong answer, not just a
broken invariant. Between steps, either log's hint may be dropped,
made stale or ahead of the log (with a made-up tail), garbled,
regressed as by a racing writer, or given a truncated, garbage or
foreign tail; each time, both logs' tips read through the hints must
equal a full replay of the listed tip, the invariants must hold and a
search must match the oracle. A :class:`~repro.serve.server.SearchServer` is also
exercised with injected index-read faults to cover the brute-force
degradation path.

Everything random flows from one ``random.Random(seed)`` (including
index-key salt, via the client's ``key_entropy`` hook), the lake's
data-file and deletion-vector nonces from a second stream of the same
seed (:func:`~repro.lake.table.seeded_entropy`), and time is a
:class:`~repro.util.clock.SimClock`, so a failing run is replayable
bit-for-bit from the seed the report prints, down to the store's keys
and bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chaos.points import CRASH_POINTS, classify_crash_point
from repro.core.client import RottnestClient
from repro.core.fsck import InvariantChecker
from repro.core.maintenance import compact_indices, vacuum_indices
from repro.core.queries import SubstringQuery, UuidQuery
from repro.errors import IndexAborted, SimulatedCrash
from repro.formats.schema import ColumnType, Field, Schema
from repro.ingest import IngestDrainer, IngestTier
from repro.lake.table import LakeTable, TableConfig, seeded_entropy
from repro.maintain.pipeline import MaintenancePipeline
from repro.obs.export import render_timeline
from repro.obs.trace import Tracer, use_tracer
from repro.serve.server import SearchServer
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

LAKE_ROOT = "lake/chaos"
INDEX_DIR = "idx/chaos"
INGEST_ROOT = "ingest/chaos"

#: Fixed word list for synthetic documents; small enough that substring
#: probes hit often, large enough that they do not hit everything.
VOCAB = tuple(f"w{i:03d}" for i in range(80))

#: How a step may leave a log's hint, and how often one does.
HINT_PERTURBATIONS = (
    "drop",
    "stale",
    "ahead",
    "garbage",
    "regress",
    "truncated-tail",
    "garbage-tail",
    "foreign-tail",
)
HINT_PERTURBATION_PROBABILITY = 0.3

#: (column, index type, build params) pairs the fuzzer builds/compacts.
INDEXABLE = (
    ("uuid", "uuid_trie", None),
    ("text", "fm", {"block_size": 2048, "sample_rate": 8}),
)


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one fuzzer run. Identical config + seed => identical run."""

    ops: int = 200
    seed: int = 0
    clients: int = 3
    crash_probability: float = 0.6  # P(arm a crash for a maintenance op)
    recover_probability: float = 0.7  # P(fresh client re-runs after crash)
    max_rows: int = 4000  # stop appending past this many oracle rows
    verify_consistency: bool = True  # full page-table audit each check


@dataclass
class ChaosViolation:
    """One observed protocol failure, with everything needed to debug it."""

    step: int
    action: str
    crash_point: str | None
    detail: str
    timeline: str  # repro.obs span timeline of the doomed operation

    def describe(self) -> str:
        """Human-readable block for the failure report."""
        head = f"step {self.step} [{self.action}]"
        if self.crash_point:
            head += f" crash point {self.crash_point}"
        return f"{head}\n{self.detail}\n-- span timeline --\n{self.timeline}"


@dataclass
class ChaosReport:
    """Outcome of one fuzzer run."""

    config: ChaosConfig
    steps: int = 0
    actions: dict = field(default_factory=dict)  # action -> count
    crashes: dict = field(default_factory=dict)  # crash point -> count
    hints: dict = field(default_factory=dict)  # hint perturbation -> count
    recoveries: int = 0
    searches_checked: int = 0
    degraded_queries: int = 0
    final_invariants_ok: bool = True
    violations: list[ChaosViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Run survived: no violations and the final audit passed."""
        return not self.violations and self.final_invariants_ok

    def replay_command(self) -> str:
        """CLI line that reproduces this run bit-for-bit."""
        c = self.config
        return (
            f"repro chaos --ops {c.ops} --seed {c.seed} "
            f"--clients {c.clients} --crash-probability {c.crash_probability}"
        )

    def describe(self) -> str:
        """Full run report: coverage, crash mix, and any failures."""
        lines = [
            f"chaos run: {self.steps} step(s), seed {self.config.seed} -> "
            + ("OK" if self.ok else "FAILED"),
            "actions:   "
            + ", ".join(f"{a}={n}" for a, n in sorted(self.actions.items())),
            f"searches checked against oracle: {self.searches_checked} "
            f"({self.degraded_queries} served degraded)",
            f"crashes injected: {sum(self.crashes.values())} "
            f"({self.recoveries} recovered by a fresh client)",
            "hints perturbed: "
            + (", ".join(f"{k}={n}" for k, n in sorted(self.hints.items())) or "none"),
        ]
        for point in sorted(self.crashes):
            marker = "" if point in CRASH_POINTS else "  <-- UNDOCUMENTED"
            lines.append(f"  {self.crashes[point]:4d} x {point}{marker}")
        unhit = sorted(set(CRASH_POINTS) - set(self.crashes))
        if unhit:
            lines.append(
                "crash points not reached this run: " + ", ".join(unhit)
            )
        if not self.final_invariants_ok:
            lines.append("FINAL INVARIANT AUDIT FAILED")
        for violation in self.violations:
            lines.append("")
            lines.append("VIOLATION: " + violation.describe())
        if not self.ok:
            lines.append("")
            lines.append(f"replay with: {self.replay_command()}")
        return "\n".join(lines)


class ProtocolFuzzer:
    """Drives one seeded chaos run; see the module docstring."""

    def __init__(self, config: ChaosConfig | None = None) -> None:
        self.config = config or ChaosConfig()
        self.rng = random.Random(self.config.seed)
        # Its own stream, so perturbing hints leaves the history the
        # seed picks unchanged.
        self.hint_rng = random.Random(f"{self.config.seed}:hints")
        self.clock = SimClock(start=1_000_000.0)
        self.store = InMemoryObjectStore(clock=self.clock)
        self.tracer = Tracer(clock=self.clock)
        schema = Schema.of(
            Field("uuid", ColumnType.BINARY), Field("text", ColumnType.STRING)
        )
        self.lake = LakeTable.create(
            self.store,
            LAKE_ROOT,
            schema,
            TableConfig(row_group_rows=128, page_target_bytes=1024),
            # A stream of its own: ``self.rng``'s draws stay as they are.
            entropy=seeded_entropy(self.config.seed),
        )
        # Each simulated client gets its own fault-injection layer, so
        # killing one never perturbs another's view of the store.
        self.clients = [
            self._client(FaultyObjectStore(self.store))
            for _ in range(max(1, self.config.clients))
        ]
        self.server_store = FaultyObjectStore(self.store)
        self.server = SearchServer(
            self._client(self.server_store), max_searchers=2, max_inflight=2
        )
        # One canonical fresh tier over the plain store, shared by every
        # client and the server: rows acked by ``ingest`` are searchable
        # from any of them before a single index run. Crashing writers
        # get their own faulty-store *view* of the same WAL; afterwards
        # the canonical tier resyncs from durable state via recover().
        self.tier = IngestTier(self.store, INGEST_ROOT, self.lake)
        for client in self.clients:
            client.fresh_tier = self.tier
        self.server.client.fresh_tier = self.tier
        self.rows: list[tuple[bytes, str]] = []  # the search oracle
        self.report = ChaosReport(config=self.config)

    # -- construction helpers ------------------------------------------
    def _client(self, store) -> RottnestClient:
        """A protocol client whose key salt comes from the run's RNG."""
        return RottnestClient(
            store,
            INDEX_DIR,
            self.lake,
            key_entropy=lambda: self.rng.getrandbits(32).to_bytes(4, "big"),
        )

    def _fresh_client(self) -> RottnestClient:
        """A brand-new, fault-free client — the 'recovery process'."""
        return self._client(self.store)

    def _checker(self) -> InvariantChecker:
        return InvariantChecker(
            self._fresh_client(),
            verify_consistency=self.config.verify_consistency,
        )

    # -- run loop -------------------------------------------------------
    def run(self) -> ChaosReport:
        """Execute the configured number of steps and return the report.

        Stops at the first violation (the report then carries a replay
        command and the doomed operation's span timeline).
        """
        try:
            with use_tracer(self.tracer):
                for step in range(self.config.ops):
                    self.report.steps = step + 1
                    action = self._pick_action()
                    self.report.actions[action] = (
                        self.report.actions.get(action, 0) + 1
                    )
                    self._dispatch(action, step)
                    if not self.report.violations:
                        self._perturb_hint(step)
                    if self.report.violations:
                        break
                final = self._checker().check()
                self.report.final_invariants_ok = final.invariants_hold
                if not final.invariants_hold:
                    self._violate(
                        self.report.steps,
                        "final-audit",
                        None,
                        "invariants violated at end of run:\n"
                        + final.describe(),
                        timeline="(no single operation to blame)",
                    )
        finally:
            self.report.degraded_queries = self.server.stats.degraded
            self.server.close()
        return self.report

    def _pick_action(self) -> str:
        choices: list[str] = ["advance"]
        if len(self.rows) < self.config.max_rows:
            choices += ["append"] * 3 + ["ingest"] * 3
        if self.rows:
            choices += (
                ["index"] * 3 + ["compact"] * 2 + ["vacuum"] * 2
                + ["search"] * 4
            )
            if self._indexed():
                choices += ["degraded"]
        if self.tier.pending_seqs():
            choices += ["drain"] * 2
        return self.rng.choice(choices)

    def _indexed(self) -> bool:
        return bool(self._fresh_client().meta.records())

    def _dispatch(self, action: str, step: int) -> None:
        if action == "append":
            self._append()
        elif action == "advance":
            self.clock.advance(self.rng.choice([1.0, 30.0, 3600.0, 7200.0]))
        elif action == "index":
            column, index_type, params = self.rng.choice(INDEXABLE)
            self._maintenance(
                step,
                "index",
                lambda c: c.index(column, index_type, params=params),
            )
        elif action == "compact":
            column, index_type, _ = self.rng.choice(INDEXABLE)
            self._maintenance(
                step,
                "compact",
                lambda c: compact_indices(c, column, index_type),
            )
        elif action == "vacuum":
            snapshot_id = self.lake.latest_version()
            self._maintenance(
                step,
                "vacuum",
                lambda c: vacuum_indices(c, snapshot_id=snapshot_id),
            )
        elif action == "ingest":
            self._ingest(step)
        elif action == "drain":
            self._drain(step)
        elif action == "search":
            client = self.rng.choice(self.clients)
            self._check_search(
                step,
                "search",
                lambda col, q, k: client.search(col, q, k=k),
            )
        elif action == "degraded":
            self._degraded_search(step)

    # -- actions --------------------------------------------------------
    def _append(self) -> None:
        n = self.rng.randint(20, 60)
        uuids = [
            self.rng.getrandbits(128).to_bytes(16, "big") for _ in range(n)
        ]
        texts = [
            " ".join(
                self.rng.choice(VOCAB)
                for _ in range(self.rng.randint(4, 9))
            )
            for _ in range(n)
        ]
        self.lake.append({"uuid": uuids, "text": texts})
        self.rows.extend(zip(uuids, texts))

    def _ingest_view(self, store) -> IngestTier:
        """A tier over ``store`` sharing the canonical WAL and lake."""
        lake = LakeTable.open(store, LAKE_ROOT, self.lake.config)
        lake.entropy = self.lake.entropy  # drained files' names too
        return IngestTier(store, INGEST_ROOT, lake)

    def _batch(self) -> tuple[list[bytes], list[str]]:
        n = self.rng.randint(5, 25)
        uuids = [
            self.rng.getrandbits(128).to_bytes(16, "big") for _ in range(n)
        ]
        texts = [
            " ".join(
                self.rng.choice(VOCAB)
                for _ in range(self.rng.randint(4, 9))
            )
            for _ in range(n)
        ]
        return uuids, texts

    def _ingest(self, step: int) -> None:
        """One real-time batch, possibly killing the writer at its PUT.

        The WAL frame PUT is the durability point *and* the only
        mutation ``ingest`` makes, so a crashed writer still leaves the
        rows durable — they go into the oracle either way, and the
        canonical tier resyncs from the WAL exactly as a restarted
        process would.
        """
        uuids, texts = self._batch()
        columns = {"uuid": uuids, "text": texts}
        if self.rng.random() < self.config.crash_probability:
            faulty = FaultyObjectStore(self.store)
            view = self._ingest_view(faulty)
            faulty.crash_after("MUTATE", countdown=0)
            try:
                view.ingest(columns)
            except SimulatedCrash as exc:
                self._after_crash(
                    step, "ingest", exc, lambda client: self.tier.recover()
                )
            finally:
                faulty.clear_rules()
                self.tier.recover()
        else:
            self.tier.ingest(columns)
        self.rows.extend(zip(uuids, texts))

    def _drain(self, step: int) -> None:
        """Drain the fresh tier to the lake, possibly crashing mid-way.

        Recovery is just a fresh fault-free drain — the handoff is
        idempotent at every boundary — and the canonical tier resyncs
        afterwards so reads reflect whatever the crash left durable.
        """
        specs = []
        if self.rng.random() < 0.5:
            specs = [self.rng.choice(INDEXABLE)]
        crash = self.rng.random() < self.config.crash_probability
        store = FaultyObjectStore(self.store) if crash else self.store
        tier = self._ingest_view(store)
        if crash:
            countdown = (
                self.rng.randint(0, 3)
                if self.rng.random() < 0.8
                else self.rng.randint(4, 12)
            )
            store.crash_after("MUTATE", countdown=countdown)
        try:
            self._drain_once(store, tier, specs)
        except IndexAborted:
            pass  # index stage had too little data; drain re-runs later
        except SimulatedCrash as exc:
            self._after_crash(
                step,
                "drain",
                exc,
                lambda client: self._recover_drain(specs),
            )
        finally:
            if crash:
                store.clear_rules()
            self.tier.recover()

    def _drain_once(self, store, tier: IngestTier, specs) -> None:
        with MaintenancePipeline(self._client(store), workers=1) as pipeline:
            IngestDrainer(tier, pipeline=pipeline, index_specs=specs).drain()

    def _recover_drain(self, specs) -> None:
        try:
            self._drain_once(self.store, self._ingest_view(self.store), specs)
        except IndexAborted:
            pass

    def _maintenance(self, step: int, verb: str, fn) -> None:
        """Run one maintenance op, possibly killing its client mid-way."""
        client = self.rng.choice(self.clients)
        if self.rng.random() < self.config.crash_probability:
            # Arm a crash after the Nth mutation; if the op makes fewer,
            # the rule is disarmed in the finally below. Most protocol
            # ops make only 2-4 mutations, so bias the countdown low
            # (but keep a tail that reaches deep into vacuum's
            # physical-deletion loop).
            countdown = (
                self.rng.randint(0, 3)
                if self.rng.random() < 0.8
                else self.rng.randint(4, 12)
            )
            client.store.crash_after("MUTATE", countdown=countdown)
        try:
            fn(client)
        except IndexAborted:
            pass  # legitimate protocol outcome (timeout / too little data)
        except SimulatedCrash as exc:
            self._after_crash(step, verb, exc, fn)
        finally:
            client.store.clear_rules()

    def _after_crash(self, step: int, verb: str, exc: SimulatedCrash, fn) -> None:
        point = classify_crash_point(verb, exc.op, exc.key)
        self.report.crashes[point] = self.report.crashes.get(point, 0) + 1
        root = self.tracer.last_root()
        timeline = render_timeline(root) if root else "(no span recorded)"
        if point not in CRASH_POINTS:
            self._violate(
                step,
                verb,
                point,
                f"crash at a mutation boundary missing from the documented "
                f"registry: {exc}",
                timeline,
            )
            return
        audit = self._checker().check()
        if not audit.invariants_hold:
            self._violate(
                step, verb, point,
                "invariants violated right after crash:\n" + audit.describe(),
                timeline,
            )
            return
        if self.rng.random() < self.config.recover_probability:
            try:
                fn(self._fresh_client())
            except IndexAborted:
                pass
            self.report.recoveries += 1
            audit = self._checker().check()
            if not audit.invariants_hold:
                self._violate(
                    step, verb, point,
                    "invariants violated after fresh-client recovery:\n"
                    + audit.describe(),
                    timeline,
                )

    # -- hints ---------------------------------------------------------
    def _perturb_hint(self, step: int) -> None:
        """Maybe leave one log's hint wrong, then check that nothing a
        reader sees depends on it."""
        rng = self.hint_rng
        if rng.random() >= HINT_PERTURBATION_PROBABILITY:
            return
        logs = [self.lake.log, self._fresh_client().meta.log]
        log = rng.choice(logs)
        latest, checkpoints = log.versions()
        kind = rng.choice(HINT_PERTURBATIONS)

        def hint_at(version: int) -> tuple[int, int, list[bytes]]:
            """The hint a commit of ``version`` wrote."""
            checkpoint = max((c for c in checkpoints if c <= version), default=-1)
            tail = [log.entry_bytes(v) for v in range(checkpoint + 1, version + 1)]
            return version, checkpoint, tail

        if kind == "drop":
            self.store.delete(log.hint_key)
        elif kind == "garbage":
            self.store.put(log.hint_key, rng.randbytes(rng.randint(0, 12)))
        elif latest < 0:
            return
        elif kind == "stale":
            log.write_hint(*hint_at(max(0, latest - rng.randint(1, 3))))
        elif kind == "ahead":  # the tip's entry again, as made-up entries
            version, checkpoint, tail = hint_at(latest)
            ahead = rng.randint(1, 3)
            made_up = [log.entry_bytes(latest)] * ahead
            log.write_hint(latest + ahead, checkpoint, tail + made_up)
        elif kind == "regress":  # a racing writer's older hint landed last
            log.write_hint(*hint_at(rng.randint(0, latest)))
        elif kind == "garbage-tail":
            garbage = rng.randbytes(rng.randint(0, 12))
            self.store.put(
                log.hint_key,
                b'{"version": %d, "checkpoint": %d, "tail": %s}'
                % (*hint_at(latest)[:2], garbage),
            )
        else:  # the tip's hint, its tail cut short or the other log's
            version, checkpoint, tail = hint_at(latest)
            other = logs[log is logs[0]]
            other_latest = other.versions()[0]
            if not tail or other_latest < 0:
                return  # no tail to spoil, or no other log to take one from
            if kind == "truncated-tail":
                tail = tail[: -rng.randint(1, len(tail))]
            else:
                tail = [other.entry_bytes(min(v, other_latest)) for v in range(len(tail))]
            log.write_hint(version, checkpoint, tail)
        self.report.hints[kind] = self.report.hints.get(kind, 0) + 1
        action = f"hint-{kind}"
        for tip_log in (self.lake.log, self._fresh_client().meta.log):
            latest = tip_log.versions()[0]
            if latest < 0:
                continue
            replayed = tip_log.fmt.fold(
                latest, [tip_log.read_version(v) for v in range(latest + 1)], None
            )
            if tip_log.state() != replayed:
                self._violate(
                    step, action, None,
                    f"{tip_log.root!r}: state read through the hint differs "
                    f"from a full replay of listed version {latest}",
                    "(no single operation to blame)",
                )
                return
        audit = self._checker().check()
        if not audit.invariants_hold:
            self._violate(
                step, action, None,
                "invariants violated after a hint perturbation:\n"
                + audit.describe(),
                "(no single operation to blame)",
            )
            return
        if self.rows:
            client = rng.choice(self.clients)  # they read the fresh tier too
            self._check_search(
                step, action, lambda col, q, k: client.search(col, q, k=k), rng=rng
            )

    # -- search oracle --------------------------------------------------
    def _check_search(self, step: int, action: str, run_query, *, rng=None) -> None:
        """Pick a query with a known exact answer and verify it."""
        rng = rng or self.rng
        kind = rng.choice(["uuid-hit", "uuid-miss", "substring"])
        if kind == "uuid-hit":
            uuid, _ = rng.choice(self.rows)
            expected = sum(1 for u, _ in self.rows if u == uuid)
            result = run_query("uuid", UuidQuery(uuid), expected + 1)
            got = len(result.matches)
            bad_value = any(bytes(m.value) != uuid for m in result.matches)
        elif kind == "uuid-miss":
            uuid = rng.getrandbits(128).to_bytes(16, "big")
            expected = sum(1 for u, _ in self.rows if u == uuid)  # ~always 0
            result = run_query("uuid", UuidQuery(uuid), expected + 1)
            got = len(result.matches)
            bad_value = False
        else:
            _, text = rng.choice(self.rows)
            start = rng.randrange(max(1, len(text) - 6))
            needle = text[start : start + 6]
            expected = sum(1 for _, t in self.rows if needle in t)
            result = run_query("text", SubstringQuery(needle), expected + 1)
            got = len(result.matches)
            bad_value = any(needle not in m.value for m in result.matches)
        self.report.searches_checked += 1
        if got != expected or bad_value:
            root = self.tracer.last_root()
            self._violate(
                step,
                action,
                None,
                f"{kind} query returned {got} match(es), oracle expected "
                f"{expected}"
                + ("; a returned value failed the predicate" if bad_value else ""),
                render_timeline(root) if root else "(no span recorded)",
            )

    def _degraded_search(self, step: int) -> None:
        """Serve a checked query while an index read fails under it."""
        self.server_store.fail_next("GET", ".index")
        try:
            self._check_search(
                step,
                "degraded",
                lambda col, q, k: self.server.query(col, q, k=k),
            )
        finally:
            self.server_store.clear_rules()

    # -- reporting ------------------------------------------------------
    def _violate(
        self,
        step: int,
        action: str,
        crash_point: str | None,
        detail: str,
        timeline: str,
    ) -> None:
        self.report.violations.append(
            ChaosViolation(
                step=step,
                action=action,
                crash_point=crash_point,
                detail=detail,
                timeline=timeline,
            )
        )


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Build a :class:`ProtocolFuzzer` and run it once."""
    return ProtocolFuzzer(config).run()
