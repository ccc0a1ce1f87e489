"""Exhaustive crash-point matrix for one maintenance operation.

Where the fuzzer (:mod:`repro.chaos.fuzzer`) samples crash points
randomly across a long interleaved history, the matrix is the
systematic instrument: given a starting lake state and one operation
(``index``, ``compact``, or ``vacuum``), it

1. runs the operation cleanly on a clone of the state and counts its
   mutations (PUTs + DELETEs) — that count *is* the crash surface;
2. replays the operation on a fresh clone once per mutation boundary,
   crashing the client right after the Nth mutation;
3. after each crash, audits the Existence/Consistency invariants from
   an un-faulted client;
4. re-runs the operation from a fresh client ("recovery") and audits
   again;
5. optionally compares the recovered state against the uninterrupted
   reference — byte-for-byte for deterministic operations (compact,
   vacuum), or by logical index coverage for salted ones (index).

The resumability acceptance criterion — *every injected crash point in
compact/vacuum is recoverable by a fresh client* — is literally
``crash_matrix(...).all_recoverable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chaos.points import classify_crash_point
from repro.core.client import RottnestClient
from repro.core.fsck import InvariantChecker
from repro.errors import ReproError, SimulatedCrash
from repro.lake.log import HINT_NAME
from repro.meta.metadata_table import META_LOG
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore, ObjectStore

#: How recovered state is compared against the uninterrupted reference.
COMPARE_MODES = ("bytes", "coverage", "none")


@dataclass
class CrashOutcome:
    """What happened when the client died after one specific mutation."""

    mutation_index: int
    crash_point: str
    invariants_ok: bool  # audit right after the crash
    recovered: bool  # the fresh client's re-run completed
    recovery_invariants_ok: bool  # audit after recovery
    state_matches_reference: bool | None  # None when compare="none"
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Fully survivable: invariants held throughout, recovery
        converged (and matched the reference when one was compared)."""
        return (
            self.invariants_ok
            and self.recovered
            and self.recovery_invariants_ok
            and self.state_matches_reference is not False
        )


@dataclass
class CrashMatrix:
    """All outcomes of crashing one operation at every boundary."""

    verb: str
    mutations: int
    outcomes: list[CrashOutcome]

    @property
    def all_recoverable(self) -> bool:
        """Whether every enumerated crash point was fully survivable."""
        return all(outcome.ok for outcome in self.outcomes)

    def crash_points(self) -> set[str]:
        """The distinct canonical crash points this matrix reached."""
        return {outcome.crash_point for outcome in self.outcomes}

    def describe(self) -> str:
        """One table row per crash boundary, worst news first."""
        lines = [
            f"crash matrix for {self.verb!r}: {self.mutations} mutation "
            f"boundary(ies), "
            + ("all recoverable" if self.all_recoverable else "FAILURES")
        ]
        for o in self.outcomes:
            status = "ok" if o.ok else "FAIL"
            match = (
                ""
                if o.state_matches_reference is None
                else (" state=ref" if o.state_matches_reference else " state!=ref")
            )
            lines.append(
                f"  [{status}] after mutation {o.mutation_index}: "
                f"{o.crash_point}  invariants={o.invariants_ok} "
                f"recovered={o.recovered}{match}"
                + (f"  ({o.detail})" if o.detail else "")
            )
        return "\n".join(lines)


def _logical_state(store: InMemoryObjectStore) -> dict[str, bytes]:
    """Bucket contents minus metadata checkpoints and log hints.

    Both are pure read optimizations (readers replay the log tail, or
    LIST for the tip, and see identical state), and a
    crashed-then-recovered history may legitimately skip one: if the
    crash lands between a commit and its checkpoint or hint, the
    recovery re-run no-ops and never rewrites them. The
    "byte-identical convergence" contract is therefore over everything
    *except* ``{index_dir}/_meta_checkpoints/`` and each log's hint.
    """
    return {
        key: data
        for key, data in store.dump().items()
        if f"/{META_LOG.checkpoint_dir}/" not in key
        and not key.endswith(f"/{HINT_NAME}")
    }


def _coverage(client: RottnestClient) -> set[tuple[str, str, frozenset]]:
    """Logical index coverage: what is indexed, ignoring object keys."""
    return {
        (r.column, r.index_type, frozenset(r.covered_files))
        for r in client.meta.records()
    }


def crash_matrix(
    base: InMemoryObjectStore,
    make_client: Callable[[ObjectStore], RottnestClient],
    verb: str,
    operation: Callable[[RottnestClient], object],
    *,
    recover: Callable[[RottnestClient], object] | None = None,
    compare: str = "bytes",
    verify_consistency: bool = True,
) -> CrashMatrix:
    """Crash ``operation`` after every mutation and audit each wreck.

    ``base`` is the starting state; it is never modified (every run
    happens on a :meth:`~InMemoryObjectStore.clone`). ``make_client``
    builds the protocol client over whatever store the harness hands
    it — pass a factory that sets any non-default knobs (checkpoint
    interval, timeouts). ``recover`` defaults to re-running
    ``operation`` itself, which is the whole point: recovery must
    never need a special repair tool, just a fresh client doing the
    same job.
    """
    if compare not in COMPARE_MODES:
        raise ReproError(f"compare must be one of {COMPARE_MODES}, got {compare!r}")
    recover = recover or operation

    # Uninterrupted reference run: defines the crash surface and the
    # state every crashed-then-recovered history must converge to.
    ref_store = base.clone()
    before = ref_store.stats.snapshot()
    operation(make_client(ref_store))
    delta = ref_store.stats.snapshot().delta(before)
    mutations = delta.puts + delta.deletes
    ref_state = _logical_state(ref_store)
    ref_cover = _coverage(make_client(ref_store))

    outcomes: list[CrashOutcome] = []
    for n in range(mutations):
        store = base.clone()
        faulty = FaultyObjectStore(store)
        faulty.crash_after("MUTATE", countdown=n)
        crash: SimulatedCrash | None = None
        try:
            operation(make_client(faulty))
        except SimulatedCrash as exc:
            crash = exc
        if crash is None:
            # The clean run counted a mutation this replay never made:
            # the operation is nondeterministic in a way the harness
            # cannot enumerate. Surface it loudly.
            raise ReproError(
                f"{verb}: replay with crash countdown {n} completed "
                f"without crashing ({mutations} mutations expected)"
            )
        point = classify_crash_point(verb, crash.op, crash.key)

        checker = InvariantChecker(
            make_client(store), verify_consistency=verify_consistency
        )
        invariants_ok = checker.check().invariants_hold

        recovered = True
        detail = ""
        try:
            recover(make_client(store))
        except ReproError as exc:
            recovered = False
            detail = f"recovery failed: {exc}"
        recovery_ok = checker.check().invariants_hold

        if compare == "bytes":
            matches = _logical_state(store) == ref_state
        elif compare == "coverage":
            matches = _coverage(make_client(store)) == ref_cover
        else:
            matches = None
        outcomes.append(
            CrashOutcome(
                mutation_index=n,
                crash_point=point,
                invariants_ok=invariants_ok,
                recovered=recovered,
                recovery_invariants_ok=recovery_ok,
                state_matches_reference=matches,
                detail=detail,
            )
        )
    return CrashMatrix(verb=verb, mutations=mutations, outcomes=outcomes)
