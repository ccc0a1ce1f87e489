"""Fault and crash injection for the protocol chaos suite.

Wraps any :class:`~repro.storage.object_store.ObjectStore` and fires a
programmable trigger on a matching operation. Two trigger modes model
the two failure families the Rottnest protocol (paper §IV-D) must
survive, and a third the read path must:

* ``"fault"`` — raise :class:`~repro.errors.InjectedFault` *before*
  the operation reaches the inner store. Models an infrastructure
  failure (request lost, 500, network partition): the operation has no
  effect, matching S3's atomic-PUT semantics.
* ``"crash_after"`` — let the operation complete against the inner
  store, then raise :class:`~repro.errors.SimulatedCrash`. Models the
  client process dying between protocol steps: the mutation is durable,
  everything the client would have done next never happens.
* ``"corrupt"`` — let a GET complete, then flip one bit of its payload,
  chosen by the rule's ``seed``. Models bit rot, or a torn read, that
  the store itself does not detect: a reader must answer as if the
  bytes were intact or raise :class:`~repro.errors.FormatError`, never
  answer wrong.

``crash_after`` on the Nth matching PUT/DELETE is the primitive the
:mod:`repro.chaos` harness uses to kill maintenance runs at every
mutation boundary and then audit the Existence/Consistency invariants.
Rules fire deterministically (an explicit countdown, one-shot), so a
crash schedule is fully reproducible from a fuzzer seed.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import InjectedFault, SimulatedCrash
from repro.obs.trace import get_tracer
from repro.storage.object_store import ObjectInfo, ObjectStore

#: Pseudo-operation matching any store mutation (PUT or DELETE) — the
#: operations that move protocol state and therefore the only crash
#: boundaries worth enumerating.
MUTATION_OPS = ("PUT", "DELETE")


@dataclass
class FaultRule:
    """Fires on the ``countdown``-th matching operation (0 = next one).

    ``op`` names one operation (``"PUT"``, ``"GET"``, ``"DELETE"``,
    ``"LIST"``, ``"HEAD"``), ``"*"`` for any, or ``"MUTATE"`` for any
    mutation (PUT or DELETE). Matching is case-insensitive: callers
    historically passed mixed case (``"put"``, ``"Delete"``) and a rule
    that silently never fires is the worst kind of test bug.

    ``mode`` selects what firing does: ``"fault"`` raises before the
    inner operation runs, ``"crash_after"`` raises after it completed,
    ``"corrupt"`` flips one ``seed``-chosen bit of a GET's payload (see the
    module docstring for the semantics of each).

    Thread-safe: faulty stores sit under the serve executor's worker
    pool, where concurrent operations race on the countdown. The
    decrement and the fired flip happen under one lock, so exactly one
    operation observes the trigger.
    """

    op: str  # "PUT" | "GET" | "DELETE" | "LIST" | "HEAD" | "*" | "MUTATE"
    key_predicate: Callable[[str], bool] = lambda key: True
    countdown: int = 0
    mode: str = "fault"  # "fault" | "crash_after" | "corrupt"
    seed: int = 0  # ``"corrupt"``: picks the flipped bit
    fired: bool = field(default=False, init=False)
    #: Set when the rule fires: the (op, key) it triggered on.
    fired_on: tuple[str, str] | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        """Normalize the operation name and validate the mode."""
        self.op = self.op.upper()
        if self.mode not in ("fault", "crash_after", "corrupt"):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.mode == "crash_after" and self.op not in (*MUTATION_OPS, "MUTATE"):
            raise ValueError(
                f"crash_after only makes sense on mutations, got {self.op!r}"
            )
        if self.mode == "corrupt" and self.op != "GET":
            raise ValueError(f"corrupt only makes sense on GET, got {self.op!r}")
        self._lock = threading.Lock()

    def _op_matches(self, op: str) -> bool:
        """Whether ``op`` (canonical upper-case) is in this rule's scope."""
        if self.op == "*":
            return True
        if self.op == "MUTATE":
            return op in MUTATION_OPS
        return self.op == op

    def matches(self, op: str, key: str) -> bool:
        """Decide (and consume) whether this rule fires on ``op``/``key``."""
        # Predicate checks are read-only and can stay outside the lock.
        if not self.applies(op, key):
            return False
        with self._lock:
            if self.fired:
                return False
            if self.countdown > 0:
                self.countdown -= 1
                return False
            self.fired = True
            self.fired_on = (op.upper(), key)
            return True

    def applies(self, op: str, key: str) -> bool:
        """Whether ``op``/``key`` is in scope — read-only, consumes
        nothing. The store-side checks use this to separate *scope*
        from *countdown accounting*, so an attempt that never reaches
        the inner store (aborted by some other rule's injected fault)
        does not consume this rule's countdown."""
        return self._op_matches(op.upper()) and self.key_predicate(key)

    def try_fire(self, op: str, key: str) -> bool:
        """Fire now if in scope, armed (countdown exhausted), and not
        already fired. Never decrements: firing and counting are
        distinct steps, so probing for a ready rule cannot double-count
        an operation that another rule is about to abort."""
        if not self.applies(op, key):
            return False
        with self._lock:
            if self.fired or self.countdown > 0:
                return False
            self.fired = True
            self.fired_on = (op.upper(), key)
            return True

    def tick(self, op: str, key: str) -> None:
        """Consume one countdown step for an in-scope operation that
        actually reached the inner store."""
        if not self.applies(op, key):
            return
        with self._lock:
            if not self.fired and self.countdown > 0:
                self.countdown -= 1


class FaultyObjectStore(ObjectStore):
    """Pass-through store that raises on matching operations.

    ``"fault"`` rules fire *before* the operation reaches the inner
    store, so a failed PUT leaves no partial object — matching S3's
    atomic-PUT semantics. ``"crash_after"`` rules fire *after* the
    inner store applied the mutation, leaving it durable — the
    crash-between-protocol-steps scenario the §IV-D proofs are about.
    ``"corrupt"`` rules fire on a GET's payload on its way out; the
    stored object is untouched.
    """

    def __init__(self, inner: ObjectStore) -> None:
        """Wrap ``inner``; IO accounting is shared so stats stay unified."""
        super().__init__(inner.clock)
        self.inner = inner
        self.rules: list[FaultRule] = []
        # Share accounting with the inner store so stats stay unified.
        self.stats = inner.stats

    def add_rule(self, rule: FaultRule) -> FaultRule:
        """Install ``rule``; returns it for later inspection."""
        self.rules.append(rule)
        return rule

    def clear_rules(self) -> None:
        """Drop every installed rule (fired or not)."""
        self.rules.clear()

    def fail_next(
        self,
        op: str,
        key_substring: str = "",
        countdown: int = 0,
    ) -> FaultRule:
        """Fail the next (or countdown-th) op whose key contains
        ``key_substring``, before it takes effect."""
        return self.add_rule(
            FaultRule(
                op=op,
                key_predicate=lambda key: key_substring in key,
                countdown=countdown,
            )
        )

    def corrupt_next(
        self, key_substring: str = "", countdown: int = 0, seed: int = 0
    ) -> FaultRule:
        """Flip one ``seed``-chosen bit of the payload of the next (or
        countdown-th) GET whose key contains ``key_substring``."""
        return self.add_rule(
            FaultRule(
                op="GET",
                key_predicate=lambda key: key_substring in key,
                countdown=countdown,
                mode="corrupt",
                seed=seed,
            )
        )

    def crash_after(
        self,
        op: str = "MUTATE",
        key_substring: str = "",
        countdown: int = 0,
    ) -> FaultRule:
        """Simulate the client dying right after the ``countdown``-th
        matching mutation completes.

        The default ``op="MUTATE"`` crashes at the Nth PUT-or-DELETE
        boundary, which is how the chaos harness enumerates every crash
        point of a maintenance run.
        """
        return self.add_rule(
            FaultRule(
                op=op,
                key_predicate=lambda key: key_substring in key,
                countdown=countdown,
                mode="crash_after",
            )
        )

    def _check_before(self, op: str, key: str) -> None:
        """Raise :class:`InjectedFault` if a ``"fault"`` rule fires.

        Two passes, so countdowns stay attempt-exact under retries:
        first probe whether any armed rule aborts this attempt (firing
        consumes nothing from the others — the operation never reaches
        the inner store, so no sibling rule should count it); only when
        no rule fires does every in-scope rule consume one countdown
        step for the operation that is about to execute. A retried PUT
        therefore decrements each rule exactly once per *effective*
        operation, never once per attempt.
        """
        for rule in self.rules:
            if rule.mode == "fault" and rule.try_fire(op, key):
                raise InjectedFault(f"injected fault on {op} {key!r}")
        for rule in self.rules:
            if rule.mode == "fault":
                rule.tick(op, key)

    def _check_after(self, op: str, key: str) -> None:
        """Raise :class:`SimulatedCrash` if a ``"crash_after"`` rule fires.

        The mutation is already durable, so *every* in-scope crash rule
        counts this boundary — the raise must not short-circuit sibling
        rules' countdowns, or a multi-rule schedule would drift
        depending on registration order.
        """
        crashed = False
        for rule in self.rules:
            if rule.mode == "crash_after" and rule.matches(op, key):
                crashed = True
        if crashed:
            # Leave a mark on the active span so the chaos timeline
            # shows exactly where the client died.
            span = get_tracer().current()
            if span is not None:
                span.set("crash", f"{op} {key}")
            raise SimulatedCrash(op, key)

    def _corrupt(self, op: str, key: str, data: bytes) -> bytes:
        """``data`` with one bit flipped per ``"corrupt"`` rule that
        fires on it (every in-scope rule counts the operation)."""
        for rule in self.rules:
            if rule.mode == "corrupt" and rule.matches(op, key) and data:
                bit = random.Random(rule.seed).randrange(8 * len(data))
                flipped = bytearray(data)
                flipped[bit // 8] ^= 1 << (bit % 8)
                data = bytes(flipped)
        return data

    # -- delegated operations ----------------------------------------
    def put(self, key: str, data: bytes, *, if_none_match: bool = False) -> ObjectInfo:
        """PUT through the fault rules (crash-after fires post-write)."""
        self._check_before("PUT", key)
        info = self.inner.put(key, data, if_none_match=if_none_match)
        self._check_after("PUT", key)
        return info

    def get(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        """GET through the fault rules."""
        self._check_before("GET", key)
        return self._corrupt("GET", key, self.inner.get(key, byte_range))

    def head(self, key: str) -> ObjectInfo:
        """HEAD through the fault rules."""
        self._check_before("HEAD", key)
        return self.inner.head(key)

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        """LIST through the fault rules."""
        self._check_before("LIST", prefix)
        return self.inner.list(prefix)

    def delete(self, key: str) -> None:
        """DELETE through the fault rules (crash-after fires post-delete)."""
        self._check_before("DELETE", key)
        self.inner.delete(key)
        self._check_after("DELETE", key)
