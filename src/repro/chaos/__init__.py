"""repro.chaos — crash-fault chaos harness for the maintenance protocol.

Three layers:

* :mod:`repro.chaos.points` — the canonical registry of crash points
  (mutation boundaries) with their §IV-D safety arguments; kept
  one-to-one with the crash matrix in ``docs/protocol.md``.
* :mod:`repro.chaos.harness` — the systematic instrument:
  :func:`~repro.chaos.harness.crash_matrix` crashes one operation after
  *every* mutation, audits invariants, and proves fresh-client recovery
  converges on the uninterrupted state.
* :mod:`repro.chaos.fuzzer` — the randomized instrument:
  :class:`~repro.chaos.fuzzer.ProtocolFuzzer` interleaves the whole
  protocol across simulated clients with seeded crash injection and an
  exact search oracle. Exposed as the ``repro chaos`` CLI subcommand.

All three inject through :class:`~repro.storage.faults.FaultyObjectStore`,
whose rules have three modes:

* ``"fault"`` — the operation fails before it reaches the store (a lost
  request); the fuzzer aims these at index reads to drive the serving
  layer's brute-force degradation.
* ``"crash_after"`` — the client dies right after a PUT or DELETE
  landed; the crash matrix and the fuzzer enumerate these.
* ``"corrupt"`` — one seeded bit of a GET's payload flips on its way
  out (``corrupt_next``). A search must then answer as if the bytes
  were intact or raise :class:`~repro.errors.FormatError`;
  ``tests/test_conformance_matrix.py`` arms it on every data-page read.
"""

from repro.chaos.fuzzer import (
    ChaosConfig,
    ChaosReport,
    ChaosViolation,
    ProtocolFuzzer,
    run_chaos,
)
from repro.chaos.harness import CrashMatrix, CrashOutcome, crash_matrix
from repro.chaos.points import CRASH_POINTS, MUTATING_VERBS, classify_crash_point

__all__ = [
    "CRASH_POINTS",
    "MUTATING_VERBS",
    "ChaosConfig",
    "ChaosReport",
    "ChaosViolation",
    "CrashMatrix",
    "CrashOutcome",
    "ProtocolFuzzer",
    "classify_crash_point",
    "crash_matrix",
    "run_chaos",
]
