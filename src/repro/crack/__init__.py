"""Query-adaptive (cracking) indexing: index what queries actually touch.

Eager indexing pays the full build cost up front; pure lazy search
pays brute-force forever. Under a skewed workload neither is optimal:
most queries hit a small hot set. This package closes the loop —

* :mod:`repro.crack.heat` turns the search client's span stream into a
  decayed, mergeable heat map (per file and per IVF-PQ cell);
* :mod:`repro.crack.policy` ranks candidate work by expected
  dollars-avoided per byte of build IO;
* :mod:`repro.crack.controller` is the policy that proposes the
  top-ranked work to the maintenance daemon's tick: targeted indexing
  of hot files, cell refinement of hot inverted lists, cold data left
  brute-force;
* :mod:`repro.crack.bench` measures the payoff on a Zipf workload
  against fully-eager and fully-lazy deployments.
"""

from repro.crack.bench import CrackBenchResult, run_crack_bench
from repro.core.maintenance import refine_index
from repro.crack.controller import CrackController
from repro.crack.heat import (
    DEFAULT_HALF_LIFE_S,
    HeatKey,
    HeatMap,
    cell_scope,
)
from repro.crack.policy import CrackingPolicy, CrackWork

__all__ = [
    "CrackBenchResult",
    "CrackController",
    "CrackingPolicy",
    "CrackWork",
    "DEFAULT_HALF_LIFE_S",
    "HeatKey",
    "HeatMap",
    "cell_scope",
    "refine_index",
    "run_crack_bench",
]
