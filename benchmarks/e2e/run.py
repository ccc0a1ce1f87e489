"""Driver entry: run ONE workload and print its result.

    python3 benchmarks/e2e/run.py --workload cold_search --seed 13 \
        --seconds 10 --trace 0

Prints a human-readable summary, then — as the last line of stdout — one
JSON object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1`` (which also writes
``benchmarks/e2e/results/spans_<workload>.jsonl``). Reads and writes only
inside the checkout; exits non-zero without a result when the program
under test (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


#: The measuring environment, pinned so that two runs of the same code
#: agree. None of these is an input of the program under test.
PINNED_ENV = {
    # str hashing is salted per process; dict-heavy layers (the memtable
    # suffix trie above all) run up to 15% faster or slower with the salt.
    "PYTHONHASHSEED": "0",
    # The workloads already use up to two Python threads on a two-core
    # box; OpenBLAS's spin-waiting workers otherwise land as noise on
    # every wall metric.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # glibc opens per-thread malloc arenas at scheduling-dependent
    # moments, which moves ru_maxrss by 10-20% between identical runs.
    "MALLOC_ARENA_MAX": "1",
}


def _bootstrap() -> None:
    """Pin the environment (re-executing this interpreter once, before
    anything is imported or printed) and set the import paths for a
    script launched by path: the program from ``src/``, this package from
    the checkout root, and *not* this directory (its ``trace.py`` would
    shadow the standard library's)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"benchmarks/e2e: no program to measure under {ROOT}/src/repro",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            {**os.environ, **PINNED_ENV},
        )
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> int:
    _bootstrap()
    from benchmarks.e2e import report, spec
    from benchmarks.e2e.harness import run_workload

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs (self-test sizes)"
    )
    parser.add_argument(
        "--detail", action="store_true",
        help="also print the full run (spreads, layer table) as one "
        "'detail: {json}' line before the result",
    )
    args = parser.parse_args()

    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        spans_path = os.path.join(HERE, "results", f"spans_{args.workload}.jsonl")
    run = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
        spans_path=spans_path,
    )
    print(report.render_run(run))
    if args.detail:
        print("detail: " + json.dumps(run.as_dict()))
    print(json.dumps(run.result_line()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
