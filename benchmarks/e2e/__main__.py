"""All four workloads from one command.

    PYTHONPATH=src python -m benchmarks.e2e run            # both passes
    PYTHONPATH=src python -m benchmarks.e2e run --pass traced
    PYTHONPATH=src python -m benchmarks.e2e repeat-check   # two sets, vs bounds
    PYTHONPATH=src python -m benchmarks.e2e spec           # BENCHMARK.json

Every workload runs in a fresh child interpreter (``run.py``), so each
has a clean metrics registry and its own ``peak_rss_mb``. A workload
whose calibration loop read >10% apart before and after is flagged
noisy and re-run once; both runs are kept in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from benchmarks.e2e import report, spec

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")


def run_child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One ``run.py`` child; returns its ``detail`` record."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(traced)),
        "--detail",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}")
    lines = done.stdout.splitlines()
    detail = next(ln for ln in lines if ln.startswith("detail: "))
    return json.loads(detail[len("detail: "):])


def run_pass(seed: int, seconds: float, traced: bool, smoke: bool, only=None):
    """Every workload once; ``(records, noisy first attempts)``."""
    records, reruns = [], []
    for workload in spec.WORKLOAD_NAMES:
        if only and workload not in only:
            continue
        record = run_child(workload, seed, seconds, traced, smoke)
        if record["noisy"]:
            reruns.append(record)
            record = run_child(workload, seed, seconds, traced, smoke)
        print(report.render_run(record), flush=True)
        records.append(record)
    return records, reruns


def cmd_run(args) -> int:
    end_to_end, traced, reruns = [], [], []
    if args.passes in ("both", "e2e"):
        end_to_end, noisy = run_pass(args.seed, args.seconds, False, args.smoke, args.only)
        reruns += noisy
    if args.passes in ("both", "traced"):
        traced, noisy = run_pass(args.seed, args.seconds, True, args.smoke, args.only)
        reruns += noisy
    failed = sum(r["failed"] for r in end_to_end + traced)
    full = args.passes == "both" and not args.only and not args.smoke
    if full:
        record = report.latest(end_to_end, traced, seed=args.seed)
        record["noisy_first_attempts"] = reruns
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, "latest.json"), "w") as out:
            json.dump(record, out, indent=1, sort_keys=True)
            out.write("\n")
        with open(os.path.join(RESULTS, "layers.md"), "w") as out:
            out.write(report.layers_md(record))
        print(f"wrote {RESULTS}/latest.json and layers.md")
    return 2 if failed else 0


def compare(first: list[dict], second: list[dict]) -> list[dict]:
    """Per (metric, workload): relative difference of the second set
    against the first, its bound, and whether it holds."""
    rows = []
    for a, b in zip(first, second):
        workload = a["workload"]
        for metric in spec.END_TO_END:
            name = metric["name"]
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            exact = name in spec.EXACT and workload in spec.SINGLE_THREADED
            diff = abs(y - x) / abs(x) if x else float(y != x)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "first": x,
                    "second": y,
                    "relative_difference": diff,
                    "bound": 0.0 if exact else metric["bound"],
                    "ok": (x == y) if exact else diff <= metric["bound"],
                }
            )
    return rows


def cmd_repeat_check(args) -> int:
    sets = []
    for attempt in (1, 2):
        print(f"-- set {attempt} --", flush=True)
        records, _ = run_pass(args.seed, args.seconds, False, args.smoke)
        sets.append(records)
    rows = compare(*sets)
    failed = sum(r["failed"] for records in sets for r in records)
    print(f"{'workload':<16}{'metric':<28}{'first':>12}{'second':>12}{'diff':>9}{'bound':>8}")
    for row in rows:
        print(
            f"{row['workload']:<16}{row['metric']:<28}{row['first']:>12.5g}"
            f"{row['second']:>12.5g}{row['relative_difference']:>9.2%}"
            f"{row['bound']:>8.2f}" + ("" if row["ok"] else "   MISS")
        )
    misses = [row for row in rows if not row["ok"]]
    if not args.smoke:
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, "repeat_check.json"), "w") as out:
            json.dump(
                {"seed": args.seed, "misses": len(misses), "failed_operations": failed, "rows": rows},
                out, indent=1, sort_keys=True,
            )
            out.write("\n")
    print(f"{len(misses)} miss(es), {failed} failed operation(s)")
    return 2 if misses or failed else 0


def cmd_spec(_args) -> int:
    print(json.dumps(spec.benchmark_json(), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("repeat-check", cmd_repeat_check)):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=13)
        p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
        p.add_argument("--smoke", action="store_true")
        p.set_defaults(fn=fn)
        if name == "run":
            p.add_argument(
                "--pass", dest="passes", choices=("both", "e2e", "traced"), default="both"
            )
            p.add_argument("--only", action="append", choices=spec.WORKLOAD_NAMES)
    sub.add_parser("spec").set_defaults(fn=cmd_spec)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
