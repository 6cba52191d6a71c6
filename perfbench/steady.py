"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 [--workloads nest-sweep,family-fuzz]
                                [--first-seed 101] [--traced]

Run from the root of a nestkit checkout.  Each run is one
``perfbench/run.py`` invocation with its own seed (first-seed, first-seed+1,
...) and the run length from BENCHMARK.json.  For every end-to-end metric
(and every untraced per-suite time) it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the quartile spread as a share of
the median, next to the metric's bound: a spread at or above the bound
fails, one above a third of it is flagged.  It also checks that the share of
failed operations is identical in every run.  ``--traced`` adds two traced
runs per workload on the same seed, checks that their counts repeat
exactly, and prints the tracing overhead.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT_FILE = HERE.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"run.py failed on {workload} seed {seed}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("detail "):])
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    config = json.loads(ROOT_FILE.read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description="benchmark steadiness check")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        wrong = 0
        for i in range(args.runs):
            result, detail = run_once(workload, args.first_seed + i, seconds, 0)
            wrong += not result["correct"]
            shares.add(Fraction(result["failed"], result["attempted"]))
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
            for key, (value, unit) in detail.items():
                values.setdefault(key, []).append(value)
                units[key] = unit
            print(f"{workload} seed {args.first_seed + i}: "
                  + "  ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        print(f"\n{workload}: {args.runs} runs, failed share "
              f"{', '.join(str(s) for s in sorted(shares))}, incorrect runs {wrong}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}")
        for key, vals in values.items():
            median, q1, q3, share = spread(vals)
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s":
                flag = "FAIL" if share >= bound else ("wide" if share > bound / 3 else "ok")
                ok &= share < bound
            print(f"  {key:28s} {median:12.5g} {q1:12.5g} {q3:12.5g} {share:8.4f} "
                  f"{'' if bound is None else bound:>6} {units[key]} {flag}")
        if len(shares) != 1 or wrong:
            ok = False
        if args.traced:
            first, _ = run_once(workload, args.first_seed, seconds, 1)
            second, detail = run_once(workload, args.first_seed, seconds, 1)
            counts = lambda r: {k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
            repeat = counts(first) == counts(second)
            ok &= repeat and detail.get("counts_repeat_each_round") is True
            overhead = [r["metrics"]["trace.overhead_s"]["value"] for r in (first, second)]
            print(f"  traced: counts repeat {repeat}; counts repeat each round "
                  f"{detail.get('counts_repeat_each_round')}; tracing overhead "
                  f"{overhead[0]:.4g} s, {overhead[1]:.4g} s per round")
        print(flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
