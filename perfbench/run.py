"""nestkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload nest-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a nestkit checkout; the program is imported from
``src``.  ``--workload all`` runs the three workloads one after another.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with ``--trace 1`` they are the per-layer metrics from a
traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Timings are at reference speed (see `speed.py`); the raw medians are in the
detail lines.  Set-up time is the median over `SETUP_PROBES` fresh
interpreters that only set up, plus the set-up of the measuring process
itself.  The workload runs in its own fresh interpreter (`worker.py`), so
its peak memory is the program's and not this launcher's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("nest-sweep", "family-fuzz", "instance-queries")
END_TO_END = ("setup_s", "wall_s", "instances_per_s", "peak_rss_mib")
MODULES = ("__init__", "analysis", "bounds", "cli", "core", "groups", "instances", "orders",
           "rays", "reporting", "search", "serialize", "suites", "topology")
SETUP_PROBES = 10  # half before the measuring process, half after
DEADLINE_S = 170.0  # every run must end within 180 s


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="run one nestkit benchmark workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def lines_of_code(src: Path) -> dict[str, tuple[int, str]]:
    counts = {}
    for name in MODULES:
        path = src / "nestkit" / f"{name}.py"
        counts[f"loc.{name}"] = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
    total = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (src / "nestkit").glob("*.py"))
    out = {key: (value, "lines") for key, value in counts.items()}
    out["loc.total"] = (total, "lines")
    return out


def child(args: list[str], env: dict, cwd: Path, timeout: float) -> dict:
    """Run a Python child to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace, root: Path) -> dict:
    started = time.monotonic()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    remaining = lambda: DEADLINE_S - (time.monotonic() - started)
    worker = str(HERE / "worker.py")
    base = ["--workload", name, "--seed", str(args.seed)]
    try:
        # compile bytecode once so that no timed set-up pays for it
        child(["-c", "import json, nestkit.cli; print(json.dumps({}))"], env, root, remaining())
        setups = []

        def probe_setup(count: int) -> None:
            for _ in range(count):
                probe = child([worker, *base, "--work-dir", str(work / f"probe-{len(setups)}"),
                               "--setup-only"], env, root, remaining())
                setups.append((probe["setup_s"], probe["raw_setup_s"]))

        if not args.trace:
            probe_setup(SETUP_PROBES // 2)
        result = child([worker, *base, "--seconds", str(args.seconds), "--trace",
                        str(args.trace), "--work-dir", str(work / "run")], env, root, remaining())
        if not args.trace:
            probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        if args.trace:
            out = root / ".perfbench_out"
            out.mkdir(exist_ok=True)
            shutil.copyfile(work / "run" / "spans.tsv", out / f"spans-{name}-seed{args.seed}.tsv")
            result["detail"]["span_log"] = str(out / f"spans-{name}-seed{args.seed}.tsv")
            metrics = {**result["metrics"], **lines_of_code(root / "src")}
        else:
            setups.append((result["setup_s"], result["raw_setup_s"]))
            metrics = {"setup_s": (statistics.median(s for s, _ in setups), "s"),
                       **result["metrics"]}
            metrics = {key: metrics[key] for key in END_TO_END}
            result["detail"]["raw.setup_s"] = (statistics.median(r for _, r in setups), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = metrics
    return result


def report(name: str, args: argparse.Namespace, result: dict) -> None:
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  rounds {result['rounds']}")
    print(f"  operations attempted {result['attempted']}  failed {result['failed']}"
          f"  (known fault: {result['known_failed']})  correct {result['correct']}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:42s} {value:14.6f} {unit}")
    for key, value in result["detail"].items():
        if isinstance(value, (list, tuple)):
            print(f"  {key:42s} {value[0]:14.6f} {value[1]}  (detail)")
        else:
            print(f"  {key:42s} {value}")
    for line in result["known_faults"]:
        print(f"  known fault: {line}")
    for line in result["problems"]:
        print(f"  PROBLEM: {line}")
    print("detail " + json.dumps(result["detail"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "nestkit" / "__init__.py").is_file():
        print(f"error: no nestkit sources under {root / 'src'}; run from the root of a "
              "nestkit checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args, root)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as error:
            print(f"error: workload {name}: {error}", file=sys.stderr)
            return 1
        report(name, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
