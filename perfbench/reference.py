"""Reference figures: environment plus one timed run of every suite.

    python3 perfbench/reference.py [--max-n 5,6]

Run from the root of a nestkit checkout.  Prints a markdown table of suite
wall times at the default config and at each ``--max-n`` for the exhaustive
suites, one run each with one worker, in the layout of the ROADMAP baseline
table.  The sizes above 5 are slow (about 2.5 minutes for max_n=6 on two
CPUs).
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

EXHAUSTIVE = ("sup-conditions", "bound-covers", "topology-engine", "interlocking", "core-algebra")
DEFAULT_ONLY = ("generated-orders", "group-compatibility", "ray-classification", "replay")


def git_revision(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one-off reference timings of every suite")
    parser.add_argument("--max-n", default="5,6")
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from nestkit.suites import SuiteConfig, run_suite

    sizes = [int(v) for v in args.max_n.split(",") if v]
    print(f"python {platform.python_version()}, {os.cpu_count()} CPUs, "
          f"{platform.machine()}, git {git_revision(root)}, one worker, single runs")
    print()
    print("| suite | default config | " + " | ".join(f"max_n={n}" for n in sizes) + " |")
    print("|---|---|" + "---|" * len(sizes))

    def timed(name: str, config) -> str:
        started = time.perf_counter()
        report = run_suite(name, config)
        elapsed = time.perf_counter() - started
        return f"{elapsed:.2f} s ({report.instances} instances, {report.status})"

    for name in EXHAUSTIVE + DEFAULT_ONLY:
        cells = [timed(name, SuiteConfig(workers=1))]
        for n in sizes:
            cells.append(timed(name, SuiteConfig(max_n=n, workers=1)) if name in EXHAUSTIVE
                         else "—")
        print(f"| {name} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
