"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --work-dir DIR [--setup-only]

Run from the root of a checkout with ``src`` on PYTHONPATH (`run.py` does
this).  Set-up (``import nestkit`` plus input generation) is timed from the
first statement after the benchmark's own stdlib-only imports, and taken at
reference speed (see `speed`).  A traced run first times untraced rounds
for `REFERENCE_SHARE` of the run, then installs the tracer; its per-layer
figures are per round, self times as medians over the traced rounds.  The
last line of standard output is one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import oracles  # noqa: F401  (stdlib only; imported before the set-up timer)
import speed
from speed import SpeedProbe

MIN_ROUNDS = 2  # each operation's median draws on at least two repetitions
REFERENCE_SHARE = 0.25  # share of --seconds a traced run spends on untraced rounds


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def run_round(workload, outcomes: list | None, probe: SpeedProbe | None = None) -> float:
    """Run every operation once; return the time spent inside operations.

    Each outcome is (label, seconds, instances, problems, known_fault_hit,
    start, end); the probe's own time is taken out of `seconds`.
    """
    spent = 0.0
    for op in workload.ops:
        error = None
        probed = probe.spent if probe is not None else 0.0
        started = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an escaping exception is a failed operation
            error = exc
        ended = time.perf_counter()
        elapsed = ended - started - ((probe.spent - probed) if probe is not None else 0.0)
        spent += elapsed
        if outcomes is None:
            continue
        if error is not None:
            problem = f"{op.label}: {type(error).__name__}: {error}"
            outcomes.append((op.label, elapsed, 0, [problem], op.known_fault, started, ended))
            continue
        instances, problems = op.check(result)
        outcomes.append((op.label, elapsed, instances, problems, False, started, ended))
    return spent


def reference_round(workload, outcomes: list | None) -> float:
    """A round's time at reference speed, from probe samples either side
    (used by the traced run, where a timer would land inside spans)."""
    before = speed.sample()
    wall = run_round(workload, outcomes)
    return wall * speed.REFERENCE_LOOP_S / ((before + speed.sample()) / 2)


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def untraced(workload, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed (at least `MIN_ROUNDS`).

    Each operation's time is taken at reference speed (see `speed`), and
    its median over the rounds stands for it; the raw medians are kept in
    the detail for comparison.
    """
    outcomes: list = []
    rounds = 0
    started = time.perf_counter()
    with SpeedProbe() as probe:
        while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
            run_round(workload, outcomes, probe)
            rounds += 1
    size = len(workload.ops)
    runs = [[outcomes[r * size + i] for r in range(rounds)] for i in range(size)]
    ref = [statistics.median(o[1] * probe.scale(o[5], o[6]) for o in op_runs)
           for op_runs in runs]
    raw = [statistics.median(o[1] for o in op_runs) for op_runs in runs]
    instances = sum(o[2] for o in outcomes) / rounds
    detail = {
        metric: (sum(t for op, t in zip(workload.ops, ref) if op.label in labels), "s")
        for metric, labels in workload.detail_groups.items()
    }
    if workload.name == "instance-queries":
        latencies = [o[1] * probe.scale(o[5], o[6]) for o in outcomes]
        detail["query_p50_ms"] = (statistics.median(latencies) * 1000, "ms")
        detail["query_p99_ms"] = (nearest_rank(latencies, 0.99) * 1000, "ms")
    detail["raw.wall_s"] = (sum(raw), "s")
    metrics = {
        "wall_s": (sum(ref), "s"),
        "instances_per_s": (instances / sum(ref), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {"outcomes": outcomes, "rounds": rounds, "metrics": metrics, "detail": detail}


def traced(workload, seconds: float, work_dir: Path) -> dict:
    from tracer import Tracer

    reference = []
    started = time.perf_counter()
    while not reference or time.perf_counter() - started < seconds * REFERENCE_SHARE:
        reference.append(reference_round(workload, None))
    tracer = Tracer()
    tracer.install(bounds_pairs=workload.bounds_pairs)
    outcomes: list = []
    per_round = []
    started = time.perf_counter()
    try:
        while True:
            calls_before, self_before = tracer.snapshot()
            wall = reference_round(workload, outcomes)
            calls_after, self_after = tracer.snapshot()
            per_round.append((wall, calls_after - calls_before,
                              {k: v - self_before.get(k, 0.0) for k, v in self_after.items()}))
            if time.perf_counter() - started >= seconds:
                break
    finally:
        tracer.uninstall()
    tracer.write_spans(work_dir / "spans.tsv")
    first_calls = per_round[0][1]
    repeats = all(calls == first_calls for _, calls, _ in per_round)
    rounds = [Tracer.layer_metrics(calls, selfs) for _, calls, selfs in per_round]
    metrics = {}
    for name, (value, unit) in rounds[0].items():
        if unit == "s":
            value = statistics.median(r[name][0] for r in rounds)
        metrics[name] = (value, unit)
    trace_wall = statistics.median(w for w, _, _ in per_round)
    metrics["trace.wall_s"] = (trace_wall, "s")
    metrics["trace.overhead_s"] = (trace_wall - statistics.median(reference), "s")
    return {"outcomes": outcomes, "rounds": len(per_round), "metrics": metrics,
            "detail": {"counts_repeat_each_round": repeats, "span_log": str(work_dir / "spans.tsv")}}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    speed_before = speed.sample()
    started = time.perf_counter()
    import workloads  # imports nestkit

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    raw_setup_s = time.perf_counter() - started
    setup_s = raw_setup_s * speed.REFERENCE_LOOP_S / ((speed_before + speed.sample()) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    workload.prepare()
    gc.collect()
    if args.trace:
        result = traced(workload, args.seconds, args.work_dir)
    else:
        result = untraced(workload, args.seconds)
    outcomes = result.pop("outcomes")
    known = sum(1 for o in outcomes if o[4])
    failed = sum(1 for o in outcomes if o[3])
    final = workload.final_checks()
    result.update(
        setup_s=setup_s,
        raw_setup_s=raw_setup_s,
        attempted=len(outcomes),
        failed=failed,
        known_failed=known,
        correct=failed == known and not final,
        problems=sorted(set(p for o in outcomes if not o[4] for p in o[3]))[:20] + final[:20],
        known_faults=sorted(set(p for o in outcomes if o[4] for p in o[3]))[:10],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
