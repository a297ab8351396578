#!/usr/bin/env python3
"""Run workloads several times and report each metric's spread.

    python3 perfbench/steady.py                       # every workload once
    python3 perfbench/steady.py --runs 10 --workload lp_mix
    python3 perfbench/steady.py --runs 5 --workload lp_mix --same-seed

Each run is a fresh ``run.py`` process with its own seed (1, 2, ...), as
the runs that check a benchmark's bounds are.  With ``--same-seed`` every
run uses seed 1, so the spread is the machine's noise alone; the two
spreads side by side tell how much of the first the inputs cause.
For every metric the report gives the unit, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  An end-to-end metric
whose spread exceeds a tenth is flagged: it does not repeat well enough
to hold a bound.  The result shares and sample counts come from the
detail line each run prints before its result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FLAG_SPREAD = 0.1


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--same-seed", action="store_true", help="run every time with seed 1")
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    unsteady = []
    for workload in args.workload or list(WORKLOADS):
        runs = []
        seeds = [1] * args.runs if args.same_seed else list(range(1, args.runs + 1))
        for seed in seeds:
            detail, result = run_once(workload, seed, seconds)
            runs.append((detail, result))
            factors = detail["host_factor"]["passes"]
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall_s={result['metrics']['wall_s']['value']:.4g} "
                  f"raw={statistics.median(detail['pass_wall_s']):.4g} "
                  f"factor={statistics.median(factors):.3f}", file=sys.stderr)
        print(f"\n{workload}  ({args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, {seconds:g} s each)")
        print(f"  {'metric':34s} {'unit':11s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        for name, first in runs[0][1]["metrics"].items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            med, q1, q3, s = spread(values)
            flag = ""
            if s > FLAG_SPREAD:
                flag = "  UNSTEADY"
                unsteady.append((workload, name))
            print(f"  {name:34s} {first['unit']:11s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:7.3f}{flag}")
        # the same passes before the host factor: what the meter takes out
        raw = [statistics.median(d["pass_wall_s"]) for d, _ in runs]
        med, q1, q3, s = spread(raw)
        print(f"  {'wall_s before the host factor':34s} {'s':11s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:7.3f}")
        for name in ("failed_share", "skipped_share", "exact_share"):
            values = [d["shares"][name] for d, _ in runs]
            print(f"  {name:34s} {'ratio':11s} {statistics.median(values):12.6g}")
        samples = runs[0][0]["samples"]
        print(f"  samples (first run): {json.dumps(samples)}")
        print(f"  correct in every run: {all(r['correct'] for _, r in runs)}")
    if unsteady:
        print(f"\nend-to-end metrics spread beyond {FLAG_SPREAD}: {unsteady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
