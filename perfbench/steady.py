#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median and quartiles.

Run from the repository root::

    python3 perfbench/steady.py --workload scan --runs 10 --seconds 30

Each run is one untraced ``run.py`` process with its own seed, 1 to
``--runs``.  For every metric the table shows the median,
the first and third quartiles (``statistics.quantiles(n=4)``) and the
spread: (Q3 - Q1) / median.  The runs' result lines are also written to
``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("detail "):])
    return {"seed": seed, "detail": detail, "result": json.loads(lines[-1])}


def summarize(runs) -> dict:
    names = runs[0]["result"]["metrics"].keys()
    table = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        table[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--label", default="", help="suffix for the output file name")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, args.seconds))
            r = runs[-1]
            print(f"# {workload} seed {seed}: correct={r['result']['correct']} "
                  f"attempted={r['result']['attempted']} failed={r['result']['failed']}", flush=True)
        table = summarize(runs)
        print(f"{workload}: {args.runs} runs, {args.seconds:g} s each")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, row in table.items():
            print(f"  {name:36} {row['median']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f} {row['spread']:8.3f}")
        failed_share = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"  correct in every run: {all(r['result']['correct'] for r in runs)}; "
              f"failed share(s): {sorted(failed_share)}")
        suffix = f"-{args.label}" if args.label else ""
        (out_dir / f"steady-{workload}{suffix}.json").write_text(
            json.dumps({"seconds": args.seconds, "summary": table, "runs": runs}, indent=1)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
