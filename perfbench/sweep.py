"""Run every workload of BENCHMARK.json over several seeds, one fresh process
per run, and print each metric's median, quartiles and quartile spread.

    python3 perfbench/sweep.py                       # seed 1
    python3 perfbench/sweep.py --seeds 1-10          # a proof set
    python3 perfbench/sweep.py --trace 1             # per-layer metrics

The run length is BENCHMARK.json's run_seconds.  The spread is
(Q3 - Q1) / median over the seeds, the figure each end-to-end metric's bound
in BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in WORKLOADS:
        runs = [run_once(name, seed, args.trace) for seed in parse_seeds(args.seeds)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {name}: {len(runs)} runs, fail_frac {failed / attempted:.4g} ({failed} of {attempted}), "
              f"all correct: {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            line = f"  {metric:<50} {statistics.median(values):>14.6g} {unit:<6}"
            if len(values) > 1 and statistics.median(values):
                q1, q3, spread = stats.quartile_spread(values)
                bound = BOUNDS.get(metric) if args.trace == 0 else None
                flag = "" if bound is None else f"  bound {bound}{'  OVER' if spread > bound else ''}"
                line += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{flag}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
