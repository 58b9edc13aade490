#!/usr/bin/env python3
"""Fraction x seed x mu sweep driver.

Runs the CLI trainer once per cell and collects every run's metrics.json into
a single summary CSV, so downstream comparison (regularized vs. vanilla per
fraction) is one pivot away.  Exits 1 when any run fails; the summary then
holds the runs that succeeded, and is not written when none did.

Example:
    python scripts/run_sweep.py --manifold spiral --learner sgd \
        --fractions 0.01,0.05,0.1 --seeds 1,2,3 --mus 0,0.1 --out sweeps/spiral
"""

import argparse
import csv
import itertools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from circuit_sharp.cli import main as cli_main


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--manifold")
    p.add_argument("--dataset")
    p.add_argument("--data-root")
    p.add_argument("--structure", default="auto")
    p.add_argument("--learner", choices=("em", "sgd"), default="sgd")
    p.add_argument("--fractions", default="0.01,0.05,0.1,0.5,1.0")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--mus", default="0,0.01,0.05,0.1,0.5,1.0")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default="sweep")
    return p.parse_args()


def main():
    args = parse_args()
    fractions = [float(x) for x in args.fractions.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    mus = args.mus.split(",")
    os.makedirs(args.out, exist_ok=True)

    rows, failed = [], 0
    for fraction, seed, mu in itertools.product(fractions, seeds, mus):
        run_dir = os.path.join(args.out, f"f{fraction}_s{seed}_mu{mu}")
        argv = [
            "train",
            "--fraction", str(fraction),
            "--seed", str(seed),
            "--mu", mu,
            "--learner", args.learner,
            "--structure", args.structure,
            "--epochs", str(args.epochs),
            "--alpha", str(args.alpha),
            "--out", run_dir,
        ]
        if args.manifold:
            argv += ["--manifold", args.manifold]
        if args.dataset:
            argv += ["--dataset", args.dataset]
        if args.data_root:
            argv += ["--data-root", args.data_root]
        code = cli_main(argv)
        if code != 0:
            print(f"run {run_dir} failed with exit code {code}", file=sys.stderr)
            failed += 1
            continue
        with open(os.path.join(run_dir, "metrics.json")) as fh:
            metrics = json.load(fh)
        rows.append({"fraction": fraction, "seed": seed, "mu": mu, **metrics})

    if not rows:
        print(f"all {failed} runs failed; no summary written", file=sys.stderr)
        return 1
    summary = os.path.join(args.out, "summary.csv")
    with open(summary, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} runs -> {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
