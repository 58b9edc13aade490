"""Benchmark of the circuit-sharp package: one workload in one process.

    python3 perfbench/run.py --workload sgd-spiral --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workloads (sgd-spiral, em-hclt, trace-dag, diagnose-tree) are defined in
workloads.py.  Their inputs come from ``--seed``: seeds 1-10 were used while
the benchmark was written, and seed 7919 is kept for re-checking claims.

A workload repeats a fixed *unit* of work (train one model, sweep one set of
batches, diagnose one set of rows) until ``--seconds`` have passed; a unit
is made of *steps* (epochs, batches, row chunks).  ``--trace 0`` prints:

    setup_s        median over SETUP_REPEATS set-ups: input generation,
                   structure build, circuit indexing and one warm-up call
    wall_ref       median time of one unit, in reference units
    step_ref_p50   median step time, in reference units
    step_ref_tail  step time, in reference units, at the highest integer
                   percentile that leaves at least ten steps beyond it
                   (percentile and count printed)
    peak_rss_mb    peak resident set size at the end of the timed section
    test_nll       mean NLL of the unit's model on the test rows
    sharpness      hessian_trace of the unit's model on the train rows
    fail_frac      failed / attempted, over steps and correctness checks

A reference unit is the time of one reference block (harness.reference_block:
fixed Python and numpy work outside the package) run right before and right
after the unit; a unit or step time is divided by the mean of those two
blocks, which cancels the drift in machine speed that they share.  The raw
seconds (wall_s, step_s_p50, step_s_tail) and the reference time are printed
after the metrics.

``--trace 1`` alternates untraced and traced units for ``--seconds``, prints
the per-layer metrics (per traced unit; set-up layers from one traced
set-up) and ``trace_overhead_frac`` (median traced over median untraced unit
time, both in reference units, minus one), and writes every span to ``.bench_out/``.  Either way
the correctness checks run after the timed section, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``fail_frac`` is ``failed / attempted`` there.
``perfbench/sweep.py`` runs several workloads and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pin the BLAS pool before numpy loads; every load comes from this process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def import_package():
    """Import circuit_sharp from this checkout's src/, and only from there."""
    if not (SRC / "circuit_sharp" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'circuit_sharp'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import circuit_sharp

    if Path(circuit_sharp.__file__).resolve().parent != SRC / "circuit_sharp":
        sys.exit(f"error: circuit_sharp imported from {circuit_sharp.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = harness.environment(BLAS_THREADS)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        report = harness.traced_run(workload, args.seed, args.seconds, ROOT / ".bench_out", env)
    else:
        report = harness.measured_run(workload, args.seed, args.seconds, SETUP_REPEATS)
    for line in report.lines:
        print(line)
    print(report.json_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
