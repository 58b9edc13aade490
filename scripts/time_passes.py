#!/usr/bin/env python3
"""Per-pass timings: forward, backward, trace_penalty_gradient and one
Hessian-vector product (hvp; the operator is built outside the timer) on the
trace-dag DAG (build_layered_dag(17, 79, seed=7), 16 binary rows) and the
spiral RAT (RatConfig(num_vars=2, depth=1, seed=1), 200 training rows).
Prints the median of REPEATS calls of each pass, in milliseconds.

The package comes from PYTHONPATH, so the same script times any checkout:
    PYTHONPATH=src python scripts/time_passes.py
"""

import time

import numpy as np

from circuit_sharp import RatConfig, backward, build_rat, forward
from circuit_sharp.curvature import hessian_operator, trace_penalty_gradient
from circuit_sharp.data import gen_manifold, minmax_scale
from circuit_sharp.structure import build_layered_dag

REPEATS = 40


def median_ms(fn):
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times))


def main():
    dag, dag_params = build_layered_dag(17, 79, seed=7)
    dag_rows = (np.random.default_rng(3).random((16, 17)) < 0.5).astype(float)
    spiral, _, _ = minmax_scale(gen_manifold("spiral", 1000, noise=0.05, seed=1))
    rat, rat_params = build_rat(RatConfig(num_vars=2, depth=1, seed=1))
    for name, circuit, params, batch in (
        ("trace-dag DAG", dag, dag_params, dag_rows),
        ("spiral RAT", rat, rat_params, spiral.train[:200]),
    ):
        trace = forward(circuit, params, batch)
        flows = backward(circuit, params, trace)
        hess = hessian_operator(circuit, params, batch)
        v = np.random.default_rng(5).standard_normal(circuit.num_sum_edges)
        passes = {
            "forward": lambda: forward(circuit, params, batch),
            "backward": lambda: backward(circuit, params, trace),
            "penalty": lambda: trace_penalty_gradient(circuit, params, batch, trace=trace, flows=flows),
            "hvp": lambda: hess @ v,
        }
        ms = {k: median_ms(fn) for k, fn in passes.items()}
        print(
            f"{name}: {circuit.num_sum_edges} sum edges x {len(batch)} rows: "
            + ", ".join(f"{k} {v:.1f} ms" for k, v in ms.items())
        )


if __name__ == "__main__":
    main()
