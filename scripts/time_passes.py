#!/usr/bin/env python3
"""Per-pass timings: forward, log_likelihood, backward, trace_penalty_gradient,
one Hessian-vector product (hvp; the operator is built outside the timer) and
one step (forward, backward and the penalty from their trace and flows: the
trace-dag benchmark's step) on the trace-dag DAG (build_layered_dag(17, 79,
seed=7), 16 binary rows) and the spiral RAT (RatConfig(num_vars=2, depth=1,
seed=1), 200 training rows), then on the spiral RAT log_likelihood,
backward, penalty and hvp on 5 rows,
the chunk size of the diagnose-tree workload, where per-call overhead
dominates, and forward, log_likelihood and backward on all 1000 spiral
training rows, the size of an epoch's validation NLL.  Last, the em-hclt
workload's HCLT (chow_liu_tree and build_hclt with HcltConfig(num_latents=16,
seed=7) on 1000 rows of its 16-variable surrogate): forward, backward and
one em_step_sharp (mu=0.1, smoothing 0.5) on a 200-row minibatch, and
forward and backward on all 1000 rows, an EM epoch's log row.  The penalty
reuses its flow table, so its first call also fills the per-edge tables
that the median calls read.  Prints the median of
REPEATS calls of each pass and, after it, the first call's time, in
milliseconds.  The first call meets the heap and caches that the calls before
it left, so a wide gap between the two points to allocation or cache state
rather than arithmetic.

Each circuit is timed in a freshly spawned process, so that no circuit is
timed with an allocator that another circuit's passes have warmed.

The package comes from PYTHONPATH, so the same script times any checkout:
    PYTHONPATH=src python scripts/time_passes.py
"""

import multiprocessing
import sys
import time

import numpy as np

from circuit_sharp import (
    HcltConfig,
    RatConfig,
    RegularizerConfig,
    backward,
    build_hclt,
    build_rat,
    chow_liu_tree,
    em_step_sharp,
    forward,
    log_likelihood,
)
from circuit_sharp.curvature import hessian_operator, trace_penalty_gradient
from circuit_sharp.data import gen_manifold, minmax_scale
from circuit_sharp.structure import build_layered_dag

REPEATS = 40
CIRCUITS = ("trace-dag DAG", "spiral RAT", "em-hclt HCLT")


def times_ms(fn):
    """(median, first) of REPEATS calls of fn, in milliseconds."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times)), 1e3 * times[0]


def report(name, circuit, batch, passes):
    ms = {k: times_ms(fn) for k, fn in passes.items()}
    print(
        f"{name}: {circuit.num_sum_edges} sum edges x {len(batch)} rows: "
        + ", ".join(f"{k} {med:.1f} ms (first {first:.1f})" for k, (med, first) in ms.items()),
        flush=True,
    )


def passes(circuit, params, batch):
    """Every pass on one batch, as zero-argument callables."""
    trace = forward(circuit, params, batch)
    flows = backward(circuit, params, trace)
    hess = hessian_operator(circuit, params, batch)
    v = np.random.default_rng(5).standard_normal(circuit.num_sum_edges)

    def step():
        t = forward(circuit, params, batch)
        return trace_penalty_gradient(circuit, params, batch, trace=t, flows=backward(circuit, params, t))

    return {
        "forward": lambda: forward(circuit, params, batch),
        "log_likelihood": lambda: log_likelihood(circuit, params, batch),
        "backward": lambda: backward(circuit, params, trace),
        "penalty": lambda: trace_penalty_gradient(circuit, params, batch, trace=trace, flows=flows),
        "hvp": lambda: hess @ v,
        "step": step,
    }


def surrogate_rows(n):
    """n rows of the em-hclt workload's data (seed 1): a fixed 3-factor
    logistic model over 16 binary variables."""
    model = np.random.default_rng(10)
    loadings = model.standard_normal((3, 16)) * 1.5
    bias = model.uniform(-0.5, 0.5, 16)
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((n, 3)) @ loadings + bias
    return (rng.random((n, 16)) < 1.0 / (1.0 + np.exp(-logits))).astype(float)


def time_hclt(name):
    """Time em-hclt's EM passes on a minibatch and on all its training rows."""
    train = surrogate_rows(1000)
    circuit, params = build_hclt(chow_liu_tree(train, 0.1), HcltConfig(num_latents=16, seed=7), data=train)
    batch, config = train[:200], RegularizerConfig(mu=0.1, smoothing_alpha=0.5)
    trace, full = forward(circuit, params, batch), forward(circuit, params, train)
    report(name, circuit, batch, {
        "forward": lambda: forward(circuit, params, batch),
        "backward": lambda: backward(circuit, params, trace),
        "em_step_sharp": lambda: em_step_sharp(circuit, params, batch, config),
    })
    report(name, circuit, train, {
        "forward": lambda: forward(circuit, params, train),
        "backward": lambda: backward(circuit, params, full),
    })


def time_circuit(name):
    """Time every pass on one circuit; with the spiral RAT, also the passes
    of diagnose-tree's 5-row chunks, and the NLL passes and backward on all
    of its training rows."""
    if name == "em-hclt HCLT":
        return time_hclt(name)
    if name == "trace-dag DAG":
        circuit, params = build_layered_dag(17, 79, seed=7)
        batch = (np.random.default_rng(3).random((16, 17)) < 0.5).astype(float)
        large = None
    else:
        spiral, _, _ = minmax_scale(gen_manifold("spiral", 1000, noise=0.05, seed=1))
        circuit, params = build_rat(RatConfig(num_vars=2, depth=1, seed=1))
        batch, large = spiral.train[:200], spiral.train
    report(name, circuit, batch, passes(circuit, params, batch))
    if large is not None:
        small = passes(circuit, params, batch[:5])
        report(name, circuit, batch[:5], {k: small[k] for k in ("log_likelihood", "backward", "penalty", "hvp")})
        trace = forward(circuit, params, large)
        report(name, circuit, large, {
            "forward": lambda: forward(circuit, params, large),
            "log_likelihood": lambda: log_likelihood(circuit, params, large),
            "backward": lambda: backward(circuit, params, trace),
        })


def main():
    spawn = multiprocessing.get_context("spawn")
    for name in CIRCUITS:
        proc = spawn.Process(target=time_circuit, args=(name,))
        proc.start()
        proc.join()
        if proc.exitcode != 0:
            sys.exit(f"timing {name} failed with exit code {proc.exitcode}")


if __name__ == "__main__":
    main()
