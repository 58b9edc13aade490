#!/usr/bin/env python3
"""Per-pass timings: Circuit.build from the circuit's own nodes (build; on
each of the four circuits below), forward, log_likelihood, backward,
trace_penalty_gradient, one Hessian-vector product (hvp; the operator is
built outside the timer) and one step (forward, backward and the penalty
from their trace and flows: the trace-dag benchmark's step) on the trace-dag
DAG (build_layered_dag(17, 79, seed=7), 16 binary rows) and the spiral RAT (RatConfig(num_vars=2, depth=1,
seed=1), 200 training rows), then on the spiral RAT log_likelihood,
backward, penalty, hvp, one 15-vector Hessian block product (matmat), the
top 15 Hessian eigenvalues (nll_hessian_eigenvalues: Lanczos, about a
hundred H v products) and diagnose-tree's 2-D 5 x 5 landscape on 5 rows, the
chunk size of the diagnose-tree workload, where per-call overhead dominates,
and forward, log_likelihood and backward on all 1000 spiral training rows,
the size of an epoch's validation NLL.  Then the same eigenvalue call (there
on the Hessian formed by one block product H I), one hvp and one matmat on
diagnose-tree's DAG (build_layered_dag(5, 6, seed=7), 5 binary rows).
Last, the em-hclt workload's HCLT (chow_liu_tree and build_hclt with
HcltConfig(num_latents=16, seed=7) on 1000 rows of its 16-variable
surrogate): forward, backward and one em_step_sharp (mu=0.1, smoothing 0.5)
on a 200-row minibatch, and forward and backward on all 1000 rows, an EM
epoch's log row.  The penalty reuses its flow table, so its first call also
fills the per-edge tables that the median calls read.  Prints the median of
REPEATS calls of each pass and, after it, the first call's time, in
milliseconds.  The first call meets the heap and caches that the calls before
it left, so a wide gap between the two points to allocation or cache state
rather than arithmetic.

Each circuit is timed in a freshly spawned process, so that no circuit is
timed with an allocator that another circuit's passes have warmed.

The package comes from PYTHONPATH, so the same script times any checkout:
    PYTHONPATH=src python scripts/time_passes.py [--json PATH]

With --json, the script also writes what it prints to PATH: per report line,
the circuit, its sum edges and rows, and each pass's median and first call in
milliseconds; with them the command, the machine (nproc, CPU model, L2 and
L3 sizes) and the Python, numpy and scipy versions.
"""

import argparse
import glob
import json
import multiprocessing
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy

from circuit_sharp import (
    Circuit,
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
from circuit_sharp.diagnostics import landscape, nll_hessian_eigenvalues
from circuit_sharp.structure import build_layered_dag

REPEATS = 40
CIRCUITS = ("trace-dag DAG", "spiral RAT", "diagnose-tree DAG", "em-hclt HCLT")
TOP_K = 15  # diagnose-tree's eigenvalue count


def times_ms(fn):
    """(median, first) of REPEATS calls of fn, in milliseconds."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times)), 1e3 * times[0]


def report(name, circuit, batch, passes):
    """Time passes, print one line and return it as a dict for --json."""
    ms = {k: times_ms(fn) for k, fn in passes.items()}
    print(
        f"{name}: {circuit.num_sum_edges} sum edges x {len(batch)} rows: "
        + ", ".join(f"{k} {med:.1f} ms (first {first:.1f})" for k, (med, first) in ms.items()),
        flush=True,
    )
    passes = {k: {"median_ms": med, "first_ms": first} for k, (med, first) in ms.items()}
    return {"circuit": name, "sum_edges": circuit.num_sum_edges, "rows": len(batch), "passes": passes}


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
        "build": lambda: Circuit.build(circuit.nodes, circuit.root),
        "forward": lambda: forward(circuit, params, batch),
        "log_likelihood": lambda: log_likelihood(circuit, params, batch),
        "backward": lambda: backward(circuit, params, trace),
        "penalty": lambda: trace_penalty_gradient(circuit, params, batch, trace=trace, flows=flows),
        "hvp": lambda: hess @ v,
        "step": step,
    }


def eigen_passes(circuit, params, batch):
    """diagnose-tree's eigenvalue call, one hvp and one TOP_K-vector matmat
    on one chunk."""
    hess = hessian_operator(circuit, params, batch)
    block = np.random.default_rng(5).standard_normal((circuit.num_sum_edges, TOP_K))
    return {
        "build": lambda: Circuit.build(circuit.nodes, circuit.root),
        "eigenvalues": lambda: nll_hessian_eigenvalues(circuit, params, batch, k=TOP_K),
        "hvp": passes(circuit, params, batch)["hvp"],
        "matmat": lambda: hess @ block,
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
    return [
        report(name, circuit, batch, {
            "build": lambda: Circuit.build(circuit.nodes, circuit.root),
            "forward": lambda: forward(circuit, params, batch),
            "backward": lambda: backward(circuit, params, trace),
            "em_step_sharp": lambda: em_step_sharp(circuit, params, batch, config),
        }),
        report(name, circuit, train, {
            "forward": lambda: forward(circuit, params, train),
            "backward": lambda: backward(circuit, params, full),
        }),
    ]


def time_circuit(name):
    """Time every pass on one circuit; with the spiral RAT, also the passes
    of diagnose-tree's 5-row chunks, and the NLL passes and backward on all
    of its training rows; on diagnose-tree's DAG, its eigenvalues, hvp and
    matmat.  Returns the report lines."""
    if name == "em-hclt HCLT":
        return time_hclt(name)
    if name == "diagnose-tree DAG":
        circuit, params = build_layered_dag(5, 6, seed=7)
        batch = (np.random.default_rng(3).random((5, 5)) < 0.5).astype(float)
        return [report(name, circuit, batch, eigen_passes(circuit, params, batch))]
    if name == "trace-dag DAG":
        circuit, params = build_layered_dag(17, 79, seed=7)
        batch = (np.random.default_rng(3).random((16, 17)) < 0.5).astype(float)
        large = None
    else:
        spiral, _, _ = minmax_scale(gen_manifold("spiral", 1000, noise=0.05, seed=1))
        circuit, params = build_rat(RatConfig(num_vars=2, depth=1, seed=1))
        batch, large = spiral.train[:200], spiral.train
    lines = [report(name, circuit, batch, passes(circuit, params, batch))]
    if large is not None:
        small = {**passes(circuit, params, batch[:5]), **eigen_passes(circuit, params, batch[:5])}
        small["landscape"] = lambda: landscape(circuit, params, batch[:5], mode="2d", grid_points=5, seed=1)
        keep = ("log_likelihood", "backward", "penalty", "hvp", "matmat", "eigenvalues", "landscape")
        lines.append(report(name, circuit, batch[:5], {k: small[k] for k in keep}))
        trace = forward(circuit, params, large)
        lines.append(report(name, circuit, large, {
            "forward": lambda: forward(circuit, params, large),
            "log_likelihood": lambda: log_likelihood(circuit, params, large),
            "backward": lambda: backward(circuit, params, trace),
        }))
    return lines


def machine():
    """nproc, CPU model and cache sizes (from /proc and /sys where Linux has
    them), and the interpreter and library versions."""
    cpu, caches = None, {}
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        with open(f"{index}/level") as lv, open(f"{index}/size") as sz:
            caches[f"L{lv.read().strip()}"] = sz.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main():
    parser = argparse.ArgumentParser(description="Per-pass timings, one fresh process per circuit.")
    parser.add_argument("--json", metavar="PATH", help="also write the timings, command and machine here")
    args = parser.parse_args()
    lines = []
    for name in CIRCUITS:  # one spawned worker per circuit; a worker that dies raises BrokenProcessPool
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            lines += pool.submit(time_circuit, name).result()
    if args.json:
        run = {"command": " ".join(["python", *sys.argv]), "machine": machine(), "reports": lines}
        with open(args.json, "w") as fh:
            json.dump(run, fh, indent=1)


if __name__ == "__main__":
    main()
