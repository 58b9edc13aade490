"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (``setup``), makes one
untimed warm-up call that fills lazy caches, and then repeats a fixed *unit*
of work: the task a user would run, made of *steps*, followed by the test NLL
and the sharpness of the resulting model.  Every unit of one run does the
same arithmetic, so its results repeat bit for bit.  ``checks`` holds the
correctness checks, which run outside the timed section.

The package is reached only through module attributes (``learning.sgd_train``,
never a name imported from it), so that the tracer's rebinding sees every
call the benchmark makes.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import circuit_sharp.curvature as curvature
import circuit_sharp.data as data
import circuit_sharp.diagnostics as diagnostics
import circuit_sharp.evaluate as evaluate
import circuit_sharp.flows as flows
import circuit_sharp.learning as learning
import circuit_sharp.structure as structure
from circuit_sharp.circuit import ParamSet
from circuit_sharp.errors import CircuitError

# What a failed step or check raises: the package's typed errors (NotConverged
# among them) and its argument checks.
FAILURES = (CircuitError, ValueError)

# Seed of the fixed model that em-hclt initialises from, trace-dag evaluates
# and diagnose-tree diagnoses; the workload seed draws their data.  Seeding
# the model from the workload seed too makes sharpness vary by 10-19%
# (quartile spread over ten seeds), which would hide a regression of that
# size, and it moves trace-dag's step time with the DAG's wiring.
MODEL_SEED = 7

# Tolerances of the correctness checks.
DIRECTIONAL_RTOL = 1e-4
DIRECTIONAL_STEP = 1e-6
TRACE_DIAG_RTOL = 1e-12
TREE_DIAG_RTOL = 1e-10
SYMMETRY_RTOL = 1e-12


@dataclass
class UnitResult:
    step_times: list[float]
    failed_steps: int
    test_nll: float
    sharpness: float
    outputs: list  # arrays and floats that must all be finite
    params: ParamSet  # the parameters the unit returned (or used)


def phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def mean_nll(circuit, params, rows) -> float:
    return float(-evaluate.forward(circuit, params, rows).root_log_p.mean())


def binary_rows(rng, n: int, num_vars: int) -> np.ndarray:
    return (rng.random((n, num_vars)) < 0.5).astype(float)


def all_finite(values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def check_params(circuit, params) -> tuple[bool, str]:
    """ParamSet.check, plus finiteness, which it does not test for every family."""
    try:
        params.check(circuit)
    except ValueError as exc:
        return False, str(exc)
    finite = all_finite([params.edge_vector(circuit), *params.leaf_params.values()])
    return finite, "" if finite else "non-finite parameter"


def training_unit(circuit, params, report, train, test) -> UnitResult:
    """A trained model's unit result; each epoch is a step, timed by the
    cumulative seconds column of the TrainReport."""
    steps = np.diff([0.0, *report.series("seconds")]).tolist()
    logged = [report.series(k) for k in ("train_nll", "valid_nll", "sharpness")]
    sharp = curvature.hessian_trace(circuit, params, train)
    return UnitResult(steps, 0, mean_nll(circuit, params, test), sharp, logged, params)


# -- checks shared by workloads -------------------------------------------------


def check_directional(circuit, params, batch, seed: int) -> tuple[bool, str]:
    """trace_penalty_gradient against a central difference of hessian_trace
    along one seeded direction; the direction scales each weight by a normal
    draw, so the probes stay positive."""
    theta = params.edge_vector(circuit)
    direction = theta * np.random.default_rng(seed).standard_normal(theta.size)

    def trace_at(vec):
        probe = params.copy()
        probe.set_edge_vector(circuit, vec)
        return curvature.hessian_trace(circuit, probe, batch)

    h = DIRECTIONAL_STEP
    numeric = (trace_at(theta + h * direction) - trace_at(theta - h * direction)) / (2.0 * h)
    exact = float(curvature.trace_penalty_gradient(circuit, params, batch) @ direction)
    rel = abs(numeric - exact) / abs(exact)
    return rel <= DIRECTIONAL_RTOL, f"relative error {rel:.2e}"


def check_trace_is_diag_sum(circuit, params, batch) -> tuple[bool, str]:
    trace = curvature.hessian_trace(circuit, params, batch)
    diag_sum = -float(curvature.hessian_diag(circuit, params, batch).sum())
    rel = abs(trace - diag_sum) / abs(trace)
    return rel <= TRACE_DIAG_RTOL, f"relative difference {rel:.2e}"


# -- workloads ------------------------------------------------------------------


class SgdSpiral:
    name = "sgd-spiral"
    # One unit trains a fresh model for this many epochs.  Over ten seeds the
    # quartile spread of test NLL and sharpness is 4% at 10 epochs, 15% at 20.
    epochs = 10
    steps_per_unit = epochs
    config = learning.RegularizerConfig(mu=0.1)

    def setup(self, seed: int, tracer=None):
        with phase(tracer, "data.gen"):
            ds = data.gen_manifold("spiral", 1000, noise=0.05, seed=seed)
            ds, _, _ = data.minmax_scale(ds)
            ds = data.subsample(ds, data.FractionSpec(0.05, seed))
        circuit, params = structure.build_rat(structure.RatConfig(num_vars=2, depth=1, seed=seed))
        return SimpleNamespace(seed=seed, ds=ds, circuit=circuit, params=params)

    def _train(self, s, epochs):
        return learning.sgd_train(
            s.circuit, s.params, s.ds.train, s.ds.valid, config=self.config,
            epochs=epochs, batch_size=200, lr=0.1, seed=s.seed,
        )

    def warm_up(self, s) -> None:
        self._train(s, 1)

    def unit(self, s) -> UnitResult:
        return training_unit(s.circuit, *self._train(s, self.epochs), s.ds.train, s.ds.test)

    def checks(self, s, result: UnitResult):
        return [
            ("directional_derivative", lambda: check_directional(s.circuit, result.params, s.ds.train, s.seed)),
            ("trace_is_diag_sum", lambda: check_trace_is_diag_sum(s.circuit, result.params, s.ds.train)),
        ]


class EmHclt:
    name = "em-hclt"
    # Sharpness spreads more across seeds the longer EM runs: 4% at 2 epochs,
    # 12% at 5, 15% at 10.
    epochs = 2
    steps_per_unit = epochs
    num_vars = 16
    config = learning.RegularizerConfig(mu=0.1, smoothing_alpha=0.5)

    @staticmethod
    def surrogate(rng, n: int) -> np.ndarray:
        """Rows of a fixed 3-factor logistic model over 16 binary variables
        (the acceptance suite's EM surrogate, narrowed to 16 variables)."""
        model = np.random.default_rng(10)
        loadings = model.standard_normal((3, EmHclt.num_vars)) * 1.5
        bias = model.uniform(-0.5, 0.5, EmHclt.num_vars)
        logits = rng.standard_normal((n, 3)) @ loadings + bias
        return (rng.random((n, EmHclt.num_vars)) < 1.0 / (1.0 + np.exp(-logits))).astype(float)

    def setup(self, seed: int, tracer=None):
        with phase(tracer, "data.gen"):
            rng = np.random.default_rng(seed)
            train, valid, test = (self.surrogate(rng, n) for n in (1000, 250, 1000))
        tree = structure.chow_liu_tree(train, 0.1)
        circuit, params = structure.build_hclt(
            tree, structure.HcltConfig(num_latents=16, seed=MODEL_SEED), data=train
        )
        return SimpleNamespace(seed=seed, train=train, valid=valid, test=test, circuit=circuit, params=params)

    def _train(self, s, epochs):
        return learning.em_train(
            s.circuit, s.params, s.train, s.valid, config=self.config,
            epochs=epochs, batch_size=200, seed=MODEL_SEED,
        )

    def warm_up(self, s) -> None:
        self._train(s, 1)

    def unit(self, s) -> UnitResult:
        return training_unit(s.circuit, *self._train(s, self.epochs), s.train, s.test)

    def checks(self, s, result: UnitResult):
        def mu0_is_vanilla():
            batch = s.train[:200]
            config = learning.RegularizerConfig(mu=0.0, smoothing_alpha=0.5)
            sharp = learning.em_step_sharp(s.circuit, result.params, batch, config)
            vanilla = learning.em_step_vanilla(s.circuit, result.params, batch, alpha=0.5)
            same = all(np.array_equal(sharp.sum_weights[n], vanilla.sum_weights[n]) for n in s.circuit.sum_nodes)
            return same, "bit for bit" if same else "weights differ"

        return [("sharp_em_mu0_is_vanilla", mu0_is_vanilla)]


class TraceDag:
    name = "trace-dag"
    # Units of about 1.5 s, like the training units, so that the reference
    # blocks around each unit see the machine at the unit's own speed.
    batches = 4
    batch_rows = 16
    steps_per_unit = batches

    def setup(self, seed: int, tracer=None):
        with phase(tracer, "data.gen"):
            rng = np.random.default_rng(seed)
            rows = binary_rows(rng, self.batches * self.batch_rows, 17)
            test = binary_rows(rng, 64, 17)
        circuit, params = structure.build_layered_dag(17, 79, seed=MODEL_SEED)
        batches = np.split(rows, self.batches)
        return SimpleNamespace(seed=seed, batches=batches, test=test, circuit=circuit, params=params)

    def step(self, s, batch) -> np.ndarray:
        trace = evaluate.forward(s.circuit, s.params, batch)
        table = flows.backward(s.circuit, s.params, trace)
        grad = curvature.trace_penalty_gradient(s.circuit, s.params, batch, trace=trace, flows=table)
        return np.concatenate([trace.root_log_p, grad])

    def warm_up(self, s) -> None:
        self.step(s, s.batches[0])

    def unit(self, s) -> UnitResult:
        times, failed, outputs = timed_steps(lambda b: self.step(s, b), s.batches)
        test_nll = mean_nll(s.circuit, s.params, s.test)
        sharp = curvature.hessian_trace(s.circuit, s.params, s.batches[0])
        return UnitResult(times, failed, test_nll, sharp, outputs, s.params)

    def checks(self, s, result: UnitResult):
        batch = s.batches[0]
        return [
            ("directional_derivative", lambda: check_directional(s.circuit, s.params, batch, s.seed)),
            ("trace_is_diag_sum", lambda: check_trace_is_diag_sum(s.circuit, s.params, batch)),
        ]


class DiagnoseTree:
    name = "diagnose-tree"
    # The 50 train rows are diagnosed in chunks, steps_per_unit chunks per
    # unit in turn, so that a unit takes about 1.5 s (see TraceDag.batches).
    chunk_rows = 5
    chunks = 50 // chunk_rows
    steps_per_unit = 2
    grid_points = 5
    top_k = 15

    def setup(self, seed: int, tracer=None):
        with phase(tracer, "data.gen"):
            ds = data.gen_manifold("spiral", 1000, noise=0.05, seed=seed)
            ds, _, _ = data.minmax_scale(ds)
            ds = data.subsample(ds, data.FractionSpec(0.05, seed))
            dag_rows = binary_rows(np.random.default_rng(seed), 50, 5)
        tree, _ = structure.build_rat(structure.RatConfig(num_vars=2, depth=1, seed=MODEL_SEED))
        tree_params = ParamSet.uniform(tree, np.random.default_rng(MODEL_SEED))
        dag, dag_params = structure.build_layered_dag(5, 6, seed=MODEL_SEED)
        chunks = list(zip(np.split(ds.train, self.chunks), np.split(dag_rows, self.chunks)))
        turns = itertools.cycle(range(0, self.chunks, self.steps_per_unit))
        return SimpleNamespace(
            seed=seed, ds=ds, chunks=chunks, turns=turns, circuit=tree, params=tree_params, dag=dag,
            dag_params=dag_params,
        )

    def step(self, s, chunk) -> np.ndarray:
        rows, dag_rows = chunk
        grid = diagnostics.landscape(
            s.circuit, s.params, rows, mode="2d", grid_points=self.grid_points, seed=s.seed
        )
        tree_eig = diagnostics.nll_hessian_eigenvalues(s.circuit, s.params, rows, k=self.top_k)
        dag_eig = diagnostics.nll_hessian_eigenvalues(s.dag, s.dag_params, dag_rows, k=self.top_k)
        return np.concatenate([grid.values.ravel(), tree_eig, dag_eig])

    def warm_up(self, s) -> None:
        self.step(s, s.chunks[0])

    def unit(self, s) -> UnitResult:
        first = next(s.turns)
        times, failed, outputs = timed_steps(lambda c: self.step(s, c), s.chunks[first : first + self.steps_per_unit])
        test_nll = mean_nll(s.circuit, s.params, s.ds.test)
        sharp = curvature.hessian_trace(s.circuit, s.params, s.ds.train)
        return UnitResult(times, failed, test_nll, sharp, outputs, s.params)

    def checks(self, s, result: UnitResult):
        rows = s.chunks[0][0]

        def tree_hessian():
            dense = curvature.full_hessian_tree(s.circuit, s.params, rows)
            diag = curvature.hessian_diag(s.circuit, s.params, rows)
            diag_ok = np.allclose(np.diag(dense), diag, rtol=TREE_DIAG_RTOL, atol=0.0)
            asym = float(np.abs(dense - dense.T).max())
            sym_ok = asym <= SYMMETRY_RTOL * float(np.abs(dense).max())
            return diag_ok and sym_ok, f"diagonal {'matches' if diag_ok else 'differs'}, max asymmetry {asym:.2e}"

        def landscape_origin():
            grid = diagnostics.landscape(
                s.circuit, s.params, rows, mode="2d", grid_points=self.grid_points, seed=s.seed
            )
            nll = mean_nll(s.circuit, s.params, rows)
            centre = self.grid_points // 2
            ok = grid.origin_value == nll and grid.values[centre, centre] == nll
            return ok, f"origin {grid.origin_value!r}, forward {nll!r}"

        return [
            ("tree_hessian_diag_and_symmetry", tree_hessian),
            ("landscape_origin_exact", landscape_origin),
            ("dag_params_check", lambda: check_params(s.dag, s.dag_params)),
        ]


def timed_steps(step, inputs) -> tuple[list[float], int, list]:
    """Run step on each input; a step fails when it raises one of FAILURES
    or returns non-finite values."""
    times, failed, outputs = [], 0, []
    for item in inputs:
        t0 = time.perf_counter()
        try:
            out = step(item)
        except FAILURES:
            failed += 1
            continue
        elapsed = time.perf_counter() - t0
        if not all_finite([out]):
            failed += 1
            continue
        times.append(elapsed)
        outputs.append(out)
    return times, failed, outputs


WORKLOADS = {w.name: w for w in (SgdSpiral(), EmHclt(), TraceDag(), DiagnoseTree())}
