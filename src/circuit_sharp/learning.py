"""Parameter estimation: vanilla and sharpness-aware EM, regularized gradient
descent, leaf updates, and regularization-weight schedules.

The sharpness-aware M-step solves, per edge, the quadratic
lambda theta^2 - F theta - mu F = 0 whose unique nonnegative root is
(F + sqrt(F^2 + 4 lambda mu F)) / (2 lambda), then projects each sum node
back onto the simplex and applies running-average smoothing.  The cubic
variant (direct trace constraint) is costlier and numerically touchier, which
is why training uses the quadratic form.

Every update here acts on whole flat arrays: sum weights through the
circuit's sum-edge segments, leaf parameters one family at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from .circuit import Circuit, ParamSet
from .curvature import trace_penalty_gradient
from .errors import DivergedNaN
from .evaluate import EvalTrace, forward
from .flows import FlowTable, backward, loglik_gradient

KAPPA = 1.05  # adaptive_dof: mu grows by this factor per percentage point of DoF

FIXED = "fixed"
ADAPTIVE_DOF = "adaptive_dof"
LAYER_MEAN_FLOW = "layer_mean_flow"


@dataclass
class RegularizerConfig:
    """Knobs of the sharpness-aware update.

    mu is the regularization weight (0 disables), lam the simplex multiplier
    (fixed at 1 in practice, the KKT system has no closed form for it),
    smoothing_alpha the running-average factor, and schedule one of
    fixed / adaptive_dof / layer_mean_flow.
    """

    mu: float = 0.0
    lam: float = 1.0
    smoothing_alpha: float = 1.0
    schedule: str = FIXED

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu!r}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be finite and > 0, got {self.lam!r}")
        if not 0.0 <= self.smoothing_alpha <= 1.0:
            raise ValueError("smoothing alpha must lie in [0, 1]")
        if self.schedule not in (FIXED, ADAPTIVE_DOF, LAYER_MEAN_FLOW):
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass
class EpochRow:
    epoch: int
    train_nll: float
    valid_nll: float
    sharpness: float
    dof: float
    mu: float
    seconds: float


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,train_nll,valid_nll,sharpness,dof,mu,seconds\n")
            for r in self.rows:
                fh.write(
                    f"{r.epoch},{float(r.train_nll)!r},{float(r.valid_nll)!r},{float(r.sharpness)!r},"
                    f"{float(r.dof)!r},{float(r.mu)!r},{float(r.seconds)!r}\n"
                )

    @property
    def final(self) -> EpochRow:
        return self.rows[-1]

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


# -- closed-form updates -------------------------------------------------------


def sharp_update(flow_sum, lam: float, mu) -> np.ndarray | float:
    """Unique nonnegative root of lambda t^2 - F t - mu F = 0 (elementwise).

    The discriminant F^2 + 4 lambda mu F is nonnegative whenever F, lambda,
    mu are, so the root is always real.
    """
    f = np.asarray(flow_sum, dtype=float)
    disc = f * f + 4.0 * lam * np.asarray(mu, dtype=float) * f
    if np.any(disc < 0):
        raise ValueError("negative discriminant: flow sums must be nonnegative")
    out = (f + np.sqrt(disc)) / (2.0 * lam)
    return out if out.ndim else float(out)


# -- EM steps -------------------------------------------------------------------


def _edge_flow_sums(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    return backward(circuit, params, forward(circuit, params, batch)).edge_flow_sum


def _m_step(
    circuit: Circuit,
    params: ParamSet,
    flow_sums: np.ndarray,
    alpha: float,
    lam: float,
    mu,
) -> ParamSet:
    """Shared M-step; mu == 0 takes the plain count-normalization path so the
    degeneration to vanilla EM is exact.  Sum nodes whose edges carry no
    flow keep their weights."""
    seg = circuit.sum_segments
    mu_vec = np.broadcast_to(np.asarray(mu, dtype=float), flow_sums.shape)
    total = seg.sum(flow_sums)[seg.ids]
    live = total > 0.0
    if np.any(mu_vec > 0):
        t = sharp_update(flow_sums, lam, mu_vec)
        mini = seg.normalize(np.maximum(t, 1e-8))  # zero-flow edges: floor before projection
    else:
        mini = seg.normalize(np.maximum(flow_sums / np.where(live, total, 1.0), 1e-12))
    new = params.copy()
    new.theta = np.where(live, (1.0 - alpha) * params.theta + alpha * mini, params.theta)
    return new


def em_step_vanilla(circuit: Circuit, params: ParamSet, batch: np.ndarray, alpha: float = 1.0) -> ParamSet:
    """One EM step on sum weights: flow-proportional M-step plus smoothing.

    Sum nodes whose children all received zero flow over the whole batch are
    left untouched.
    """
    flow_sums = _edge_flow_sums(circuit, params, batch)
    return _m_step(circuit, params, flow_sums, alpha, 1.0, 0.0)


def em_step_sharp(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    config: RegularizerConfig,
) -> ParamSet:
    """Sharpness-aware EM step; with mu = 0 it equals em_step_vanilla exactly."""
    flow_sums = _edge_flow_sums(circuit, params, batch)
    return _m_step(circuit, params, flow_sums, config.smoothing_alpha, config.lam, config.mu)


def _leaf_columns(circuit: Circuit, flows: FlowTable, batch: np.ndarray) -> dict:
    """Per leaf family, the leaves' flows and data columns, both [samples, leaves]."""
    groups = circuit.leaf_groups()
    return {f: (flows.node_flow[ids].T, batch[:, var]) for f, (ids, var) in groups.items()}


def _cat_counts(seg, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Flow-weighted count of every category of every categorical leaf, in
    the flat layout of ParamSet.cat."""
    idx = seg.starts + x.astype(np.int64)
    return np.bincount(idx.ravel(), weights=w.ravel(), minlength=seg.ids.size)


def update_leaves(
    circuit: Circuit,
    params: ParamSet,
    flows: FlowTable,
    batch: np.ndarray,
    alpha: float = 1.0,
) -> ParamSet:
    """Flow-weighted maximum-likelihood refit of leaf parameters.

    Bernoulli means are clamped to [1e-6, 1 - 1e-6], Gaussian variances are
    floored at 1e-4, categorical probabilities at 1e-9, and leaves with zero
    total flow keep their parameters.
    """
    columns = _leaf_columns(circuit, flows, batch)
    new = params.copy()
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-flow leaves are masked out
        w, x = columns["bern"]
        total = w.sum(axis=0)
        p = np.clip((w * x).sum(axis=0) / total, 1e-6, 1.0 - 1e-6)
        new.bern = np.where(total > 0, (1.0 - alpha) * params.bern + alpha * p, params.bern)

        w, x = columns["gauss"]
        total = w.sum(axis=0)
        mean = (w * x).sum(axis=0) / total
        var = np.maximum((w * (x - mean) ** 2).sum(axis=0) / total, 1e-4)
        old_mean, old_sd = params.gauss.T
        sd = np.sqrt((1.0 - alpha) * old_sd**2 + alpha * var)
        fit = np.column_stack([(1.0 - alpha) * old_mean + alpha * mean, sd])
        new.gauss = np.where((total > 0)[:, None], fit, params.gauss)

        w, x = columns["cat"]
        seg = circuit.cat_segments
        total = w.sum(axis=0)[seg.ids]
        probs = seg.normalize(np.maximum(_cat_counts(seg, w, x) / total, 1e-9))
        mixed = seg.normalize((1.0 - alpha) * params.cat + alpha * probs)
        new.cat = np.where(total > 0, mixed, params.cat)
    return new


# -- mu schedules ----------------------------------------------------------------
# fixed uses config.mu throughout; the other two replace it as training runs.


def layer_mean_flow(flow_sums: np.ndarray, layers: np.ndarray) -> np.ndarray:
    """Per-edge mu for the minibatch: the mean flow of each edge's layer."""
    mu = np.empty_like(flow_sums)
    for layer in np.unique(layers):
        sel = layers == layer
        mu[sel] = flow_sums[sel].mean()
    return mu


def adaptive_mu(train_nll: float, valid_nll: float, g_data: float, g_reg: float, prev_mu):
    """mu for the next epoch: KAPPA^DoF * g_data/g_reg with
    DoF = 100 |NLL_val - NLL_train| / |NLL_train|, falling back to the
    previous value when the regularizer gradient vanishes."""
    if g_reg <= 0.0 or not np.isfinite(g_reg):
        return prev_mu
    dof_pct = 100.0 * abs(valid_nll - train_nll) / abs(train_nll)
    return KAPPA**dof_pct * g_data / g_reg


# -- training loops ---------------------------------------------------------------


def _mean_nll(circuit: Circuit, params: ParamSet, data: np.ndarray) -> float:
    # forward, not log_likelihood: perfbench's tracer spans forward only
    return float(-forward(circuit, params, data).root_log_p.mean())


def _epoch_row(circuit, params, train, valid, epoch, mu, t0) -> tuple[EpochRow, EvalTrace, FlowTable]:
    """The epoch's log row, and the train-set trace and flows it was read from.
    The validation pass runs first, so that it does not peak on top of them."""
    valid_nll = _mean_nll(circuit, params, valid) if valid is not None else float("nan")
    trace = forward(circuit, params, train)
    flows = backward(circuit, params, trace)
    train_nll = float(-trace.root_log_p.mean())
    sharp = float((flows.edge_flow_sq_sum / params.theta**2).sum())  # hessian_trace's contraction
    dof = (valid_nll - train_nll) / abs(train_nll) if valid is not None else float("nan")
    mu_scalar = float(np.mean(mu))
    return EpochRow(epoch, train_nll, valid_nll, sharp, dof, mu_scalar, time.perf_counter() - t0), trace, flows


def check_fit(epochs: int, batch_size: int, lr: float | None = None) -> None:
    """Raise ValueError unless the epoch loop (``_fit``) gets at least 0
    epochs and a batch_size, the rows of a minibatch, of at least 1, and,
    when given (``sgd_train``'s step size), an lr that is finite and > 0."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if lr is not None and not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")


def _fit(circuit, params, train, valid, config, epochs, batch_size, seed, step) -> tuple[ParamSet, TrainReport]:
    """The epoch loop of both learners.  Per minibatch one forward and one
    backward, then step(params, batch, trace, flows, mu) -> params, the
    learner's update; per epoch a log row, then the adaptive_dof mu.

    A DivergedNaN raised by step, or an epoch whose train NLL is not finite,
    leaves with the parameters that epoch started from and the report so far.
    Raises ValueError for epochs below 0 or a batch_size below 1."""
    check_fit(epochs, batch_size)
    rng = np.random.default_rng(seed)
    report = TrainReport()
    t0 = time.perf_counter()
    mu = config.mu
    for epoch in range(1, epochs + 1):
        start = params  # steps return new ParamSets, so this one stays as it is
        order = rng.permutation(len(train))
        for lo in range(0, len(train), batch_size):
            batch = train[order[lo : lo + batch_size]]
            trace = forward(circuit, params, batch)
            flows = backward(circuit, params, trace)
            if config.schedule == LAYER_MEAN_FLOW:
                mu = layer_mean_flow(flows.edge_flow_sum, circuit.edge_layer)
            try:
                params = step(params, batch, trace, flows, mu)
            except DivergedNaN as exc:
                exc.params, exc.report = start, report
                raise
        trace = flows = None  # the last batch's tables, freed before the full-train pass
        row, trace, flows = _epoch_row(circuit, params, train, valid, epoch, mu, t0)
        if not np.isfinite(row.train_nll):
            raise DivergedNaN("non-finite log-likelihood", start, report)
        report.rows.append(row)
        if config.schedule == ADAPTIVE_DOF and valid is not None:
            g_data = float(np.linalg.norm(loglik_gradient(flows, params)))
            g_reg = float(np.linalg.norm(trace_penalty_gradient(circuit, params, train, trace=trace, flows=flows)))
            mu = adaptive_mu(row.train_nll, row.valid_nll, g_data, g_reg, mu)
    return params, report


def em_train(
    circuit: Circuit,
    params: ParamSet,
    train: np.ndarray,
    valid: np.ndarray | None = None,
    config: RegularizerConfig | None = None,
    epochs: int = 100,
    batch_size: int = 200,
    seed: int = 0,
    update_leaf_params: bool = True,
) -> tuple[ParamSet, TrainReport]:
    """Mini-batch EM with the sharpness-aware M-step (vanilla when mu = 0)."""
    config = config or RegularizerConfig()

    def step(params, batch, trace, flows, mu):
        params = _m_step(circuit, params, flows.edge_flow_sum, config.smoothing_alpha, config.lam, mu)
        if update_leaf_params:
            params = update_leaves(circuit, params, flows, batch, config.smoothing_alpha)
        return params

    return _fit(circuit, params.copy(), train, valid, config, epochs, batch_size, seed, step)


class Adam:
    """Adam on a flat parameter vector (paper-style defaults except lr)."""

    def __init__(self, size: int, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        with np.errstate(over="ignore"):  # a diverging gradient; its non-finite NLL stops the run
            self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        mhat = self.m / (1 - self.b1**self.t)
        vhat = self.v / (1 - self.b2**self.t)
        return -self.lr * mhat / (np.sqrt(vhat) + self.eps)


class _Unconstrained:
    """Bijection between a ParamSet and a flat unconstrained vector.

    The vector is [sum-weight logits | Bernoulli logits | Gaussian (mean,
    log sigma) rows | categorical log probabilities]; logits map back through
    the segment softmax.  Without train_leaves it holds the logits only.
    """

    def __init__(self, circuit: Circuit, train_leaves: bool):
        self.circuit = circuit
        self.train_leaves = train_leaves
        groups = circuit.leaf_groups()
        sizes = [circuit.num_sum_edges]
        if train_leaves:
            sizes += [groups["bern"][0].size, 2 * groups["gauss"][0].size, circuit.cat_segments.ids.size]
        self.cuts = np.cumsum(sizes)[:-1]

    def flatten(self, params: ParamSet) -> np.ndarray:
        parts = [np.log(params.theta)]
        if self.train_leaves:
            q = np.clip(params.bern, 1e-9, 1 - 1e-9)
            gauss = np.column_stack([params.gauss[:, 0], np.log(params.gauss[:, 1])])
            parts += [np.log(q / (1 - q)), gauss.ravel(), np.log(np.maximum(params.cat, 1e-12))]
        return np.concatenate(parts)

    def unflatten(self, vec: np.ndarray, params: ParamSet) -> ParamSet:
        out = params.copy()
        parts = np.split(vec, self.cuts)
        out.theta = self.circuit.sum_segments.softmax(parts[0])
        if self.train_leaves:
            logits, gauss, cat = parts[1], parts[2].reshape(-1, 2), parts[3]
            out.bern = scipy.special.expit(logits)
            with np.errstate(over="ignore"):  # inf sigma is the divergence signal
                out.gauss = np.column_stack([gauss[:, 0], np.exp(gauss[:, 1])])
            out.cat = self.circuit.cat_segments.softmax(cat)
        return out

    def gradient(self, params: ParamSet, raw_theta_grad: np.ndarray, flows: FlowTable, batch) -> np.ndarray:
        """Chain raw d/d theta through the softmax and append the leaf
        gradients of the NLL (the penalty has none)."""
        seg = self.circuit.sum_segments
        theta = params.theta
        parts = [theta * (raw_theta_grad - seg.sum(theta * raw_theta_grad)[seg.ids])]
        if self.train_leaves:
            columns = _leaf_columns(self.circuit, flows, batch)
            w, x = columns["bern"]
            parts.append(-np.sum(w * ((x > 0.5) - params.bern), axis=0))
            w, x = columns["gauss"]
            mean, sd = params.gauss.T
            with np.errstate(over="ignore", invalid="ignore"):  # a diverged sigma: DivergedNaN follows
                z = (x - mean) / sd
                dmean, dlogsd = np.sum(w * z / sd, axis=0), np.sum(w * (z * z - 1.0), axis=0)
            parts.append(-np.column_stack([dmean, dlogsd]).ravel())
            w, x = columns["cat"]
            seg = self.circuit.cat_segments
            parts.append(-(_cat_counts(seg, w, x) - w.sum(axis=0)[seg.ids] * params.cat))
        return np.concatenate(parts)


def sgd_train(
    circuit: Circuit,
    params: ParamSet,
    train: np.ndarray,
    valid: np.ndarray | None = None,
    config: RegularizerConfig | None = None,
    epochs: int = 200,
    batch_size: int = 200,
    lr: float = 0.1,
    seed: int = 0,
    update_leaf_params: bool = True,
) -> tuple[ParamSet, TrainReport]:
    """Adam on unconstrained logits for NLL + mu * trace penalty.

    The penalty gradient is exact: that of sum_x sum_e (F_e/theta_e)^2 is
    2 sum_x H_x g_x, a Hessian-vector product per sample along its gradient
    g_x = F_x/theta (``trace_penalty_gradient``).  Raises ValueError for an
    lr that is not finite and > 0, and DivergedNaN (carrying the last finite
    parameters) if the objective leaves the reals.
    """
    check_fit(epochs, batch_size, lr)
    config = config or RegularizerConfig()
    mapper = _Unconstrained(circuit, update_leaf_params)
    vec = mapper.flatten(params)
    opt = Adam(vec.size, lr)

    def step(params, batch, trace, flows, mu):
        nonlocal vec
        if not np.all(np.isfinite(trace.root_log_p)):
            raise DivergedNaN("non-finite log-likelihood")
        raw = -loglik_gradient(flows, params)  # d(NLL)/d theta
        if np.any(np.asarray(mu) > 0):
            if np.ndim(mu):  # layer_mean_flow: per-edge weights inside the penalty
                raw = raw + trace_penalty_gradient(circuit, params, batch, trace=trace, flows=flows, edge_weights=mu)
            else:
                raw = raw + float(mu) * trace_penalty_gradient(circuit, params, batch, trace=trace, flows=flows)
        vec = vec + opt.step(mapper.gradient(params, raw, flows, batch))
        return mapper.unflatten(vec, params)

    return _fit(circuit, mapper.unflatten(vec, params), train, valid, config, epochs, batch_size, seed, step)
