"""Finite-difference ground truth for gradients and Hessians on small circuits.

Perturbations act on raw sum weights without renormalization: that is the
unconstrained partial derivative the flow identities express.  Second
derivatives difference the analytic gradient (one level of truncation error),
not the scalar twice, with a step one decade coarser than the gradient's
(1e-4 against 1e-5).
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, ParamSet
from .errors import CostGuardExceeded
from .evaluate import forward, log_likelihood
from .flows import backward, loglik_gradient

GRADIENT_EDGE_CAP = 10_000
HESSIAN_EDGE_CAP = 500


def batch_loglik(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> float:
    return float(log_likelihood(circuit, params, batch).sum())


def analytic_gradient(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    flows = backward(circuit, params, forward(circuit, params, batch))
    return loglik_gradient(flows, params)


def _weight_diff(params: ParamSet, fn, h: float) -> np.ndarray:
    """Central differences of fn(ParamSet) along each raw sum weight."""
    probe = params.copy()

    def at(theta):
        probe.theta = theta
        return fn(probe)

    return central_diff(at, params.theta, h)


def fd_gradient(
    circuit: Circuit, params: ParamSet, batch: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central difference of the batch log-likelihood per raw sum weight."""
    e = circuit.num_sum_edges
    if e > GRADIENT_EDGE_CAP:
        raise CostGuardExceeded(f"{e} edges exceeds FD gradient cap {GRADIENT_EDGE_CAP}")
    return _weight_diff(params, lambda p: batch_loglik(circuit, p, batch), h)


def fd_hessian(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    h: float = 1e-4,
    symmetrize: bool = True,
) -> np.ndarray:
    """Central difference of the analytic gradient, symmetrized as (H + H^T)/2.

    Pass symmetrize=False to inspect the raw column-wise estimate (its
    asymmetry is itself a smoothness check).
    """
    e = circuit.num_sum_edges
    if e > HESSIAN_EDGE_CAP:
        raise CostGuardExceeded(f"{e} edges exceeds FD Hessian cap {HESSIAN_EDGE_CAP}")
    hess = _weight_diff(params, lambda p: analytic_gradient(circuit, p, batch), h)
    return 0.5 * (hess + hess.T) if symmetrize else hess


def central_diff(fn, x0: np.ndarray, h: float) -> np.ndarray:
    """Generic central-difference derivative of a function of a vector; for
    a vector-valued fn, column i is the derivative along x[i]."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for i in range(x0.size):
        x = x0.copy()
        x[i] = x0[i] + h
        up = fn(x)
        x[i] = x0[i] - h
        cols.append((up - fn(x)) / (2.0 * h))
    return np.stack(cols, axis=-1) if cols else np.zeros(np.shape(fn(x0)) + (0,))
