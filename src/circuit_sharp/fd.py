"""Finite-difference ground truth for gradients and Hessians on small circuits.

Perturbations act on raw sum weights without renormalization: that is the
unconstrained partial derivative the flow identities express.  The gradient
evaluates its +h and -h weight columns in chunks of ``probe_width``, one
``probe_log_likelihood`` sweep per chunk, bit for bit one ``log_likelihood``
per column.  Second derivatives difference the analytic gradient (one level
of truncation error), not the scalar twice, with a step one decade coarser
than the gradient's (1e-4 against 1e-5).
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, ParamSet
from .errors import CostGuardExceeded
from .evaluate import as_batch, forward, probe_log_likelihood, probe_width
from .flows import backward, loglik_gradient

GRADIENT_EDGE_CAP = 10_000
HESSIAN_EDGE_CAP = 500


def analytic_gradient(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    flows = backward(circuit, params, forward(circuit, params, batch))
    return loglik_gradient(flows, params)


def fd_gradient(
    circuit: Circuit, params: ParamSet, batch: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central difference of the batch log-likelihood per raw sum weight; the
    columns theta +- h e_i of probe_width // 2 weights share each sweep."""
    e = circuit.num_sum_edges
    if e > GRADIENT_EDGE_CAP:
        raise CostGuardExceeded(f"{e} edges exceeds FD gradient cap {GRADIENT_EDGE_CAP}")
    batch, theta, grad = as_batch(circuit, batch), params.theta, np.empty(e)
    width = max(1, probe_width(circuit, batch.shape[0]) // 2)
    for lo in range(0, e, width):
        i = np.arange(lo, min(lo + width, e))
        col = np.arange(i.size)
        weights = np.repeat(theta[:, None], 2 * i.size, axis=1)  # columns +h, -h per weight
        weights[i, 2 * col], weights[i, 2 * col + 1] = theta[i] + h, theta[i] - h
        ll = probe_log_likelihood(circuit, params, batch, weights).sum(axis=1)  # each row summed as alone
        grad[i] = (ll[0::2] - ll[1::2]) / (2.0 * h)
    return grad


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
    probe = params.copy()

    def gradient(theta):
        probe.theta = theta
        return analytic_gradient(circuit, probe, batch)

    hess = central_diff(gradient, params.theta, h)
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
