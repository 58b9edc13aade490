"""Overfitting and loss-landscape diagnostics for trained circuits.

Landscape directions are drawn in the unconstrained-logit parameterization
and rescaled per sum-node block to that node's weight norm (the circuit
analogue of per-filter normalization); perturbed logits are mapped back to
the simplex before evaluation, so every probed point is a valid circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, ParamSet
from .curvature import hessian_operator, top_eigenvalues
from .errors import ZeroTrainNLL
from .evaluate import log_likelihood


def dof(train_nll: float, eval_nll: float) -> float:
    """Degree of overfitting: (eval - train) / |train|; sign-aware."""
    if train_nll == 0.0:
        raise ZeroTrainNLL("degree of overfitting undefined at train NLL 0")
    return (eval_nll - train_nll) / abs(train_nll)


@dataclass
class LandscapeGrid:
    directions: list[np.ndarray]
    alphas: np.ndarray
    betas: np.ndarray | None
    values: np.ndarray  # (alphas,) for 1D, (alphas, betas) for 2D
    origin_value: float

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            if self.betas is None:
                fh.write("alpha,nll\n")
                for a, v in zip(self.alphas, self.values):
                    fh.write(f"{float(a)!r},{float(v)!r}\n")
            else:
                fh.write("alpha,beta,nll\n")
                for i, a in enumerate(self.alphas):
                    for j, b in enumerate(self.betas):
                        fh.write(f"{float(a)!r},{float(b)!r},{float(self.values[i, j])!r}\n")


def _block_normalized_direction(circuit: Circuit, theta: np.ndarray, rng) -> np.ndarray:
    u = rng.standard_normal(theta.size)
    seg = circuit.sum_segments
    norm = seg.norm(u)
    scale = seg.norm(theta) / np.where(norm > 0, norm, 1.0)
    u = u * scale[seg.ids]
    total = np.linalg.norm(u)
    return u / total if total > 0 else u


def landscape(
    circuit: Circuit,
    params: ParamSet,
    data: np.ndarray,
    mode: str = "1d",
    grid_radius: float = 1.0,
    grid_points: int = 51,
    seed: int = 0,
) -> LandscapeGrid:
    """Mean train NLL over a grid of filter-normalized logit perturbations.

    The zero offset is evaluated with the stored parameters themselves, so
    the origin reproduces the unperturbed NLL exactly.
    """
    if mode not in ("1d", "2d"):
        raise ValueError("mode must be '1d' or '2d'")
    rng = np.random.default_rng(seed)
    theta = params.theta
    logits0 = np.log(theta)
    u = _block_normalized_direction(circuit, theta, rng)
    dirs = [u]
    if mode == "2d":
        v = _block_normalized_direction(circuit, theta, rng)
        v = v - np.dot(v, u) * u
        norm = np.linalg.norm(v)
        v = v / norm if norm > 0 else v
        dirs.append(v)

    alphas = np.linspace(-grid_radius, grid_radius, grid_points) if grid_points > 1 else np.zeros(1)
    origin = float(-log_likelihood(circuit, params, data).mean())

    def value_at(offset: np.ndarray) -> float:
        if not np.any(offset):
            return origin
        probed = params.copy()
        probed.theta = circuit.sum_segments.softmax(logits0 + offset)
        return float(-log_likelihood(circuit, probed, data).mean())

    if mode == "1d":
        values = np.array([value_at(a * u) for a in alphas])
        return LandscapeGrid(dirs, alphas, None, values, origin)
    betas = alphas.copy()
    values = np.empty((len(alphas), len(betas)))
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            values[i, j] = value_at(a * u + b * dirs[1])
    return LandscapeGrid(dirs, alphas, betas, values, origin)


def nll_hessian_eigenvalues(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    k: int = 15,
) -> np.ndarray:
    """Top-k eigenvalues of the batch NLL Hessian (positive at sharp minima).

    Lanczos on exact Hessian-vector products (``curvature.hessian_operator``),
    the same route for trees and DAGs of any size; the Hessian is never formed.
    """
    return top_eigenvalues(-hessian_operator(circuit, params, batch), k)


def write_eigenvalues_csv(eigvals: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write("rank,eigenvalue\n")
        for i, v in enumerate(eigvals, start=1):
            fh.write(f"{i},{float(v)!r}\n")


def write_diag_csv(diag: np.ndarray, path) -> None:
    """One ``edge,value`` row per sum edge, in the global edge order."""
    with open(path, "w") as fh:
        fh.write("edge,value\n")
        for i, v in enumerate(diag):
            fh.write(f"{i},{float(v)!r}\n")
