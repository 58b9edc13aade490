"""Overfitting and loss-landscape diagnostics for trained circuits.

Landscape directions are drawn in the unconstrained-logit parameterization
and rescaled per sum-node block to that node's weight norm (the circuit
analogue of per-filter normalization); perturbed logits are mapped back to
the simplex before evaluation, so every probed point is a valid circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .circuit import Circuit, ParamSet
from .curvature import full_hessian_tree, top_eigenvalues
from .errors import ZeroTrainNLL
from .evaluate import forward
from .fd import fd_hessian

if TYPE_CHECKING:
    from .learning import TrainReport


def dof(train_nll: float, eval_nll: float) -> float:
    """Degree of overfitting: (eval - train) / |train|; sign-aware."""
    if train_nll == 0.0:
        raise ZeroTrainNLL("degree of overfitting undefined at train NLL 0")
    return (eval_nll - train_nll) / abs(train_nll)


def dof_abs(train_nll: float, valid_nll: float) -> float:
    """Absolute-gap variant used against the validation split."""
    if train_nll == 0.0:
        raise ZeroTrainNLL("degree of overfitting undefined at train NLL 0")
    return abs(valid_nll - train_nll) / abs(train_nll)


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
    origin = float(-forward(circuit, params, data).root_log_p.mean())

    def value_at(offset: np.ndarray) -> float:
        if not np.any(offset):
            return origin
        probed = params.copy()
        probed.theta = circuit.sum_segments.softmax(logits0 + offset)
        return float(-forward(circuit, probed, data).root_log_p.mean())

    if mode == "1d":
        values = np.array([value_at(a * u) for a in alphas])
        return LandscapeGrid(dirs, alphas, None, values, origin)
    betas = alphas.copy()
    values = np.empty((len(alphas), len(betas)))
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            values[i, j] = value_at(a * u + b * dirs[1])
    return LandscapeGrid(dirs, alphas, betas, values, origin)


def sharpness_curve(report: "TrainReport") -> tuple[np.ndarray, np.ndarray, int]:
    """(epochs, sharpness) series plus the epoch of peak sharpness
    (earliest on ties)."""
    epochs = report.series("epoch").astype(int)
    sharp = report.series("sharpness")
    peak = int(epochs[int(np.argmax(sharp))])
    return epochs, sharp, peak


def nll_hessian_eigenvalues(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    k: int = 15,
) -> np.ndarray:
    """Top-k eigenvalues of the batch NLL Hessian (positive at sharp minima).

    Closed form for tree circuits; finite differences of the analytic
    gradient for small DAGs.
    """
    if circuit.is_tree:
        h = -full_hessian_tree(circuit, params, batch)
    else:
        h = -fd_hessian(circuit, params, batch)
    return top_eigenvalues(h, k)


def write_eigenvalues_csv(eigvals: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write("rank,eigenvalue\n")
        for i, v in enumerate(eigvals, start=1):
            fh.write(f"{i},{float(v)!r}\n")
