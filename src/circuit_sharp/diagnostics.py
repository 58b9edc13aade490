"""Overfitting and loss-landscape diagnostics for trained circuits.

Landscape directions are drawn in the unconstrained-logit parameterization
and rescaled per sum-node block to that node's weight norm (the circuit
analogue of per-filter normalization); perturbed logits are mapped back to
the simplex before evaluation, so every probed point is a valid circuit.
The grid points are evaluated in chunks of ``evaluate.probe_width``, one
``evaluate.probe_log_likelihood`` sweep per chunk, which gives every point
the value of its own ``log_likelihood`` bit for bit.  Hessian eigenvalues
come from ``curvature.top_eigenvalues`` on the exact Hessian operator, or,
for a DAG, on the matrix it forms by one or two block products when that is
cheaper; Lanczos stops at the residual tolerance it is checked against, so
the crossover (``DENSE_BLOCKS``) was measured under that stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .circuit import Circuit, ParamSet
from .curvature import hessian_operator, top_eigenvalues
from .errors import ZeroTrainNLL
from .evaluate import as_batch, log_likelihood, probe_log_likelihood, probe_width

# Most block products that nll_hessian_eigenvalues spends forming a DAG's
# Hessian as a matrix.  At k = 15, with Lanczos stopping at its residual gate,
# on layered DAGs of 150-588 edges at 1-20 rows (time of forming it plus
# Lanczos on the matrix over Lanczos's one-vector sweeps, by blocks):
#   1 block    0.41-0.66 (150 and 264 edges)
#   2 blocks   0.77-0.92 (150 and 264 edges), 1.41 (410 edges)
#   3-4 blocks 1.05-1.06 (150 and 264 edges), 1.73-2.50 (410 and 588 edges)
#   6+ blocks  1.46-3.06
# so the matrix wins up to 2 blocks (the bound was 4 while Lanczos ran to machine
# precision).  A tree's products take the closed form, which Lanczos on the
# matrix does not beat at any size measured (148 to 2110 edges, 1 to 100
# rows), so trees never form it, not even the rare ones whose sparse part is
# past the closed form's bound (timings in CHANGES.md).
DENSE_BLOCKS = 2


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
    the origin reproduces the unperturbed NLL exactly.  Raises ValueError
    for another mode, a grid_points below 1 or a grid_radius that is not
    finite.
    """
    if mode not in ("1d", "2d"):
        raise ValueError("mode must be '1d' or '2d'")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    if not np.isfinite(grid_radius):
        raise ValueError(f"grid_radius must be finite, got {grid_radius!r}")
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
    # each point's offset formed as its chunk needs it, not all held at once
    if mode == "1d":
        offsets = (a * u for a in alphas)
    else:
        offsets = (a * u + b * dirs[1] for a in alphas for b in alphas)
    batch = as_batch(circuit, data)
    origin = float(-log_likelihood(circuit, params, batch).mean())
    values = np.full(alphas.size ** len(dirs), origin)
    # the other probes in chunks of probe_width, one sweep per chunk
    probes = ((i, offset) for i, offset in enumerate(offsets) if np.any(offset))
    width = probe_width(circuit, batch.shape[0])
    while chunk := list(islice(probes, width)):
        weights = np.stack([circuit.sum_segments.softmax(logits0 + offset) for _, offset in chunk], axis=1)
        for (i, _), ll in zip(chunk, probe_log_likelihood(circuit, params, batch, weights)):
            values[i] = float(-ll.mean())
    if mode == "1d":
        return LandscapeGrid(dirs, alphas, None, values, origin)
    return LandscapeGrid(dirs, alphas, alphas.copy(), values.reshape(len(alphas), len(alphas)), origin)


def nll_hessian_eigenvalues(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    k: int = 15,
) -> np.ndarray:
    """Top-k eigenvalues of the batch NLL Hessian (positive at sharp minima).

    Lanczos on exact Hessian-vector products (``curvature.hessian_operator``)
    for trees and DAGs alike.  When a DAG's matrix H I takes at most
    DENSE_BLOCKS block products of ``probe_width`` vectors, Lanczos runs on
    that matrix instead, with the same values up to rounding.
    """
    h = -hessian_operator(circuit, params, batch)
    e = circuit.num_sum_edges
    if not circuit.is_tree and -(-e // probe_width(circuit, as_batch(circuit, batch).shape[0])) <= DENSE_BLOCKS:
        h = h @ np.eye(e)
    return top_eigenvalues(h, k)


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
