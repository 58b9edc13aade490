"""Forward evaluation of a circuit on a data batch, in log space end to end.

Sum nodes use the log-sum-exp trick with a per-parent shift; -inf
log-probabilities are legal values (deterministic-style supports) and are
propagated, never raised.  The pass runs leaves-to-root over the compiled
levels of ``Circuit.level_edges`` with per-parent segment sums and maxima,
so it is O(edges) numpy work regardless of circuit shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, ParamSet
from .errors import OutOfDomain, ScopeMismatch

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class EvalTrace:
    """Per-sample, per-node log outputs of one forward pass.

    log_p has shape [num_samples, num_nodes]; the root column holds the
    per-sample log-likelihood.  theta is a copy of the sum weights it was
    evaluated under, against which later passes detect a stale trace.
    """

    log_p: np.ndarray
    circuit: Circuit
    theta: np.ndarray

    @property
    def root_log_p(self) -> np.ndarray:
        return self.log_p[:, self.circuit.root]


def _leaf_log_probs(circuit: Circuit, params: ParamSet, batch: np.ndarray, out: np.ndarray) -> None:
    """Fill out[node] rows for every leaf, one vectorized pass per family.

    Raises OutOfDomain when a Bernoulli leaf reads a value other than 0 or 1,
    a categorical leaf one that is not an integer in [0, k), or a Gaussian
    leaf a non-finite value.
    """
    groups = circuit.leaf_groups()
    bern_ids, bern_var = groups["bern"]
    gauss_ids, gauss_var = groups["gauss"]
    cat_ids, cat_var = groups["cat"]
    cat_seg = circuit.cat_segments

    xb = batch[:, bern_var]
    xg = batch[:, gauss_var]
    xc = batch[:, cat_var]
    for family, var, ok in (
        ("Bernoulli", bern_var, (xb == 0) | (xb == 1)),
        ("Gaussian", gauss_var, np.isfinite(xg)),
        ("categorical", cat_var, (xc >= 0) & (xc < cat_seg.lengths) & (xc == np.floor(xc))),
    ):
        if not ok.all():
            row, col = np.argwhere(~ok)[0]
            v = var[col]
            raise OutOfDomain(f"row {row}, variable {v}: {batch[row, v]!r} is outside the {family} domain")

    # divide: log 0 at indicator leaves; invalid: diverged (inf) parameters,
    # whose NaN rows are the DivergedNaN signal handled by the trainers
    with np.errstate(divide="ignore", invalid="ignore"):
        out[bern_ids] = np.where(xb > 0.5, np.log(params.bern), np.log1p(-params.bern)).T
        ms = params.gauss
        z = (xg - ms[:, 0]) / ms[:, 1]
        out[gauss_ids] = (-np.log(ms[:, 1]) - 0.5 * _LOG_2PI - 0.5 * z * z).T
        out[cat_ids] = np.log(params.cat)[cat_seg.starts + xc.astype(np.int64)].T


def forward(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> EvalTrace:
    """Evaluate the circuit bottom-up on a batch of complete assignments.

    The batch must have one column per root-scope variable, indexed by
    variable id; raises ScopeMismatch otherwise, and OutOfDomain when a value
    lies outside the support of a leaf that reads it.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    if batch.shape[1] != len(circuit.root_scope):
        raise ScopeMismatch(
            f"batch width {batch.shape[1]} != root scope size {len(circuit.root_scope)}"
        )
    n = batch.shape[0]
    lp = np.zeros((circuit.num_nodes, n))
    _leaf_log_probs(circuit, params, batch, lp)

    theta = params.theta
    for sums, prods in circuit.level_edges:
        if prods.child.size:
            lp[prods.parents] = prods.runs.sum(lp[prods.child])
        if sums.child.size:
            child_lp = lp[sums.child]
            m = sums.runs.max(child_lp)
            m_safe = np.where(np.isfinite(m), m, 0.0)
            s = sums.runs.sum(theta[sums.index, None] * np.exp(child_lp - m_safe[sums.runs.ids]))
            with np.errstate(divide="ignore"):
                lp[sums.parents] = np.where(np.isfinite(m), m_safe + np.log(s), -np.inf)

    return EvalTrace(np.ascontiguousarray(lp.T), circuit, theta.copy())
