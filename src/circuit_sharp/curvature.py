"""Exact curvature of the log-likelihood with respect to sum weights.

Three exact quantities, all driven by edge flows:

* Hessian diagonal and absolute trace for any circuit: each diagonal entry is
  -(F_nc / theta_nc)^2, so one forward-backward pass per sample gives the
  trace in time linear in edges times samples.
* The dense Hessian for tree circuits, assembled per edge pair from the pair
  class: sum pairs contribute -g g', product pairs g g' (1/F_q - 1) with F_q
  the node flow of the deepest common product ancestor, and nested path pairs
  g_deep (1 - F_shallow) / theta_shallow.  The product-pair form here is an
  algebraic simplification of the path-product expression (the chain of
  weights and product complements above q collapses to F_q * P_root); it is
  pinned by finite-difference tests before anything trusts it.
* The gradient of the trace penalty itself, by reverse mode through both
  passes (the forward pass's adjoint is ``flows.push_down``), for training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .circuit import Circuit, ParamSet
from .errors import CostGuardExceeded, NotATree, NotConverged, StaleTrace
from .evaluate import forward
from .flows import FlowTable, backward, edge_ratio, push_down

DENSE_EDGE_CAP = 5000


def edge_gradients(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> tuple[np.ndarray, FlowTable]:
    """Per-sample d log P / d theta for every sum edge, plus the flow table."""
    flows = backward(circuit, params, forward(circuit, params, batch))
    return flows.edge_flow / params.theta, flows


def hessian_trace(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> float:
    """Absolute Hessian trace: sum over samples and edges of (F_nc/theta_nc)^2."""
    g, _ = edge_gradients(circuit, params, batch)
    return float(np.sum(g * g))


def hessian_diag(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    """Batch-summed Hessian diagonal, one nonpositive entry per sum edge."""
    g, _ = edge_gradients(circuit, params, batch)
    return -np.sum(g * g, axis=0)


def full_hessian_tree(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    cap: int = DENSE_EDGE_CAP,
) -> np.ndarray:
    """Dense, batch-summed log-likelihood Hessian of a tree circuit.

    Assembled in DFS edge order, where every subtree is a contiguous index
    range: the base term -g g^T covers all sum pairs and the diagonal, then
    product-pair blocks add g g' / F_q and nested path pairs add
    g_deep / theta_shallow.  Pass a single-row batch for a per-sample Hessian.
    """
    if not circuit.is_tree:
        raise NotATree("dense Hessians exist in closed form only for tree circuits")
    e = circuit.num_sum_edges
    if e > cap:
        raise CostGuardExceeded(f"{e} sum edges exceeds dense Hessian cap {cap}")
    tree = circuit.tree_index()

    g, flows = edge_gradients(circuit, params, batch)
    g_dfs = g[:, tree.dfs_to_global]
    theta_dfs = params.theta[tree.dfs_to_global]

    hess = np.zeros((e, e))
    for i in range(g.shape[0]):
        gv = g_dfs[i]
        hess -= np.outer(gv, gv)
        for q, blocks in zip(tree.prod_nodes, tree.prod_blocks):
            fq = flows.node_flow[i, q]
            if fq < 1e-250:
                # dead subtree: g below q scales with F_q, so the correction
                # g g' / F_q vanishes in the limit; skip before 1/F_q overflows
                continue
            inv = 1.0 / fq
            for a in range(len(blocks)):
                lo1, hi1 = blocks[a]
                if hi1 == lo1:
                    continue
                for b in range(a + 1, len(blocks)):
                    lo2, hi2 = blocks[b]
                    if hi2 == lo2:
                        continue
                    corr = inv * np.outer(gv[lo1:hi1], gv[lo2:hi2])
                    hess[lo1:hi1, lo2:hi2] += corr
                    hess[lo2:hi2, lo1:hi1] += corr.T
        for d in range(e):
            lo, hi = tree.edge_sub_lo[d], tree.edge_sub_hi[d]
            if hi > lo:
                corr = gv[lo:hi] / theta_dfs[d]
                hess[lo:hi, d] += corr
                hess[d, lo:hi] += corr

    inv_perm = tree.global_to_dfs
    return hess[np.ix_(inv_perm, inv_perm)]


def top_eigenvalues(matrix: np.ndarray, k: int, tol_scale: float = 1e-8) -> np.ndarray:
    """k largest-magnitude eigenvalues of a symmetric matrix, descending.

    Uses an iterative Lanczos solver, falling back to a dense solve when k is
    too close to the dimension for the iteration to run.  Each returned pair
    is residual-checked against ||H v - lambda v|| <= tol_scale * ||H||.
    """
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(h, h.T, atol=1e-10 * max(1.0, np.abs(h).max())):
        raise ValueError("matrix must be symmetric")
    n = h.shape[0]
    k = min(k, n)
    norm = np.linalg.norm(h)

    if k >= n - 1 or n < 4:
        vals, vecs = np.linalg.eigh(h)
    else:
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(h, k=k, which="LM")
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NotConverged(f"eigensolver did not converge: {exc}") from exc

    order = np.argsort(-np.abs(vals))[:k]
    vals, vecs = vals[order], vecs[:, order]
    for lam, v in zip(vals, vecs.T):
        resid = np.linalg.norm(h @ v - lam * v)
        if resid > tol_scale * max(norm, 1e-300):
            raise NotConverged(f"residual {resid:.3e} exceeds {tol_scale:.0e} * ||H||")
    return vals


def trace_penalty_gradient(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    trace=None,
    flows: FlowTable | None = None,
    edge_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Exact d/d theta of R = sum_x sum_e w_e (F_e(x)/theta_e)^2, per sum edge.

    Reverse-mode sweep through the flow recursion and then the forward
    evaluation: flow adjoints propagate leaves-to-root (reverse of the
    backward pass), log-probability adjoints root-to-leaves (reverse of the
    forward pass).  Raw partial derivatives, no simplex projection.
    edge_weights defaults to all ones (the plain trace penalty).  Raises
    StaleTrace when trace or flows belong to another circuit, and ValueError
    unless edge_weights holds one finite value per sum edge.
    """
    theta = params.theta
    w = np.ones_like(theta) if edge_weights is None else np.asarray(edge_weights, dtype=float)
    if w.shape != theta.shape or not np.all(np.isfinite(w)):
        raise ValueError(f"edge_weights must be {theta.size} finite values, got shape {w.shape}")
    if trace is None:
        trace = forward(circuit, params, batch)
    if flows is None:
        flows = backward(circuit, params, trace)
    if trace.circuit is not circuit or flows.circuit is not circuit:
        raise StaleTrace("trace or flows do not match this circuit")
    lp = trace.log_p.T
    fnode = flows.node_flow.T
    fedge = flows.edge_flow.T

    th_col = theta[:, None]
    fe_bar = 2.0 * w[:, None] * fedge / (th_col * th_col)
    theta_bar = np.sum(-2.0 * w[:, None] * fedge * fedge / (th_col**3), axis=1)
    f_bar = np.zeros(lp.shape)
    lp_bar = np.zeros(lp.shape)

    # Phase 1: adjoint of the flow recursion (parent levels ascending).
    for sums, prods in circuit.level_edges:
        if sums.index.size:
            ratio = edge_ratio(lp, sums)
            th = theta[sums.index, None]
            fe_tot = fe_bar[sums.index] + f_bar[sums.child]
            fparent = fnode[sums.parents][sums.runs.ids]
            f_bar[sums.parents] += sums.runs.sum(fe_tot * th * ratio)
            theta_bar[sums.index] += np.sum(fe_tot * fparent * ratio, axis=1)
            rbar_r = fe_tot * fparent * th * ratio
            sums.scatter.add_into(lp_bar, rbar_r)
            lp_bar[sums.parents] -= sums.runs.sum(rbar_r)
        if prods.index.size:
            f_bar[prods.parents] += prods.runs.sum(f_bar[prods.child])

    # Phase 2: adjoint of the forward pass, the backward recursion seeded with
    # lp_bar; its edge shares lp_bar_n * theta * p_c / p_n reuse fe_bar.
    push_down(circuit, theta, lp, lp_bar, fe_bar)
    theta_bar += fe_bar.sum(axis=1) / theta
    return theta_bar


@dataclass
class CurvatureReport:
    """Bundle of curvature quantities plus CSV export per the artifact formats."""

    abs_trace: float
    diag: np.ndarray | None = None
    dense: np.ndarray | None = None
    eigvals: np.ndarray | None = None

    def write_trace(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{float(self.abs_trace)!r}\n")

    def write_diag(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("edge,value\n")
            for i, v in enumerate(self.diag):
                fh.write(f"{i},{float(v)!r}\n")

    def write_dense(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("edge_i,edge_j,value\n")
            e = self.dense.shape[0]
            for i in range(e):
                for j in range(e):
                    fh.write(f"{i},{j},{float(self.dense[i, j])!r}\n")


def compute_report(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    want_diag: bool = False,
    want_dense: bool = False,
    top_k: int = 0,
) -> CurvatureReport:
    diag = hessian_diag(circuit, params, batch) if (want_diag or not want_dense) else None
    dense = full_hessian_tree(circuit, params, batch) if want_dense else None
    if dense is not None and diag is None:
        diag = np.diag(dense).copy()
    abs_trace = float(-diag.sum()) if diag is not None else hessian_trace(circuit, params, batch)
    eig = top_eigenvalues(dense, top_k) if (want_dense and top_k) else None
    return CurvatureReport(abs_trace, diag if want_diag or want_dense else None, dense, eig)
