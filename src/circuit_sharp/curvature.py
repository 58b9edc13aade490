"""Exact curvature of the log-likelihood with respect to sum weights.

Four exact quantities, all driven by edge flows:

* Hessian diagonal and absolute trace for any circuit: each diagonal entry is
  -(F_nc / theta_nc)^2, so one forward-backward pass gives the trace in time
  linear in edges times samples, read from the flows' batch sums of squared
  edge flows (matrix products of the group factors, no per-edge table).
* The dense Hessian for tree circuits, assembled per edge pair from the pair
  class: sum pairs contribute -g g', product pairs g g' (1/F_q - 1) with F_q
  the node flow of the deepest common product ancestor, and nested path pairs
  g_deep (1 - F_shallow) / theta_shallow.  The product-pair form here is an
  algebraic simplification of the path-product expression (the chain of
  weights and product complements above q collapses to F_q * P_root); it is
  pinned by finite-difference tests before anything trusts it.  The sums
  over samples are matrix products over the batch, not a loop.
* Hessian-vector products for any circuit, tree or DAG, without forming the
  Hessian: ``hessian_operator`` differentiates the flow recursion along v
  (forward-over-reverse: a ``pull_up`` and a ``push_down`` over the ratio
  table of its one backward pass, which returns the batch sums of the flow
  tangents).  A block of vectors shares each sweep, side by side in
  [nodes, vectors, samples] tables, and the stacks' weight and ratio rows
  are gathered once per operator.  Lanczos in ``top_eigenvalues`` consumes
  one vector at a time, and its residual check takes all k pairs in one
  block.
* The gradient of the trace penalty itself, by reverse mode through both
  passes (``pull_up``, a step over all sum edges, ``push_down``), for training.

The penalty adjoint, Hessian-vector products and per-sample gradients read
the per-sample edge-flow and ratio tables of a ``FlowTable``, node-major as
they are; a flow table builds them at most once, however many passes read
them, and none is transposed.  ``push_down`` writes no edge table of its own.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .circuit import Circuit, ParamSet
from .errors import CostGuardExceeded, NotATree, NotConverged, StaleTrace
from .evaluate import EvalTrace, as_batch, forward, probe_width
from .flows import FlowTable, _check_roots, backward, pull_up, push_down, stack_rows

DENSE_EDGE_CAP = 5000


def _flows(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> FlowTable:
    """backward over forward on batch; raises ZeroLikelihood as _check_roots."""
    trace = forward(circuit, params, batch)
    _check_roots(trace)
    return backward(circuit, params, trace)


def edge_gradients(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> tuple[np.ndarray, FlowTable]:
    """Per-sample d log P / d theta, [sum edges, samples], plus the flow table.
    Every curvature entry point raises ZeroLikelihood for a row of likelihood 0."""
    flows = _flows(circuit, params, batch)
    return flows.edge_flow / params.theta[:, None], flows


def hessian_trace(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> float:
    """Absolute Hessian trace: sum over samples and edges of (F_nc/theta_nc)^2,
    a sum of nonnegative terms (+0.0, never -0.0, when all vanish)."""
    return float((_flows(circuit, params, batch).edge_flow_sq_sum / params.theta**2).sum())


def hessian_diag(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    """Batch-summed Hessian diagonal, one nonpositive entry per sum edge:
    -sum_x F_nc(x)^2 / theta_nc^2, from the flows' batch sums of squares."""
    return -_flows(circuit, params, batch).edge_flow_sq_sum / params.theta**2


def full_hessian_tree(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    cap: int = DENSE_EDGE_CAP,
) -> np.ndarray:
    """Dense, batch-summed log-likelihood Hessian of a tree circuit.

    Assembled from batch-level products of the per-sample gradients G [edges,
    samples]: the base term -G G^T covers all sum pairs and the diagonal, each
    product-pair block adds G_a diag(1/F_q) G_b^T, and nested path pairs add
    sum_x g_deep / theta_shallow.  Every entry gets at most one correction, the
    same on both sides of the diagonal, so the result is exactly symmetric.
    Pass a single-row batch for a per-sample Hessian.
    """
    if not circuit.is_tree:
        raise NotATree("dense Hessians exist in closed form only for tree circuits")
    e = circuit.num_sum_edges
    if e > cap:
        raise CostGuardExceeded(f"{e} sum edges exceeds dense Hessian cap {cap}")
    tree = circuit.tree_index()

    g, flows = edge_gradients(circuit, params, batch)
    hess = g @ g.T  # numpy's product of a matrix with its own transpose is exactly symmetric
    np.negative(hess, out=hess)
    order = tree.dfs_to_global

    # dead subtree (F_q < 1e-250): g below q scales with F_q, so the
    # correction g g' / F_q vanishes in the limit; weight 0 before 1/F_q overflows
    fq = flows.node_flow[tree.prod_nodes]
    inv = np.divide(1.0, fq, out=np.zeros_like(fq), where=fq >= 1e-250)
    g_dfs = g[order]  # every child subtree is a row slice
    for w, blocks in zip(inv, tree.prod_blocks):
        for a, (lo1, hi1) in enumerate(blocks):
            ia = order[lo1:hi1]
            gw = g_dfs[lo1:hi1] * w
            for lo2, hi2 in blocks[a + 1 :]:
                ib = order[lo2:hi2]
                corr = gw @ g_dfs[lo2:hi2].T
                hess[np.ix_(ia, ib)] += corr
                hess[np.ix_(ib, ia)] += corr.T

    # path pairs: DFS edge d against each DFS edge below its child, [d + 1, hi_d)
    lo = np.arange(1, e + 1)
    size = tree.edge_sub_hi - lo
    shallow = np.repeat(np.arange(e), size)
    deep = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)
    shallow, deep = order[shallow], order[deep]
    corr = g.sum(axis=1)[deep] / params.theta[shallow]
    hess[deep, shallow] += corr
    hess[shallow, deep] += corr
    return hess


def hessian_operator(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> LinearOperator:
    """Exact batch-summed log-likelihood Hessian as a symmetric E x E operator.

    Each H v is forward-over-reverse (Pearlmutter 1994) through the compiled
    levels, over the ratio table of the one backward pass made here:
    ``pull_up`` with edge source v / theta gives the tangents t = d log p
    along v, then ``push_down`` carries the flow tangents dF down with the
    per-edge source F_e (v / theta + t_c - t_n) and returns sum_x dF_e, and
    H v = (sum_x dF_e - sum_x F_e v / theta) / theta.  H V for a block of
    vectors carries up to ``probe_width`` of them through each sweep, side
    by side; each column equals its own H v bit for bit, and H v is the
    one-column case.  Works for trees and DAGs alike; raises ZeroLikelihood
    for a row of likelihood 0, and ValueError for a v that is not E finite
    values, or a V that is not E rows of them.
    """
    theta = params.theta
    flows = _flows(circuit, params, batch)
    fe = flows.edge_flow
    fe_sum = fe.sum(axis=1)[:, None]
    (nodes, n), e = flows.node_flow.shape, theta.size
    width = probe_width(circuit, n)
    rows = stack_rows(circuit, theta, flows.ratio)

    def products(u):
        t = np.zeros((nodes, u.shape[1], n))
        pull_up(circuit, rows, t, u[:, :, None])
        source = u[:, :, None] + t.take(circuit.sum_edge_child, axis=0)
        source -= t.take(circuit.sum_edge_owner, axis=0)
        source *= fe[:, None]
        dfe_sum = push_down(circuit, rows, np.zeros(t.shape), source)
        return (dfe_sum - fe_sum * u) / theta[:, None]

    def matmat(v):
        u = np.asarray(v, dtype=float)
        if u.ndim != 2 or u.shape[0] != e or not np.all(np.isfinite(u)):
            raise ValueError(f"V must be {e} rows of finite values, got shape {np.shape(v)}")
        u = u / theta[:, None]
        out = np.empty(u.shape)
        for lo in range(0, u.shape[1], width):
            out[:, lo : lo + width] = products(u[:, lo : lo + width])
        return out

    def matvec(v):
        return matmat(np.reshape(v, (-1, 1)))[:, 0]

    return LinearOperator((e, e), matvec=matvec, rmatvec=matvec, matmat=matmat, rmatmat=matmat, dtype=float)


def top_eigenvalues(matrix: np.ndarray | LinearOperator, k: int, tol_scale: float = 1e-8) -> np.ndarray:
    """k largest-magnitude eigenvalues of a symmetric matrix or operator,
    descending in magnitude.

    Uses an iterative Lanczos solver from a fixed start vector, so repeated
    calls return identical values, falling back to a dense solve (an operator
    is applied to the identity) when k is too close to the dimension for the
    iteration to run.  Arrays must be symmetric.  The returned pairs are
    residual-checked together, with one product H V, against
    ||H v - lambda v|| <= tol_scale * ||H||, with ||H|| the spectral norm,
    the largest returned |lambda|.
    """
    h = matrix if isinstance(matrix, LinearOperator) else np.asarray(matrix, dtype=float)
    if len(h.shape) != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if isinstance(h, np.ndarray) and not np.allclose(h, h.T, atol=1e-10 * max(1.0, np.abs(h).max())):
        raise ValueError("matrix must be symmetric")
    n = h.shape[0]
    k = min(k, n)

    if k >= n - 1 or n < 4:
        vals, vecs = np.linalg.eigh(h if isinstance(h, np.ndarray) else h @ np.eye(n))
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            vals, vecs = eigsh(h, k=k, which="LM", v0=v0)
        except ArpackNoConvergence as exc:
            raise NotConverged(f"eigensolver did not converge: {exc}") from exc

    order = np.argsort(-np.abs(vals))[:k]
    vals, vecs = vals[order], vecs[:, order]
    norm = np.abs(vals).max(initial=0.0)
    resid = np.linalg.norm(h @ vecs - vecs * vals, axis=0).max(initial=0.0)
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
    forward pass, a push_down that returns the edge adjoints' batch sums).
    Raw partial derivatives, no simplex projection.
    edge_weights defaults to all ones (the plain trace penalty).  flows
    alone brings its own trace.  Raises StaleTrace when trace belongs to
    another circuit, other weights than params or other rows than batch, or
    flows to another trace, ZeroLikelihood for a row of likelihood 0, and
    ValueError unless edge_weights holds one finite value per sum edge.
    """
    theta = params.theta
    w = np.ones_like(theta) if edge_weights is None else np.asarray(edge_weights, dtype=float)
    if w.shape != theta.shape or not np.all(np.isfinite(w)):
        raise ValueError(f"edge_weights must be {theta.size} finite values, got shape {w.shape}")
    if trace is None:
        trace = forward(circuit, params, batch) if flows is None else flows.trace
    if flows is None:
        flows = backward(circuit, params, trace)
    if trace.circuit is not circuit or flows.trace is not trace:
        raise StaleTrace("trace does not match this circuit, or flows this trace")
    if not np.array_equal(trace.theta, theta, equal_nan=True):
        raise StaleTrace("trace was evaluated under other sum weights than params")
    if not np.array_equal(trace.batch, as_batch(circuit, batch)):
        raise StaleTrace("trace was evaluated on other rows than batch")
    _check_roots(trace)
    ratio, fedge = flows.ratio, flows.edge_flow
    fe_bar = (2.0 * w / (theta * theta))[:, None] * fedge
    theta_bar = -np.einsum("es,es->e", fe_bar, fedge) / theta

    # Adjoint of the flow recursion F_e = F_n theta_e ratio_e: f_bar, then
    # rbar_e, the adjoint of log ratio_e = lp_c - lp_n.
    f_bar = np.zeros(flows.node_flow.shape)
    rows = stack_rows(circuit, theta, ratio)
    pull_up(circuit, rows, f_bar[:, None], fe_bar[:, None])
    rbar = fe_bar  # built in fe_bar's storage: fe_bar's last use is as rbar's first term
    rbar += f_bar.take(circuit.sum_edge_child, axis=0)
    rbar *= flows.node_flow.take(circuit.sum_edge_owner, axis=0)
    rbar *= theta[:, None]
    rbar *= ratio

    # Adjoint of the forward pass: push_down seeded with the -lp_n side of
    # rbar; its per-edge source adds the lp_c side and rbar's theta term.
    lp_bar = np.zeros_like(f_bar)
    lp_bar[circuit.sum_nodes] = -(circuit.sum_node_edges @ rbar)
    theta_bar += push_down(circuit, rows, lp_bar[:, None], rbar[:, None])[:, 0] / theta
    return theta_bar
