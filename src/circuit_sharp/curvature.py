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
  over samples are matrix products over the batch, not a loop: H = -G G^T +
  S, G the per-sample gradients [edges, samples] and S the sparse, exactly
  symmetric sum of the product-pair blocks G_a diag(1/F_q) G_b^T and the
  path pairs, which one helper (``_curvature``) builds from the tree index
  for the dense Hessian and the operator alike.
* Hessian-vector products for any circuit, tree or DAG, without forming the
  Hessian.  On a tree whose S fits in ``TILE_BYTES``, ``hessian_operator``
  holds S as a CSR matrix and G, and H V = S V - G (G^T V), one product per
  column.  On a DAG, or a tree with a larger S, it differentiates the flow
  recursion along v (forward-over-reverse: a ``pull_up`` and a
  ``push_down`` over the ratio table of its one backward pass, which
  returns the batch sums of the flow tangents); a block of vectors shares
  each sweep, side by side in [nodes, vectors, samples] tables, and the
  stacks' weight and ratio rows are gathered once per operator.  Lanczos in
  ``top_eigenvalues`` consumes one vector at a time and stops at the
  tolerance that its residual check, one block of all k pairs, gates.
* The gradient of the trace penalty R = sum_x sum_e w_e g_{x,e}^2 itself,
  for training: with g_x = F_x/theta, d g_{x,e}/d theta_e' = H_x[e, e'], so
  it is 2 sum_x H_x (w g_x) on any circuit, the H v sweeps with one
  direction per sample, on the samples' own axis.

Hessian-vector products, the penalty and per-sample gradients read the
per-sample edge-flow and ratio tables of a ``FlowTable``, node-major as they
are; a flow table builds them at most once, however many passes read them,
and none is transposed.  ``push_down`` writes no edge table of its own.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .circuit import Circuit, ParamSet
from .errors import CostGuardExceeded, NotATree, NotConverged, StaleTrace
from .evaluate import TILE_BYTES, EvalTrace, as_batch, forward, probe_width
from .flows import FlowTable, _check_roots, backward, pull_up, push_down, stack_rows

DENSE_EDGE_CAP = 5000
# Bytes per entry of a tree Hessian's sparse part S, a float64 value and two
# int32 indices: hessian_operator holds S when it fits in TILE_BYTES
_ENTRY_BYTES = 16


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


def _curvature(tree, g: np.ndarray, node_flow: np.ndarray, theta: np.ndarray):
    """One side of the sparse part S of a tree's batch-summed Hessian H =
    -G G^T + S, as (rows, cols, values) in the global edge order, from the
    blocks of the tree index (``Circuit.tree_index``) and the per-sample
    gradients G [edges, samples]: each product-pair block G_a diag(1/F_q)
    G_b^T, F_q the node flow of the block's product, and each nested path
    pair sum_x g_deep / theta_shallow, as (shallow, deep).  S is these
    entries and their mirror images (cols, rows, values): no two of them
    share a position, and S is exactly symmetric."""
    lo1, hi1, lo2, hi2, product = tree.lo1, tree.hi1, tree.lo2, tree.hi2, tree.product
    # every block's entries row by row: the t-th entry of a block of width w is (lo1 + t // w, lo2 + t % w)
    width = hi2 - lo2
    size = (hi1 - lo1) * width
    t = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    width = np.repeat(width, size)
    rows = tree.dfs_to_global[np.repeat(lo1, size) + t // width]
    cols = tree.dfs_to_global[np.repeat(lo2, size) + t % width]
    vals = np.empty(rows.size)

    # dead subtree (F_q < 1e-250): g below q scales with F_q, so the
    # correction g g' / F_q vanishes in the limit; weight 0 before 1/F_q overflows
    fq = node_flow[product]
    inv = np.divide(1.0, fq, out=np.zeros_like(fq), where=fq >= 1e-250)
    g_dfs = g[tree.dfs_to_global]  # every child subtree is a row slice
    # the product-pair blocks of one shape (h, w) in one batched product, each
    # block its own [h, samples] x [samples, w] matrix product, as alone
    n = product.size
    start = np.cumsum(size[:n]) - size[:n]
    shapes, shape_of = np.unique(np.stack((hi1 - lo1, hi2 - lo2))[:, :n], axis=1, return_inverse=True)
    for j, (h, w) in enumerate(shapes.T.tolist()):
        i = np.flatnonzero(shape_of == j)
        left = g_dfs[lo1[i, None] + np.arange(h)] * inv[i, None]
        right = g_dfs[lo2[i, None] + np.arange(w)].transpose(0, 2, 1)
        vals[start[i, None] + np.arange(h * w)] = np.matmul(left, right).reshape(i.size, h * w)
    at = int(size[:n].sum())  # the path pairs follow
    np.divide(g.sum(axis=1)[cols[at:]], theta[rows[at:]], out=vals[at:])
    return rows, cols, vals


def full_hessian_tree(
    circuit: Circuit,
    params: ParamSet,
    batch: np.ndarray,
    cap: int = DENSE_EDGE_CAP,
) -> np.ndarray:
    """Dense, batch-summed log-likelihood Hessian of a tree circuit.

    Assembled from batch-level products of the per-sample gradients G [edges,
    samples]: the base term -G G^T covers all sum pairs and the diagonal, and
    the entries of the sparse part S (``_curvature``: product-pair blocks
    G_a diag(1/F_q) G_b^T and nested path pairs sum_x g_deep / theta_shallow)
    are added to it.  Every entry gets at most one correction, the same on
    both sides of the diagonal, so the result is exactly symmetric.  Pass a
    single-row batch for a per-sample Hessian.
    """
    if not circuit.is_tree:
        raise NotATree("dense Hessians exist in closed form only for tree circuits")
    e = circuit.num_sum_edges
    if e > cap:
        raise CostGuardExceeded(f"{e} sum edges exceeds dense Hessian cap {cap}")
    g, flows = edge_gradients(circuit, params, batch)
    hess = g @ g.T  # numpy's product of a matrix with its own transpose is exactly symmetric
    np.negative(hess, out=hess)
    rows, cols, vals = _curvature(circuit.tree_index(), g, flows.node_flow, params.theta)
    hess[rows, cols] += vals
    hess[cols, rows] += vals
    return hess


def hessian_operator(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> LinearOperator:
    """Exact batch-summed log-likelihood Hessian as a symmetric E x E operator.

    On a tree whose sparse part S (see ``full_hessian_tree``) fits in
    ``TILE_BYTES`` at 16 bytes an entry (a value and two int32 indices), the
    operator holds S as a CSR matrix and the per-sample gradients G, and H V
    = S V - G (G^T V), the closed form's split, with one matrix product per
    column.  Otherwise (DAGs, and trees with a larger S) each H v is
    forward-over-reverse (Pearlmutter 1994) through the compiled levels, over
    the ratio table of the one backward pass made here: ``pull_up`` with edge
    source v / theta gives the tangents t = d log p along v, then
    ``push_down`` carries the flow tangents dF down with the per-edge source
    F_e (v / theta + t_c - t_n) and returns sum_x dF_e, and H v = (sum_x dF_e
    - sum_x F_e v / theta) / theta; a block of vectors goes through each
    sweep up to ``probe_width`` at a time, side by side.  On either route
    each column of H V equals its own H v bit for bit, and H v is the
    one-column case.  Raises ZeroLikelihood for a row of likelihood 0, and
    ValueError for a v that is not E finite values, or a V that is not E
    rows of them.
    """
    flows = _flows(circuit, params, batch)
    e = params.theta.size
    # the operator's own tree index (0.4 ms on the 2110-edge RAT), freed
    # with it: an index cached on the circuit would outlive the call amid
    # its temporaries and keep the heap from shrinking below it
    tree = circuit.tree_index() if circuit.is_tree else None
    if tree is not None and _ENTRY_BYTES * tree.size <= TILE_BYTES:
        products = _closed_form_products(tree, params, flows)
    else:
        products = _sweep_products(circuit, params, flows)

    def matmat(v):
        u = np.asarray(v, dtype=float)
        if u.ndim != 2 or u.shape[0] != e or not np.all(np.isfinite(u)):
            raise ValueError(f"V must be {e} rows of finite values, got shape {np.shape(v)}")
        return products(u)

    def matvec(v):
        return matmat(np.reshape(v, (-1, 1)))[:, 0]

    return LinearOperator((e, e), matvec=matvec, rmatvec=matvec, matmat=matmat, rmatmat=matmat, dtype=float)


def _closed_form_products(tree, params: ParamSet, flows: FlowTable):
    """H V = S V - G (G^T V) on a tree: S as CSR, whose product takes each
    column on its own, and G^T V and G (G^T V) as stacks of matrix-vector
    products, one per column (``np.matmul`` over the columns as its batch
    axis)."""
    g = flows.edge_flow / params.theta[:, None]
    e = g.shape[0]
    rows, cols, vals = _curvature(tree, g, flows.node_flow, params.theta)
    # CSR arrays sorted here: scipy's COO conversion would also look for
    # duplicates, which S does not have
    rows, cols = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    by_row = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=e))))
    s = scipy.sparse.csr_array((np.concatenate((vals, vals))[by_row], cols[by_row], indptr), shape=(e, e))

    def products(u):
        columns = np.ascontiguousarray(u.T)[:, :, None]  # [vectors, edges, 1]
        return s @ u - np.matmul(g, np.matmul(g.T, columns))[:, :, 0].T

    return products


def _sweep_products(circuit: Circuit, params: ParamSet, flows: FlowTable):
    """H V by forward-over-reverse sweeps, up to ``probe_width`` vectors
    side by side per sweep."""
    theta = params.theta
    fe = flows.edge_flow
    fe_sum = fe.sum(axis=1)[:, None]
    width = probe_width(circuit, fe.shape[1])
    rows = stack_rows(circuit, theta, flows.ratio)

    def products(v):
        u = v / theta[:, None]
        out = np.empty(u.shape)
        for lo in range(0, u.shape[1], width):
            block = u[:, lo : lo + width]
            dfe_sum = _flow_tangent_sums(circuit, rows, fe, block[:, :, None])
            out[:, lo : lo + width] = (dfe_sum - fe_sum * block) / theta[:, None]
        return out

    return products


def _flow_tangent_sums(circuit: Circuit, rows: list, fe: np.ndarray, u: np.ndarray, out=None) -> np.ndarray:
    """Batch sums [sum edges, m] of the edge-flow tangents dF along u = v /
    theta, [sum edges, m, 1] (m directions) or [sum edges, 1, samples] (one
    per sample): ``pull_up`` gives t = d log p, then ``push_down`` carries dF
    with the edge source F_e (u + t_c - t_n), fe the edge flows, written to
    out (a new table by default; u itself may take it)."""
    t = np.zeros((circuit.num_nodes, u.shape[1], fe.shape[1]))
    pull_up(circuit, rows, t, u)
    source = np.add(u, t.take(circuit.sum_edge_child, axis=0), out=out)
    source -= t.take(circuit.sum_edge_owner, axis=0)
    source *= fe[:, None]
    del t  # push_down's own table takes its place
    return push_down(circuit, rows, source)


def top_eigenvalues(matrix: np.ndarray | LinearOperator, k: int, tol_scale: float = 1e-8) -> np.ndarray:
    """k largest-magnitude eigenvalues of a symmetric matrix or operator,
    descending in magnitude.

    Uses an iterative Lanczos solver (ARPACK) from a fixed start vector, so
    repeated calls return identical values, falling back to a dense solve (an
    operator is applied to the identity) when k is too close to the dimension
    for the iteration to run.  Arrays must be symmetric.  One tolerance both
    stops and gates the pairs: Lanczos stops a pair at ||H v - lambda v|| <=
    tol_scale * |lambda| (|lambda| floored at eps^(2/3)), and the returned
    pairs are then residual-checked together, with one product H V, against
    ||H v - lambda v|| <= tol_scale * ||H||, with ||H|| the spectral norm,
    the largest returned |lambda|; a pair past the check raises NotConverged,
    and a k below 1 ValueError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
            vals, vecs = eigsh(h, k=k, which="LM", v0=v0, tol=tol_scale)
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

    With g_x = F_x/theta the gradient of log p on row x and H_x its Hessian,
    dR/d theta = 2 sum_x H_x (w g_x): the Hessian-vector product of
    ``hessian_operator``'s sweeps, with one direction per sample, u = w g_x /
    theta as a [sum edges, 1, samples] edge source, so that the direct term
    sum_x F_e u_e is (w / theta^2) times the flows' batch sums of squares.
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
    scale = w / (theta * theta)
    # u = w g_x / theta, one direction per sample; its source is built in its storage
    u = scale[:, None, None] * flows.edge_flow[:, None]
    dfe_sum = _flow_tangent_sums(circuit, stack_rows(circuit, theta, flows.ratio), flows.edge_flow, u, out=u)
    return 2.0 * (dfe_sum[:, 0] - scale * flows.edge_flow_sq_sum) / theta
