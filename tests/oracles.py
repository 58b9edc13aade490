"""Independent reference implementations used only as test oracles.

Everything here recomputes quantities from first principles along explicit
root paths (weights, product complements, enumeration) or with textbook
algorithms (cyclic Jacobi), deliberately avoiding the package's vectorized
recursions so the two routes stay independent.
"""

from __future__ import annotations

import itertools

import numpy as np

from circuit_sharp import (
    Circuit,
    EvalTrace,
    ParamSet,
    PathPair,
    ProductPair,
    SumEdge,
    SumPair,
    classify_pair,
    forward,
)
from circuit_sharp.errors import NotAChild


def _root_path(circuit: Circuit, node: int) -> list[int]:
    tree = circuit.tree_index()
    path = [node]
    v = node
    while tree.parent[v] != -1:
        v = int(tree.parent[v])
        path.append(v)
    return path  # node first, root last


def _log_complement(trace, sample: int, product: int, child: int) -> float:
    """log prod_{k != child} p_k by direct summation over siblings."""
    total = 0.0
    skipped = False
    for c in trace.circuit.nodes[product].children:
        if c == child and not skipped:
            skipped = True
            continue
        total += trace.log_p[sample, c]
    return total


def _path_weight_edges(circuit: Circuit, path: list[int]) -> list[tuple[int, int]]:
    """(sum node, child) pairs for every weighted edge along a root path."""
    out = []
    for i in range(1, len(path)):
        if circuit.kind(path[i]) == "sum":
            out.append((path[i], path[i - 1]))
    return out


def _edge_theta(circuit: Circuit, params: ParamSet, node: int, child: int) -> float:
    slot = circuit.nodes[node].children.index(child)
    return float(params.sum_weights[node][slot])


def unrolled_node_flow(circuit, params, trace, sample: int, node: int) -> float:
    """Flow of a node whose parent is a product node, from the closed-form
    unrolling: (prod of path weights) * P^1/P_root * (complements above P^1)."""
    path = _root_path(circuit, node)
    assert circuit.kind(path[1]) == "product", "unrolled form needs a product parent"
    theta_prod = 1.0
    for s, c in _path_weight_edges(circuit, path):
        theta_prod *= _edge_theta(circuit, params, s, c)
    prods = [(path[i], path[i - 1]) for i in range(1, len(path)) if circuit.kind(path[i]) == "product"]
    log_val = trace.log_p[sample, prods[0][0]] - trace.log_p[sample, circuit.root]
    for p, pc in prods[1:]:
        log_val += _log_complement(trace, sample, p, pc)
    return theta_prod * float(np.exp(log_val))


def unrolled_edge_flow(circuit, params, trace, sample: int, edge: SumEdge) -> float:
    """Edge flow from the closed form theta * P_c/P_root * prod theta^l Pbar^l."""
    child = circuit.nodes[edge.node].children[edge.slot]
    path = _root_path(circuit, edge.node)
    theta_prod = float(params.sum_weights[edge.node][edge.slot])
    for s, c in _path_weight_edges(circuit, path):
        theta_prod *= _edge_theta(circuit, params, s, c)
    log_val = trace.log_p[sample, child] - trace.log_p[sample, circuit.root]
    for i in range(1, len(path)):
        if circuit.kind(path[i]) == "product":
            log_val += _log_complement(trace, sample, path[i], path[i - 1])
    return theta_prod * float(np.exp(log_val))


def literal_hessian(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    """Dense log-likelihood Hessian from the pair-class formulas, with the
    product-pair denominator materialized as an explicit path walk."""
    from circuit_sharp.flows import backward

    trace = forward(circuit, params, batch)
    flows = backward(circuit, params, trace)
    theta = params.edge_vector(circuit)
    g = flows.edge_flow / theta
    e = circuit.num_sum_edges
    hess = np.zeros((e, e))
    edges = [circuit.edge(i) for i in range(e)]

    for i in range(e):
        hess[i, i] = -np.sum(g[:, i] ** 2)
        for j in range(i + 1, e):
            cls = classify_pair(circuit, edges[i], edges[j])
            total = 0.0
            for s in range(batch.shape[0]):
                gi, gj = g[s, i], g[s, j]
                if isinstance(cls, SumPair):
                    total += -gi * gj
                elif isinstance(cls, PathPair):
                    deep = i if cls.deeper == edges[i] else j
                    g_deep = g[s, deep]
                    idx_sh = j if deep == i else i
                    th_sh = theta[idx_sh]
                    total += g_deep / th_sh - gi * gj
                else:
                    q = cls.ancestor
                    if cls.weight_above is None:
                        log_den = trace.log_p[s, q]  # root product: no weight above
                    else:
                        log_den = np.log(
                            params.sum_weights[cls.weight_above.node][cls.weight_above.slot]
                        ) + trace.log_p[s, q]
                        path = _root_path(circuit, cls.weight_above.node)
                        path = [q] + path
                        for t in range(2, len(path)):
                            if circuit.kind(path[t]) == "product":
                                log_den += _log_complement(trace, s, path[t], path[t - 1])
                        for su, ch in _path_weight_edges(circuit, path[1:]):
                            log_den += np.log(_edge_theta(circuit, params, su, ch))
                    ratio = np.exp(trace.log_p[s, circuit.root] - log_den)
                    total += gi * gj * (ratio - 1.0)
            hess[i, j] = hess[j, i] = total
    return hess


def jacobi_eigenvalues(matrix: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Classic cyclic Jacobi rotation eigensolver for symmetric matrices."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * max(1.0, np.abs(a).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def enumerate_total_probability(circuit: Circuit, params: ParamSet) -> float:
    """Brute-force sum of exp(root log p) over every discrete assignment."""
    arity: dict[int, int] = {}
    for i, node in enumerate(circuit.nodes):
        if node.kind == "leaf":
            fam = node.leaf.family
            if fam == "gauss":
                raise ValueError("enumeration oracle needs discrete leaves")
            k = 2 if fam == "bern" else len(params.leaf_params[i])
            arity[node.leaf.variable] = max(arity.get(node.leaf.variable, 0), k)
    scope = circuit.root_scope
    grids = [range(arity[v]) for v in scope]
    total = 0.0
    rows = [np.array(row, dtype=float) for row in itertools.product(*grids)]
    batch = np.stack(rows)
    lp = forward(circuit, params, batch).root_log_p
    total = float(np.exp(lp).sum())
    return total


def cubic_update_oracle(flow_sum: float, lam: float, mu: float) -> float:
    """Positive real root of lambda t^3 - F t^2 - 2 mu F^2 = 0.

    Safeguarded Newton within a sign-change bracket, polished to an absolute
    residual of ~1e-13.  The cubic is the direct trace-constrained M-step;
    training uses the quadratic sharp_update instead.
    """
    f = float(flow_sum)
    if f == 0.0:
        return 0.0
    if f < 0:
        raise ValueError("flow sums must be nonnegative")
    c0 = 2.0 * mu * f * f

    def poly(t):
        return lam * t**3 - f * t * t - c0

    def dpoly(t):
        return 3.0 * lam * t * t - 2.0 * f * t

    lo = 0.0
    hi = max(f / lam, c0 ** (1.0 / 3.0), 1.0)
    while poly(hi) < 0:
        hi *= 2.0
    t = hi
    for _ in range(200):
        r = poly(t)
        if r > 0:
            hi = t
        else:
            lo = t
        step = dpoly(t)
        nxt = t - r / step if step > 0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(r) < 1e-13 and abs(nxt - t) < 1e-15 * max(1.0, t):
            t = nxt
            break
        t = nxt
    return float(t)


def product_complement(trace: EvalTrace, product: int, child: int, sample: int) -> float:
    """log prod_{k != child} p_k(x) for one sample, via log_p(product) - log_p(child).

    Falls back to direct summation over siblings when the child underflowed to
    log 0, where the subtraction would be indeterminate.
    """
    node = trace.circuit.nodes[product]
    if node.kind != "product":
        raise NotAChild(f"node {product} is not a product node")
    if child not in node.children:
        raise NotAChild(f"node {child} is not a child of {product}")
    lp_child = trace.log_p[sample, child]
    if np.isfinite(lp_child):
        return float(trace.log_p[sample, product] - lp_child)
    return float(_log_complement(trace, sample, product, child))
