"""Independent reference implementations used only as test oracles.

Everything here recomputes quantities from first principles along explicit
root paths (weights, product complements, enumeration) or with textbook
algorithms (cyclic Jacobi), deliberately avoiding the package's vectorized
recursions so the two routes stay independent.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from circuit_sharp import Circuit, EvalTrace, ParamSet, forward, log_likelihood
from circuit_sharp.errors import CircuitError, CyclicGraph, NotATree


class NotAChild(CircuitError):
    """The named node is not a child of the given parent."""


# The paper's protocol grid of regularization weights.
MU_GRID = (0.01, 0.05, 0.1, 0.5, 1.0)


@dataclass(frozen=True)
class SumEdge:
    """Identity of a weighted edge: owning sum node and child slot."""

    node: int
    slot: int


def sum_edge(circuit: Circuit, idx: int) -> SumEdge:
    """The sum edge at global index idx."""
    run = int(circuit.sum_segments.ids[idx])
    return SumEdge(circuit.sum_nodes[run], idx - int(circuit.sum_segments.starts[run]))


def edge_index(circuit: Circuit, edge: SumEdge) -> int:
    """The global index of a sum edge; ValueError unless it names one."""
    run = int(np.searchsorted(circuit.sum_nodes, edge.node))
    if run == len(circuit.sum_nodes) or circuit.sum_nodes[run] != edge.node:
        raise ValueError(f"node {edge.node} is not a sum node")
    if not (0 <= edge.slot < len(circuit.nodes[edge.node].children)):
        raise ValueError(f"slot {edge.slot} out of range for node {edge.node}")
    return int(circuit.sum_segments.starts[run]) + edge.slot


def per_edge_sum_log_p(lp: np.ndarray, weights: np.ndarray, children) -> np.ndarray:
    """log p of one sum node from node-major lp [nodes, samples] by the
    per-edge formula: a shift by the max over its own children, one exp per
    edge, and the weighted terms in slot order added by one np.add.reduceat
    block, which fixes the rounding; -inf where every child is."""
    x = lp[list(children)]
    m = x.max(axis=0)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    terms = np.exp(x - m_safe) * weights[:, None]
    total = np.add.reduceat(terms, [0], axis=0)[0]
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(m), m_safe + np.log(total), -np.inf)


def edge_ratios(circuit: Circuit, theta: np.ndarray, lp: np.ndarray) -> np.ndarray:
    """min(p_c / p_n, 1 / theta) for every sum edge, [sum edges, samples] in
    global edge order, from node log-probabilities lp [nodes, samples]; 0
    where p_n = 0: the per-edge reference for ``FlowTable.ratio``."""
    lp_n = lp[circuit.sum_edge_owner]
    with np.errstate(invalid="ignore", over="ignore"):
        ratio = np.minimum(np.exp(lp[circuit.sum_edge_child] - lp_n), 1.0 / theta[:, None])
    ratio[~np.isfinite(lp_n)] = 0.0
    return ratio


def push_down_table(circuit: Circuit, theta, ratio, adj, edge_adj, source=None) -> None:
    """``flows.push_down`` as it was before it returned batch sums: adj
    [nodes, samples] propagated root-to-leaves in place, and every sum edge's
    share adj_n * theta_nc * ratio_nc (+ source) written to edge_adj [sum
    edges, samples], with fancy-index gathers and scatter-adds: the per-edge
    reference whose table row sums push_down must equal bit for bit."""

    def add_into(scatter, src):
        adj[scatter.nodes] += src if scatter.matrix is None else scatter.matrix @ src

    for sums, prods in reversed(circuit.level_edges):
        for b in sums:
            share = adj[b.parents][:, None] * b.blocks(theta[b.index, None])
            share *= b.blocks(ratio[b.index])
            share = share.reshape(b.child.size, adj.shape[1])
            if source is not None:
                share += source[b.index]
            edge_adj[b.index] = share
            add_into(b.scatter, share)
        for b in prods:
            add_into(b.scatter, np.repeat(adj[b.parents], b.k, axis=0))


def landscape_values(circuit: Circuit, params: ParamSet, data, directions, alphas) -> np.ndarray:
    """``diagnostics.landscape``'s grid values as it computed them point by
    point: one ``log_likelihood`` per grid point under the softmax of the
    perturbed logits, and the unperturbed NLL itself at the zero offset.
    1-D for one direction, [alphas, alphas] for two: the reference that the
    block evaluation must equal bit for bit."""
    logits0 = np.log(params.theta)
    origin = float(-log_likelihood(circuit, params, data).mean())

    def value_at(offset: np.ndarray) -> float:
        if not np.any(offset):
            return origin
        probed = params.copy()
        probed.theta = circuit.sum_segments.softmax(logits0 + offset)
        return float(-log_likelihood(circuit, probed, data).mean())

    u = directions[0]
    if len(directions) == 1:
        return np.array([value_at(a * u) for a in alphas])
    values = np.empty((len(alphas), len(alphas)))
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            values[i, j] = value_at(a * u + b * directions[1])
    return values


_PARENTS: "weakref.WeakKeyDictionary[Circuit, list]" = weakref.WeakKeyDictionary()


def parent_lists(circuit: Circuit) -> list[list[tuple[int, int]]]:
    """Per node, its (parent, slot) pairs in node-then-slot order, by a walk
    over circuit.nodes (kept per circuit)."""
    if circuit not in _PARENTS:
        parents: list[list[tuple[int, int]]] = [[] for _ in circuit.nodes]
        for i, node in enumerate(circuit.nodes):
            for slot, c in enumerate(node.children):
                parents[c].append((i, slot))
        _PARENTS[circuit] = parents
    return _PARENTS[circuit]


def tree_parent(circuit: Circuit, node: int) -> tuple[int, int]:
    """(parent, slot) of a node of a tree circuit, (-1, -1) at the root."""
    if not circuit.is_tree:
        raise NotATree("parent lookup requires a tree circuit")
    parents = parent_lists(circuit)[node]
    return parents[0] if parents else (-1, -1)


# -- reference walks for the circuit indexes ----------------------------------


def kahn_levels(nodes: list) -> tuple[list[int], np.ndarray]:
    """A children-first order by Kahn's algorithm with a LIFO queue, and each
    node's level (leaves 0, else one above its highest child) by a walk over
    that order; CyclicGraph if the order falls short of the nodes."""
    parents: list[list[int]] = [[] for _ in nodes]
    for i, node in enumerate(nodes):
        for c in node.children:
            parents[c].append(i)
    remaining = [len(node.children) for node in nodes]
    queue = [i for i in range(len(nodes)) if remaining[i] == 0]
    topo: list[int] = []
    while queue:
        v = queue.pop()
        topo.append(v)
        for p in parents[v]:
            remaining[p] -= 1
            if remaining[p] == 0:
                queue.append(p)
    if len(topo) != len(nodes):
        raise CyclicGraph("circuit graph contains a cycle")
    levels = np.zeros(len(nodes), dtype=np.int64)
    for v in topo:
        if nodes[v].children:
            levels[v] = 1 + max(levels[c] for c in nodes[v].children)
    return topo, levels


def min_sum_depth(circuit: Circuit) -> np.ndarray:
    """Per node, the fewest sum nodes strictly above it on a root path, a
    min over the reversed Kahn order; iinfo(int64).max where no root path
    reaches it."""
    far = np.iinfo(np.int64).max
    depth = np.full(circuit.num_nodes, far, dtype=np.int64)
    depth[circuit.root] = 0
    for v in kahn_levels(circuit.nodes)[0][::-1]:
        if depth[v] == far:
            continue
        bump = 1 if circuit.kind(v) == "sum" else 0
        for c in circuit.nodes[v].children:
            depth[c] = min(depth[c], depth[v] + bump)
    return depth


def dfs_tree_index(circuit: Circuit) -> tuple[np.ndarray, np.ndarray, list[int], list[list[tuple[int, int]]]]:
    """tree_index's fields by an iterative DFS from the root, children in
    slot order: each sum edge gets its DFS index right before the DFS
    descends along it; a product node joins prod_nodes as the DFS leaves
    it, with its children's (start, end) DFS edge ranges."""
    e = circuit.num_sum_edges
    dfs_to_global = np.empty(e, dtype=np.int64)
    sub_hi = np.empty(e, dtype=np.int64)
    start = np.empty(circuit.num_nodes, dtype=np.int64)
    end = np.empty(circuit.num_nodes, dtype=np.int64)
    prod_nodes: list[int] = []
    prod_blocks: list[list[tuple[int, int]]] = []
    offsets = dict(zip(circuit.sum_nodes, circuit.sum_segments.starts.tolist()))  # sum node -> first edge
    counter = 0
    stack = [(circuit.root, -1, False)]  # (node, global edge into it or -1, leaving); leaving carries the DFS index
    while stack:
        v, g, leaving = stack.pop()
        node = circuit.nodes[v]
        if leaving:
            end[v] = counter
            if g >= 0:
                sub_hi[g] = counter
            if node.kind == "product":
                prod_nodes.append(v)
                prod_blocks.append([(int(start[c]), int(end[c])) for c in node.children])
            continue
        d = -1
        if g >= 0:
            d = counter
            dfs_to_global[d] = g
            counter += 1
        start[v] = counter
        stack.append((v, d, True))
        base = offsets[v] if node.kind == "sum" else None
        for slot in reversed(range(len(node.children))):
            stack.append((node.children[slot], -1 if base is None else base + slot, False))
    return dfs_to_global, sub_hi, prod_nodes, prod_blocks


def dfs_tree_blocks(circuit: Circuit) -> tuple[np.ndarray, ...]:
    """tree_index's block arrays (lo1, hi1, lo2, hi2, product) from the DFS
    walk, pair by pair: every pair a < b of each product's child ranges, the
    products in dfs_tree_index's order, then each DFS edge d against the
    edges below it."""
    _, sub_hi, prod_nodes, prod_blocks = dfs_tree_index(circuit)
    pairs = [
        (*blocks[a], *blocks[b], q)
        for q, blocks in zip(prod_nodes, prod_blocks)
        for a in range(len(blocks))
        for b in range(a + 1, len(blocks))
    ]
    pairs += [(d, d + 1, d + 1, int(hi), None) for d, hi in enumerate(sub_hi)]
    lo1, hi1, lo2, hi2, product = zip(*pairs) if pairs else ((),) * 5
    return (*(np.array(x, dtype=np.int64) for x in (lo1, hi1, lo2, hi2)),
            np.array([q for q in product if q is not None], dtype=np.int64))


def node_scopes(circuit: Circuit) -> list[tuple[int, ...]]:
    """Every node's scope as a sorted variable tuple, by set unions over the
    children: the reference for the scope bitsets in ``validate``."""
    scopes: list[tuple[int, ...]] = [()] * circuit.num_nodes
    for v in circuit.topo_order:
        node = circuit.nodes[v]
        if node.kind == "leaf":
            scopes[v] = (node.leaf.variable,)
        else:
            scopes[v] = tuple(sorted(set().union(*(scopes[c] for c in node.children))))
    return scopes


# -- edge-pair classification (tree circuits) ---------------------------------


@dataclass(frozen=True)
class SumPair:
    pass


@dataclass(frozen=True)
class ProductPair:
    ancestor: int
    weight_above: SumEdge | None  # absent when the product node is the root


@dataclass(frozen=True)
class PathPair:
    deeper: SumEdge
    shallower: SumEdge


PairClass = SumPair | ProductPair | PathPair


def classify_pair(circuit: Circuit, e1: SumEdge, e2: SumEdge) -> PairClass:
    """Classify two distinct sum edges of a tree circuit.

    SumPair when the deepest common ancestor of the owning sum nodes is a sum
    node, ProductPair when it is a product node, PathPair when one edge lies on
    the unique root path of the other.
    """
    if not circuit.is_tree:
        raise NotATree("pair classification requires a tree circuit")
    if e1 == e2:
        raise ValueError("edges must be distinct")
    for e in (e1, e2):
        edge_index(circuit, e)  # validates node/slot

    if e1.node == e2.node:
        return SumPair()

    c1 = circuit.nodes[e1.node].children[e1.slot]
    c2 = circuit.nodes[e2.node].children[e2.slot]

    # Root path of e1's owner, with the child through which it descends.
    on_path: dict[int, int | None] = {}
    v: int = e1.node
    below: int | None = None
    while v != -1:
        on_path[v] = below
        below = v
        v = tree_parent(circuit, v)[0]

    v = e2.node
    prev: int | None = None
    while v not in on_path:
        prev = v
        v = tree_parent(circuit, v)[0]
    anc = v
    down1 = on_path[anc]  # next node toward e1.node (None if anc == e1.node)
    down2 = prev  # next node toward e2.node (None if anc == e2.node)

    if anc == e1.node and down2 is not None:
        return PathPair(deeper=e2, shallower=e1) if down2 == c1 else SumPair()
    if anc == e2.node and down1 is not None:
        return PathPair(deeper=e1, shallower=e2) if down1 == c2 else SumPair()
    if circuit.kind(anc) == "sum":
        return SumPair()
    p, slot = tree_parent(circuit, anc)
    above = None
    if p != -1 and circuit.kind(p) == "sum":
        above = SumEdge(p, slot)
    return ProductPair(ancestor=anc, weight_above=above)


def _root_path(circuit: Circuit, node: int) -> list[int]:
    path = [node]
    v = node
    while (v := tree_parent(circuit, v)[0]) != -1:
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
    g = flows.edge_flow / theta[:, None]
    e = circuit.num_sum_edges
    hess = np.zeros((e, e))
    edges = [sum_edge(circuit, i) for i in range(e)]

    for i in range(e):
        hess[i, i] = -np.sum(g[i] ** 2)
        for j in range(i + 1, e):
            cls = classify_pair(circuit, edges[i], edges[j])
            total = 0.0
            for s in range(batch.shape[0]):
                gi, gj = g[i, s], g[j, s]
                if isinstance(cls, SumPair):
                    total += -gi * gj
                elif isinstance(cls, PathPair):
                    deep = i if cls.deeper == edges[i] else j
                    g_deep = g[deep, s]
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


def per_sample_tree_hessian(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    """Dense tree Hessian summed one sample at a time: per sample, the outer
    product -g g^T, then each product-pair block g_a g_b^T / F_q and each
    nested path pair g_deep / theta_shallow, in DFS edge order."""
    from circuit_sharp.curvature import edge_gradients

    dfs_to_global, sub_hi, prod_nodes, prod_blocks = dfs_tree_index(circuit)
    e = circuit.num_sum_edges
    g, flows = edge_gradients(circuit, params, batch)
    g_dfs = g[dfs_to_global]
    theta_dfs = params.theta[dfs_to_global]

    hess = np.zeros((e, e))
    for i in range(g.shape[1]):
        gv = g_dfs[:, i]
        hess -= np.outer(gv, gv)
        for q, blocks in zip(prod_nodes, prod_blocks):
            fq = flows.node_flow[q, i]
            if fq < 1e-250:
                continue  # dead subtree: the correction vanishes in the limit
            inv = 1.0 / fq
            for a in range(len(blocks)):
                lo1, hi1 = blocks[a]
                for b in range(a + 1, len(blocks)):
                    lo2, hi2 = blocks[b]
                    corr = inv * np.outer(gv[lo1:hi1], gv[lo2:hi2])
                    hess[lo1:hi1, lo2:hi2] += corr
                    hess[lo2:hi2, lo1:hi1] += corr.T
        for d in range(e):
            lo, hi = d + 1, sub_hi[d]
            corr = gv[lo:hi] / theta_dfs[d]
            hess[lo:hi, d] += corr
            hess[d, lo:hi] += corr

    inv_perm = np.argsort(dfs_to_global)
    return hess[np.ix_(inv_perm, inv_perm)]


def in_place_tree_hessian(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    """Dense batch-summed tree Hessian assembled in place: -G G^T, then each
    product-pair block added through np.ix_ and its transpose, then the path
    pairs by fancy index.  The same products as curvature.full_hessian_tree,
    each entry corrected at most once, so the two agree bit for bit."""
    from circuit_sharp.curvature import edge_gradients

    order, sub_hi, prod_nodes, prod_blocks = dfs_tree_index(circuit)
    e = circuit.num_sum_edges
    g, flows = edge_gradients(circuit, params, batch)
    hess = g @ g.T
    np.negative(hess, out=hess)

    fq = flows.node_flow[prod_nodes]
    inv = np.divide(1.0, fq, out=np.zeros_like(fq), where=fq >= 1e-250)
    g_dfs = g[order]
    for w, blocks in zip(inv, prod_blocks):
        for a, (lo1, hi1) in enumerate(blocks):
            ia = order[lo1:hi1]
            gw = g_dfs[lo1:hi1] * w
            for lo2, hi2 in blocks[a + 1 :]:
                ib = order[lo2:hi2]
                corr = gw @ g_dfs[lo2:hi2].T
                hess[np.ix_(ia, ib)] += corr
                hess[np.ix_(ib, ia)] += corr.T

    lo = np.arange(1, e + 1)
    size = sub_hi - lo
    shallow = np.repeat(np.arange(e), size)
    deep = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)
    shallow, deep = order[shallow], order[deep]
    corr = g.sum(axis=1)[deep] / params.theta[shallow]
    hess[deep, shallow] += corr
    hess[shallow, deep] += corr
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
