"""Circuit construction: random binary-partition trees, Chow-Liu trees,
hidden-latent tree compilation, and layered DAGs for scaling runs.

All builders are pure functions of their config (seed included) and emit
circuits that pass structural validation with zero violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .circuit import Circuit, ParamSet, leaf_node, product_node, sum_node
from .domains import check
from .errors import CostGuardExceeded, DepthTooLarge, OutOfDomain

# Most nodes a RatConfig may ask build_rat for.  A build peaks at about 850
# bytes per node (1.8M nodes: 1.5 GiB and 51 s on a 2-core machine), so the
# cap keeps a build under 1 GiB.
RAT_NODE_CAP = 1_000_000


@dataclass
class RatConfig:
    """Random-tree architecture: per repetition, the variable set is
    recursively bipartitioned at random down to `depth`; sum nodes mix
    num_sums components (num_input_distributions at the leaves).  Raises
    CostGuardExceeded, before any node is built, when the circuit would
    have more than RAT_NODE_CAP nodes."""

    num_vars: int
    num_input_distributions: int = 10
    num_sums: int = 10
    num_repetitions: int = 10
    depth: int = 1
    leaf_family: str = "gauss"  # gauss | bern
    seed: int = 0

    def __post_init__(self):
        check(num_vars=self.num_vars, num_input_distributions=self.num_input_distributions, num_sums=self.num_sums,
              num_repetitions=self.num_repetitions, depth=self.depth, leaf_family=self.leaf_family)
        max_depth = int(np.floor(np.log2(self.num_vars)))
        if self.depth > max_depth:
            raise DepthTooLarge(
                f"depth {self.depth} exceeds floor(log2({self.num_vars})) = {max_depth}"
            )
        nodes = self.num_nodes
        if nodes > RAT_NODE_CAP:
            raise CostGuardExceeded(f"RAT of {nodes:.3g} nodes exceeds cap {RAT_NODE_CAP}")

    @property
    def num_nodes(self) -> int:
        """Nodes build_rat makes, counted from the config alone: splits are
        even, and each of num_sums products grows its own subtrees."""
        mix = self.num_input_distributions + 1  # a leaf mixture
        if self.num_vars == 1 and self.num_repetitions == 1:
            return mix

        @cache
        def part(size: int, depth: int) -> int:
            if size == 1:
                return mix
            if depth == 0:  # unsplit block: num_sums factorized components
                return self.num_sums * (1 + size * mix) + 1
            return self.num_sums * (1 + part((size + 1) // 2, depth - 1) + part(size // 2, depth - 1)) + 1

        return self.num_repetitions * (part(self.num_vars, self.depth) + 1) + 1


@dataclass
class HcltConfig:
    """Latent-tree compilation: one hidden variable with num_latents states
    per observed variable, wired along a spanning tree."""

    num_latents: int = 100
    seed: int = 0

    def __post_init__(self):
        check(num_latents=self.num_latents)


def _split_tree(scope: tuple[int, ...], depth: int, rng) -> tuple | int:
    """Nested random bipartition of a scope, evenly sized at every split."""
    if len(scope) == 1:
        return scope[0]
    if depth == 0:
        return scope  # unsplit multi-variable block (factorized at build time)
    perm = list(rng.permutation(list(scope)))
    cut = (len(perm) + 1) // 2
    left = tuple(sorted(perm[:cut]))
    right = tuple(sorted(perm[cut:]))
    return (_split_tree(left, depth - 1, rng), _split_tree(right, depth - 1, rng))


def build_rat(config: RatConfig) -> tuple[Circuit, ParamSet]:
    """Random tree-structured circuit; every node is private to its branch,
    so the result is a tree for any number of repetitions."""
    rng = np.random.default_rng(config.seed)
    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    def make_leaf(v):
        if config.leaf_family == "bern":
            return add(leaf_node(v, "bern", [rng.uniform(0.3, 0.7)]))
        return add(leaf_node(v, "gauss", [rng.uniform(-1.0, 1.0), 0.5]))

    def leaf_mixture(v):
        return add(sum_node(*[make_leaf(v) for _ in range(config.num_input_distributions)]))

    def grow(part):
        if isinstance(part, (int, np.integer)):
            return leaf_mixture(int(part))
        if isinstance(part[0], (int, np.integer)) and all(
            isinstance(p, (int, np.integer)) for p in part
        ):
            # unsplit block: mixture of fully factorized components
            comps = [
                add(product_node(*[leaf_mixture(int(v)) for v in part]))
                for _ in range(config.num_sums)
            ]
            return add(sum_node(*comps))
        left, right = part
        comps = [
            add(product_node(grow(left), grow(right))) for _ in range(config.num_sums)
        ]
        return add(sum_node(*comps))

    scope = tuple(range(config.num_vars))
    if config.num_vars == 1 and config.num_repetitions == 1:
        root = leaf_mixture(0)
    else:
        reps = []
        for _ in range(config.num_repetitions):
            top = grow(_split_tree(scope, config.depth, rng))
            reps.append(add(product_node(top)))  # pass-through keeps layers alternating
        root = add(sum_node(*reps))
    circuit = Circuit.build(nodes, root)
    return circuit, ParamSet.uniform(circuit)


# -- Chow-Liu tree --------------------------------------------------------------


def pairwise_mutual_information(data: np.ndarray, pseudo_count: float) -> np.ndarray:
    """MI matrix for binary data under Laplace-smoothed joint counts."""
    x = np.asarray(data, dtype=float)
    n, v = x.shape
    ones = x.sum(axis=0)
    c11 = x.T @ x
    c10 = ones[:, None] - c11
    c01 = ones[None, :] - c11
    c00 = n - c11 - c10 - c01
    total = n + 4.0 * pseudo_count
    mi = np.zeros((v, v))
    pu1 = (ones + 2.0 * pseudo_count) / total
    pu0 = 1.0 - pu1
    for a, pa, pb in ((c00, pu0, pu0), (c01, pu0, pu1), (c10, pu1, pu0), (c11, pu1, pu1)):
        p = (a + pseudo_count) / total
        mi += p * (np.log(p) - np.log(pa[:, None]) - np.log(pb[None, :]))
    np.fill_diagonal(mi, 0.0)
    return mi


def chow_liu_tree(data: np.ndarray, pseudo_count: float = 0.1) -> list[tuple[int, int]]:
    """Maximum spanning tree over pairwise mutual information.

    Deterministic: edges are taken greedily by (-MI, min index, lexicographic)
    with union-find cycle rejection.  Returns sorted undirected edges (u, v),
    u < v.  Raises OutOfDomain, naming the first row and its lowest variable,
    for a value other than 0 or 1.
    """
    data = np.atleast_2d(np.asarray(data))
    v = data.shape[1]
    if v < 2:
        raise ValueError("need at least 2 variables")
    bad = np.argwhere((data != 0) & (data != 1))
    if bad.size:
        row, var = bad[0]
        raise OutOfDomain(f"row {row}, variable {var}: {data[row, var]!r} is outside the binary domain")
    mi = pairwise_mutual_information(data, pseudo_count)
    candidates = sorted(
        ((u, w) for u in range(v) for w in range(u + 1, v)),
        key=lambda e: (-mi[e[0], e[1]], e[0], e[1]),
    )
    parent = list(range(v))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = []
    for u, w in candidates:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            edges.append((u, w))
            if len(edges) == v - 1:
                break
    return sorted(edges)


def build_hclt(
    tree: list[tuple[int, int]],
    config: HcltConfig,
    data: np.ndarray | None = None,
) -> tuple[Circuit, ParamSet]:
    """Compile a spanning tree over observed variables into a latent-tree
    circuit: each variable gets a hidden mixture with num_latents states, and
    every tree edge becomes num_latents sum nodes of num_latents components.

    Rooted at variable 0.  Leaf Bernoulli means start at the (jittered) data
    marginals when data is given, else at seeded uniform draws; sum weights
    start at a seeded Dirichlet so EM can break latent-state symmetry.
    """
    rng = np.random.default_rng(config.seed)
    num_vars = max(max(e) for e in tree) + 1 if tree else 1
    adj: dict[int, list[int]] = {v: [] for v in range(num_vars)}
    for u, w in tree:
        adj[u].append(w)
        adj[w].append(u)

    marginals = None
    if data is not None:
        marginals = np.clip(np.asarray(data, dtype=float).mean(axis=0), 0.05, 0.95)

    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    L = config.num_latents

    def leaf_params_for(v):
        if marginals is None:
            return rng.uniform(0.25, 0.75, size=L)
        return np.clip(marginals[v] + rng.uniform(-0.25, 0.25, size=L), 0.02, 0.98)

    weights: dict[int, np.ndarray] = {}

    def mixture(states: list[int]) -> int:
        sid = add(sum_node(*states))
        w = rng.dirichlet(np.ones(L)) if L > 1 else np.ones(1)
        weights[sid] = np.maximum(w, 1e-3)
        weights[sid] /= weights[sid].sum()
        return sid

    # Iterative post-order from variable 0.  A frame holds a variable, its
    # tree parent, its unvisited neighbours and the per-state mixtures of its
    # finished children; a finished variable becomes num_latents product
    # nodes (leaf times one mixture per child), and its parent wraps them in
    # num_latents mixtures.
    stack = [(0, None, iter(adj[0]), [])]
    while True:
        v, parent_var, todo, child_mixtures = stack[-1]
        u = next((u for u in todo if u != parent_var), None)
        if u is not None:
            stack.append((u, v, iter(adj[u]), []))
            continue
        stack.pop()
        p = leaf_params_for(v)
        states = []
        for s in range(L):
            lid = add(leaf_node(v, "bern", [p[s]]))
            states.append(add(product_node(lid, *[mix[s] for mix in child_mixtures])))
        if not stack:
            break
        stack[-1][3].append([mixture(states) for _ in range(L)])
    root = mixture(states)

    circuit = Circuit.build(nodes, root)
    params = ParamSet.uniform(circuit)
    params.set_edge_vector(circuit, np.concatenate([weights[n] for n in circuit.sum_nodes]))
    return circuit, params


# -- layered DAGs for scaling measurements --------------------------------------


def build_layered_dag(
    num_vars: int,
    width: int,
    seed: int = 0,
) -> tuple[Circuit, ParamSet]:
    """Balanced pairwise merge of per-variable node pools; sums connect to all
    of a merge's products, so sum-edge count grows as (num_vars-1) * width^2
    while the level count stays ~log2(num_vars).  Shared children make it a
    genuine DAG for width >= 2, over Bernoulli leaves.  Raises InvalidOption
    unless num_vars and width are at least 1."""
    check(num_vars=num_vars, width=width)
    rng = np.random.default_rng(seed)
    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    pools = [[add(leaf_node(v, "bern", [rng.uniform(0.2, 0.8)])) for _ in range(width)] for v in range(num_vars)]
    while len(pools) > 1:
        merged = []
        for i in range(0, len(pools) - 1, 2):
            a, b = pools[i], pools[i + 1]
            # pair via a random permutation so every pool node keeps a parent
            perm = rng.permutation(len(b))
            prods = [
                add(product_node(a[j % len(a)], b[perm[j % len(b)]]))
                for j in range(max(width, len(a), len(b)))
            ]
            merged.append([add(sum_node(*prods)) for _ in range(width)])
        if len(pools) % 2:
            merged.append(pools[-1])
        pools = merged
    top = pools[0]
    if len(top) == 1 and nodes[top[0]].kind == "sum":
        root = top[0]
    else:
        root = add(sum_node(*[add(product_node(t)) for t in top]))
    circuit = Circuit.build(nodes, root)
    params = ParamSet.uniform(circuit, rng=rng)
    return circuit, params


def layered_width_for_edges(target_edges: int, num_vars: int = 17) -> int:
    """Width whose layered DAG lands near the requested sum-edge count: about
    (num_vars - 1) * width^2 edges, or width for one variable, whose DAG is
    one sum over width products."""
    check(target_edges=target_edges, num_vars=num_vars)
    return max(2, target_edges if num_vars == 1 else int(round(np.sqrt(target_edges / (num_vars - 1)))))
