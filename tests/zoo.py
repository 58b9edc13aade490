"""Seeded random circuit generators used across the test suite.

Weights and leaf parameters are kept away from the extremes so central
finite differences stay inside their truncation budget.
"""

from __future__ import annotations

import numpy as np

from circuit_sharp import Circuit, ParamSet, leaf_node, product_node, sum_node

BINARY, CONT, CAT3 = "binary", "continuous", "cat3"


def _leaf_for(var: int, var_type: str, rng: np.random.Generator):
    if var_type == BINARY:
        return leaf_node(var, "bern", [rng.uniform(0.15, 0.85)])
    if var_type == CAT3:
        probs = rng.dirichlet(np.ones(3))
        probs = np.maximum(probs, 0.1)
        return leaf_node(var, "cat", probs / probs.sum())
    return leaf_node(var, "gauss", [rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)])


def _clamped_weights(k: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.dirichlet(np.ones(k))
    w = np.maximum(w, 0.08 / k + 0.05)
    return w / w.sum()


def _bipartition(scope: tuple[int, ...], rng: np.random.Generator):
    perm = list(rng.permutation(list(scope)))
    cut = (len(perm) + 1) // 2
    return tuple(sorted(perm[:cut])), tuple(sorted(perm[cut:]))


def random_tree(
    seed: int,
    num_vars: int | None = None,
    max_depth: int = 4,
    families: tuple[str, ...] = (BINARY, CONT),
) -> tuple[Circuit, ParamSet]:
    """Random smooth decomposable tree circuit with alternating layers."""
    rng = np.random.default_rng(seed)
    if num_vars is None:
        num_vars = int(rng.integers(2, 7))
    var_types = [families[rng.integers(len(families))] for _ in range(num_vars)]
    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    def grow_sum(scope, depth):
        k = int(rng.integers(2, 4))
        children = []
        for _ in range(k):
            if len(scope) == 1:
                children.append(add(_leaf_for(scope[0], var_types[scope[0]], rng)))
            else:
                children.append(grow_product(scope, depth))
        return add(sum_node(*children))

    def grow_product(scope, depth):
        left, right = _bipartition(scope, rng)
        children = []
        for part in (left, right):
            if len(part) == 1 and (depth <= 1 or rng.random() < 0.4):
                children.append(add(_leaf_for(part[0], var_types[part[0]], rng)))
            else:
                children.append(grow_sum(part, depth - 1))
        return add(product_node(*children))

    scope = tuple(range(num_vars))
    root = grow_sum(scope, max_depth)
    circuit = Circuit.build(nodes, root)
    params = _random_params(circuit, rng)
    return circuit, params


def random_dag(
    seed: int,
    num_vars: int | None = None,
    width: int | None = None,
    families: tuple[str, ...] = (BINARY, CONT),
) -> tuple[Circuit, ParamSet]:
    """Random smooth decomposable DAG: shared node pools merged pairwise."""
    rng = np.random.default_rng(seed)
    if num_vars is None:
        num_vars = int(rng.integers(3, 8))
    if width is None:
        width = int(rng.integers(2, 4))
    var_types = [families[rng.integers(len(families))] for _ in range(num_vars)]
    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    groups = [
        ((v,), [add(_leaf_for(v, var_types[v], rng)) for _ in range(width)])
        for v in range(num_vars)
    ]
    while len(groups) > 1:
        i, j = rng.choice(len(groups), size=2, replace=False)
        (sa, ga), (sb, gb) = groups[i], groups[j]
        groups = [g for t, g in enumerate(groups) if t not in (i, j)]
        # permutation pairing keeps every pool node reachable
        perm = rng.permutation(len(gb))
        count = max(width, len(ga), len(gb))
        prods = [
            add(product_node(ga[t % len(ga)], gb[perm[t % len(gb)]])) for t in range(count)
        ]
        merged_scope = tuple(sorted(sa + sb))
        n_sums = 1 if len(groups) == 0 else width
        sums = [add(sum_node(*rng.permutation(prods))) for _ in range(n_sums)]
        groups.append((merged_scope, sums))
    top_scope, top = groups[0]
    if len(top) == 1:
        root = top[0]
    else:
        wrapped = [add(product_node(s)) for s in top]
        root = add(sum_node(*wrapped))
    circuit = Circuit.build(nodes, root)
    params = _random_params(circuit, rng)
    return circuit, params


def _random_params(circuit: Circuit, rng: np.random.Generator) -> ParamSet:
    params = ParamSet.uniform(circuit)
    weights = [_clamped_weights(len(circuit.nodes[n].children), rng) for n in circuit.sum_nodes]
    params.set_edge_vector(circuit, np.concatenate(weights))
    return params


def batch_for(circuit: Circuit, size: int, seed: int) -> np.ndarray:
    """Draw a data batch matching each variable's leaf family in the circuit."""
    rng = np.random.default_rng(seed)
    num_vars = len(circuit.root_scope)
    kinds = {}
    for node in circuit.nodes:
        if node.kind == "leaf":
            kinds[node.leaf.variable] = node.leaf.family
    cols = []
    for v in range(num_vars):
        fam = kinds.get(v, "bern")
        if fam == "bern":
            cols.append(rng.integers(0, 2, size=size).astype(float))
        elif fam == "cat":
            cols.append(rng.integers(0, 3, size=size).astype(float))
        else:
            cols.append(rng.uniform(-1.5, 1.5, size=size))
    return np.column_stack(cols)


def shared_child_dag():
    """Smooth decomposable DAG over three binary variables in which sum node
    S1 (id 9) has two product parents at one level and a third two levels
    higher, and sum node D0 (id 8) mixes two x0=1 indicators, so it is dead
    (-inf) wherever x0 = 0."""
    nodes = [
        leaf_node(0, "bern", [0.3]), leaf_node(0, "bern", [1.0]), leaf_node(0, "bern", [1.0]),  # 0-2
        leaf_node(1, "bern", [0.6]), leaf_node(1, "bern", [0.2]),  # 3-4
        leaf_node(2, "bern", [0.7]), leaf_node(2, "bern", [0.4]),  # 5-6
        sum_node(0, 1), sum_node(1, 2), sum_node(3, 4), sum_node(5, 6),  # 7 S0, 8 D0, 9 S1, 10 S2
        product_node(7, 10), product_node(0, 5), sum_node(11, 12),  # 11-12 over {0, 2}, 13 T
        product_node(13, 9),  # 14 Q1: S1's parent at the top product level
        product_node(7, 9), product_node(8, 9), sum_node(15, 16),  # 15-16 S1's parents, 17 U
        product_node(17, 10), sum_node(14, 18),  # 18 Q2, 19 root
    ]
    circuit = Circuit.build(nodes, 19)
    params = ParamSet.uniform(circuit)
    weights = np.random.default_rng(11).dirichlet(np.ones(2), size=circuit.num_sum_edges // 2)
    params.set_edge_vector(circuit, weights.ravel())
    return circuit, params


# every assignment of the two binary variables of indicator_groups_dag
INDICATOR_ROWS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def indicator_groups_dag():
    """Smooth decomposable DAG over two binary variables whose sum nodes come
    in pairs that share one child list in different slot orders: A (6, 7)
    mixes two x0=1 indicators, so the whole group is -inf wherever x0 = 0; B
    (8, 9) holds one such indicator among live leaves; C (10, 11) is over
    x1.  A and C share one stack shape (g, k) = (2, 2); the root stays
    finite through B."""
    nodes = [
        leaf_node(0, "bern", [1.0]), leaf_node(0, "bern", [1.0]),  # 0-1
        leaf_node(0, "bern", [0.3]), leaf_node(0, "bern", [0.6]),  # 2-3
        leaf_node(1, "bern", [0.2]), leaf_node(1, "bern", [0.7]),  # 4-5
        sum_node(0, 1), sum_node(1, 0),  # 6-7 A
        sum_node(2, 3, 0), sum_node(0, 3, 2),  # 8-9 B
        sum_node(4, 5), sum_node(5, 4),  # 10-11 C
        product_node(6, 10), product_node(7, 11), product_node(8, 10), product_node(9, 11),  # 12-15
        sum_node(12, 13, 14, 15),  # 16 root
    ]
    circuit = Circuit.build(nodes, 16)
    params = _random_params(circuit, np.random.default_rng(13))
    return circuit, params


def chain_hclt(num_vars: int = 3000, num_latents: int = 2) -> tuple[Circuit, ParamSet]:
    """HCLT over a chain of binary variables: 2 * num_vars levels deep, its
    sum nodes in groups of num_latents that share one child list."""
    from circuit_sharp.structure import HcltConfig, build_hclt

    return build_hclt([(i, i + 1) for i in range(num_vars - 1)], HcltConfig(num_latents=num_latents, seed=3))


def tree_zoo(
    count: int, base_seed: int = 100, max_edges: int | None = None, **kw
) -> list[tuple[Circuit, ParamSet]]:
    out = []
    seed = base_seed
    while len(out) < count:
        circuit, params = random_tree(seed, **kw)
        seed += 1
        if max_edges is not None and circuit.num_sum_edges > max_edges:
            continue
        out.append((circuit, params))
    return out


def dag_zoo(
    count: int, base_seed: int = 500, max_edges: int | None = None, **kw
) -> list[tuple[Circuit, ParamSet]]:
    out = []
    seed = base_seed
    while len(out) < count:
        circuit, params = random_dag(seed, **kw)
        seed += 1
        if circuit.is_tree:
            continue
        if max_edges is not None and circuit.num_sum_edges > max_edges:
            continue
        out.append((circuit, params))
    return out
