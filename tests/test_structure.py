import hashlib

import numpy as np
import pytest

from circuit_sharp import ParamSet, forward, validate
from circuit_sharp.errors import CostGuardExceeded, DepthTooLarge
from circuit_sharp.structure import (
    HcltConfig,
    RatConfig,
    build_hclt,
    build_layered_dag,
    build_rat,
    chow_liu_tree,
    layered_width_for_edges,
    pairwise_mutual_information,
)

from oracles import enumerate_total_probability


class TestRat:
    def test_paper_architecture_validates(self):
        cfg = RatConfig(num_vars=2, depth=1, seed=0)
        circuit, params = build_rat(cfg)
        assert validate(circuit).ok
        assert circuit.is_tree

    def test_single_variable_single_rep_is_leaf_mixture(self):
        circuit, _ = build_rat(RatConfig(num_vars=1, depth=0, num_repetitions=1, seed=1))
        assert circuit.kind(circuit.root) == "sum"
        assert all(circuit.kind(c) == "leaf" for c in circuit.nodes[circuit.root].children)

    def test_seeded_builds_identical(self):
        cfg = RatConfig(num_vars=16, depth=2, num_sums=2, num_input_distributions=2,
                        num_repetitions=2, seed=9)
        a, _ = build_rat(cfg)
        b, _ = build_rat(cfg)
        assert a.num_nodes == b.num_nodes
        assert all(x.kind == y.kind and x.children == y.children for x, y in zip(a.nodes, b.nodes))

    def test_depth_guard(self):
        with pytest.raises(DepthTooLarge):
            RatConfig(num_vars=4, depth=3)

    @pytest.mark.parametrize("num_vars,depth,sizes,reps", [
        (1, 0, (3, 2), 1), (1, 0, (2, 3), 3), (2, 1, (3, 2), 2), (3, 1, (2, 3), 2),
        (5, 2, (2, 2), 2), (7, 2, (1, 3), 1), (13, 3, (2, 1), 2), (16, 2, (2, 2), 2),
    ])
    def test_node_count_without_building(self, num_vars, depth, sizes, reps):
        cfg = RatConfig(num_vars=num_vars, depth=depth, num_input_distributions=sizes[0],
                        num_sums=sizes[1], num_repetitions=reps, seed=num_vars)
        assert cfg.num_nodes == build_rat(cfg)[0].num_nodes

    def test_size_guard_raises_before_building(self):
        # about 2.2e12 nodes: hours and many GB if it were built
        with pytest.raises(CostGuardExceeded, match="exceeds cap"):
            RatConfig(num_vars=2000, depth=6, seed=1)

    def test_uniform_weight_init(self):
        circuit, params = build_rat(RatConfig(num_vars=2, depth=1, num_sums=3, seed=2))
        for n in circuit.sum_nodes:
            w = params.sum_weights[n]
            np.testing.assert_allclose(w, 1.0 / len(w), atol=1e-15)

    def test_rep_one_tree_and_normalized(self):
        cfg = RatConfig(num_vars=4, depth=2, num_sums=2, num_input_distributions=2,
                        num_repetitions=1, leaf_family="bern", seed=5)
        circuit, params = build_rat(cfg)
        assert circuit.is_tree
        assert validate(circuit).ok
        assert abs(enumerate_total_probability(circuit, params) - 1.0) < 1e-9


class TestChowLiu:
    def test_correlated_pair_forced_into_tree(self):
        rng = np.random.default_rng(0)
        z = rng.integers(0, 2, size=5000).astype(float)
        data = np.column_stack([z, z, rng.integers(0, 2, 5000).astype(float)])
        assert (0, 1) in chow_liu_tree(data, 0.1)

    def test_independent_variables_still_spanning(self):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 2, size=(500, 6)).astype(float)
        edges = chow_liu_tree(data, 0.1)
        assert len(edges) == 5
        seen = set()
        for u, v in edges:
            seen.update((u, v))
        assert seen == set(range(6))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 2, size=(200, 5)).astype(float)
        assert chow_liu_tree(data, 0.1) == chow_liu_tree(data, 0.1)

    def test_mi_symmetric_nonnegative(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 2, size=(300, 4)).astype(float)
        mi = pairwise_mutual_information(data, 0.5)
        np.testing.assert_allclose(mi, mi.T, atol=1e-12)
        assert mi.min() >= -1e-12

    def test_recovers_generating_tree(self):
        # chain 0-1-2-3-4 with strong edge correlations
        rng = np.random.default_rng(11)
        n = 10_000
        x = np.empty((n, 5))
        x[:, 0] = rng.integers(0, 2, n)
        for v in range(1, 5):
            flip = rng.random(n) < 0.1
            x[:, v] = np.where(flip, 1 - x[:, v - 1], x[:, v - 1])
        assert chow_liu_tree(x, 0.1) == [(0, 1), (1, 2), (2, 3), (3, 4)]


class TestHclt:
    def test_pair_chain_matches_direct_mixture(self):
        circuit, params = build_hclt([(0, 1)], HcltConfig(num_latents=2, seed=4))
        assert validate(circuit).ok
        root = circuit.root
        grid = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        got = np.exp(forward(circuit, params, grid).root_log_p)
        want = []
        for x0, x1 in grid:
            total = 0.0
            for s, m0 in enumerate(circuit.nodes[root].children):
                leaf0, s01 = circuit.nodes[m0].children
                p0 = params.leaf_params[leaf0][0]
                f0 = p0 if x0 else 1 - p0
                inner = 0.0
                for t, m1 in enumerate(circuit.nodes[s01].children):
                    leaf1 = circuit.nodes[m1].children[0]
                    p1 = params.leaf_params[leaf1][0]
                    inner += params.sum_weights[s01][t] * (p1 if x1 else 1 - p1)
                total += params.sum_weights[root][s] * f0 * inner
            want.append(total)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_single_latent_fully_factorizes(self):
        circuit, params = build_hclt([(0, 1), (1, 2)], HcltConfig(num_latents=1, seed=2))
        assert validate(circuit).ok
        grid = np.array([[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)])
        got = np.exp(forward(circuit, params, grid).root_log_p)
        marg = [params.leaf_params[i][0] for i, nd in enumerate(circuit.nodes) if nd.kind == "leaf"]
        by_var = {}
        for i, nd in enumerate(circuit.nodes):
            if nd.kind == "leaf":
                by_var[nd.leaf.variable] = params.leaf_params[i][0]
        want = [
            np.prod([by_var[v] if row[v] else 1 - by_var[v] for v in range(3)]) for row in grid
        ]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_normalizes_on_wider_tree(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, size=(400, 8)).astype(float)
        tree = chow_liu_tree(data, 0.1)
        circuit, params = build_hclt(tree, HcltConfig(num_latents=4, seed=6), data=data)
        assert validate(circuit).ok
        assert abs(enumerate_total_probability(circuit, params) - 1.0) < 1e-9

    def test_deep_chain_builds_iteratively(self):
        import sys

        limit = sys.getrecursionlimit()
        circuit, params = build_hclt([(i, i + 1) for i in range(2999)], HcltConfig(num_latents=1))
        assert sys.getrecursionlimit() == limit
        assert len(circuit.root_scope) == 3000
        assert validate(circuit).ok
        batch = np.random.default_rng(0).integers(0, 2, size=(2, 3000)).astype(float)
        assert np.isfinite(forward(circuit, params, batch).root_log_p).all()

    def test_parameter_count_scales_with_latents_squared(self):
        tree = [(0, 1), (1, 2)]
        small, sp = build_hclt(tree, HcltConfig(num_latents=2, seed=0))
        big, bp = build_hclt(tree, HcltConfig(num_latents=4, seed=0))
        assert big.num_sum_edges - big.nodes[big.root].children.__len__() == 4 * (
            small.num_sum_edges - len(small.nodes[small.root].children)
        )


class TestLayeredDag:
    def test_valid_and_dag(self):
        circuit, params = build_layered_dag(8, 3, seed=1)
        assert validate(circuit).ok
        assert not circuit.is_tree
        assert abs(enumerate_total_probability(circuit, params) - 1.0) < 1e-9

    def test_width_targets_edge_count(self):
        for target in (1000, 30_000):
            width = layered_width_for_edges(target)
            circuit, _ = build_layered_dag(17, width, seed=0)
            assert 0.5 * target < circuit.num_sum_edges < 2.0 * target

    @pytest.mark.parametrize("num_vars,width", [(0, 3), (3, 0), (-1, 3)])
    def test_empty_dag_is_an_input_error(self, num_vars, width):
        with pytest.raises(ValueError, match="must be >= 1"):
            build_layered_dag(num_vars, width)


class TestHcltBenchmarkScale:
    def test_sixteen_vars_hundred_latents(self):
        # nltcs-shaped: 16 binary variables, latent size 100
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, size=(500, 16)).astype(float)
        tree = chow_liu_tree(data, 0.1)
        circuit, params = build_hclt(tree, HcltConfig(num_latents=100, seed=0), data=data)
        assert validate(circuit).ok
        assert circuit.num_sum_edges == 15 * 100 * 100 + 100
        row = rng.integers(0, 2, size=(1, 16)).astype(float)
        assert np.isfinite(forward(circuit, params, row).root_log_p[0])


class TestSeededConstruction:
    """Digests of the parameters these builders produced when weights were
    stored per node; the flat layout must reproduce them bit for bit.  The
    models are the benchmark's, at its model seed 7."""

    @staticmethod
    def digest(circuit, params) -> str:
        h = hashlib.sha256(params.edge_vector(circuit).tobytes())
        for p in params.leaf_params.values():
            h.update(np.asarray(p, dtype=float).tobytes())
        return h.hexdigest()

    def test_spiral_rat(self):
        circuit, params = build_rat(RatConfig(num_vars=2, depth=1, seed=7))
        assert self.digest(circuit, params) == "42ae07fc6539ab39628db930ba57242bf8f4a8f28a82bd6a095e20938a49200b"
        seeded = ParamSet.uniform(circuit, np.random.default_rng(7))
        assert self.digest(circuit, seeded) == "1b5e19aa6faf07f7fcacd82554cf037f8525cbd7ba6cc07d5046e752123b5407"

    def test_sixteen_variable_hclt(self):
        rng = np.random.default_rng(7)
        latent = rng.random((400, 1)) < 0.5
        data = np.where(rng.random((400, 16)) < 0.8, latent, ~latent).astype(float)
        circuit, params = build_hclt(chow_liu_tree(data, 0.1), HcltConfig(num_latents=16, seed=7), data=data)
        assert self.digest(circuit, params) == "73759112d1ce68efa5cb445a7ef03ab5b7ede1ffc9e981d785e804d96fd9d20d"

    def test_layered_dag(self):
        circuit, params = build_layered_dag(17, 79, seed=7)
        assert self.digest(circuit, params) == "33a3c00a4529b46e5243cd5ec7d9525189f365eb1c21991cae4c64098e06f89a"
