import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_sharp import backward, forward, loglik_gradient
from circuit_sharp.errors import StaleTrace
from circuit_sharp.fd import analytic_gradient, fd_gradient

from oracles import unrolled_edge_flow, unrolled_node_flow
from zoo import batch_for, random_dag, random_tree


def run_flows(circuit, params, batch):
    trace = forward(circuit, params, batch)
    return trace, backward(circuit, params, trace)


class TestBackward:
    def test_symmetric_split_when_both_fire(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        _, flows = run_flows(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(flows.edge_flow[0], [0.5, 0.5], atol=1e-15)

    def test_dead_branch_gets_zero_flow(self, indicator_mixture):
        circuit, params = indicator_mixture
        _, flows = run_flows(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(flows.edge_flow[0], [1.0, 0.0], atol=1e-15)

    def test_root_flow_is_one(self):
        circuit, params = random_dag(3)
        _, flows = run_flows(circuit, params, batch_for(circuit, 6, 0))
        np.testing.assert_array_equal(flows.node_flow[:, circuit.root], 1.0)

    def test_stale_trace_rejected(self, indicator_mixture, product_of_sums):
        c1, p1 = indicator_mixture
        c2, p2 = product_of_sums
        trace = forward(c1, p1, np.array([[1.0]]))
        with pytest.raises(StaleTrace):
            backward(c2, p2, trace)

    @pytest.mark.parametrize("maker,seed", [(random_tree, 2), (random_dag, 6), (random_dag, 9)])
    def test_sum_node_flow_conservation(self, maker, seed):
        circuit, params = maker(seed)
        trace, flows = run_flows(circuit, params, batch_for(circuit, 10, seed))
        for n in circuit.sum_nodes:
            alive = np.isfinite(trace.log_p[:, n])
            lhs = flows.edge_flow[alive][:, circuit.sum_edge_owner == n].sum(axis=1)
            np.testing.assert_allclose(lhs, flows.node_flow[alive, n], atol=1e-10)

    def test_conservation_with_zeroed_subtrees(self):
        from circuit_sharp import Circuit, ParamSet, leaf_node, product_node, sum_node

        nodes = [
            leaf_node(0, "bern", [1.0]),
            leaf_node(1, "bern", [0.5]),
            product_node(0, 1),
            leaf_node(0, "bern", [0.5]),
            leaf_node(1, "bern", [0.5]),
            product_node(3, 4),
            sum_node(2, 5),
        ]
        circuit = Circuit.build(nodes, 6)
        params = ParamSet.uniform(circuit)
        _, flows = run_flows(circuit, params, np.array([[0.0, 1.0]]))  # kills branch 0
        np.testing.assert_allclose(flows.edge_flow[0], [0.0, 1.0], atol=1e-15)

    def test_tree_flows_bounded_by_one(self):
        for seed in (12, 13, 14):
            circuit, params = random_tree(seed)
            _, flows = run_flows(circuit, params, batch_for(circuit, 8, seed))
            assert flows.node_flow.min() >= 0.0
            assert flows.node_flow.max() <= 1.0 + 1e-12
            assert flows.edge_flow.min() >= 0.0


class TestUnrollingOracle:
    @pytest.mark.parametrize("seed", [60, 61, 62, 63])
    def test_node_flow_matches_closed_form(self, seed):
        circuit, params = random_tree(seed, max_depth=3)
        batch = batch_for(circuit, 5, seed)
        trace, flows = run_flows(circuit, params, batch)
        tree = circuit.tree_index()
        checked = 0
        for n in range(circuit.num_nodes):
            if n == circuit.root or circuit.kind(n) == "product":
                continue
            if circuit.kind(int(tree.parent[n])) != "product":
                continue
            for s in range(batch.shape[0]):
                want = unrolled_node_flow(circuit, params, trace, s, n)
                np.testing.assert_allclose(flows.node_flow[s, n], want, atol=1e-10)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_edge_flow_matches_unrolled_form(self, seed):
        circuit, params = random_tree(seed, max_depth=3)
        batch = batch_for(circuit, 4, seed + 1)
        trace, flows = run_flows(circuit, params, batch)
        for e in range(circuit.num_sum_edges):
            for s in range(batch.shape[0]):
                want = unrolled_edge_flow(circuit, params, trace, s, circuit.edge(e))
                np.testing.assert_allclose(flows.edge_flow[s, e], want, atol=1e-10)


class TestGradient:
    def test_dead_branch_gradient(self, indicator_mixture):
        circuit, params = indicator_mixture
        _, flows = run_flows(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(loglik_gradient(flows, params), [2.0, 0.0], atol=1e-12)

    def test_both_fire_gradient(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        _, flows = run_flows(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(loglik_gradient(flows, params), [1.0, 1.0], atol=1e-12)

    def test_gradient_nonnegative(self):
        circuit, params = random_dag(31)
        _, flows = run_flows(circuit, params, batch_for(circuit, 12, 2))
        assert loglik_gradient(flows, params).min() >= 0.0

    @given(st.integers(0, 400))
    @settings(max_examples=12, deadline=None)
    def test_matches_central_differences(self, seed):
        maker = random_tree if seed % 2 else random_dag
        circuit, params = maker(seed)
        if circuit.num_sum_edges > 200:
            return
        batch = batch_for(circuit, 6, seed)
        an = analytic_gradient(circuit, params, batch)
        fd = fd_gradient(circuit, params, batch, h=1e-5)
        assert np.abs(an - fd).max() <= 1e-6

    def test_batch_order_tolerant_accumulation(self):
        circuit, params = random_dag(37)
        batch = batch_for(circuit, 10, 4)
        g_full = analytic_gradient(circuit, params, batch)
        g_parts = analytic_gradient(circuit, params, batch[:5]) + analytic_gradient(
            circuit, params, batch[5:]
        )
        np.testing.assert_allclose(g_full, g_parts, atol=1e-10)
