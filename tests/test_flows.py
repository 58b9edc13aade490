import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circuit_sharp import backward, forward, loglik_gradient
from circuit_sharp.curvature import trace_penalty_gradient
from circuit_sharp.errors import StaleTrace
from circuit_sharp.fd import analytic_gradient, fd_gradient
from circuit_sharp.flows import pull_up, push_down, stack_rows

from oracles import (
    SumEdge,
    edge_index,
    edge_ratios,
    push_down_table,
    sum_edge,
    parent_lists,
    tree_parent,
    unrolled_edge_flow,
    unrolled_node_flow,
)
from zoo import (
    INDICATOR_ROWS,
    batch_for,
    chain_hclt,
    dag_zoo,
    indicator_groups_dag,
    random_dag,
    random_tree,
    shared_child_dag,
    tree_zoo,
)


def run_flows(circuit, params, batch):
    trace = forward(circuit, params, batch)
    return trace, backward(circuit, params, trace)


class TestBackward:
    def test_symmetric_split_when_both_fire(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        _, flows = run_flows(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(flows.edge_flow[:, 0], [0.5, 0.5], atol=1e-15)

    def test_dead_branch_gets_zero_flow(self, indicator_mixture):
        circuit, params = indicator_mixture
        _, flows = run_flows(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(flows.edge_flow[:, 0], [1.0, 0.0], atol=1e-15)

    def test_root_flow_is_one(self):
        circuit, params = random_dag(3)
        _, flows = run_flows(circuit, params, batch_for(circuit, 6, 0))
        np.testing.assert_array_equal(flows.node_flow[circuit.root], 1.0)

    def test_empty_batch_gives_empty_tables(self):
        circuit, params = random_dag(3)
        batch = np.zeros((0, len(circuit.root_scope)))
        trace, flows = run_flows(circuit, params, batch)
        assert flows.node_flow.shape == (circuit.num_nodes, 0)
        assert flows.edge_flow.shape == flows.ratio.shape == (circuit.num_sum_edges, 0)
        penalty = trace_penalty_gradient(circuit, params, batch, trace=trace, flows=flows)
        np.testing.assert_array_equal(penalty, np.zeros(circuit.num_sum_edges))

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
            lhs = flows.edge_flow[circuit.sum_edge_owner == n][:, alive].sum(axis=0)
            np.testing.assert_allclose(lhs, flows.node_flow[n, alive], atol=1e-10)

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
        np.testing.assert_allclose(flows.edge_flow[:, 0], [0.0, 1.0], atol=1e-15)

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
        checked = 0
        for n in range(circuit.num_nodes):
            if n == circuit.root or circuit.kind(n) == "product":
                continue
            if circuit.kind(tree_parent(circuit, n)[0]) != "product":
                continue
            for s in range(batch.shape[0]):
                want = unrolled_node_flow(circuit, params, trace, s, n)
                np.testing.assert_allclose(flows.node_flow[n, s], want, atol=1e-10)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_edge_flow_matches_unrolled_form(self, seed):
        circuit, params = random_tree(seed, max_depth=3)
        batch = batch_for(circuit, 4, seed + 1)
        trace, flows = run_flows(circuit, params, batch)
        for e in range(circuit.num_sum_edges):
            for s in range(batch.shape[0]):
                want = unrolled_edge_flow(circuit, params, trace, s, sum_edge(circuit, e))
                np.testing.assert_allclose(flows.edge_flow[e, s], want, atol=1e-10)


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


def _unroll(circuit, params):
    """The equivalent tree: one private copy of a node per path to it.
    Returns the tree, its params and each tree node's original node."""
    from circuit_sharp import Circuit, Node, ParamSet, leaf_node

    nodes, origin = [], []
    leaf_params = params.leaf_params

    def copy(v):
        node = circuit.nodes[v]
        if node.kind == "leaf":
            new = leaf_node(node.leaf.variable, node.leaf.family, leaf_params[v])
        else:
            new = Node(node.kind, tuple(copy(c) for c in node.children))
        nodes.append(new)
        origin.append(v)
        return len(nodes) - 1

    root = copy(circuit.root)
    tree = Circuit.build(nodes, root)
    tree_params = ParamSet.uniform(tree)
    weights = params.sum_weights
    tree_params.set_edge_vector(tree, np.concatenate([weights[origin[n]] for n in tree.sum_nodes]))
    return tree, tree_params, np.array(origin)


class TestSharedChildAcrossLevels:
    batch = np.array([[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)])

    def test_circuit_has_the_shape_under_test(self):
        from circuit_sharp import validate

        circuit, params = shared_child_dag()
        assert validate(circuit).ok
        parent_levels = {}
        for level, (sums, prods) in enumerate(circuit.level_edges):
            for child in np.concatenate([b.child for b in sums + prods]).tolist():
                parent_levels.setdefault(child, []).append(level)
        levels = parent_levels[9]
        assert len(set(levels)) == 2 and len(levels) == 3  # two parents share a level
        lp = forward(circuit, params, self.batch).log_p
        dead = self.batch[:, 0] == 0
        assert np.all(np.isneginf(lp[dead, 8])) and np.all(np.isfinite(lp[~dead, 8]))
        assert np.all(np.isfinite(lp[:, circuit.root]))

    def test_forward_matches_direct_evaluation(self):
        circuit, params = shared_child_dag()
        weights, leaves = params.sum_weights, params.leaf_params

        def prob(v, x):
            node = circuit.nodes[v]
            if node.kind == "leaf":
                p = leaves[v][0]
                return p if x[node.leaf.variable] else 1.0 - p
            vals = [prob(c, x) for c in node.children]
            return float(np.prod(vals)) if node.kind == "product" else float(weights[v] @ vals)

        lp = forward(circuit, params, self.batch).log_p
        with np.errstate(divide="ignore"):
            want = np.log([[prob(v, x) for v in range(circuit.num_nodes)] for x in self.batch])
        np.testing.assert_allclose(lp, want, rtol=1e-13, atol=0)

    def test_flows_match_unrolled_tree(self):
        circuit, params = shared_child_dag()
        tree, tree_params, origin = _unroll(circuit, params)
        _, flows = run_flows(circuit, params, self.batch)
        tree_trace = forward(tree, tree_params, self.batch)
        parents = parent_lists(circuit)
        product_parented = [
            v for v in range(circuit.num_nodes)
            if parents[v] and all(circuit.kind(p) == "product" for p, _ in parents[v])
        ]
        assert 9 in product_parented and 8 in product_parented
        for s in range(len(self.batch)):
            for v in product_parented:
                copies = np.flatnonzero(origin == v)
                want = sum(unrolled_node_flow(tree, tree_params, tree_trace, s, t) for t in copies)
                np.testing.assert_allclose(flows.node_flow[v, s], want, rtol=1e-12, atol=1e-15)
            want = np.zeros(circuit.num_sum_edges)
            for te in range(tree.num_sum_edges):
                edge = sum_edge(tree, te)
                dag_edge = edge_index(circuit, SumEdge(int(origin[edge.node]), edge.slot))
                want[dag_edge] += unrolled_edge_flow(tree, tree_params, tree_trace, s, edge)
            np.testing.assert_allclose(flows.edge_flow[:, s], want, rtol=1e-12, atol=1e-15)

    def test_penalty_gradient_matches_fd_of_trace(self):
        from circuit_sharp.curvature import hessian_trace, trace_penalty_gradient
        from circuit_sharp.fd import central_diff

        circuit, params = shared_child_dag()
        analytic = trace_penalty_gradient(circuit, params, self.batch)
        work = params.copy()

        def penalty(vec):
            work.set_edge_vector(circuit, vec)
            return hessian_trace(circuit, work, self.batch)

        fd = central_diff(penalty, params.edge_vector(circuit), 1e-5)
        assert np.abs(analytic - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-6

    def test_hessian_vector_product_matches_fd(self):
        from circuit_sharp.curvature import hessian_operator
        from circuit_sharp.fd import fd_hessian

        circuit, params = shared_child_dag()
        op = hessian_operator(circuit, params, self.batch)
        fd = fd_hessian(circuit, params, self.batch)
        for v in np.random.default_rng(12).standard_normal((3, circuit.num_sum_edges)):
            hv = op @ v
            assert np.all(np.isfinite(hv))
            assert np.abs(hv - fd @ v).max() <= 1e-4 * max(1.0, np.abs(fd @ v).max())


class TestSharedChildGroups:
    def test_flows_match_unrolled_tree(self):
        """Node and edge flows of groups with -inf children and a group that
        is -inf as a whole, against the unrolled tree."""
        circuit, params = indicator_groups_dag()
        tree, tree_params, origin = _unroll(circuit, params)
        _, flows = run_flows(circuit, params, INDICATOR_ROWS)
        tree_trace = forward(tree, tree_params, INDICATOR_ROWS)
        assert circuit.single_edges.size == 4  # the root's; every other sum node is in a group
        for s in range(len(INDICATOR_ROWS)):
            for v in range(6, 12):  # the grouped sum nodes, each with one product parent
                want = sum(unrolled_node_flow(tree, tree_params, tree_trace, s, t) for t in np.flatnonzero(origin == v))
                np.testing.assert_allclose(flows.node_flow[v, s], want, rtol=1e-12, atol=1e-15)
            want = np.zeros(circuit.num_sum_edges)
            for te in range(tree.num_sum_edges):
                edge = sum_edge(tree, te)
                dag_edge = edge_index(circuit, SumEdge(int(origin[edge.node]), edge.slot))
                want[dag_edge] += unrolled_edge_flow(tree, tree_params, tree_trace, s, edge)
            np.testing.assert_allclose(flows.edge_flow[:, s], want, rtol=1e-12, atol=1e-15)
        assert np.all(flows.node_flow[6:8, INDICATOR_ROWS[:, 0] == 0] == 0.0)  # the dead group

    def test_batch_sums_match_the_oracle_tables(self):
        """The group-factor batch sums of edge flows and of their squares
        against the per-edge oracle table F_n * theta * ratio, on trees, DAGs,
        indicator groups and the 3000-variable chain HCLT, whose depth would
        underflow unshifted factors."""
        cases = [(c, p, batch_for(c, 5, 1)) for c, p in tree_zoo(3) + dag_zoo(6)]
        chain, chain_params = chain_hclt()
        cases += [(*indicator_groups_dag(), INDICATOR_ROWS), (chain, chain_params, batch_for(chain, 3, 1))]
        for circuit, params, batch in cases:
            trace, flows = run_flows(circuit, params, batch)
            ratio = edge_ratios(circuit, params.theta, trace.log_p.T)
            table = flows.node_flow[circuit.sum_edge_owner] * params.theta[:, None] * ratio
            assert np.all(np.isfinite(flows.node_flow)) and np.all(np.isfinite(flows.edge_flow_sum))
            np.testing.assert_allclose(flows.edge_flow_sum, table.sum(axis=1), rtol=1e-12, atol=1e-15)
            want = np.einsum("es,es->e", table, table)
            np.testing.assert_allclose(flows.edge_flow_sq_sum, want, rtol=1e-12, atol=1e-15)

    def test_deep_chain_keeps_every_group_flow(self):
        """In the chain HCLT every group is the mixture of one tree edge, so
        its members' flows add to 1 on every row, 6000 levels down, which
        the shift of a_n by the group max keeps from underflowing."""
        circuit, params = chain_hclt()
        _, flows = run_flows(circuit, params, batch_for(circuit, 3, 1))
        groups = [b.members for sums, _ in circuit.level_edges for b in sums if b.g > 1]
        assert sum(len(g) for g in groups) == 2999
        for members in np.concatenate(groups):
            np.testing.assert_allclose(flows.node_flow[members].sum(axis=0), 1.0, rtol=1e-10)


def _ratio_zoo():
    """Trees, DAGs, and the shared-child DAG whose node D0 is -inf."""
    cases = [(c, p, batch_for(c, 5, 1)) for c, p in tree_zoo(5, max_edges=300) + dag_zoo(5, max_edges=300)]
    return cases + [(*shared_child_dag(), TestSharedChildAcrossLevels.batch)]


class TestEdgeRatios:
    def test_clipped_ratio_of_child_and_parent(self):
        dead_parents = 0
        for circuit, params, batch in _ratio_zoo():
            trace, flows = run_flows(circuit, params, batch)
            lp = trace.log_p.T
            ratio = flows.ratio
            assert ratio.shape == (circuit.num_sum_edges, len(batch))
            lp_n, lp_c = lp[circuit.sum_edge_owner], lp[circuit.sum_edge_child]
            alive = np.isfinite(lp_n)
            assert np.all(ratio <= 1.0 / params.theta[:, None])
            assert np.all(ratio[~alive] == 0.0)
            want = np.exp(lp_c - np.where(alive, lp_n, 0.0))
            np.testing.assert_allclose(ratio[alive], want[alive], rtol=1e-12, atol=0)
            dead_parents += int((~alive).sum())
        assert dead_parents > 0  # the -inf node is covered

    def test_flow_tables_match_the_per_edge_oracle(self):
        """Singleton stacks write their rows in the sweep, groups fill theirs
        on first read; either way the ratio is the clipped exp(lp_c - lp_n)
        and the edge flow F_n * theta * ratio, read from one table."""
        grouped = 0
        for circuit, params, batch in _ratio_zoo() + [(*indicator_groups_dag(), INDICATOR_ROWS)]:
            trace, flows = run_flows(circuit, params, batch)
            assert not (flows.ratio.flags.writeable or flows.edge_flow.flags.writeable)  # shared, built once
            want = edge_ratios(circuit, params.theta, trace.log_p.T)
            np.testing.assert_allclose(flows.ratio, want, rtol=1e-15, atol=0)
            want = flows.node_flow[circuit.sum_edge_owner] * params.theta[:, None] * want
            np.testing.assert_allclose(flows.edge_flow, want, rtol=1e-15, atol=0)
            grouped += circuit.single_edges.size < circuit.num_sum_edges
        assert grouped >= 5


class TestPullUp:
    def test_is_directional_derivative_of_log_p(self):
        """With edge_src = v / theta, acc[root] = d log p_root along theta + eps v."""
        rng = np.random.default_rng(17)
        eps = 1e-6
        for circuit, params, batch in _ratio_zoo():
            theta = params.theta
            lp = forward(circuit, params, batch).log_p.T
            v = rng.standard_normal(theta.size)
            acc = np.zeros(lp.shape)
            rows = stack_rows(circuit, theta, edge_ratios(circuit, theta, lp))
            pull_up(circuit, rows, acc[:, None], (v / theta)[:, None, None])
            probe = params.copy()
            root_lp = []
            for sign in (1.0, -1.0):
                probe.theta = theta + sign * eps * v
                root_lp.append(forward(circuit, probe, batch).root_log_p)
            fd = (root_lp[0] - root_lp[1]) / (2 * eps)
            assert np.all(np.isfinite(acc[circuit.root]))
            np.testing.assert_allclose(acc[circuit.root], fd, rtol=1e-6, atol=1e-7)


def _push_down_seeds(circuit, theta, flows, rng):
    """(adj, source) pairs as push_down's callers seed it: the flows
    themselves (root 1, no source), a Hessian-vector product's flow tangents
    and the trace penalty's log-probability adjoints, each built from the
    flow table as hessian_operator and trace_penalty_gradient build them."""
    ratio, fe, shape = flows.ratio, flows.edge_flow, flows.node_flow.shape
    rows = stack_rows(circuit, theta, ratio)
    child, owner = circuit.sum_edge_child, circuit.sum_edge_owner
    root = np.zeros(shape)
    root[circuit.root] = 1.0
    u = rng.standard_normal(theta.size) / theta
    t = np.zeros(shape)
    pull_up(circuit, rows, t[:, None], u[:, None, None])
    fe_bar = (2.0 * rng.uniform(0.5, 2.0, theta.size) / (theta * theta))[:, None] * fe
    f_bar = np.zeros(shape)
    pull_up(circuit, rows, f_bar[:, None], fe_bar[:, None])
    rbar = (f_bar[child] + fe_bar) * flows.node_flow[owner] * theta[:, None] * ratio
    lp_bar = np.zeros(shape)
    lp_bar[circuit.sum_nodes] = -(circuit.sum_node_edges @ rbar)
    return [(root, None), (np.zeros(shape), fe * (u[:, None] + t[child] - t[owner])), (lp_bar, rbar)]


class TestPushDown:
    def test_edge_sums_are_the_row_sums_of_the_oracle_table(self):
        """push_down's per-edge batch sums equal the row sums of the edge
        table that the per-edge reference writes, and both leave the same
        node adjoints, bit for bit, for every way push_down is seeded."""
        rng = np.random.default_rng(23)
        chain, chain_params = chain_hclt()
        cases = [(c, p, batch_for(c, 5, 2)) for c, p in tree_zoo(5, max_edges=300) + dag_zoo(5, max_edges=300)]
        cases += [(*indicator_groups_dag(), INDICATOR_ROWS), (chain, chain_params, batch_for(chain, 3, 2))]
        for circuit, params, batch in cases:
            theta = params.theta
            _, flows = run_flows(circuit, params, batch)
            for adj, source in _push_down_seeds(circuit, theta, flows, rng):
                want_adj, table = adj.copy(), np.full(flows.edge_flow.shape, np.nan)
                push_down_table(circuit, theta, flows.ratio, want_adj, table, source)
                rows = stack_rows(circuit, theta, flows.ratio)
                sums = push_down(circuit, rows, adj[:, None], None if source is None else source[:, None])[:, 0]
                assert np.all(np.isfinite(table))  # every sum edge written
                np.testing.assert_array_equal(sums, table.sum(axis=1))
                np.testing.assert_array_equal(adj, want_adj)


class TestStaleTrace:
    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_trace_of_other_weights_or_flows_of_other_batch(self, seed):
        maker = random_tree if seed % 2 else random_dag
        circuit, params = maker(seed)
        batch, other_batch = batch_for(circuit, 4, seed), batch_for(circuit, 4, seed + 1)
        other = params.copy()
        other.theta = circuit.sum_segments.normalize(other.theta * (1.0 + np.arange(other.theta.size) % 3))
        with pytest.raises(StaleTrace):  # trace evaluated under other weights
            backward(circuit, params, forward(circuit, other, batch))
        trace = forward(circuit, params, batch)
        theta0 = params.theta.copy()
        params.theta[0] += 0.25  # edited in place after the forward pass
        with pytest.raises(StaleTrace):
            backward(circuit, params, trace)
        params.theta[:] = theta0
        flows = backward(circuit, params.copy(), trace)  # equal weights are accepted
        other_trace = forward(circuit, params, other_batch)
        other_flows = backward(circuit, params, other_trace)
        with pytest.raises(StaleTrace):  # flows of another batch
            trace_penalty_gradient(circuit, params, batch, trace=trace, flows=other_flows)
        with pytest.raises(StaleTrace):  # trace and flows under other weights
            trace_penalty_gradient(circuit, other, batch, trace=trace, flows=flows)
        np.testing.assert_array_equal(
            trace_penalty_gradient(circuit, params, other_batch, flows=other_flows),
            trace_penalty_gradient(circuit, params, other_batch),
        )

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_penalty_rejects_trace_of_other_rows(self, seed):
        maker = random_tree if seed % 2 else random_dag
        circuit, params = maker(seed)
        batch, other_batch = batch_for(circuit, 4, seed), batch_for(circuit, 4, seed + 1)
        assume(not np.array_equal(batch, other_batch))
        trace = forward(circuit, params, other_batch)
        flows = backward(circuit, params, trace)
        for given_passes in ({"trace": trace}, {"flows": flows}, {"trace": trace, "flows": flows}):
            with pytest.raises(StaleTrace):
                trace_penalty_gradient(circuit, params, batch, **given_passes)
        np.testing.assert_array_equal(  # the same rows as a list are the same batch
            trace_penalty_gradient(circuit, params, other_batch.tolist(), trace=trace, flows=flows),
            trace_penalty_gradient(circuit, params, other_batch),
        )
