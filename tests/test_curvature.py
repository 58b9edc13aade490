import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_sharp.curvature import (
    edge_gradients,
    full_hessian_tree,
    hessian_diag,
    hessian_operator,
    hessian_trace,
    top_eigenvalues,
    trace_penalty_gradient,
)
from circuit_sharp.errors import CostGuardExceeded, NotATree, NotConverged, StaleTrace, ZeroLikelihood
from circuit_sharp.evaluate import forward, probe_width
from circuit_sharp.flows import backward, loglik_gradient
from circuit_sharp.fd import analytic_gradient, central_diff, fd_hessian

from oracles import jacobi_eigenvalues, literal_hessian, per_sample_tree_hessian
from zoo import (
    INDICATOR_ROWS,
    batch_for,
    chain_hclt,
    dag_zoo,
    indicator_groups_dag,
    random_dag,
    random_tree,
    tree_zoo,
)


class TestTrace:
    def test_single_firing_indicator(self, indicator_mixture):
        circuit, params = indicator_mixture
        assert hessian_trace(circuit, params, np.array([[1.0]])) == 4.0

    def test_both_indicators_fire(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        assert hessian_trace(circuit, params, np.array([[1.0]])) == 2.0

    def test_trace_is_negated_diag_sum(self):
        circuit, params = random_dag(70)
        batch = batch_for(circuit, 6, 7)
        tr = hessian_trace(circuit, params, batch)
        dg = hessian_diag(circuit, params, batch)
        assert tr == -dg.sum()

    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_trace_matches_fd_hessian_diagonal(self, seed):
        maker = random_dag if seed % 2 else random_tree
        circuit, params = maker(seed)
        if circuit.num_sum_edges > 200:
            return
        batch = batch_for(circuit, 4, seed)
        tr = hessian_trace(circuit, params, batch)
        fd_diag_sum = abs(np.diag(fd_hessian(circuit, params, batch)).sum())
        assert abs(tr - fd_diag_sum) <= 1e-4 * max(1.0, fd_diag_sum)


class TestDiag:
    def test_dead_edge_has_zero_entry(self, indicator_mixture):
        circuit, params = indicator_mixture
        diag = hessian_diag(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(diag, [-4.0, 0.0], atol=1e-15)

    def test_entries_nonpositive(self):
        circuit, params = random_dag(77)
        diag = hessian_diag(circuit, params, batch_for(circuit, 8, 8))
        assert diag.max() <= 0.0

    def test_matches_fd_second_derivatives(self):
        circuit, params = random_tree(81)
        batch = batch_for(circuit, 4, 9)
        diag = hessian_diag(circuit, params, batch)
        fd = np.diag(fd_hessian(circuit, params, batch))
        scale = np.maximum(1.0, np.abs(fd))
        assert (np.abs(diag - fd) / scale).max() <= 1e-4


class TestFullTreeHessian:
    def test_two_component_mixture_off_diagonal(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        h = full_hessian_tree(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(h, [[-1.0, -1.0], [-1.0, -1.0]], atol=1e-12)

    def test_root_product_cross_curvature_is_zero(self, product_of_sums):
        circuit, params = product_of_sums
        h = full_hessian_tree(circuit, params, np.array([[1.0, 1.0]]))
        for i in range(2):
            for j in range(2, 4):
                assert abs(h[i, j]) < 1e-12

    def test_requires_tree(self):
        circuit, params = random_dag(13)
        with pytest.raises(NotATree):
            full_hessian_tree(circuit, params, batch_for(circuit, 1, 0))

    def test_edge_cap(self):
        circuit, params = random_tree(5)
        with pytest.raises(CostGuardExceeded):
            full_hessian_tree(circuit, params, batch_for(circuit, 1, 0), cap=2)

    @pytest.mark.parametrize("seed", [40, 44, 47, 49])
    def test_matches_fd_and_literal_forms(self, seed):
        circuit, params = random_tree(seed, max_depth=3)
        batch = batch_for(circuit, 4, seed + 1)
        h = full_hessian_tree(circuit, params, batch)
        np.testing.assert_array_equal(h, h.T)
        lit = literal_hessian(circuit, params, batch)
        np.testing.assert_allclose(h, lit, atol=1e-10)
        fd = fd_hessian(circuit, params, batch)
        assert np.abs(h - fd).max() <= 1e-4

    def test_diagonal_equals_hessian_diag(self):
        circuit, params = random_tree(52)
        batch = batch_for(circuit, 5, 2)
        h = full_hessian_tree(circuit, params, batch)
        np.testing.assert_allclose(np.diag(h), hessian_diag(circuit, params, batch), atol=1e-12)

    def test_trace_consistency_with_abs_trace(self):
        circuit, params = random_tree(53)
        batch = batch_for(circuit, 5, 3)
        h = full_hessian_tree(circuit, params, batch)
        tr = hessian_trace(circuit, params, batch)
        assert abs(np.trace(h) + tr) <= 1e-10 * max(1.0, tr)

    def test_zero_flow_edges_zero_rows(self, indicator_mixture):
        circuit, params = indicator_mixture
        h = full_hessian_tree(circuit, params, np.array([[1.0]]))
        # edge 1 (dead indicator) has zero flow: its row/column vanish
        np.testing.assert_allclose(h[1], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(h[:, 1], [0.0, 0.0], atol=1e-15)

    def test_batched_matches_per_sample_sum(self):
        for circuit, params in tree_zoo(12, max_edges=400):
            batch = batch_for(circuit, 7, circuit.num_sum_edges)
            h = full_hessian_tree(circuit, params, batch)
            np.testing.assert_array_equal(h, h.T)
            ref = per_sample_tree_hessian(circuit, params, batch)
            assert np.abs(h - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_dead_product_subtree_adds_no_correction(self):
        # Bernoulli leaves with mean 0 are dead wherever they read 1, and so
        # are the products above them (F_q = 0), while the root stays alive
        circuit, params = random_tree(41, max_depth=3)
        batch = batch_for(circuit, 5, 3)
        params.bern[:] = np.where(np.arange(params.bern.size) % 2, 0.0, params.bern)
        tree = circuit.tree_index()
        trace = forward(circuit, params, batch)
        fq = backward(circuit, params, trace).node_flow[tree.prod_nodes]
        assert np.any(fq == 0.0) and np.all(np.isfinite(trace.root_log_p))
        h = full_hessian_tree(circuit, params, batch)
        ref = per_sample_tree_hessian(circuit, params, batch)
        assert np.all(np.isfinite(h))
        assert np.abs(h - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


class TestHessianOperator:
    def test_matches_dense_tree_hessian(self):
        rng = np.random.default_rng(0)
        for circuit, params in tree_zoo(10, max_edges=400):
            batch = batch_for(circuit, 5, 1)
            dense = full_hessian_tree(circuit, params, batch)
            op = hessian_operator(circuit, params, batch)
            for v in rng.standard_normal((3, circuit.num_sum_edges)):
                want = dense @ v
                assert np.abs(op @ v - want).max() <= 1e-10 * np.abs(want).max()

    def test_matches_fd_hessian_on_dags(self):
        rng = np.random.default_rng(1)
        for circuit, params in dag_zoo(6, max_edges=200):
            batch = batch_for(circuit, 4, 2)
            fd = fd_hessian(circuit, params, batch)
            v = rng.standard_normal(circuit.num_sum_edges)
            want = fd @ v
            assert np.abs(hessian_operator(circuit, params, batch) @ v - want).max() <= 1e-4 * max(
                1.0, np.abs(want).max()
            )

    @pytest.mark.parametrize("maker,seed", [(random_tree, 60), (random_dag, 61), (random_dag, 62)])
    def test_symmetric(self, maker, seed):
        circuit, params = maker(seed)
        op = hessian_operator(circuit, params, batch_for(circuit, 6, seed))
        u, v = np.random.default_rng(seed).standard_normal((2, circuit.num_sum_edges))
        uhv, vhu = u @ (op @ v), v @ (op @ u)
        assert abs(uhv - vhu) <= 1e-12 * max(abs(uhv), abs(vhu))

    def test_block_products_equal_the_columns(self):
        """H V carries a block of vectors through each sweep side by side;
        every column equals its own H v bit for bit, for one column, three,
        and more than one block holds."""
        rng = np.random.default_rng(3)
        chain, chain_params = chain_hclt()
        cases = [(c, p, batch_for(c, 5, 2)) for c, p in tree_zoo(4, max_edges=300) + dag_zoo(4, max_edges=300)]
        cases += [(*indicator_groups_dag(), INDICATOR_ROWS), (chain, chain_params, batch_for(chain, 3, 2))]
        for circuit, params, batch in cases:
            op = hessian_operator(circuit, params, batch)
            for m in (1, 3, probe_width(circuit, len(batch)) + 1):
                v = rng.standard_normal((circuit.num_sum_edges, m))
                want = np.stack([op.matvec(col) for col in v.T], axis=1)
                np.testing.assert_array_equal(op.matmat(v), want)

    def test_edge_ratio_table_built_once(self, monkeypatch):
        """Each stack's per-edge rows are built once per flow table: a
        singleton's in backward, a group's on the first read of the tables.
        The penalty given trace= and flows= builds none after that, an
        operator only those of its own backward pass, and none per H v."""
        import circuit_sharp.curvature as curvature
        import circuit_sharp.flows as flows_module

        calls = {"_edge_rows": 0, "backward": 0}
        for module, name in ((flows_module, "_edge_rows"), (curvature, "backward")):
            def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        circuit, params = random_dag(64)
        stacks = [b for sums, _ in circuit.level_edges for b in sums]
        singles = sum(b.g == 1 for b in stacks)
        assert 0 < singles < len(stacks)
        batch = batch_for(circuit, 4, 1)
        trace = forward(circuit, params, batch)
        flows = backward(circuit, params, trace)
        assert calls == {"_edge_rows": singles, "backward": 0}
        for _ in range(2):
            trace_penalty_gradient(circuit, params, batch, trace=trace, flows=flows)
        assert calls == {"_edge_rows": len(stacks), "backward": 0}
        op = hessian_operator(circuit, params, batch)
        assert calls == {"_edge_rows": 2 * len(stacks), "backward": 1}
        for v in np.eye(circuit.num_sum_edges)[:3]:
            op @ v
        op @ np.eye(circuit.num_sum_edges)  # the matrix H I, as nll_hessian_eigenvalues forms it
        top_eigenvalues(op, 2)
        assert calls == {"_edge_rows": 2 * len(stacks), "backward": 1}

    @pytest.mark.parametrize("bad", ["short", "long", "row", "nan", "inf", "nan_block", "tall_block"])
    def test_rejects_malformed_vectors(self, bad):
        circuit, params = random_dag(63)
        op = hessian_operator(circuit, params, batch_for(circuit, 3, 0))
        e = circuit.num_sum_edges
        v = {
            "short": np.ones(e - 1),
            "long": np.ones(e + 1),
            "row": np.ones((1, e)),
            "nan": np.where(np.arange(e) == 2, np.nan, 1.0),
            "inf": np.where(np.arange(e) == 0, -np.inf, 1.0),
            "nan_block": np.where(np.arange(3 * e).reshape(e, 3) == 4, np.nan, 1.0),
            "tall_block": np.ones((e + 1, 3)),
        }[bad]
        with pytest.raises(ValueError):
            op @ v


class TestTopEigenvalues:
    def test_two_by_two_invariants(self):
        h = np.array([[-4.0, -1.0], [-1.0, -1.0]])
        vals = top_eigenvalues(h, 2)
        assert abs(vals.sum() + 5.0) < 1e-12
        assert abs(np.prod(vals) - 3.0) < 1e-12
        assert abs(vals[0]) >= abs(vals[1])

    def test_scaled_identity(self):
        vals = top_eigenvalues(2.5 * np.eye(6), 3)
        np.testing.assert_allclose(vals, 2.5, atol=1e-12)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((30, 30))
        h = 0.5 * (m + m.T)
        got = np.sort(top_eigenvalues(h, 7))
        ref = jacobi_eigenvalues(h)
        ref = ref[np.argsort(-np.abs(ref))][:7]
        np.testing.assert_allclose(got, np.sort(ref), atol=1e-8)

    def test_repeated_calls_are_bit_identical(self):
        m = np.random.default_rng(8).standard_normal((300, 300))
        h = 0.5 * (m + m.T)
        np.testing.assert_array_equal(top_eigenvalues(h, 15), top_eigenvalues(h, 15))

    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_operator_matches_array(self, k):
        circuit, params = random_tree(64)
        batch = batch_for(circuit, 4, 4)
        dense = full_hessian_tree(circuit, params, batch)
        want = top_eigenvalues(dense, k)
        got = top_eigenvalues(hessian_operator(circuit, params, batch), k)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())

    def test_small_operator_takes_dense_route(self, product_of_sums):
        circuit, params = product_of_sums
        batch = np.array([[1.0, 0.0], [0.0, 1.0]])
        want = top_eigenvalues(full_hessian_tree(circuit, params, batch), 4)
        got = top_eigenvalues(hessian_operator(circuit, params, batch), 4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 40])
    def test_asymmetric_operator_fails_the_residual_check(self, n):
        """Lanczos (n = 40) and the dense solve (n = 4, k = 3) assume
        symmetry; an operator that breaks it gets pairs whose residuals,
        checked together, exceed the tolerance."""
        from scipy.sparse.linalg import aslinearoperator

        m = np.random.default_rng(9).standard_normal((n, n))
        h = 0.5 * (m + m.T) + np.triu(np.full((n, n), 0.01), 1)
        with pytest.raises(NotConverged, match="residual"):
            top_eigenvalues(aslinearoperator(h), 3)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            top_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


class TestPenaltyGradient:
    @pytest.mark.parametrize("maker,seed", [(random_tree, 90), (random_dag, 91)])
    def test_matches_fd_of_trace(self, maker, seed):
        circuit, params = maker(seed)
        batch = batch_for(circuit, 4, seed)
        analytic = trace_penalty_gradient(circuit, params, batch)
        theta0 = params.edge_vector(circuit)
        work = params.copy()

        def penalty(vec):
            work.set_edge_vector(circuit, vec)
            return hessian_trace(circuit, work, batch)

        fd = central_diff(penalty, theta0, 1e-5)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(analytic - fd).max() / scale <= 1e-6

    def test_edge_weight_vector(self):
        circuit, params = random_tree(93)
        batch = batch_for(circuit, 3, 5)
        w = np.linspace(0.5, 2.0, circuit.num_sum_edges)
        analytic = trace_penalty_gradient(circuit, params, batch, edge_weights=w)
        theta0 = params.edge_vector(circuit)
        work = params.copy()

        def penalty(vec):
            work.set_edge_vector(circuit, vec)
            from circuit_sharp.curvature import edge_gradients

            g, _ = edge_gradients(circuit, work, batch)
            return float((w * (g * g).sum(axis=1)).sum())

        fd = central_diff(penalty, theta0, 1e-5)
        assert np.abs(analytic - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-6

    def test_rejects_trace_or_flows_of_another_circuit(self):
        circuit, params = random_tree(94)
        other, other_params = random_tree(94)  # same structure, distinct object
        batch = batch_for(circuit, 3, 6)
        trace = forward(circuit, params, batch)
        flows = backward(circuit, params, trace)
        other_trace = forward(other, other_params, batch)
        other_flows = backward(other, other_params, other_trace)
        with pytest.raises(StaleTrace):
            trace_penalty_gradient(circuit, params, batch, trace=other_trace)
        with pytest.raises(StaleTrace):
            trace_penalty_gradient(circuit, params, batch, trace=trace, flows=other_flows)
        with pytest.raises(StaleTrace):
            trace_penalty_gradient(other, other_params, batch, trace=other_trace, flows=flows)

    @pytest.mark.parametrize("bad", ["scalar_like", "short", "long", "nan", "inf", "matrix"])
    def test_rejects_malformed_edge_weights(self, bad):
        circuit, params = random_tree(95)
        batch = batch_for(circuit, 3, 7)
        e = circuit.num_sum_edges
        weights = {
            "scalar_like": np.array([2.0]),
            "short": np.ones(e - 1),
            "long": np.ones(e + 1),
            "nan": np.where(np.arange(e) == 1, np.nan, 1.0),
            "inf": np.where(np.arange(e) == 0, np.inf, 1.0),
            "matrix": np.ones((1, e)),
        }[bad]
        with pytest.raises(ValueError):
            trace_penalty_gradient(circuit, params, batch, edge_weights=weights)


class TestReport:
    def test_csv_exports(self, tmp_path, product_of_sums):
        from circuit_sharp.diagnostics import write_diag_csv

        circuit, params = product_of_sums
        batch = np.array([[1.0, 0.0], [0.0, 1.0]])
        diag = hessian_diag(circuit, params, batch)
        write_diag_csv(diag, tmp_path / "diag.csv")
        lines = (tmp_path / "diag.csv").read_text().splitlines()
        assert lines[0] == "edge,value"
        assert len(lines) == 1 + circuit.num_sum_edges
        assert [float(line.split(",")[1]) for line in lines[1:]] == diag.tolist()

    def test_report_invariants(self, product_of_sums):
        circuit, params = product_of_sums
        batch = np.array([[1.0, 1.0]])
        dense = full_hessian_tree(circuit, params, batch)
        diag = hessian_diag(circuit, params, batch)
        tr = hessian_trace(circuit, params, batch)
        assert abs(tr - np.abs(diag).sum()) < 1e-12
        assert diag.max() <= 0
        np.testing.assert_allclose(dense, dense.T, atol=1e-10)
        np.testing.assert_allclose(np.diag(dense), diag, atol=1e-12)


def spiral_rat():
    from circuit_sharp.structure import RatConfig, build_rat

    return build_rat(RatConfig(num_vars=2, depth=1, seed=1))


def zero_likelihood_cases():
    """(circuit, params, batch, first dead row): the spiral RAT's row (1e200,
    0.2), whose z^2 overflows in every Gaussian leaf, alone and after a good
    row, and an indicator circuit's x = 0 row, which no leaf supports."""
    from circuit_sharp import Circuit, ParamSet, leaf_node, sum_node

    twin = Circuit.build([leaf_node(0, "bern", [1.0]), leaf_node(0, "bern", [1.0]), sum_node(0, 1)], 2)
    rat = spiral_rat()
    return [
        (*rat, np.array([[1e200, 0.2]]), 0),
        (*rat, np.array([[0.5, 0.2], [1e200, 0.2]]), 1),
        (twin, ParamSet.uniform(twin), np.array([[1.0], [0.0]]), 1),
    ]


def _penalty_from_flows(circuit, params, batch):
    trace = forward(circuit, params, batch)
    return trace_penalty_gradient(circuit, params, batch, trace=trace, flows=backward(circuit, params, trace))


def _gradient_from_flows(circuit, params, batch):
    return loglik_gradient(backward(circuit, params, forward(circuit, params, batch)), params)


class TestZeroLikelihood:
    """log p has no derivatives on a row of likelihood 0, and its flows would
    all read 0, so that next to good rows it would vanish from every
    derivative: each curvature entry point and the log-likelihood gradient
    (through flows or fd.analytic_gradient, which trace --fd-check reads)
    raise, naming the row."""

    @pytest.mark.parametrize(
        "entry",
        [hessian_diag, hessian_trace, edge_gradients, full_hessian_tree, hessian_operator,
         trace_penalty_gradient, _penalty_from_flows, _gradient_from_flows, analytic_gradient],
        ids=lambda f: f.__name__,
    )
    def test_entry_points_raise_naming_the_row(self, entry):
        for circuit, params, batch, row in zero_likelihood_cases():
            with pytest.raises(ZeroLikelihood, match=f"^row {row} has likelihood 0"):
                entry(circuit, params, batch)

    def test_trace_of_no_rows_is_positive_zero(self):
        tr = hessian_trace(*spiral_rat(), np.zeros((0, 2)))
        assert tr == 0.0 and np.copysign(1.0, tr) == 1.0
