import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_sharp import forward
from circuit_sharp.diagnostics import (
    dof,
    landscape,
    nll_hessian_eigenvalues,
    write_eigenvalues_csv,
)
from circuit_sharp.errors import ZeroTrainNLL

from oracles import landscape_values
from zoo import batch_for, random_tree


class TestDof:
    def test_basic_gap(self):
        assert dof(10.0, 12.0) == pytest.approx(0.2)

    def test_no_gap(self):
        assert dof(5.0, 5.0) == 0.0

    def test_negative_loglik_sign_convention(self):
        assert dof(-10.0, -8.0) == pytest.approx(0.2)

    def test_zero_train_raises(self):
        with pytest.raises(ZeroTrainNLL):
            dof(0.0, 1.0)

    @given(st.floats(0.1, 100.0), st.floats(-50.0, 50.0), st.floats(0.1, 10.0))
    @settings(max_examples=100)
    def test_scale_invariance(self, train, gap, scale):
        a = dof(train, train + gap)
        b = dof(scale * train, scale * (train + gap))
        assert a == pytest.approx(b, rel=1e-9)


class TestLandscape:
    def test_single_point_grid_is_origin(self):
        circuit, params = random_tree(200)
        data = batch_for(circuit, 12, 0)
        grid = landscape(circuit, params, data, grid_points=1)
        want = float(-forward(circuit, params, data).root_log_p.mean())
        assert grid.values[0] == want
        assert grid.origin_value == want

    def test_origin_exact_on_odd_grid(self):
        circuit, params = random_tree(201)
        data = batch_for(circuit, 10, 1)
        grid = landscape(circuit, params, data, grid_points=11, grid_radius=0.5)
        want = float(-forward(circuit, params, data).root_log_p.mean())
        assert grid.values[5] == want

    def test_directions_unit_norm(self):
        circuit, params = random_tree(202)
        data = batch_for(circuit, 8, 2)
        grid = landscape(circuit, params, data, mode="2d", grid_points=3, seed=5)
        for d in grid.directions:
            np.testing.assert_allclose(np.linalg.norm(d), 1.0, atol=1e-12)
        assert abs(np.dot(grid.directions[0], grid.directions[1])) < 1e-10

    def test_params_not_mutated(self):
        circuit, params = random_tree(203)
        before = {n: params.sum_weights[n].copy() for n in circuit.sum_nodes}
        landscape(circuit, params, batch_for(circuit, 6, 3), grid_points=5)
        for n, w in before.items():
            np.testing.assert_array_equal(params.sum_weights[n], w)

    def test_2d_csv_shape(self, tmp_path):
        circuit, params = random_tree(204)
        data = batch_for(circuit, 6, 4)
        grid = landscape(circuit, params, data, mode="2d", grid_points=5)
        out = tmp_path / "surface.csv"
        grid.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,beta,nll"
        assert len(lines) == 1 + 25

    def test_block_values_equal_the_point_by_point_loop(self):
        """Chunks of probes in one sweep give each grid point the value of its
        own log_likelihood, bit for bit: on the spiral RAT in 1-D and 2-D (a
        chunk of many probes on 5 rows), on a DAG whose groups share child
        lists, and on 60 rows, where each probe is a chunk of its own and
        spans two row tiles; the origin stays the unperturbed NLL."""
        from circuit_sharp import ParamSet
        from circuit_sharp.data import FractionSpec, gen_manifold, minmax_scale, subsample
        from circuit_sharp.evaluate import TILE_BYTES, probe_width
        from circuit_sharp.structure import RatConfig, build_layered_dag, build_rat

        ds, _, _ = minmax_scale(gen_manifold("spiral", 1000, noise=0.05, seed=1))
        spiral = subsample(ds, FractionSpec(0.05, 1)).train
        rat, _ = build_rat(RatConfig(num_vars=2, depth=1, seed=7))
        rat_params = ParamSet.uniform(rat, np.random.default_rng(7))
        dag, dag_params = build_layered_dag(5, 6, seed=7)
        assert any(b.g > 1 for sums, _ in dag.level_edges for b in sums)
        dag_rows = (np.random.default_rng(1).random((5, 5)) < 0.5).astype(float)
        assert probe_width(rat, 5) > 1 and probe_width(rat, 60) == 1
        assert 60 * 8 * rat.num_nodes > TILE_BYTES  # one probe's rows take two tiles
        cases = [(rat, rat_params, spiral[:5], "1d"), (rat, rat_params, spiral[:5], "2d")]
        cases += [(dag, dag_params, dag_rows, "2d"), (rat, rat_params, ds.train[:60], "2d")]
        for circuit, params, data, mode in cases:
            grid = landscape(circuit, params, data, mode=mode, grid_points=5, seed=3)
            want = landscape_values(circuit, params, data, grid.directions, grid.alphas)
            np.testing.assert_array_equal(grid.values, want)
            nll = float(-forward(circuit, params, data).root_log_p.mean())
            assert grid.origin_value == nll and grid.values[(2,) * grid.values.ndim] == nll

    def test_wide_grid_holds_no_offset_list(self):
        """A 51 x 51 grid on the 2110-edge spiral RAT at 5 rows keeps the
        point-by-point values while its traced peak stays below the 41.9 MiB
        that a list of all 2601 offset vectors would take alone."""
        import tracemalloc

        from circuit_sharp import ParamSet
        from circuit_sharp.data import FractionSpec, gen_manifold, minmax_scale, subsample
        from circuit_sharp.structure import RatConfig, build_rat

        ds, _, _ = minmax_scale(gen_manifold("spiral", 1000, noise=0.05, seed=1))
        rows = subsample(ds, FractionSpec(0.05, 1)).train[:5]
        circuit, _ = build_rat(RatConfig(num_vars=2, depth=1, seed=7))
        params = ParamSet.uniform(circuit, np.random.default_rng(7))
        tracemalloc.start()
        try:
            grid = landscape(circuit, params, rows, mode="2d", grid_points=51, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 51 * 51 * circuit.num_sum_edges * 8
        np.testing.assert_array_equal(grid.values, landscape_values(circuit, params, rows, grid.directions, grid.alphas))

    def test_minimum_at_origin_after_convergence(self):
        from circuit_sharp import Circuit, ParamSet, leaf_node, sum_node
        from circuit_sharp.learning import em_step_vanilla

        nodes = [leaf_node(0, "bern", [0.9]), leaf_node(0, "bern", [0.1]), sum_node(0, 1)]
        circuit = Circuit.build(nodes, 2)
        params = ParamSet.uniform(circuit)
        rng = np.random.default_rng(4)
        data = (rng.random(500) < 0.7).astype(float)[:, None]
        for _ in range(200):
            params = em_step_vanilla(circuit, params, data, alpha=1.0)
        grid = landscape(circuit, params, data, grid_points=21, grid_radius=1.0, seed=0)
        assert np.argmin(grid.values) == 10  # converged point sits at the center


def record_eigsh(monkeypatch) -> list:
    """Patch the eigensolver to append the type of each matrix it is given
    to the returned list."""
    import circuit_sharp.curvature as curvature

    runs, solve = [], curvature.eigsh
    monkeypatch.setattr(curvature, "eigsh", lambda h, *a, **kw: runs.append(type(h)) or solve(h, *a, **kw))
    return runs


def count_lanczos_products(monkeypatch) -> list:
    """Patch the eigensolver to run on a wrapper of its matrix or operator
    that appends to the returned list once per matrix-vector product."""
    import circuit_sharp.curvature as curvature
    from scipy.sparse.linalg import LinearOperator, aslinearoperator

    products, solve = [], curvature.eigsh

    def counted(h, *args, **kwargs):
        op = aslinearoperator(h)
        wrapped = LinearOperator(op.shape, matvec=lambda v: products.append(1) or op.matvec(v), dtype=float)
        return solve(wrapped, *args, **kwargs)

    monkeypatch.setattr(curvature, "eigsh", counted)
    return products


def diagnose_tree_chunk():
    """The tree and DAG of the diagnose-tree benchmark workload with their
    first chunk of rows: (tree, params, rows, dag, params, rows)."""
    from circuit_sharp import ParamSet
    from circuit_sharp.data import FractionSpec, gen_manifold, minmax_scale, subsample
    from circuit_sharp.structure import RatConfig, build_layered_dag, build_rat

    ds, _, _ = minmax_scale(gen_manifold("spiral", 1000, noise=0.05, seed=1))
    rows = subsample(ds, FractionSpec(0.05, 1)).train[:5]
    tree, _ = build_rat(RatConfig(num_vars=2, depth=1, seed=7))
    tree_params = ParamSet.uniform(tree, np.random.default_rng(7))
    dag, dag_params = build_layered_dag(5, 6, seed=7)
    dag_rows = (np.random.default_rng(1).random((5, 5)) < 0.5).astype(float)
    return tree, tree_params, rows, dag, dag_params, dag_rows


def top_magnitudes(matrix: np.ndarray, k: int) -> np.ndarray:
    """The k largest-magnitude eigenvalues of a symmetric matrix, by eigvalsh."""
    vals = np.linalg.eigvalsh(matrix)
    return vals[np.argsort(-np.abs(vals))][:k]


class TestEigenDiagnostics:
    def test_tree_route_matches_dense(self):
        circuit, params = random_tree(210)
        data = batch_for(circuit, 5, 5)
        vals = nll_hessian_eigenvalues(circuit, params, data, k=4)
        from circuit_sharp.curvature import full_hessian_tree

        dense = -full_hessian_tree(circuit, params, data)
        ref = np.linalg.eigvalsh(dense)
        ref = ref[np.argsort(-np.abs(ref))][:4]
        np.testing.assert_allclose(np.sort(vals), np.sort(ref), atol=1e-8)

    def test_dag_beyond_fd_cap(self):
        from circuit_sharp.fd import HESSIAN_EDGE_CAP
        from circuit_sharp.structure import build_layered_dag

        circuit, params = build_layered_dag(5, 12, seed=3)
        assert circuit.num_sum_edges > HESSIAN_EDGE_CAP and not circuit.is_tree
        data = batch_for(circuit, 6, 6)
        vals = nll_hessian_eigenvalues(circuit, params, data, k=5)
        assert vals.shape == (5,) and np.all(np.isfinite(vals))
        assert list(np.abs(vals)) == sorted(np.abs(vals), reverse=True)

    def test_matches_dense_on_diagnose_tree_inputs(self):
        from circuit_sharp.curvature import full_hessian_tree
        from circuit_sharp.fd import fd_hessian

        tree, tree_params, rows, dag, dag_params, dag_rows = diagnose_tree_chunk()
        for circuit, params, batch, dense, rtol in (
            (tree, tree_params, rows, full_hessian_tree, 1e-10),
            (dag, dag_params, dag_rows, fd_hessian, 1e-6),
        ):
            ref = np.linalg.eigvalsh(-dense(circuit, params, batch))
            ref = ref[np.argsort(-np.abs(ref))][:15]
            vals = nll_hessian_eigenvalues(circuit, params, batch, k=15)
            assert np.abs(vals - ref).max() <= rtol * np.abs(ref).max()

    def test_lanczos_stops_at_the_residual_gate(self, monkeypatch):
        """top_eigenvalues' tol_scale both stops Lanczos and gates its pairs:
        on diagnose-tree's first chunk, the tree's operator and the DAG's
        formed matrix (the routes nll_hessian_eigenvalues takes) need fewer
        products at 1e-8 than at 1e-12, and at both the pairs pass the gate
        and match eigvalsh of the dense Hessian within 1e-10."""
        import circuit_sharp.diagnostics as diagnostics
        from circuit_sharp.curvature import full_hessian_tree, hessian_operator, top_eigenvalues
        from circuit_sharp.evaluate import probe_width

        tree, tree_params, rows, dag, dag_params, dag_rows = diagnose_tree_chunk()
        assert -(-dag.num_sum_edges // probe_width(dag, len(dag_rows))) <= diagnostics.DENSE_BLOCKS
        dag_matrix = -(hessian_operator(dag, dag_params, dag_rows) @ np.eye(dag.num_sum_edges))
        products = count_lanczos_products(monkeypatch)
        for h, dense in (
            (-hessian_operator(tree, tree_params, rows), -full_hessian_tree(tree, tree_params, rows)),
            (dag_matrix, dag_matrix),
        ):
            want = top_magnitudes(dense, 15)
            counts = []
            for tol_scale in (1e-8, 1e-12):
                products.clear()
                got = top_eigenvalues(h, 15, tol_scale=tol_scale)  # raises NotConverged past the gate
                counts.append(len(products))
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            assert 0 < counts[0] < counts[1]

    @pytest.mark.parametrize("dense", [True, False])
    def test_routes_either_side_of_the_dense_blocks(self, monkeypatch, dense):
        """A DAG Hessian that takes DENSE_BLOCKS block products to form is
        formed as a matrix before Lanczos, and one that takes one more is
        not; both match eigvalsh of the Hessian the operator forms."""
        import circuit_sharp.diagnostics as diagnostics
        from circuit_sharp.curvature import hessian_operator
        from circuit_sharp.evaluate import probe_width
        from circuit_sharp.structure import build_layered_dag

        circuit, params = build_layered_dag(5, 6, seed=3)
        batch = batch_for(circuit, 6, 4)
        blocks = -(-circuit.num_sum_edges // probe_width(circuit, len(batch)))
        assert blocks > 1 and not circuit.is_tree
        monkeypatch.setattr(diagnostics, "DENSE_BLOCKS", blocks if dense else blocks - 1)
        runs = record_eigsh(monkeypatch)
        got = nll_hessian_eigenvalues(circuit, params, batch, k=6)
        assert len(runs) == 1 and (runs[0] is np.ndarray) == dense
        want = top_magnitudes(-(hessian_operator(circuit, params, batch) @ np.eye(circuit.num_sum_edges)), 6)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())

    def test_trees_run_lanczos_on_the_operator(self, monkeypatch):
        """A tree never forms its Hessian as a matrix, whatever DENSE_BLOCKS
        allows: Lanczos on the closed form's products is the faster route."""
        import circuit_sharp.diagnostics as diagnostics
        from circuit_sharp.curvature import full_hessian_tree

        circuit, params = random_tree(64)
        batch = batch_for(circuit, 4, 4)
        monkeypatch.setattr(diagnostics, "DENSE_BLOCKS", 10**9)
        runs = record_eigsh(monkeypatch)
        got = nll_hessian_eigenvalues(circuit, params, batch, k=6)
        assert len(runs) == 1 and runs[0] is not np.ndarray
        want = top_magnitudes(-full_hessian_tree(circuit, params, batch), 6)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())

    def test_csv_format(self, tmp_path):
        path = tmp_path / "eig.csv"
        write_eigenvalues_csv(np.array([3.0, -1.5]), path)
        assert path.read_text().splitlines() == ["rank,eigenvalue", "1,3.0", "2,-1.5"]


class TestSharpnessTracksOverfitting:
    def test_spearman_on_overfit_spiral_run(self):
        from scipy.stats import spearmanr

        from circuit_sharp.data import FractionSpec, gen_manifold, minmax_scale, subsample
        from circuit_sharp.learning import sgd_train
        from circuit_sharp.structure import RatConfig, build_rat

        ds = gen_manifold("spiral", 1000, noise=0.05, seed=4)
        ds, _, _ = minmax_scale(ds)
        ds = subsample(ds, FractionSpec(0.05, 4))
        circuit, params = build_rat(
            RatConfig(num_vars=2, depth=1, num_input_distributions=5, num_sums=5,
                      num_repetitions=3, seed=4)
        )
        _, report = sgd_train(circuit, params, ds.train, ds.valid,
                              epochs=80, batch_size=200, lr=0.1, seed=4)
        gap = report.series("valid_nll") - report.series("train_nll")
        rho = spearmanr(report.series("sharpness"), gap).statistic
        assert rho >= 0.5
