import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_sharp import Circuit, ParamSet, backward, forward, leaf_node, log_likelihood, sum_node
from circuit_sharp.curvature import hessian_trace
from circuit_sharp.fd import central_diff
from circuit_sharp.learning import (
    ADAPTIVE_DOF,
    LAYER_MEAN_FLOW,
    RegularizerConfig,
    adaptive_mu,
    em_step_sharp,
    em_step_vanilla,
    em_train,
    layer_mean_flow,
    sgd_train,
    sharp_update,
    update_leaves,
)

from oracles import MU_GRID, cubic_update_oracle
from zoo import batch_for, random_tree


class TestSharpUpdate:
    def test_mu_zero_recovers_proportionality(self):
        assert sharp_update(1.0, 1.0, 0.0) == 1.0

    def test_zero_flow_maps_to_zero(self):
        assert sharp_update(0.0, 1.0, 5.0) == 0.0

    def test_golden_ratio_case(self):
        got = sharp_update(1.0, 1.0, 1.0)
        np.testing.assert_allclose(got, (1.0 + np.sqrt(5.0)) / 2.0, rtol=1e-15)
        assert abs(got * got - got - 1.0) < 1e-12

    @given(
        st.floats(0.0, 50.0),
        st.floats(0.1, 5.0),
        st.floats(0.0, 5.0),
    )
    @settings(max_examples=300)
    def test_kkt_residual(self, f, lam, mu):
        t = sharp_update(f, lam, mu)
        assert abs(lam * t * t - f * t - mu * f) <= 1e-12 * max(1.0, f * f)
        assert f * f + 4 * lam * mu * f >= 0.0


class TestCubicOracle:
    def test_mu_zero(self):
        assert cubic_update_oracle(1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_zero_flow(self):
        assert cubic_update_oracle(0.0, 1.0, 1.0) == 0.0

    def test_reference_root(self):
        t = cubic_update_oracle(1.0, 1.0, 1.0)
        np.testing.assert_allclose(t, 1.6956207695598, atol=1e-10)
        assert abs(t**3 - t**2 - 2.0) <= 1e-12

    @given(st.floats(0.01, 20.0), st.floats(0.1, 4.0), st.floats(0.0, 4.0))
    @settings(max_examples=200)
    def test_residual_within_tolerance(self, f, lam, mu):
        t = cubic_update_oracle(f, lam, mu)
        assert t >= 0.0
        assert abs(lam * t**3 - f * t * t - 2.0 * mu * f * f) <= 1e-12 * max(1.0, f**3)


class TestEmStep:
    def test_count_normalization(self):
        nodes = [leaf_node(0, "bern", [1.0]), leaf_node(0, "bern", [1.0]), sum_node(0, 1)]
        circuit = Circuit.build(nodes, 2)
        params = ParamSet.uniform(circuit)
        params.set_edge_vector(circuit, np.array([0.75, 0.25]))
        new = em_step_vanilla(circuit, params, np.array([[1.0]]), alpha=1.0)
        np.testing.assert_allclose(new.sum_weights[2], [0.75, 0.25], atol=1e-12)

    def test_degenerate_node_unchanged(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        new = em_step_vanilla(circuit, params, np.array([[0.0]]), alpha=1.0)
        np.testing.assert_array_equal(new.sum_weights[2], params.sum_weights[2])

    def test_smoothing_blend(self, indicator_mixture):
        circuit, params = indicator_mixture
        new = em_step_vanilla(circuit, params, np.array([[1.0]]), alpha=0.5)
        want = 0.5 * np.array([0.5, 0.5]) + 0.5 * np.array([1.0 - 1e-12, 1e-12])
        np.testing.assert_allclose(new.sum_weights[2], want, atol=1e-9)

    def test_mixture_recovery(self):
        rng = np.random.default_rng(5)
        nodes = [leaf_node(0, "bern", [0.9]), leaf_node(0, "bern", [0.1]), sum_node(0, 1)]
        circuit = Circuit.build(nodes, 2)
        params = ParamSet.uniform(circuit)
        true_w = 0.7
        comp = rng.random(4000) < true_w
        data = np.where(comp, rng.random(4000) < 0.9, rng.random(4000) < 0.1).astype(float)[:, None]
        for _ in range(100):
            params = em_step_vanilla(circuit, params, data, alpha=1.0)
        assert abs(params.sum_weights[2][0] - true_w) < 0.05

    def test_simplex_preserved(self):
        circuit, params = random_tree(120)
        batch = batch_for(circuit, 16, 3)
        cfg = RegularizerConfig(mu=0.5, smoothing_alpha=0.3)
        for step in range(3):
            params = em_step_sharp(circuit, params, batch, cfg)
            for n in circuit.sum_nodes:
                w = params.sum_weights[n]
                assert w.min() > 0.0
                assert abs(w.sum() - 1.0) <= 1e-10


class TestSharpEm:
    def test_mu_zero_degenerates_exactly(self):
        circuit, params = random_tree(130)
        batch = batch_for(circuit, 8, 1)
        cfg = RegularizerConfig(mu=0.0, smoothing_alpha=0.4)
        a = em_step_vanilla(circuit, params, batch, alpha=0.4)
        b = em_step_sharp(circuit, params, batch, cfg)
        for n in circuit.sum_nodes:
            np.testing.assert_array_equal(a.sum_weights[n], b.sum_weights[n])

    def test_regularized_closer_to_uniform(self):
        nodes = [leaf_node(0, "bern", [1.0]), leaf_node(0, "bern", [1.0]), sum_node(0, 1)]
        circuit = Circuit.build(nodes, 2)
        flows = np.array([4.0, 1.0])
        raw = sharp_update(flows, 1.0, 1.0)
        reg = raw / raw.sum()
        vanilla = flows / flows.sum()
        np.testing.assert_allclose(vanilla, [0.8, 0.2], atol=1e-15)
        assert abs(reg[0] - 0.5) < abs(vanilla[0] - 0.5)

    def test_monotone_shrinkage_toward_uniform(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            flows = rng.uniform(0.0, 10.0, size=rng.integers(2, 6))
            if flows.sum() == 0:
                continue
            prev_gap = np.inf
            for mu in (0.0, 0.1, 0.5, 1.0, 5.0, 50.0):
                t = sharp_update(flows, 1.0, mu)
                t = np.maximum(t, 1e-8)
                w = t / t.sum()
                gap = np.abs(w - 1.0 / len(w)).max()
                assert gap <= prev_gap + 1e-12
                prev_gap = gap


class TestUpdateLeaves:
    def test_bernoulli_clamped_toward_one(self):
        nodes = [leaf_node(0, "bern", [0.5]), leaf_node(0, "bern", [0.5]), sum_node(0, 1)]
        circuit = Circuit.build(nodes, 2)
        params = ParamSet.uniform(circuit)
        data = np.ones((6, 1))
        flows = backward(circuit, params, forward(circuit, params, data))
        new = update_leaves(circuit, params, flows, data, alpha=1.0)
        assert new.leaf_params[0][0] == 1.0 - 1e-6

    def test_gaussian_symmetric_moments(self):
        nodes = [leaf_node(0, "gauss", [0.3, 2.0])]
        circuit = Circuit.build(nodes, 0)
        params = ParamSet.uniform(circuit)
        data = np.array([[-1.0], [1.0]])
        flows = backward(circuit, params, forward(circuit, params, data))
        new = update_leaves(circuit, params, flows, data, alpha=1.0)
        np.testing.assert_allclose(new.leaf_params[0], [0.0, 1.0], atol=1e-12)

    def test_zero_flow_leaf_unchanged(self, indicator_mixture):
        circuit, params = indicator_mixture
        data = np.ones((3, 1))
        flows = backward(circuit, params, forward(circuit, params, data))
        new = update_leaves(circuit, params, flows, data, alpha=1.0)
        np.testing.assert_array_equal(new.leaf_params[1], params.leaf_params[1])

    def test_matches_per_leaf_reference(self):
        circuit, params = random_tree(150, families=("binary", "continuous", "cat3"))
        data = batch_for(circuit, 12, 2)
        flows = backward(circuit, params, forward(circuit, params, data))
        new = update_leaves(circuit, params, flows, data, alpha=0.7)
        for i, node in enumerate(circuit.nodes):
            if node.kind != "leaf":
                continue
            w, x, old = flows.node_flow[i], data[:, node.leaf.variable], params.leaf_params[i]
            total = w.sum()
            if node.leaf.family == "bern":
                p = np.clip((w * x).sum() / total, 1e-6, 1 - 1e-6)
                want = 0.3 * old + 0.7 * p
            elif node.leaf.family == "gauss":
                mean = (w * x).sum() / total
                var = max((w * (x - mean) ** 2).sum() / total, 1e-4)
                want = [0.3 * old[0] + 0.7 * mean, np.sqrt(0.3 * old[1] ** 2 + 0.7 * var)]
            else:
                probs = np.maximum([(w * (x == j)).sum() / total for j in range(len(old))], 1e-9)
                mixed = 0.3 * old + 0.7 * probs / probs.sum()
                want = mixed / mixed.sum()
            np.testing.assert_allclose(new.leaf_params[i], want, rtol=1e-12)

    def test_two_cluster_gaussian_recovery(self):
        rng = np.random.default_rng(3)
        nodes = [
            leaf_node(0, "gauss", [-0.5, 1.0]),
            leaf_node(0, "gauss", [0.5, 1.0]),
            sum_node(0, 1),
        ]
        circuit = Circuit.build(nodes, 2)
        params = ParamSet.uniform(circuit)
        data = np.concatenate(
            [rng.normal(-2.0, 0.3, 800), rng.normal(2.0, 0.3, 800)]
        ).reshape(-1, 1)
        for _ in range(200):
            flows = backward(circuit, params, forward(circuit, params, data))
            params = update_leaves(circuit, params, flows, data, alpha=1.0)
            params = em_step_vanilla(circuit, params, data, alpha=1.0)
        means = sorted(params.leaf_params[i][0] for i in (0, 1))
        assert abs(means[0] + 2.0) < 0.1 and abs(means[1] - 2.0) < 0.1


class TestSchedules:
    def test_balanced_gradients_give_unit_mu(self):
        assert adaptive_mu(train_nll=2.0, valid_nll=2.0, g_data=3.0, g_reg=3.0, prev_mu=0.0) == 1.0

    def test_layer_mean(self):
        mu = layer_mean_flow(np.array([0.2, 0.4, 1.0]), np.array([0, 0, 1]))
        np.testing.assert_allclose(mu, [0.3, 0.3, 1.0], atol=1e-15)

    def test_dof_amplification(self):
        mu = adaptive_mu(train_nll=1.0, valid_nll=2.0, g_data=1.0, g_reg=1.0, prev_mu=0.0)
        np.testing.assert_allclose(mu, 1.05**100, rtol=1e-12)

    def test_zero_reg_gradient_falls_back(self):
        assert adaptive_mu(train_nll=1.0, valid_nll=2.0, g_data=1.0, g_reg=0.0, prev_mu=0.37) == 0.37

    def test_fixed(self):
        """The fixed schedule has no function: every epoch trains and logs config.mu."""
        circuit, params = random_tree(164)
        data = batch_for(circuit, 8, 0)
        _, report = em_train(circuit, params, data, data, config=RegularizerConfig(mu=0.25), epochs=2, batch_size=8)
        assert report.series("mu").tolist() == [0.25, 0.25]

    def test_mu_grid_matches_protocol(self):
        assert MU_GRID == (0.01, 0.05, 0.1, 0.5, 1.0)


class TestEmTrain:
    def test_full_batch_monotone_loglik(self):
        circuit, params = random_tree(140)
        data = batch_for(circuit, 64, 9)
        nll = []
        p = params
        for _ in range(30):
            p = em_step_vanilla(circuit, p, data, alpha=1.0)
            nll.append(-forward(circuit, p, data).root_log_p.sum())
        steps = np.diff(nll)
        assert steps.max() <= 1e-9

    def test_report_columns(self, tmp_path):
        circuit, params = random_tree(141)
        data = batch_for(circuit, 32, 2)
        _, report = em_train(circuit, params, data, data, epochs=3, batch_size=16, seed=1)
        assert [r.epoch for r in report.rows] == [1, 2, 3]
        assert np.isfinite(report.series("train_nll")).all()
        path = tmp_path / "log.csv"
        report.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "epoch,train_nll,valid_nll,sharpness,dof,mu,seconds"


class TestSgdTrain:
    def test_zero_learning_rate_keeps_params(self):
        circuit, params = random_tree(150)
        data = batch_for(circuit, 16, 0)
        out, _ = sgd_train(circuit, params, data, epochs=2, batch_size=8, lr=0.0, seed=0)
        for n in circuit.sum_nodes:
            np.testing.assert_allclose(out.sum_weights[n], params.sum_weights[n], atol=1e-12)

    def test_matches_em_on_tiny_mixture(self):
        nodes = [leaf_node(0, "bern", [0.9]), leaf_node(0, "bern", [0.1]), sum_node(0, 1)]
        circuit = Circuit.build(nodes, 2)
        params = ParamSet.uniform(circuit)
        rng = np.random.default_rng(8)
        comp = rng.random(600) < 0.65
        data = np.where(comp, rng.random(600) < 0.9, rng.random(600) < 0.1).astype(float)[:, None]
        em_p = params.copy()
        for _ in range(60):
            em_p = em_step_vanilla(circuit, em_p, data, alpha=1.0)
        sgd_p, _ = sgd_train(
            circuit, params, data, epochs=200, batch_size=600, lr=0.05, seed=0,
            update_leaf_params=False,
        )
        em_nll = -forward(circuit, em_p, data).root_log_p.mean()
        sgd_nll = -forward(circuit, sgd_p, data).root_log_p.mean()
        assert sgd_nll <= em_nll * 1.01

    def test_leaf_gradients_match_fd(self):
        self.check_leaf_gradients_match_fd(("continuous",))

    def test_all_family_leaf_gradients_match_fd(self):
        self.check_leaf_gradients_match_fd(("binary", "continuous", "cat3"))

    @staticmethod
    def check_leaf_gradients_match_fd(families):
        circuit, params = random_tree(152, families=families)
        data = batch_for(circuit, 6, 4)
        from circuit_sharp.learning import _Unconstrained

        mapper = _Unconstrained(circuit, train_leaves=True)
        vec0 = mapper.flatten(params)
        trace = forward(circuit, params, data)
        flows = backward(circuit, params, trace)
        theta = params.edge_vector(circuit)
        raw = -flows.edge_flow.sum(axis=1) / theta
        grad = mapper.gradient(params, raw, flows, data, nll_sign=-1.0)

        def nll_of(vec):
            p = mapper.unflatten(vec, params)
            return float(-forward(circuit, p, data).root_log_p.sum())

        fd = central_diff(nll_of, vec0, 1e-5)
        assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_regularizer_lowers_sharpness(self):
        circuit, params = random_tree(153, families=("continuous",))
        data = batch_for(circuit, 40, 6)
        base, _ = sgd_train(circuit, params.copy(), data, epochs=60, batch_size=40, lr=0.1, seed=3)
        reg, _ = sgd_train(
            circuit, params.copy(), data,
            config=RegularizerConfig(mu=0.5), epochs=60, batch_size=40, lr=0.1, seed=3,
        )
        assert hessian_trace(circuit, reg, data) < hessian_trace(circuit, base, data)


class TestScheduledTraining:
    def test_adaptive_dof_updates_mu(self):
        circuit, params = random_tree(160, families=("continuous",))
        train = batch_for(circuit, 24, 1)
        valid = batch_for(circuit, 24, 2)
        cfg = RegularizerConfig(mu=0.0, schedule=ADAPTIVE_DOF)
        _, report = sgd_train(circuit, params, train, valid, config=cfg,
                              epochs=4, batch_size=24, lr=0.05, seed=0)
        mus = report.series("mu")
        assert np.isfinite(mus).all()
        assert mus[1:].max() > 0.0  # schedule kicked in after the first epoch

    @pytest.mark.parametrize("learner", ["em", "sgd"])
    def test_adaptive_dof_reuses_epoch_passes(self, monkeypatch, learner):
        """The schedule reads the epoch row's train-set trace and flows: one
        forward per minibatch plus one over train and one over valid, and one
        backward per minibatch plus one over train."""
        import circuit_sharp.curvature as curvature
        import circuit_sharp.learning as learning

        calls = {"forward": 0, "backward": 0}
        for module in (learning, curvature):
            for name in calls:
                def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _f(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        family = "binary" if learner == "em" else "continuous"
        circuit, params = random_tree(163, families=(family,))
        train, valid = batch_for(circuit, 30, 5), batch_for(circuit, 10, 6)
        cfg = RegularizerConfig(mu=0.1, schedule=ADAPTIVE_DOF)
        train_fn = em_train if learner == "em" else sgd_train
        _, report = train_fn(circuit, params, train, valid, config=cfg, epochs=3, batch_size=15, seed=0)
        assert report.series("mu")[1:].max() > 0.0  # the schedule ran
        assert calls == {"forward": 3 * (2 + 2), "backward": 3 * (2 + 1)}

    @pytest.mark.parametrize("learner", ["em", "sgd"])
    def test_layer_mean_flow_em_runs(self, learner):
        circuit, params = random_tree(161, families=("binary",))
        train = batch_for(circuit, 32, 3)
        cfg = RegularizerConfig(mu=0.0, schedule=LAYER_MEAN_FLOW, smoothing_alpha=0.5)
        train_fn = em_train if learner == "em" else sgd_train
        out, report = train_fn(circuit, params, train, train, config=cfg,
                               epochs=3, batch_size=32, seed=0)
        assert np.isfinite(report.series("mu")).all()
        for n in circuit.sum_nodes:
            w = out.sum_weights[n]
            assert abs(w.sum() - 1.0) < 1e-10 and w.min() > 0

    @pytest.mark.filterwarnings("error")  # divergence raises DivergedNaN, with no RuntimeWarning before it
    def test_diverged_nan_carries_last_good_params(self):
        from circuit_sharp.errors import DivergedNaN

        circuit, params = random_tree(162, families=("continuous",))
        train = batch_for(circuit, 16, 4)
        finished = []
        for lr in (1e4, 300.0):  # 1e4 diverges in the first epoch, 300 after finite ones
            with pytest.raises(DivergedNaN) as err:
                sgd_train(circuit, params, train, epochs=50, batch_size=16, lr=lr, seed=0)
            assert err.value.params is not None
            for n in circuit.sum_nodes:
                assert np.isfinite(err.value.params.sum_weights[n]).all()
            assert np.isfinite(log_likelihood(circuit, err.value.params, train)).all()
            rows = err.value.report.rows  # the epochs that finished before the one that diverged
            assert [r.epoch for r in rows] == list(range(1, len(rows) + 1))
            assert all(np.isfinite(r.train_nll) and np.isfinite(r.sharpness) for r in rows)
            finished.append(len(rows))
        assert finished[1] >= 1
