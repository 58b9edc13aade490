import numpy as np
import pytest

from circuit_sharp import Circuit, ParamSet, leaf_node, sum_node
from circuit_sharp.errors import CostGuardExceeded
from circuit_sharp.fd import analytic_gradient, central_diff, fd_gradient, fd_hessian

from zoo import batch_for, random_tree


@pytest.fixture
def linear_leaf():
    """Root sum with a single always-on child: p = theta * 1."""
    nodes = [leaf_node(0, "bern", [1.0]), sum_node(0)]
    circuit = Circuit.build(nodes, 1)
    params = ParamSet.uniform(circuit)
    params.set_edge_vector(circuit, np.array([0.5]))
    return circuit, params


class TestFdGradient:
    def test_linear_function(self, linear_leaf):
        circuit, params = linear_leaf
        grad = fd_gradient(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(grad, [2.0], atol=1e-8)  # d log(theta)/d theta at 0.5

    def test_zero_flow_edge_is_flat(self, indicator_mixture):
        circuit, params = indicator_mixture
        grad = fd_gradient(circuit, params, np.array([[1.0]]))
        assert abs(grad[1]) <= 1e-8

    def test_agrees_with_flow_gradient(self):
        circuit, params = random_tree(77)
        batch = batch_for(circuit, 5, 5)
        fd = fd_gradient(circuit, params, batch)
        an = analytic_gradient(circuit, params, batch)
        assert np.abs(fd - an).max() <= 1e-6

    def test_cost_guard(self):
        circuit, params = random_tree(3)
        from circuit_sharp import fd as fd_module

        old = fd_module.GRADIENT_EDGE_CAP
        fd_module.GRADIENT_EDGE_CAP = 1
        try:
            with pytest.raises(CostGuardExceeded):
                fd_gradient(circuit, params, batch_for(circuit, 1, 0))
        finally:
            fd_module.GRADIENT_EDGE_CAP = old


class TestFdHessian:
    def test_two_leaf_mixture_entry(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        h = fd_hessian(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(h, [[-1.0, -1.0], [-1.0, -1.0]], atol=1e-6)

    def test_diagonal_close_to_flow_form(self):
        circuit, params = random_tree(81)
        batch = batch_for(circuit, 4, 2)
        from circuit_sharp.curvature import hessian_diag

        h = fd_hessian(circuit, params, batch)
        assert np.abs(np.diag(h) - hessian_diag(circuit, params, batch)).max() <= 1e-6 * max(
            1.0, np.abs(np.diag(h)).max()
        )

    def test_asymmetry_small_before_symmetrization(self):
        circuit, params = random_tree(83)
        batch = batch_for(circuit, 4, 3)
        raw = fd_hessian(circuit, params, batch, symmetrize=False)
        assert np.abs(raw - raw.T).max() <= 1e-6 * max(1.0, np.abs(raw).max())

    def test_cost_guard(self):
        circuit, params = random_tree(3)
        from circuit_sharp import fd as fd_module

        old = fd_module.HESSIAN_EDGE_CAP
        fd_module.HESSIAN_EDGE_CAP = 1
        try:
            with pytest.raises(CostGuardExceeded):
                fd_hessian(circuit, params, batch_for(circuit, 1, 0))
        finally:
            fd_module.HESSIAN_EDGE_CAP = old


class TestScheme:
    def test_richardson_halving(self, linear_leaf):
        # quadratic scalar: truncation error scales as h^2 for central scheme
        f = lambda v: float(v[0] ** 3)
        g1 = central_diff(f, np.array([1.0]), 1e-2)[0]
        g2 = central_diff(f, np.array([1.0]), 5e-3)[0]
        e1, e2 = abs(g1 - 3.0), abs(g2 - 3.0)
        assert e2 <= e1 / 3.0  # ~4x per halving, allow slack

    def test_fd_trace_equals_fd_diag_sum(self):
        circuit, params = random_tree(85)
        batch = batch_for(circuit, 3, 1)
        h = fd_hessian(circuit, params, batch)
        assert np.trace(h) == np.diag(h).sum()
