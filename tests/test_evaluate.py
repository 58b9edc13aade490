import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_sharp import forward
from circuit_sharp.errors import NotAChild, OutOfDomain, ScopeMismatch

from oracles import enumerate_total_probability, product_complement
from zoo import batch_for, random_dag, random_tree


class TestForward:
    def test_convex_mixture_of_firing_indicators(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        trace = forward(circuit, params, np.array([[1.0]]))
        assert trace.root_log_p[0] == 0.0  # log 1

    def test_half_mixture_when_one_indicator_fires(self, indicator_mixture):
        circuit, params = indicator_mixture
        trace = forward(circuit, params, np.array([[1.0]]))
        np.testing.assert_allclose(trace.root_log_p[0], np.log(0.5), rtol=1e-15)

    def test_dead_input_gives_minus_inf_not_error(self, twin_indicator_mixture):
        circuit, params = twin_indicator_mixture
        trace = forward(circuit, params, np.array([[0.0]]))
        assert trace.root_log_p[0] == -np.inf

    def test_scope_mismatch(self, indicator_mixture):
        circuit, params = indicator_mixture
        with pytest.raises(ScopeMismatch):
            forward(circuit, params, np.zeros((2, 3)))

    def test_logsumexp_identity_at_sum_nodes(self):
        circuit, params = random_tree(17)
        batch = batch_for(circuit, 8, 3)
        trace = forward(circuit, params, batch)
        for n in circuit.sum_nodes:
            w = params.sum_weights[n]
            kids = np.array(circuit.nodes[n].children)
            direct = np.log(np.exp(trace.log_p[:, kids]) @ w)
            np.testing.assert_allclose(trace.log_p[:, n], direct, atol=1e-12)

    @given(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).filter(lambda v: v not in (0.0, 1.0)).map(lambda v: (0, v)),
            st.one_of(
                st.integers(-(10**6), -1).map(float),
                st.integers(3, 10**6).map(float),
                st.floats(0.0, 3.0, exclude_max=True).filter(lambda v: not v.is_integer()),
                st.sampled_from([np.nan, np.inf, -np.inf]),
            ).map(lambda v: (1, v)),
            st.sampled_from([np.nan, np.inf, -np.inf]).map(lambda v: (2, v)),
        ),
        st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_out_of_domain_values_raise(self, bad, row):
        from circuit_sharp import Circuit, ParamSet, leaf_node, product_node

        nodes = [
            leaf_node(0, "bern", [0.3]),
            leaf_node(1, "cat", [0.2, 0.3, 0.5]),
            leaf_node(2, "gauss", [0.0, 1.0]),
            product_node(0, 1, 2),
        ]
        circuit = Circuit.build(nodes, 3)
        params = ParamSet.uniform(circuit)
        batch = np.array([[0.0, 2.0, 0.5]] * 5)
        assert np.isfinite(forward(circuit, params, batch).root_log_p).all()
        var, value = bad
        batch[row, var] = value
        with pytest.raises(OutOfDomain):
            forward(circuit, params, batch)

    def test_permutation_invariance_bit_exact(self):
        circuit, params = random_dag(23)
        batch = batch_for(circuit, 16, 5)
        perm = np.random.default_rng(0).permutation(16)
        a = forward(circuit, params, batch).log_p[perm]
        b = forward(circuit, params, batch[perm]).log_p
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_marginal_normalization_by_enumeration(self, seed):
        circuit, params = random_tree(seed, families=("binary", "cat3"))
        if len(circuit.root_scope) > 12:
            return
        total = enumerate_total_probability(circuit, params)
        assert abs(total - 1.0) < 1e-9


class TestProductComplement:
    def test_subtraction_case(self, product_of_sums):
        circuit, params = product_of_sums
        trace = forward(circuit, params, np.array([[1.0, 1.0]]))
        got = product_complement(trace, 6, 4, 0)
        np.testing.assert_allclose(got, trace.log_p[0, 5], atol=1e-12)

    def test_single_child_product_is_empty_product(self):
        from circuit_sharp import Circuit, ParamSet, leaf_node, product_node, sum_node

        nodes = [
            leaf_node(0, "bern", [0.3]),
            leaf_node(0, "bern", [0.7]),
            sum_node(0, 1),
            product_node(2),
        ]
        circuit = Circuit.build(nodes, 3)
        params = ParamSet.uniform(circuit)
        trace = forward(circuit, params, np.array([[1.0]]))
        assert product_complement(trace, 3, 2, 0) == 0.0

    def test_identity_against_direct_product(self):
        circuit, params = random_tree(41)
        batch = batch_for(circuit, 4, 1)
        trace = forward(circuit, params, batch)
        for i, node in enumerate(circuit.nodes):
            if node.kind != "product":
                continue
            for c in node.children:
                for s in range(4):
                    comp = product_complement(trace, i, c, s)
                    direct = trace.log_p[s, i] - trace.log_p[s, c]
                    if np.isfinite(trace.log_p[s, c]):
                        np.testing.assert_allclose(comp, direct, atol=1e-12)

    def test_minus_inf_child_uses_sibling_fallback(self):
        from circuit_sharp import Circuit, ParamSet, leaf_node, product_node

        nodes = [
            leaf_node(0, "bern", [1.0]),  # log 0 at x=0
            leaf_node(1, "bern", [0.25]),
            product_node(0, 1),
        ]
        circuit = Circuit.build(nodes, 2)
        params = ParamSet.uniform(circuit)
        trace = forward(circuit, params, np.array([[0.0, 1.0]]))
        got = product_complement(trace, 2, 0, 0)
        np.testing.assert_allclose(got, np.log(0.25), atol=1e-12)

    def test_not_a_child(self, product_of_sums):
        circuit, params = product_of_sums
        trace = forward(circuit, params, np.array([[1.0, 0.0]]))
        with pytest.raises(NotAChild):
            product_complement(trace, 6, 0, 0)
        with pytest.raises(NotAChild):
            product_complement(trace, 4, 0, 0)  # sum node, not product
