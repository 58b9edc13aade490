import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circuit_sharp.evaluate as evaluate
from circuit_sharp import forward, log_likelihood
from circuit_sharp.errors import OutOfDomain, ScopeMismatch

from oracles import NotAChild, enumerate_total_probability, per_edge_sum_log_p, product_complement
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

ALL_FAMILIES = ("binary", "continuous", "cat3")


def _wide_groups():
    """Circuits whose shared-child groups are wide, 10 rows each: an HCLT
    shaped like the em-hclt workload's (16 binary variables, 16 latents, so
    groups of 16 parents over 16 children) and a layered DAG whose groups
    are whole layers of 6 sums over 6 products."""
    from circuit_sharp.structure import HcltConfig, build_hclt, build_layered_dag

    rng = np.random.default_rng(7)
    hclt = build_hclt([(int(rng.integers(i)), i) for i in range(1, 16)], HcltConfig(num_latents=16, seed=7))
    return [(c, p, batch_for(c, 10, 2)) for c, p in (hclt, build_layered_dag(5, 6, seed=7))]


def _tiling_zoo():
    """Trees and DAGs over all three leaf families with 10 rows each, the
    wide-group circuits, and the shared-child DAG, whose node D0 is -inf, on
    all 8 of its assignments."""
    cases = tree_zoo(4, families=ALL_FAMILIES) + dag_zoo(4, families=ALL_FAMILIES)
    cases = [(c, p, batch_for(c, 10, 2)) for c, p in cases] + _wide_groups()
    return cases + [(*shared_child_dag(), np.array(list(itertools.product((0.0, 1.0), repeat=3))))]


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
        from circuit_sharp import Circuit, ParamSet, leaf_node, product_node

        circuit, params = indicator_mixture
        with pytest.raises(ScopeMismatch):
            forward(circuit, params, np.zeros((2, 3)))
        # leaves over {0, 5} would index past a 2-column batch, and over
        # {-1, 0} read variable -1 from its last column
        for variables in ((0, 5), (-1, 0)):
            nodes = [leaf_node(variables[0], "bern", 0.3), leaf_node(variables[1], "bern", 0.4), product_node(0, 1)]
            circuit = Circuit.build(nodes, 2)
            with pytest.raises(ScopeMismatch, match="not the batch columns"):
                forward(circuit, ParamSet.uniform(circuit), np.array([[1.0, 0.0]]))

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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "TILE_BYTES", 2 * 8 * circuit.num_nodes)  # 2-row tiles
            mp.setattr(evaluate, "LEVEL_CELLS", 0)
            for fn in (forward, log_likelihood):
                with pytest.raises(OutOfDomain, match=rf"^row {row},"):
                    fn(circuit, params, batch)

    def test_categorical_leaves_of_one_variable_check_the_least_size(self):
        from circuit_sharp import Circuit, ParamSet, leaf_node, sum_node

        nodes = [leaf_node(0, "cat", np.full(3, 1 / 3)), leaf_node(0, "cat", np.full(5, 0.2)), sum_node(0, 1)]
        circuit = Circuit.build(nodes, 2)
        params = ParamSet.uniform(circuit)
        batch = np.array([[0.0], [2.0], [1.0]])
        assert np.isfinite(forward(circuit, params, batch).root_log_p).all()
        batch[1, 0] = 4.0  # inside the 5-category leaf's domain, outside the 3-category one's
        for fn in (forward, log_likelihood):
            with pytest.raises(OutOfDomain, match=r"^row 1, variable 0:"):
                fn(circuit, params, batch)

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


class TestTiling:
    def test_log_likelihood_is_forward_root_bit_for_bit(self):
        dead = 0
        for circuit, params, batch in _tiling_zoo():
            trace = forward(circuit, params, batch)
            np.testing.assert_array_equal(log_likelihood(circuit, params, batch), trace.root_log_p)
            dead += int(np.isneginf(trace.log_p[:, circuit.sum_nodes]).sum())
        assert dead > 0  # the -inf sum node is covered

    @pytest.mark.parametrize("tile_rows", [1, 3])
    def test_row_tiles_equal_one_tile_bit_for_bit(self, monkeypatch, tile_rows):
        monkeypatch.setattr(evaluate, "LEVEL_CELLS", 0)
        for circuit, params, batch in _tiling_zoo():
            monkeypatch.setattr(evaluate, "TILE_BYTES", 8 * circuit.num_nodes * len(batch))
            whole = forward(circuit, params, batch)
            monkeypatch.setattr(evaluate, "TILE_BYTES", 8 * circuit.num_nodes * tile_rows)
            tiled = forward(circuit, params, batch)
            assert tiled.log_p.T.flags.c_contiguous and tiled.log_p.shape == (len(batch), circuit.num_nodes)
            np.testing.assert_array_equal(tiled.log_p, whole.log_p)
            np.testing.assert_array_equal(log_likelihood(circuit, params, batch), whole.root_log_p)

    def test_probes_equal_their_own_log_likelihood_bit_for_bit(self, monkeypatch):
        """Each row of probe_log_likelihood equals log_likelihood under its
        column of weights, in one tile and across 3-row tiles that split
        the repeated rows mid-probe."""
        from dataclasses import replace

        rng = np.random.default_rng(4)
        monkeypatch.setattr(evaluate, "LEVEL_CELLS", 0)
        for circuit, params, batch in _tiling_zoo():
            weights = np.stack(
                [circuit.sum_segments.softmax(np.log(params.theta) + rng.normal(0, 0.5, params.theta.size))
                 for _ in range(3)] + [params.theta], axis=1,
            )
            want = [log_likelihood(circuit, replace(params, theta=w), batch) for w in weights.T]
            for tile_rows in (len(batch) * 4, 3):
                monkeypatch.setattr(evaluate, "TILE_BYTES", 8 * circuit.num_nodes * tile_rows)
                np.testing.assert_array_equal(evaluate.probe_log_likelihood(circuit, params, batch, weights), want)

    def test_deep_narrow_circuit_takes_one_tile(self):
        from circuit_sharp.structure import HcltConfig, build_hclt

        # 400 levels of about two nodes each: the cache bound alone would cut
        # 500 rows into 3 tiles and run the level loop 3 times
        circuit, params = build_hclt([(i, i + 1) for i in range(199)], HcltConfig(num_latents=1))
        assert evaluate.TILE_BYTES // (8 * circuit.num_nodes) < 500
        assert len(list(evaluate._sweep(circuit, params, np.zeros((500, 200))))) == 1

    @pytest.mark.parametrize(
        "rows,tile,widths",
        [
            (200, 174, [200]),  # em-hclt's minibatch: no 26-row runt
            (17, 8, [9, 8]),
            (9, 4, [4, 4, 1]),  # a last tile of a quarter stays
            (1000, 56, [56] * 17 + [48]),  # the spiral's 1000 rows
            (64, 33, [33, 31]),  # trace-dag's test rows
        ],
    )
    def test_a_last_tile_under_a_quarter_widens_the_tiles(self, monkeypatch, rows, tile, widths):
        circuit, params = random_tree(5)
        monkeypatch.setattr(evaluate, "LEVEL_CELLS", 0)
        monkeypatch.setattr(evaluate, "TILE_BYTES", 8 * circuit.num_nodes * tile)
        tiles = evaluate._sweep(circuit, params, batch_for(circuit, rows, 0))
        assert [lp.shape[1] for _, lp in tiles] == widths

    def test_trace_keeps_a_copy_of_its_rows(self):
        circuit, params = random_tree(5)
        batch = batch_for(circuit, 4, 0)
        trace = forward(circuit, params, batch)
        batch[:] = batch[::-1]
        np.testing.assert_array_equal(trace.batch, batch[::-1])


class TestSharedChildGroups:
    def test_group_sums_match_the_per_edge_formula_within_4_ulp(self):
        """A group takes one exp per child, shifts by the group max and adds
        each member's terms in one matrix product per column, so a member's
        log p is its own per-edge log-sum-exp up to rounding: -inf exactly
        where that is, whatever order it lists the shared children in and
        where some or all of them are -inf, and elsewhere within 4 ulp of
        max(|log p|, 1).  The shift and the log of the summed terms add at that
        scale, so one ulp of the sum is 1.7e-16 in log p wherever |log p| < 1:
        6 ulp of log p itself at -0.239 on the chain HCLT.  The largest gap
        seen over these cases is 2 ulp of that scale."""
        cases = [(c, p, batch_for(c, 10, 2)) for c, p in dag_zoo(6, families=ALL_FAMILIES)] + _wide_groups()
        chain, chain_params = chain_hclt()
        cases += [(*indicator_groups_dag(), INDICATOR_ROWS), (chain, chain_params, batch_for(chain, 3, 1))]
        reordered = dead = 0
        for circuit, params, batch in cases:
            lp = forward(circuit, params, batch).log_p.T
            weights = params.sum_weights
            for n in circuit.sum_nodes:
                want = per_edge_sum_log_p(lp, weights[n], circuit.nodes[n].children)
                np.testing.assert_array_equal(np.isneginf(lp[n]), np.isneginf(want))
                live = np.isfinite(want)
                gap = np.abs(lp[n][live] - want[live]) / np.spacing(np.maximum(np.abs(want[live]), 1.0))
                assert (gap <= 4).all(), f"sum node {n}: {gap.max()} ulp"
            for b in [b for sums, _ in circuit.level_edges for b in sums if b.g > 1]:
                for members, kids in zip(b.members, b.groups(b.children)):
                    reordered += len({circuit.nodes[p].children for p in members.tolist()}) > 1
                    dead += int(np.isneginf(lp[kids]).all(axis=0).sum())
        assert reordered >= 6 and dead > 0


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
