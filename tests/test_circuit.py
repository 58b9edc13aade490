import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_sharp import (
    Circuit,
    ParamSet,
    deserialize,
    leaf_node,
    product_node,
    serialize,
    sum_node,
    validate,
)
from circuit_sharp.circuit import Scatter, Segments
from circuit_sharp.structure import build_layered_dag
from circuit_sharp.errors import CyclicGraph, InvalidParameters, MalformedFile, NotATree

from oracles import (
    PathPair,
    ProductPair,
    SumEdge,
    SumPair,
    classify_pair,
    dfs_tree_blocks,
    dfs_tree_index,
    edge_index,
    kahn_levels,
    min_sum_depth,
    node_scopes,
    parent_lists,
    sum_edge,
)
from zoo import batch_for, chain_hclt, dag_zoo, indicator_groups_dag, random_dag, random_tree, shared_child_dag, tree_zoo


class TestValidate:
    def test_minimal_smooth_pc(self):
        nodes = [leaf_node(0, "bern", [0.4]), leaf_node(0, "bern", [0.6]), sum_node(0, 1)]
        assert validate(Circuit.build(nodes, 2)).ok

    def test_product_scope_overlap_reported(self):
        nodes = [leaf_node(0, "bern", [0.4]), leaf_node(0, "bern", [0.6]), product_node(0, 1)]
        report = validate(Circuit.build(nodes, 2))
        assert [v.kind for v in report.violations] == ["non-decomposable"]
        assert report.violations[0].message == "children 0 and 1 share variable 0"

    def test_non_smooth_sum_reported(self):
        nodes = [leaf_node(0, "bern", [0.4]), leaf_node(1, "bern", [0.6]), sum_node(0, 1)]
        report = validate(Circuit.build(nodes, 2))
        assert [v.kind for v in report.violations] == ["non-smooth"]
        assert report.violations[0].message.startswith("child 1 scope (1,)")

    def test_orphan_node_reported(self):
        nodes = [
            leaf_node(0, "bern", [0.4]),
            leaf_node(0, "bern", [0.6]),
            sum_node(0, 1),
            leaf_node(0, "bern", [0.5]),  # unreachable
        ]
        report = validate(Circuit.build(nodes, 2))
        assert any(v.kind == "multiple-roots" for v in report.violations)

    def test_alternation_reported(self):
        nodes = [
            leaf_node(0, "bern", [0.4]),
            leaf_node(0, "bern", [0.6]),
            sum_node(0, 1),
            leaf_node(0, "bern", [0.5]),
            sum_node(2, 3),  # sum child of sum
        ]
        report = validate(Circuit.build(nodes, 4))
        assert any(v.kind == "non-alternating" for v in report.violations)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_validate(self, seed):
        for maker in (random_tree, random_dag):
            circuit, _ = maker(seed)
            assert validate(circuit).ok

    def test_smooth_and_decomposable_definitions(self):
        circuit, _ = random_tree(7)
        assert validate(circuit).ok
        scope = node_scopes(circuit)
        assert scope[circuit.root] == circuit.root_scope
        for i, node in enumerate(circuit.nodes):
            if node.kind == "sum":
                scopes = {scope[c] for c in node.children}
                assert len(scopes) == 1
            elif node.kind == "product":
                seen = set()
                for c in node.children:
                    cs = set(scope[c])
                    assert not (seen & cs)
                    seen |= cs


class TestBuild:
    def test_cycle_raises(self):
        nodes = [
            leaf_node(0, "bern", [0.5]),
            sum_node(2, 0),
            sum_node(1, 0),
        ]
        with pytest.raises(CyclicGraph):
            Circuit.build(nodes, 1)

    def test_sum_needs_children(self):
        with pytest.raises(ValueError):
            sum_node()

    @pytest.mark.parametrize(
        "family,params", [("gauss", [np.nan, 1.0]), ("gauss", [0.0, np.inf]), ("cat", [np.nan, 0.5, 0.5])]
    )
    def test_non_finite_leaf_spec_raises(self, family, params):
        with pytest.raises(ValueError):
            leaf_node(0, family, params)

    def test_leaf_scope_is_its_variable(self):
        nodes = [leaf_node(3, "gauss", [0.0, 1.0])]
        circuit = Circuit.build(nodes, 0)
        assert node_scopes(circuit)[0] == (3,)
        assert circuit.root_scope == (3,)

    def test_edge_layers_count_sum_ancestors(self, path_chain):
        circuit, _ = path_chain
        root_edges = [i for i in range(circuit.num_sum_edges) if circuit.sum_edge_owner[i] == 8]
        inner_edges = [i for i in range(circuit.num_sum_edges) if circuit.sum_edge_owner[i] == 2]
        assert all(circuit.edge_layer[i] == 0 for i in root_edges)
        assert all(circuit.edge_layer[i] == 1 for i in inner_edges)


class TestClassifyPair:
    def test_same_node_is_sum_pair(self, indicator_mixture):
        circuit, _ = indicator_mixture
        assert isinstance(classify_pair(circuit, SumEdge(2, 0), SumEdge(2, 1)), SumPair)

    def test_root_product_gives_product_pair_without_weight(self, product_of_sums):
        circuit, _ = product_of_sums
        cls = classify_pair(circuit, SumEdge(4, 0), SumEdge(5, 1))
        assert isinstance(cls, ProductPair)
        assert cls.ancestor == 6
        assert cls.weight_above is None

    def test_nested_edges_are_path_pair(self, path_chain):
        circuit, _ = path_chain
        cls = classify_pair(circuit, SumEdge(8, 0), SumEdge(2, 1))
        assert isinstance(cls, PathPair)
        assert cls.deeper == SumEdge(2, 1)
        assert cls.shallower == SumEdge(8, 0)

    def test_requires_tree(self):
        circuit, _ = random_dag(11)
        e0, e1 = sum_edge(circuit, 0), sum_edge(circuit, 1)
        with pytest.raises(NotATree):
            classify_pair(circuit, e0, e1)

    def test_distinct_edges_required(self, indicator_mixture):
        circuit, _ = indicator_mixture
        with pytest.raises(ValueError):
            classify_pair(circuit, SumEdge(2, 0), SumEdge(2, 0))

    @pytest.mark.parametrize("seed", [3, 4, 5, 8])
    def test_exhaustive_exclusive_and_symmetric(self, seed):
        circuit, _ = random_tree(seed, max_depth=3)
        if circuit.num_sum_edges > 30:
            circuit, _ = random_tree(seed, max_depth=2)
        e = circuit.num_sum_edges
        for i in range(e):
            for j in range(e):
                if i == j:
                    continue
                a = classify_pair(circuit, sum_edge(circuit, i), sum_edge(circuit, j))
                b = classify_pair(circuit, sum_edge(circuit, j), sum_edge(circuit, i))
                assert isinstance(a, (SumPair, ProductPair, PathPair))
                if isinstance(a, SumPair):
                    assert isinstance(b, SumPair)
                elif isinstance(a, ProductPair):
                    assert isinstance(b, ProductPair) and b.ancestor == a.ancestor
                else:
                    assert isinstance(b, PathPair)
                    assert (b.deeper, b.shallower) == (a.deeper, a.shallower)


class TestSerialization:
    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_structure_and_params(self, seed):
        circuit, params = random_tree(seed, families=("binary", "continuous", "cat3"))
        blob = serialize(circuit, params)
        c2, p2 = deserialize(blob)
        assert c2.num_nodes == circuit.num_nodes
        assert c2.root == circuit.root
        for a, b in zip(circuit.nodes, c2.nodes):
            assert a.kind == b.kind and a.children == b.children
        assert c2.root_scope == circuit.root_scope
        for n in circuit.sum_nodes:
            assert np.array_equal(params.sum_weights[n], p2.sum_weights[n])
        for i in params.leaf_params:
            assert np.array_equal(params.leaf_params[i], p2.leaf_params[i])

    def test_dag_round_trip(self):
        circuit, params = random_dag(21)
        c2, p2 = deserialize(serialize(circuit, params))
        batch = batch_for(circuit, 4, 0)
        from circuit_sharp import forward

        np.testing.assert_array_equal(
            forward(circuit, params, batch).log_p, forward(c2, p2, batch).log_p
        )

    def test_cycle_in_file_raises(self):
        text = "pc v1 3 1\n0 L 0 bern 0.5\n1 S 2 0\n2 S 1 0\nw 1 0.5 0.5\nw 2 0.5 0.5\n"
        with pytest.raises(CyclicGraph):
            deserialize(text.encode())

    def test_empty_file_raises(self):
        with pytest.raises(MalformedFile):
            deserialize(b"")

    def test_bad_token_reports_line(self):
        mixture = "pc v1 3 2\n0 L 0 bern 0.5\n1 L 0 bern 0.5\n2 S 0 1\nw 2 0.5 0.5\n"
        cases = [
            ("pc v1 1 0\n0 L 0 bern oops\n", 2),
            (mixture + "w 2 0.9 0.1\n", 6),  # a second weight line for node 2
            (mixture + "w 7 1.0\n", 6),  # no node 7
            (mixture + "w 0 1.0\n", 6),  # node 0 is a leaf
        ]
        for text, line in cases:
            with pytest.raises(MalformedFile) as err:
                deserialize(text.encode())
            assert err.value.line == line

    def test_missing_weights_raises(self):
        text = "pc v1 3 2\n0 L 0 bern 0.5\n1 L 0 bern 0.5\n2 S 0 1\n"
        with pytest.raises(MalformedFile):
            deserialize(text.encode())


class TestParamSet:
    def test_simplex_check(self, indicator_mixture):
        circuit, params = indicator_mixture
        params.check(circuit)
        params.set_edge_vector(circuit, np.array([0.7, 0.4]))
        with pytest.raises(ValueError):
            params.check(circuit)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("theta", [np.nan, 0.5]),
            ("theta", [-0.5, 1.5]),
            ("bern", [np.nan, 0.8]),
            ("bern", [0.3, 0.8, 0.5]),
            ("gauss", [[0.0, np.inf]]),
            ("gauss", [[np.nan, 1.0]]),
            ("cat", [np.nan, 0.5, 0.5]),
            ("cat", [-0.5, 0.5, 1.0]),
        ],
    )
    def test_check_rejects_non_finite_and_out_of_domain(self, field, value):
        nodes = [
            leaf_node(0, "bern", [0.3]),
            leaf_node(0, "bern", [0.8]),
            sum_node(0, 1),
            leaf_node(1, "gauss", [0.0, 1.0]),
            leaf_node(2, "cat", [0.2, 0.3, 0.5]),
            product_node(2, 3, 4),
        ]
        circuit = Circuit.build(nodes, 5)
        params = ParamSet.uniform(circuit)
        params.check(circuit)
        setattr(params, field, np.array(value, dtype=float))
        with pytest.raises(InvalidParameters):
            params.check(circuit)

    def test_node_views_are_read_only_slices(self):
        circuit, params = random_tree(32, families=("binary", "continuous", "cat3"))
        for w in [*params.sum_weights.values(), *params.leaf_params.values()]:
            with pytest.raises(ValueError):
                w[0] = 0.5
        assert list(params.leaf_params) == [i for i, nd in enumerate(circuit.nodes) if nd.kind == "leaf"]
        np.testing.assert_array_equal(
            np.concatenate(list(params.sum_weights.values())), params.edge_vector(circuit)
        )

    def test_edge_vector_round_trip(self):
        circuit, params = random_tree(31)
        vec = params.edge_vector(circuit)
        params.set_edge_vector(circuit, vec * 1.0)
        np.testing.assert_array_equal(params.edge_vector(circuit), vec)


class TestSegments:
    def test_primitives_match_per_run_loops(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 12, size=40)
        seg = Segments(lengths)
        x = rng.uniform(0.1, 2.0, size=lengths.sum())
        z = rng.normal(scale=30.0, size=lengths.sum())
        runs = np.split(np.arange(lengths.sum()), np.cumsum(lengths)[:-1])
        np.testing.assert_allclose(seg.sum(x), [x[r].sum() for r in runs], rtol=1e-14)
        np.testing.assert_allclose(seg.norm(x), [np.linalg.norm(x[r]) for r in runs], rtol=1e-14)
        np.testing.assert_allclose(seg.normalize(x), np.concatenate([x[r] / x[r].sum() for r in runs]), rtol=1e-14)

        def floored_softmax(v):
            w = np.exp(v - v.max())
            w = np.maximum(w / w.sum(), 1e-12)
            return w / w.sum()

        want = np.concatenate([floored_softmax(z[r]) for r in runs])
        np.testing.assert_allclose(seg.softmax(z), want, rtol=1e-14)
        assert seg.softmax(z).min() > 0.0


class TestScatter:
    @pytest.mark.parametrize("width", [1, 5, 56])
    def test_add_into_equals_a_per_edge_loop(self, width):
        """Each child's edge rows added from the left in edge order, then
        into the child's row: distinct children (tree stacks) add directly,
        repeated ones (shared children in DAGs) through the CSR matrix;
        rows that no edge names stay as they were."""
        rng = np.random.default_rng(width)
        distinct = rng.permutation(40)[:25]
        repeated = rng.integers(0, 12, size=60)
        repeated[:3] = 5  # one child of three edges in a row
        for child, csr in ((distinct, False), (repeated, True)):
            scatter = Scatter(child)
            assert (scatter.matrix is not None) == csr
            dst = rng.standard_normal((45, width))
            src = rng.standard_normal((child.size, width))
            total = {}
            for e, c in enumerate(child.tolist()):
                total[c] = total[c] + src[e] if c in total else src[e].copy()
            want, before = dst.copy(), dst.copy()
            for c, rows in total.items():
                want[c] = want[c] + rows
            scatter.add_into(dst, src)
            np.testing.assert_array_equal(dst, want)
            untouched = np.setdiff1d(np.arange(45), child)
            assert untouched.size > 0 and np.array_equal(dst[untouched], before[untouched])


def _random_tree_hclt():
    """A 100-variable HCLT over a random spanning tree: 5 of its 20 level
    groups mix parents of two fan-ins."""
    from circuit_sharp.structure import HcltConfig, build_hclt

    rng = np.random.default_rng(0)
    return build_hclt([(int(rng.integers(i)), i) for i in range(1, 100)], HcltConfig(num_latents=2))


class TestLevelBuckets:
    def test_buckets_have_one_fan_in_and_cover_each_level_once(self):
        cases = tree_zoo(8) + dag_zoo(8) + [shared_child_dag(), _random_tree_hclt()]
        mixed = 0
        for circuit, _ in cases:
            levels = {}  # leaves 0, else one above the highest child
            for v in circuit.topo_order.tolist():
                kids = circuit.nodes[v].children
                levels[v] = 1 + max(levels[c] for c in kids) if kids else 0
            internal = sorted({lv for v, lv in levels.items() if circuit.nodes[v].children})
            assert len(circuit.level_edges) == len(internal)  # the tile width reads it
            for lv, buckets in zip(internal, circuit.level_edges):
                mixed += any(len(kind) > 1 for kind in buckets)
                for kind, bucket_list in zip(("sum", "product"), buckets):
                    at_level = sorted(v for v, l in levels.items() if l == lv and circuit.kind(v) == kind)
                    assert sorted(p for b in bucket_list for p in b.parents.tolist()) == at_level
                    assert len({(b.g, b.k) for b in bucket_list}) == len(bucket_list)  # one stack per shape
                    for b in bucket_list:
                        fan_in = [len(circuit.nodes[p].children) for p in b.parents.tolist()]
                        assert fan_in == [b.k] * b.parents.size
                        children = [c for p in b.parents.tolist() for c in circuit.nodes[p].children]
                        np.testing.assert_array_equal(b.child, children)
                    if kind == "sum":  # the global sum edges of the level, each once
                        edges = [e for b in bucket_list for e in np.arange(circuit.num_sum_edges)[b.index].tolist()]
                        want = [edge_index(circuit, SumEdge(p, s)) for p in at_level
                                for s in range(len(circuit.nodes[p].children))]
                        assert sorted(edges) == want
                        for b in bucket_list:
                            np.testing.assert_array_equal(circuit.sum_edge_owner[b.index], np.repeat(b.parents, b.k))
        assert mixed >= 5

    def test_sum_stacks_group_the_parents_that_share_children(self):
        from zoo import indicator_groups_dag

        cases = tree_zoo(4) + dag_zoo(8) + [shared_child_dag(), indicator_groups_dag(), _random_tree_hclt()]
        cases.append(build_layered_dag(5, 6, seed=7))  # groups whose members interleave in node order
        grouped = 0
        for circuit, _ in cases:
            edges = np.arange(circuit.num_sum_edges)
            single = edges[circuit.single_edges]
            for sums, _ in circuit.level_edges:
                lists = {}  # sorted child list -> the level's parents that hold it
                for p in [p for b in sums for p in b.parents.tolist()]:
                    lists.setdefault(tuple(sorted(circuit.nodes[p].children)), []).append(p)
                for b in sums:
                    if b.g == 1:  # a fan-in bucket of parents whose child lists are their own
                        np.testing.assert_array_equal(b.children, b.child)
                        np.testing.assert_array_equal(single[b.rows], edges[b.index])
                        assert all(len(lists[tuple(sorted(circuit.nodes[p].children))]) == 1 for p in b.parents)
                        continue
                    grouped += 1
                    np.testing.assert_array_equal(np.sort(b.members, axis=None), b.parents)
                    for members, kids, rows in zip(b.members, b.groups(b.children), b.edges):
                        assert lists[tuple(kids.tolist())] == members.tolist()  # the whole group, sorted children
                        np.testing.assert_array_equal(circuit.sum_edge_owner[rows], np.repeat(members[:, None], b.k, axis=1))
                        np.testing.assert_array_equal(circuit.sum_edge_child[rows], np.tile(kids, (b.g, 1)))
            assert sorted(single.tolist()) == single.tolist()
        assert grouped >= 8


def _deep_chain(depth: int = 1500) -> Circuit:
    """A root-to-leaf chain of depth sum-over-product pairs."""
    nodes = [leaf_node(0, "bern", [0.5])]
    for _ in range(depth):
        nodes.append(sum_node(len(nodes) - 1))
        nodes.append(product_node(len(nodes) - 1))
    return Circuit.build(nodes, len(nodes) - 1)


FAR = np.iinfo(np.int64).max


class TestIndexReferences:
    """Every index that build and tree_index derive by array sweeps, field
    by field against the walks in oracles: Kahn's order with the level max,
    the sum depth as a min over the reversed order, and the iterative DFS,
    whose product-pair and path-pair blocks are listed pair by pair."""

    @staticmethod
    def _cases():
        from circuit_sharp.structure import RatConfig, build_rat

        circuits = [c for c, _ in tree_zoo(10) + dag_zoo(10)]
        circuits += [shared_child_dag()[0], indicator_groups_dag()[0], _random_tree_hclt()[0]]
        return circuits + [chain_hclt()[0], _deep_chain(), build_rat(RatConfig(num_vars=2, depth=1, seed=1))[0]]

    def test_indexes_match_the_reference_walks(self):
        trees = 0
        for circuit in self._cases():
            topo, levels = kahn_levels(circuit.nodes)
            got = np.zeros(circuit.num_nodes, dtype=np.int64)  # every level from 1 up holds a parent
            for lv, (sums, prods) in enumerate(circuit.level_edges, start=1):
                for b in sums + prods:
                    got[b.parents] = lv
            np.testing.assert_array_equal(got, levels)
            np.testing.assert_array_equal(circuit.topo_order, np.argsort(levels, kind="stable"))
            parents = parent_lists(circuit)
            np.testing.assert_array_equal(circuit.in_degree, [len(p) for p in parents])
            assert circuit.is_tree == all(len(p) == (c != circuit.root) for c, p in enumerate(parents))
            np.testing.assert_array_equal(circuit.edge_layer, min_sum_depth(circuit)[circuit.sum_edge_owner])
            assert circuit.root_scope == node_scopes(circuit)[circuit.root]
            if circuit.is_tree:
                trees += 1
                tree, (dfs_to_global, sub_hi, _, _) = circuit.tree_index(), dfs_tree_index(circuit)
                np.testing.assert_array_equal(tree.dfs_to_global, dfs_to_global)
                np.testing.assert_array_equal(tree.edge_sub_hi, sub_hi)
                for name, want in zip(("lo1", "hi1", "lo2", "hi2", "product"), dfs_tree_blocks(circuit)):
                    got = getattr(tree, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert trees == 12

    def test_edge_layer_takes_the_shorter_root_path(self):
        # X (2) sits one sum node below the root through P1 (5), two through
        # P2 (8), S (7) and Q (6)
        nodes = [
            leaf_node(0, "bern", [0.3]), leaf_node(0, "bern", [0.7]), sum_node(0, 1),  # 0-1, 2 X
            leaf_node(1, "bern", [0.4]), leaf_node(1, "bern", [0.6]),  # 3-4
            product_node(2, 3), product_node(2), sum_node(6), product_node(7, 4), sum_node(5, 8),  # 5 P1 .. 9 root
        ]
        circuit = Circuit.build(nodes, 9)
        assert validate(circuit).ok and not circuit.is_tree
        np.testing.assert_array_equal(circuit.sum_edge_owner, [2, 2, 7, 9, 9])
        np.testing.assert_array_equal(circuit.edge_layer, [1, 1, 1, 0, 0])
        np.testing.assert_array_equal(circuit.edge_layer, min_sum_depth(circuit)[circuit.sum_edge_owner])

    @pytest.mark.filterwarnings("error")  # the unreached depths saturate, with no overflow
    def test_unreachable_nodes_leave_the_root_scope(self):
        nodes = [
            leaf_node(0, "bern", [0.4]), leaf_node(0, "bern", [0.6]), sum_node(0, 1),  # 2 root
            leaf_node(5, "bern", [0.5]), leaf_node(5, "bern", [0.2]), sum_node(3, 4),  # 5 unreachable
            product_node(5), sum_node(6, 6), sum_node(0, 1),  # 6-8 unreachable, 8 over the root's leaves
        ]
        circuit = Circuit.build(nodes, 2)
        assert circuit.root_scope == (0,)
        np.testing.assert_array_equal(circuit.sum_edge_owner, [2, 2, 5, 5, 7, 7, 8, 8])
        np.testing.assert_array_equal(circuit.edge_layer, [0, 0] + [FAR] * 6)
        assert [v.node for v in validate(circuit).violations] == [7, 8]  # the nodes with no parent

    @pytest.mark.parametrize(
        "nodes,root",
        [
            ([leaf_node(0, "bern", [0.5]), sum_node(1, 0)], 1),  # a self-loop
            ([leaf_node(0, "bern", [0.5]), sum_node(0), sum_node(3, 0), product_node(2)], 1),  # 2-cycle beside the root
        ],
        ids=["self-loop", "two-cycle"],
    )
    def test_cycles_raise(self, nodes, root):
        with pytest.raises(CyclicGraph):
            Circuit.build(nodes, root)

    @pytest.mark.parametrize("bad", [7, -1, 2**70])
    def test_out_of_range_child_names_the_first_node(self, bad):
        nodes = [leaf_node(0, "bern", [0.5]), sum_node(0), sum_node(0, bad), sum_node(9), sum_node(1, 2)]
        with pytest.raises(ValueError, match=f"^node 2 has out-of-range child {bad}$"):
            Circuit.build(nodes, 4)


class TestTreeIndex:
    def test_deep_chain_indexes_without_touching_recursion_limit(self):
        circuit = _deep_chain()
        limit = sys.getrecursionlimit()
        tree = circuit.tree_index()
        assert sys.getrecursionlimit() == limit
        e = circuit.num_sum_edges
        # root-first DFS of a chain: each edge's subtree holds every deeper edge
        np.testing.assert_array_equal(tree.dfs_to_global, np.arange(e)[::-1])
        np.testing.assert_array_equal(tree.edge_sub_hi, np.full(e, e))
