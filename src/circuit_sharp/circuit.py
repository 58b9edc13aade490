"""Circuit graph: nodes, structural validation, edge indexing, serialization.

A circuit is an immutable DAG of sum / product / leaf nodes.  Node storage is
index based with a separate parent adjacency list so the backward pass can
accumulate edge flows in O(1) per edge.  Sum edges are globally indexed by
(owning node id, child slot) in sorted order; that order is stable across
serialization round-trips and is the coordinate system for gradients,
Hessians and traces.  The edges of one sum node form a contiguous run of that
order, and :class:`Segments` holds the vectorized per-run operations that
both sum weights and categorical leaves use.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .errors import CyclicGraph, InvalidParameters, MalformedFile, NotATree

SUM = "sum"
PRODUCT = "product"
LEAF = "leaf"

FAMILIES = ("bern", "cat", "gauss")


@dataclass(frozen=True)
class LeafSpec:
    """Univariate input distribution attached to a leaf node.

    families: bern (params = [p]), cat (params = probabilities over k values),
    gauss (params = [mean, stddev]).
    """

    variable: int
    family: str
    params: tuple[float, ...]

    def check(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown leaf family {self.family!r}")
        p = np.asarray(self.params, dtype=float)
        if not np.all(np.isfinite(p)):
            raise ValueError(f"{self.family} parameters must be finite, got {p}")
        if self.family == "bern":
            if p.shape != (1,) or not (0.0 <= p[0] <= 1.0):
                raise ValueError(f"Bernoulli parameter must lie in [0, 1], got {p}")
        elif self.family == "cat":
            if p.ndim != 1 or p.size < 2 or np.any(p < 0):
                raise ValueError("categorical needs >= 2 nonnegative probabilities")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"categorical probabilities sum to {p.sum()}, not 1")
        else:
            if p.shape != (2,) or p[1] <= 0:
                raise ValueError("Gaussian needs (mean, stddev) with stddev > 0")


@dataclass(frozen=True)
class Node:
    kind: str
    children: tuple[int, ...] = ()
    leaf: LeafSpec | None = None
    scope: tuple[int, ...] = ()  # filled in by Circuit.build

    def __post_init__(self):
        if self.kind == LEAF:
            if self.children:
                raise ValueError("leaf nodes have no children")
            if self.leaf is None:
                raise ValueError("leaf nodes need a LeafSpec")
        elif self.kind in (SUM, PRODUCT):
            if len(self.children) < 1:
                raise ValueError(f"{self.kind} node needs >= 1 child")
            if self.leaf is not None:
                raise ValueError("internal nodes carry no LeafSpec")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")


def sum_node(*children: int) -> Node:
    return Node(SUM, tuple(children))


def product_node(*children: int) -> Node:
    return Node(PRODUCT, tuple(children))


def leaf_node(variable: int, family: str, params) -> Node:
    spec = LeafSpec(variable, family, tuple(float(x) for x in np.atleast_1d(params)))
    spec.check()
    return Node(LEAF, (), spec, (variable,))


@dataclass(frozen=True)
class SumEdge:
    """Identity of a weighted edge: owning sum node and child slot."""

    node: int
    slot: int


class Segments:
    """Contiguous non-empty runs of a flat vector, such as the sum edges of
    each sum node or the probabilities of each categorical leaf.

    Run r covers [starts[r], starts[r] + lengths[r]); ids maps every element
    to its run.  The reductions run along the first axis.
    """

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.ids = np.repeat(np.arange(self.lengths.size), self.lengths)

    def sum(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x, self.starts, axis=0)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return x / self.sum(x)[self.ids]

    def norm(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(self.sum(x * x))

    def softmax(self, z: np.ndarray) -> np.ndarray:
        """Per-run softmax, floored at 1e-12 so every entry stays in (0, 1]."""
        w = np.exp(z - np.maximum.reduceat(z, self.starts)[self.ids])
        return self.normalize(np.maximum(self.normalize(w), 1e-12))

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """Views of the runs of x."""
        return np.split(x, self.starts[1:])


def _read_only(x: np.ndarray) -> np.ndarray:
    x = x.view()
    x.flags.writeable = False
    return x


@dataclass
class _LevelEdges:
    """Edges bucketed by the level of their parent node (used by both passes).

    Sum edges within a level are contiguous runs per parent; sum_starts gives
    each run's offset and sum_parent_nodes the owning node, enabling reduceat
    segment reductions instead of scatter-adds.
    """

    sum_parent: np.ndarray
    sum_child: np.ndarray
    sum_edge: np.ndarray  # global sum-edge indices
    prod_parent: np.ndarray
    prod_child: np.ndarray
    sum_starts: np.ndarray
    sum_parent_nodes: np.ndarray


@dataclass
class _TreeIndex:
    """Precomputed root-path structure for tree circuits.

    Sum edges are re-enumerated in DFS order so that the edges below any node
    form a contiguous index range; ``dfs_to_global`` maps back to the global
    edge order.  ``edge_sub`` gives, per DFS edge, the [lo, hi) range of DFS
    edges strictly inside the child subtree; ``prod_blocks`` gives, per
    product node, the child-subtree ranges used to fill product-pair blocks.
    """

    parent: np.ndarray  # parent node id, -1 at root
    parent_slot: np.ndarray
    dfs_to_global: np.ndarray
    global_to_dfs: np.ndarray
    edge_sub_lo: np.ndarray
    edge_sub_hi: np.ndarray
    prod_nodes: list[int]
    prod_blocks: list[list[tuple[int, int]]]


class Circuit:
    """Validated-by-construction circuit graph with precomputed traversal order.

    Use :meth:`build`; the constructor is internal.
    """

    def __init__(self, nodes, root, topo, parents, levels):
        self.nodes: list[Node] = nodes
        self.root: int = root
        self.topo_order: np.ndarray = topo  # leaves first, root last
        self.parents: list[list[tuple[int, int]]] = parents
        self._levels = levels
        self.num_nodes = len(nodes)
        self._index_sum_edges()
        self._index_levels()
        self._index_leaves()
        self.is_tree = all(
            len(parents[n]) == (0 if n == root else 1) for n in range(self.num_nodes)
        )
        self._tree: _TreeIndex | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(nodes: list[Node], root: int) -> "Circuit":
        n = len(nodes)
        if not (0 <= root < n):
            raise ValueError(f"root id {root} out of range")
        parents: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, node in enumerate(nodes):
            for slot, c in enumerate(node.children):
                if not (0 <= c < n):
                    raise ValueError(f"node {i} has out-of-range child {c}")
                parents[c].append((i, slot))

        # Kahn's algorithm, children before parents; a shortfall means a cycle.
        remaining = [len(node.children) for node in nodes]
        queue = [i for i in range(n) if remaining[i] == 0]
        topo: list[int] = []
        while queue:
            v = queue.pop()
            topo.append(v)
            for p, _slot in parents[v]:
                remaining[p] -= 1
                if remaining[p] == 0:
                    queue.append(p)
        if len(topo) != n:
            raise CyclicGraph("circuit graph contains a cycle")

        scopes: list[tuple[int, ...]] = [()] * n
        levels = np.zeros(n, dtype=np.int64)
        for v in topo:
            node = nodes[v]
            if node.kind == LEAF:
                scopes[v] = (node.leaf.variable,)
            else:
                seen: set[int] = set()
                for c in node.children:
                    seen.update(scopes[c])
                scopes[v] = tuple(sorted(seen))
                levels[v] = 1 + max(levels[c] for c in node.children)
        nodes = [replace(node, scope=scopes[i]) for i, node in enumerate(nodes)]
        return Circuit(nodes, root, np.asarray(topo), parents, levels)

    # -- derived indexes ----------------------------------------------------

    def _index_sum_edges(self) -> None:
        self.sum_nodes = [i for i, node in enumerate(self.nodes) if node.kind == SUM]
        seg = self.sum_segments = Segments([len(self.nodes[n].children) for n in self.sum_nodes])
        self.num_sum_edges = int(seg.ids.size)
        self.sum_edge_owner = np.asarray(self.sum_nodes, dtype=np.int64)[seg.ids]
        self.sum_edge_slot = np.arange(self.num_sum_edges) - seg.starts[seg.ids]
        self.sum_edge_offset = dict(zip(self.sum_nodes, seg.starts.tolist()))  # node id -> first edge

        # Layer of an edge = number of sum nodes strictly between its owner
        # and the root, taking the minimum over root paths in a DAG.
        sdepth = np.full(self.num_nodes, np.iinfo(np.int64).max, dtype=np.int64)
        sdepth[self.root] = 0
        for v in self.topo_order[::-1]:
            if sdepth[v] == np.iinfo(np.int64).max:
                continue  # unreachable from the root
            bump = 1 if self.nodes[v].kind == SUM else 0
            for c in self.nodes[v].children:
                sdepth[c] = min(sdepth[c], sdepth[v] + bump)
        self.sum_depth = sdepth
        self.edge_layer = sdepth[self.sum_edge_owner]

    def _index_levels(self) -> None:
        # sum edges keep the global order, so each level's sum edges are the
        # runs of its sum nodes, back to back
        seg = self.sum_segments
        sum_nodes = np.asarray(self.sum_nodes, dtype=np.int64)
        node_level = self._levels[sum_nodes]
        edge_level = node_level[seg.ids]
        edge_child = np.array([c for n in self.sum_nodes for c in self.nodes[n].children], dtype=np.int64)
        prods = [(i, c) for i, nd in enumerate(self.nodes) if nd.kind == PRODUCT for c in nd.children]
        prod_parent, prod_child = np.array(prods, dtype=np.int64).reshape(-1, 2).T
        prod_level = self._levels[prod_parent]
        self.level_edges: list[tuple[int, _LevelEdges]] = []
        for lv in np.unique(np.concatenate([edge_level, prod_level])):
            edges = np.flatnonzero(edge_level == lv)
            runs = np.flatnonzero(node_level == lv)
            lengths = seg.lengths[runs]
            sel = prod_level == lv
            level = _LevelEdges(
                self.sum_edge_owner[edges], edge_child[edges], edges, prod_parent[sel], prod_child[sel],
                sum_starts=np.cumsum(lengths) - lengths,
                sum_parent_nodes=sum_nodes[runs],
            )
            self.level_edges.append((int(lv), level))

    def _index_leaves(self) -> None:
        leaves = [i for i, node in enumerate(self.nodes) if node.kind == LEAF]
        ids = {f: [i for i in leaves if self.nodes[i].leaf.family == f] for f in FAMILIES}
        spec = {f: [self.nodes[i].leaf for i in ids[f]] for f in FAMILIES}
        self._leaf_groups = {
            f: (np.array(ids[f], dtype=np.int64), np.array([s.variable for s in spec[f]], dtype=np.int64))
            for f in FAMILIES
        }
        self.cat_segments = Segments([len(s.params) for s in spec["cat"]])
        self._leaf_spec_params = (
            np.array([s.params for s in spec["bern"]], dtype=float).reshape(-1),
            np.array([s.params for s in spec["gauss"]], dtype=float).reshape(-1, 2),
            np.array([x for s in spec["cat"] for x in s.params], dtype=float),
        )

    def leaf_groups(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per family, the leaf node ids and their variables, in the order of
        ParamSet's leaf arrays."""
        return self._leaf_groups

    # -- tree structure ------------------------------------------------------

    def tree_index(self) -> _TreeIndex:
        if not self.is_tree:
            raise NotATree("circuit is not tree-structured")
        if self._tree is not None:
            return self._tree

        parent = np.full(self.num_nodes, -1, dtype=np.int64)
        pslot = np.full(self.num_nodes, -1, dtype=np.int64)
        E = self.num_sum_edges
        dfs_to_global = np.empty(E, dtype=np.int64)
        global_to_dfs = np.empty(E, dtype=np.int64)
        sub_lo = np.empty(E, dtype=np.int64)
        sub_hi = np.empty(E, dtype=np.int64)
        start = np.empty(self.num_nodes, dtype=np.int64)
        end = np.empty(self.num_nodes, dtype=np.int64)
        prod_nodes: list[int] = []
        prod_blocks: list[list[tuple[int, int]]] = []
        counter = 0

        # Iterative DFS assigning each sum edge its index right before
        # descending, so the edges inside any subtree form one contiguous DFS
        # range.  Stack entries: (node, global edge into it or -1, leaving).
        stack = [(self.root, -1, False)]
        while stack:
            v, g, leaving = stack.pop()
            node = self.nodes[v]
            if leaving:
                end[v] = counter
                if g >= 0:
                    sub_hi[global_to_dfs[g]] = counter
                if node.kind == PRODUCT:
                    prod_nodes.append(v)
                    prod_blocks.append([(int(start[c]), int(end[c])) for c in node.children])
                continue
            if g >= 0:
                dfs_to_global[counter] = g
                global_to_dfs[g] = counter
                sub_lo[counter] = counter + 1
                counter += 1
            start[v] = counter
            stack.append((v, g, True))
            base = self.sum_edge_offset[v] if node.kind == SUM else None
            for slot in reversed(range(len(node.children))):
                c = node.children[slot]
                parent[c], pslot[c] = v, slot
                stack.append((c, -1 if base is None else base + slot, False))

        self._tree = _TreeIndex(
            parent,
            pslot,
            dfs_to_global,
            global_to_dfs,
            sub_lo,
            sub_hi,
            prod_nodes,
            prod_blocks,
        )
        return self._tree

    # -- helpers -------------------------------------------------------------

    def kind(self, node: int) -> str:
        return self.nodes[node].kind

    def scope(self, node: int) -> tuple[int, ...]:
        return self.nodes[node].scope

    @property
    def root_scope(self) -> tuple[int, ...]:
        return self.nodes[self.root].scope

    def edge(self, idx: int) -> SumEdge:
        return SumEdge(int(self.sum_edge_owner[idx]), int(self.sum_edge_slot[idx]))

    def edge_index(self, edge: SumEdge) -> int:
        if edge.node not in self.sum_edge_offset:
            raise ValueError(f"node {edge.node} is not a sum node")
        nchild = len(self.nodes[edge.node].children)
        if not (0 <= edge.slot < nchild):
            raise ValueError(f"slot {edge.slot} out of range for node {edge.node}")
        return self.sum_edge_offset[edge.node] + edge.slot


@dataclass(eq=False)
class ParamSet:
    """All circuit parameters in one flat layout.

    theta holds every sum weight in global sum-edge order.  Leaf parameters
    are stored per family in the order of ``circuit.leaf_groups()``: bern[j]
    is a Bernoulli mean, gauss[j] a (mean, stddev) row, and cat the
    probabilities of all categorical leaves back to back, split into one run
    per leaf by ``circuit.cat_segments``.

    Weights live on the probability simplex during training; finite-difference
    probes may hold slightly off-simplex values, so nothing here renormalizes
    implicitly.
    """

    circuit: Circuit = field(repr=False)
    theta: np.ndarray
    bern: np.ndarray
    gauss: np.ndarray
    cat: np.ndarray

    @staticmethod
    def uniform(circuit: Circuit, rng: np.random.Generator | None = None) -> "ParamSet":
        """Uniform sum weights (seeded Dirichlet draws floored at 1e-3 when
        rng is given) and the leaf parameters of the circuit's LeafSpecs."""
        seg = circuit.sum_segments
        theta = 1.0 / seg.lengths[seg.ids]
        if rng is not None:
            for lo, k in zip(seg.starts, seg.lengths):
                d = np.maximum(rng.dirichlet(np.ones(k)), 1e-3)
                theta[lo : lo + k] = d / d.sum()
        return ParamSet(circuit, theta, *(a.copy() for a in circuit._leaf_spec_params))

    def copy(self) -> "ParamSet":
        arrays = (self.theta, self.bern, self.gauss, self.cat)
        return ParamSet(self.circuit, *(a.copy() for a in arrays))

    @property
    def sum_weights(self) -> Mapping[int, np.ndarray]:
        """Read-only views: sum node id -> its weights, a slice of theta.
        Built on each access, so take it once outside a loop over nodes."""
        c = self.circuit
        return MappingProxyType(dict(zip(c.sum_nodes, c.sum_segments.split(_read_only(self.theta)))))

    @property
    def leaf_params(self) -> Mapping[int, np.ndarray]:
        """Read-only views, in node order: leaf node id -> its parameters
        ([p], [mean, stddev] or categorical probabilities), a slice of the
        family arrays.  Built on each access like sum_weights."""
        c = self.circuit
        rows = {
            "bern": _read_only(self.bern)[:, None],
            "gauss": _read_only(self.gauss),
            "cat": c.cat_segments.split(_read_only(self.cat)),
        }
        views = [pair for f, r in rows.items() for pair in zip(c.leaf_groups()[f][0].tolist(), r)]
        return MappingProxyType(dict(sorted(views)))

    def edge_vector(self, circuit: Circuit) -> np.ndarray:
        """A copy of all sum weights in the global edge order."""
        return self.theta.copy()

    def set_edge_vector(self, circuit: Circuit, vec: np.ndarray) -> None:
        vec = np.array(vec, dtype=float)
        if vec.shape != (circuit.num_sum_edges,):
            raise ValueError(f"{vec.size} weights for {circuit.num_sum_edges} sum edges")
        self.theta = vec

    def check(self, circuit: Circuit, tol: float = 1e-10) -> None:
        """Raise InvalidParameters unless every sum node's weights lie in
        (0, 1] and sum to 1 within tol, and every leaf parameter is finite and
        inside its family's domain.  NaN fails every comparison below."""
        seg, cat_seg, groups = circuit.sum_segments, circuit.cat_segments, circuit.leaf_groups()
        shapes = {
            "theta": seg.ids.shape, "bern": groups["bern"][0].shape,
            "gauss": (groups["gauss"][0].size, 2), "cat": cat_seg.ids.shape,
        }
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise InvalidParameters(f"{name} has shape {getattr(self, name).shape}, not {shape}")
        theta, bern, (mean, sd), cat = self.theta, self.bern, self.gauss.T, self.cat
        rules = (
            (circuit.sum_nodes, "weights must lie in (0, 1] and sum to 1",
             np.logical_and.reduceat((theta > 0) & (theta <= 1), seg.starts)
             & (np.abs(seg.sum(theta) - 1.0) <= tol)),
            (groups["bern"][0], "Bernoulli mean must lie in [0, 1]", (bern >= 0) & (bern <= 1)),
            (groups["gauss"][0], "Gaussian needs a finite mean and stddev > 0",
             np.isfinite(mean) & np.isfinite(sd) & (sd > 0)),
            (groups["cat"][0], "categorical probabilities must be >= 0 and sum to 1",
             np.logical_and.reduceat(cat >= 0, cat_seg.starts) & (np.abs(cat_seg.sum(cat) - 1.0) <= 1e-12)),
        )
        for ids, rule, ok in rules:
            if not ok.all():
                node = int(ids[np.argmin(ok)])
                values = (self.sum_weights if circuit.kind(node) == SUM else self.leaf_params)[node]
                raise InvalidParameters(f"node {node}: {rule}, got {values}")


# -- structural validation ----------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # non-smooth | non-decomposable | multiple-roots | non-alternating | root-has-parent
    node: int
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid smooth decomposable circuit"
        return "\n".join(f"[{v.kind}] node {v.node}: {v.message}" for v in self.violations)


def validate(circuit: Circuit) -> ValidationReport:
    """Check smoothness, decomposability, alternation and rootedness.

    An empty report means the circuit is a valid smooth, decomposable PC with
    alternating sum/product layers and a single root.
    """
    out = ValidationReport()
    for i, node in enumerate(circuit.nodes):
        if node.kind == SUM:
            ref = circuit.scope(node.children[0])
            for c in node.children[1:]:
                if circuit.scope(c) != ref:
                    out.violations.append(
                        Violation("non-smooth", i, f"child {c} scope {circuit.scope(c)} != {ref}")
                    )
            for c in node.children:
                if circuit.kind(c) == SUM:
                    out.violations.append(Violation("non-alternating", i, f"sum child {c} of sum"))
        elif node.kind == PRODUCT:
            seen: dict[int, int] = {}  # variable -> first child slot claiming it
            for slot, c in enumerate(node.children):
                for v in circuit.scope(c):
                    if v in seen and seen[v] != slot:
                        out.violations.append(
                            Violation(
                                "non-decomposable",
                                i,
                                f"children {node.children[seen[v]]} and {c} share variable {v}",
                            )
                        )
                    else:
                        seen[v] = slot
            for c in node.children:
                if circuit.kind(c) == PRODUCT:
                    out.violations.append(
                        Violation("non-alternating", i, f"product child {c} of product")
                    )
    for i in range(circuit.num_nodes):
        if i != circuit.root and not circuit.parents[i]:
            out.violations.append(Violation("multiple-roots", i, "non-root node has no parent"))
    if circuit.parents[circuit.root]:
        out.violations.append(Violation("root-has-parent", circuit.root, "root has a parent"))
    return out


# -- edge-pair classification (tree circuits) ---------------------------------


@dataclass(frozen=True)
class SumPair:
    pass


@dataclass(frozen=True)
class ProductPair:
    ancestor: int
    weight_above: SumEdge | None  # absent when the product node is the root


@dataclass(frozen=True)
class PathPair:
    deeper: SumEdge
    shallower: SumEdge


PairClass = SumPair | ProductPair | PathPair


def classify_pair(circuit: Circuit, e1: SumEdge, e2: SumEdge) -> PairClass:
    """Classify two distinct sum edges of a tree circuit.

    SumPair when the deepest common ancestor of the owning sum nodes is a sum
    node, ProductPair when it is a product node, PathPair when one edge lies on
    the unique root path of the other.
    """
    if not circuit.is_tree:
        raise NotATree("pair classification requires a tree circuit")
    if e1 == e2:
        raise ValueError("edges must be distinct")
    for e in (e1, e2):
        circuit.edge_index(e)  # validates node/slot
    tree = circuit.tree_index()

    if e1.node == e2.node:
        return SumPair()

    c1 = circuit.nodes[e1.node].children[e1.slot]
    c2 = circuit.nodes[e2.node].children[e2.slot]

    # Root path of e1's owner, with the child through which it descends.
    on_path: dict[int, int | None] = {}
    v: int = e1.node
    below: int | None = None
    while v != -1:
        on_path[v] = below
        below = v
        v = int(tree.parent[v])

    v = e2.node
    prev: int | None = None
    while v not in on_path:
        prev = v
        v = int(tree.parent[v])
    anc = v
    down1 = on_path[anc]  # next node toward e1.node (None if anc == e1.node)
    down2 = prev  # next node toward e2.node (None if anc == e2.node)

    if anc == e1.node and down2 is not None:
        return PathPair(deeper=e2, shallower=e1) if down2 == c1 else SumPair()
    if anc == e2.node and down1 is not None:
        return PathPair(deeper=e1, shallower=e2) if down1 == c2 else SumPair()
    if circuit.kind(anc) == SUM:
        return SumPair()
    p = int(tree.parent[anc])
    above = None
    if p != -1 and circuit.kind(p) == SUM:
        above = SumEdge(p, int(tree.parent_slot[anc]))
    return ProductPair(ancestor=anc, weight_above=above)


# -- serialization -------------------------------------------------------------


def serialize(circuit: Circuit, params: ParamSet) -> bytes:
    """Line-oriented text format; floats at full precision (repr round-trip)."""
    lines = [f"pc v1 {circuit.num_nodes} {circuit.root}"]
    leaf_params, sum_weights = params.leaf_params, params.sum_weights
    for i, node in enumerate(circuit.nodes):
        if node.kind == SUM:
            lines.append(f"{i} S " + " ".join(map(str, node.children)))
        elif node.kind == PRODUCT:
            lines.append(f"{i} P " + " ".join(map(str, node.children)))
        else:
            p = leaf_params[i]
            if node.leaf.family == "bern":
                lines.append(f"{i} L {node.leaf.variable} bern {float(p[0])!r}")
            elif node.leaf.family == "cat":
                vals = " ".join(repr(float(x)) for x in p)
                lines.append(f"{i} L {node.leaf.variable} cat {len(p)} {vals}")
            else:
                lines.append(f"{i} L {node.leaf.variable} gauss {float(p[0])!r} {float(p[1])!r}")
    for n in circuit.sum_nodes:
        lines.append(f"w {n} " + " ".join(repr(float(x)) for x in sum_weights[n]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def deserialize(data: bytes) -> tuple[Circuit, ParamSet]:
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else str(data)
    rows = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines()) if line.strip()]
    if not rows:
        raise MalformedFile("empty circuit file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "pc" or parts[1] != "v1":
        raise MalformedFile(f"bad header {header!r}", lineno)
    try:
        num_nodes, root = int(parts[2]), int(parts[3])
    except ValueError:
        raise MalformedFile(f"bad header counts in {header!r}", lineno) from None

    nodes: list[Node | None] = [None] * num_nodes
    weights: dict[int, np.ndarray] = {}
    for lineno, line in rows[1:]:
        tok = line.split()
        try:
            if tok[0] == "w":
                weights[int(tok[1])] = np.array([float(x) for x in tok[2:]])
                continue
            nid = int(tok[0])
            if not (0 <= nid < num_nodes):
                raise MalformedFile(f"node id {nid} out of range", lineno)
            if nodes[nid] is not None:
                raise MalformedFile(f"duplicate node id {nid}", lineno)
            tag = tok[1]
            if tag == "S":
                nodes[nid] = sum_node(*(int(x) for x in tok[2:]))
            elif tag == "P":
                nodes[nid] = product_node(*(int(x) for x in tok[2:]))
            elif tag == "L":
                var, fam = int(tok[2]), tok[3]
                if fam == "bern":
                    nodes[nid] = leaf_node(var, "bern", [float(tok[4])])
                elif fam == "cat":
                    k = int(tok[4])
                    probs = [float(x) for x in tok[5 : 5 + k]]
                    if len(probs) != k:
                        raise MalformedFile(f"categorical wants {k} probabilities", lineno)
                    nodes[nid] = leaf_node(var, "cat", probs)
                elif fam == "gauss":
                    nodes[nid] = leaf_node(var, "gauss", [float(tok[4]), float(tok[5])])
                else:
                    raise MalformedFile(f"unknown leaf family {fam!r}", lineno)
            else:
                raise MalformedFile(f"unknown node tag {tag!r}", lineno)
        except MalformedFile:
            raise
        except (ValueError, IndexError) as exc:
            raise MalformedFile(f"cannot parse {line!r} ({exc})", lineno) from None

    missing = [i for i, n in enumerate(nodes) if n is None]
    if missing:
        raise MalformedFile(f"missing node definitions for ids {missing[:5]}")
    circuit = Circuit.build(nodes, root)  # raises CyclicGraph on cycles

    for n in circuit.sum_nodes:
        if n not in weights:
            raise MalformedFile(f"missing weights for sum node {n}")
        if len(weights[n]) != len(circuit.nodes[n].children):
            raise MalformedFile(f"weight count mismatch for sum node {n}")
    params = ParamSet.uniform(circuit)
    params.set_edge_vector(circuit, np.concatenate([np.zeros(0)] + [weights[n] for n in circuit.sum_nodes]))
    return circuit, params
