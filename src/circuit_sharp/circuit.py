"""Circuit graph: nodes, structural validation, edge indexing, serialization.

A circuit is an immutable DAG of sum / product / leaf nodes, stored by index.
Its indexes come from one fan-in per node and one child per edge: Kahn's
algorithm in rounds gives the levels, and sweeps over the compiled levels
give the rest (sum depths, root reach, a tree's DFS ranges).  No per-node
parent lists or sum depths are kept (``parents`` and ``sum_depth`` are gone).
Sum edges are globally indexed by (owning node id, child slot) in sorted
order; that order is stable across serialization round-trips and is the
coordinate system for gradients, Hessians and traces.  The edges of one sum
node form a contiguous run of that order, and :class:`Segments` holds the
per-run operations that sum weights and categorical leaves share.  The
passes run over compiled levels, each split into stacks of parents with one
fan-in (per-parent blocks plus a child-side :class:`Scatter`); sum parents
that share one child list are grouped, and groups of one shape stacked.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np
import scipy.sparse

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
    return Node(LEAF, (), spec)


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

    def max(self, x: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(x, self.starts, axis=0)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return x / self.sum(x)[self.ids]

    def norm(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(self.sum(x * x))

    def softmax(self, z: np.ndarray) -> np.ndarray:
        """Per-run softmax, floored at 1e-12 so every entry stays in (0, 1]."""
        w = np.exp(z - self.max(z)[self.ids])
        return self.normalize(np.maximum(self.normalize(w), 1e-12))

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """Views of the runs of x."""
        return np.split(x, self.starts[1:])


class Scatter:
    """Adds per-edge rows (of any trailing shape) into the rows of the edges'
    children, summing each child's rows from the left in edge order.  Where
    children repeat, a 0/1 CSR incidence matrix over the distinct children
    sums them first; where every edge has its own child, as in trees, the
    rows are added directly, which skips the sparse product's fixed cost per
    call."""

    def __init__(self, child: np.ndarray):
        nodes, inverse = np.unique(child, return_inverse=True)
        self.nodes, self.matrix = child, None
        if nodes.size < child.size:  # row i holds child i's edges in edge order
            edges = np.arange(child.size)
            self.nodes, self.matrix = nodes, scipy.sparse.csr_array((np.ones(child.size), (inverse, edges)))

    def add_into(self, dst: np.ndarray, src: np.ndarray) -> None:
        rows = dst.take(self.nodes, axis=0)  # a C-contiguous dst: take gathers rows faster than dst[nodes]
        rows += src if self.matrix is None else (self.matrix @ src.reshape(len(src), -1)).reshape(rows.shape)
        dst[self.nodes] = rows


def _levels(fan_in: np.ndarray, child: np.ndarray, owner: np.ndarray, in_degree: np.ndarray) -> np.ndarray:
    """Each node's level, by Kahn's algorithm in rounds: the leaves form
    round 0, and every other node joins the round after its last child.
    CyclicGraph if some node never joins."""
    parents = owner[np.argsort(child, kind="stable")]  # each node's parent edges, node by node
    first = np.cumsum(in_degree) - in_degree
    left, level, seen = fan_in.copy(), np.full(fan_in.size, -1), np.empty_like(fan_in)
    ready, r = np.flatnonzero(fan_in == 0), 0
    while ready.size:  # array methods, not np.* wrappers: a deep circuit runs thousands of rounds
        level[ready] = r
        count = in_degree[ready]
        end = count.cumsum()
        up = parents[np.arange(end[-1]) + (first[ready] - end + count).repeat(count)]
        np.subtract.at(left, up, 1)
        up = up[left[up] == 0]  # listed once per edge into the round: keep one
        seen[up] = np.arange(up.size)
        ready, r = up[seen[up] == np.arange(up.size)], r + 1
    if (level < 0).any():
        raise CyclicGraph("circuit graph contains a cycle")
    return level


def _read_only(x: np.ndarray) -> np.ndarray:
    x = x.view()
    x.flags.writeable = False
    return x


def _run(x: np.ndarray) -> np.ndarray | slice:
    """An increasing index array as a slice where it is one run."""
    return slice(int(x[0]), int(x[-1]) + 1) if x.size and x[-1] - x[0] == x.size - 1 else x


@dataclass
class _LevelEdges:
    """One stack of the sum or product edges whose parents sit at one level,
    compiled once for every pass.  Every parent of the stack has k edges,
    and ``parents[r]`` (in node order) owns rows [r*k, (r+1)*k) of a
    per-edge array, in its slot order, so :meth:`blocks` views one as
    [parents, k, samples] and a per-parent [parents, 1, samples] array
    broadcasts against it with no gather.  ``index`` places each edge in the
    flat (for sum edges, global) edge order, as a slice where contiguous;
    ``child`` is its child node, and ``scatter`` adds per-edge rows into the
    children.  ``rows`` places a singleton sum stack's edges in
    ``Circuit.single_edges``.

    Sum parents come in groups of g that share one child list, G groups of
    one shape per stack.  A stack of singletons is a plain fan-in bucket,
    with ``children`` its ``child``.  Otherwise ``members`` [G, g] lists each
    group's parents and ``children`` [G * k] its sorted children;
    ``edges[i, r, j]`` [G, g, k] is the global edge from member r of group i
    to its child j, so a group's weights are the [g, k] matrix
    ``theta[edges[i]]`` that forward and backward multiply per-child rows
    by, and ``child_scatter`` adds per-child rows into the children."""

    parents: np.ndarray
    k: int
    index: np.ndarray | slice
    child: np.ndarray
    g: int = 1
    children: np.ndarray | None = None
    members: np.ndarray | None = None
    edges: np.ndarray | None = None
    rows: np.ndarray | slice | None = None

    # built on first use: EM never scatters a group's per-edge rows
    scatter = cached_property(lambda self: Scatter(self.child))
    child_scatter = cached_property(lambda self: Scatter(self.children))
    starts = cached_property(lambda self: np.arange(0, self.parents.size * self.k, self.k))  # sum's offsets

    def blocks(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.parents.size, self.k, *x.shape[1:])

    def groups(self, x: np.ndarray) -> np.ndarray:
        """Per-child rows [G * k, samples] as [G, k, samples]."""
        return x.reshape(self.children.size // self.k, self.k, *x.shape[1:])

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Per-parent sums of per-edge rows x, by np.add.reduceat as in
        Segments.sum: a sum along axis 1 of the blocks adds a one-row tile's
        runs in another order than a wider tile's, which changes rounding."""
        return np.add.reduceat(x, self.starts, axis=0)

    def at(self, x: np.ndarray, index: np.ndarray | slice | None = None) -> np.ndarray:
        """Rows index (default ``index``) of an edge table x: a view of a slice, else gathered by take."""
        index = self.index if index is None else index
        return x[index] if isinstance(index, slice) else x.take(index, axis=0)

    @staticmethod
    def stacks(nodes: np.ndarray, seg: Segments, child: np.ndarray, level: np.ndarray, share: bool) -> dict:
        """level -> the stacks of the runs of seg (the edges of nodes, back to
        back), one per shape (g, k), each in node order.  With share, nodes
        whose runs hold the same children form a group (they sit at one
        level), its members in node order and the groups in the order of
        their first node; without, every node is a group of one."""
        first = nodes.copy()  # each node's group, named by its first node
        if share:
            by_child = np.lexsort((child, seg.ids))  # each run's edges by child, run by run
            for k in np.unique(seg.lengths).tolist():
                sel = np.flatnonzero(seg.lengths == k)
                lists = child[by_child[seg.starts[sel, None] + np.arange(k)]]
                _, at, group = np.unique(lists, axis=0, return_index=True, return_inverse=True)
                first[sel] = nodes[sel[at[group.reshape(-1)]]]
        _, group, sizes = np.unique(first, return_inverse=True, return_counts=True)
        g = sizes[group.reshape(-1)]
        order = np.lexsort((nodes, g, seg.lengths, level))
        cuts = np.flatnonzero(np.diff(level[order]) | np.diff(seg.lengths[order]) | np.diff(g[order])) + 1
        out: dict = {}
        for sel in np.split(order, cuts) if order.size else []:
            k, size = int(seg.lengths[sel[0]]), int(g[sel[0]])
            slots = seg.starts[sel, None] + np.arange(k)  # each parent's edges in slot order
            index = slots.reshape(-1)
            b = _LevelEdges(nodes[sel], k, _run(index), child[index], size, child[index])
            if size > 1:
                by_group = np.argsort(np.unique(first[sel], return_inverse=True)[1], kind="stable")
                ranked = by_child[slots[by_group]]  # each member's edges by child
                b.members = nodes[sel[by_group]].reshape(-1, size)
                b.edges = ranked.reshape(-1, size, k)
                b.children = child[ranked[::size]].reshape(-1)
            out.setdefault(int(level[sel[0]]), []).append(b)
        return out


@dataclass
class _TreeIndex:
    """Precomputed root-path structure for tree circuits.

    Sum edges are re-enumerated in DFS order so that the edges below any node
    form a contiguous index range; ``dfs_to_global`` maps back to the global
    edge order.  The DFS edges strictly inside the child subtree of DFS edge
    d are [d + 1, edge_sub_hi[d]); ``prod_blocks`` gives, per product node,
    the child-subtree ranges used to fill product-pair blocks.
    """

    dfs_to_global: np.ndarray
    edge_sub_hi: np.ndarray
    prod_nodes: list[int]
    prod_blocks: list[list[tuple[int, int]]]


class Circuit:
    """Validated-by-construction circuit graph, indexed once from two flat
    arrays (fan-in per node, child per edge) by array sweeps over its level
    schedule.  Use :meth:`build`.

    Derived: ``topo_order`` (children first: the stable argsort of the
    levels), ``in_degree``, the sum-edge indexes (``sum_nodes``,
    ``sum_segments``, ``sum_edge_owner``/``child``/``offset``,
    ``sum_node_edges``), ``level_edges``, ``single_edges``, ``edge_layer``
    (per sum edge, the fewest sum nodes between its owner and the root;
    iinfo(int64).max where no root path reaches it), ``root_scope``,
    ``is_tree``, the leaf indexes and, on first call, :meth:`tree_index`.
    There are no per-node parent lists or sum depths.
    """

    def __init__(self, nodes: list[Node], root: int):
        n = self.num_nodes = len(nodes)
        if not (0 <= root < n):
            raise ValueError(f"root id {root} out of range")
        self.nodes, self.root = nodes, root
        fan_in = np.fromiter((len(x.children) for x in nodes), np.int64, n)
        try:
            child = np.fromiter(chain.from_iterable(x.children for x in nodes), np.int64, int(fan_in.sum()))
        except OverflowError:  # an id past int64
            child = np.full(1, -1)
        if ((child < 0) | (child >= n)).any():
            i, c = next((i, c) for i, x in enumerate(nodes) for c in x.children if not 0 <= c < n)
            raise ValueError(f"node {i} has out-of-range child {c}")
        owner = np.repeat(np.arange(n), fan_in)  # every edge, in node-then-slot order
        self.in_degree = np.bincount(child, minlength=n)
        level = _levels(fan_in, child, owner, self.in_degree)
        self.topo_order: np.ndarray = np.argsort(level, kind="stable")
        kind = np.array([x.kind for x in nodes])
        is_sum = kind == SUM
        self._index_edges(fan_in, child, owner, level, is_sum, kind == PRODUCT)
        self._index_leaves()

        # Fewest sum nodes above each node on a root path, root to leaves; the
        # saturating add keeps iinfo max where no root path reaches.
        far = np.iinfo(np.int64).max
        depth = np.full(n, far)
        depth[root] = 0
        for b in reversed(self._stacks):
            bump = int(is_sum[b.parents[0]])  # a stack holds one kind
            np.minimum.at(depth, b.child, (np.minimum(depth.take(b.parents), far - bump) + bump).repeat(b.k))
        self.edge_layer = depth[self.sum_edge_owner]
        reached = [var[depth[ids] < far] for ids, var in self._leaf_groups.values()]
        self.root_scope: tuple[int, ...] = tuple(np.unique(np.concatenate(reached)).tolist())
        self.is_tree = bool(self.in_degree[root] == 0) and int((self.in_degree == 1).sum()) == n - 1
        self._tree: _TreeIndex | None = None

    @staticmethod
    def build(nodes: list[Node], root: int) -> "Circuit":
        """ValueError for an out-of-range root or child, CyclicGraph for a cycle."""
        return Circuit(list(nodes), root)

    # -- derived indexes ----------------------------------------------------

    def _index_edges(self, fan_in, child, owner, level, is_sum, is_prod) -> None:
        sum_nodes, prod_nodes = np.flatnonzero(is_sum), np.flatnonzero(is_prod)
        self.sum_nodes: list[int] = sum_nodes.tolist()
        seg = self.sum_segments = Segments(fan_in[sum_nodes])
        self.num_sum_edges = int(seg.ids.size)
        self.sum_edge_owner, self.sum_edge_child = owner[is_sum[owner]], child[is_sum[owner]]
        self.sum_edge_offset = dict(zip(self.sum_nodes, seg.starts.tolist()))  # node id -> first edge
        # 0/1 [sum nodes, sum edges]: row i marks the edges of sum_nodes[i]
        self.sum_node_edges = scipy.sparse.csr_array(
            (np.ones(self.num_sum_edges), (seg.ids, np.arange(self.num_sum_edges))),
            shape=(sum_nodes.size, self.num_sum_edges),
        )
        sums = _LevelEdges.stacks(sum_nodes, seg, self.sum_edge_child, level[sum_nodes], True)
        prod_seg, prod_child = Segments(fan_in[prod_nodes]), child[is_prod[owner]]
        prods = _LevelEdges.stacks(prod_nodes, prod_seg, prod_child, level[prod_nodes], False)
        # (sum stacks, product stacks) per level, leaves to root
        self.level_edges: list[tuple[list[_LevelEdges], list[_LevelEdges]]] = [
            (sums.get(lv, []), prods.get(lv, [])) for lv in sorted(sums.keys() | prods.keys())
        ]
        self._stacks = [b for level in self.level_edges for stacks in level for b in stacks]  # leaves to root
        # the edges of the singleton sum stacks, whose flows backward keeps per edge
        single = [b for level in sums.values() for b in level if b.g == 1]
        edges = np.arange(self.num_sum_edges)
        self.single_edges = np.sort(np.concatenate([edges[b.index] for b in single] + [edges[:0]]))
        for b in single:
            b.rows = _run(np.searchsorted(self.single_edges, edges[b.index]))

    def _index_leaves(self) -> None:
        leaves = [i for i, node in enumerate(self.nodes) if node.kind == LEAF]
        ids = {f: [i for i in leaves if self.nodes[i].leaf.family == f] for f in FAMILIES}
        spec = {f: [self.nodes[i].leaf for i in ids[f]] for f in FAMILIES}
        self._leaf_groups = {
            f: (np.array(ids[f], dtype=np.int64), np.array([s.variable for s in spec[f]], dtype=np.int64))
            for f in FAMILIES
        }
        self.cat_segments = Segments([len(s.params) for s in spec["cat"]])
        # per family, the distinct variables its leaves read and each leaf's
        # position among them; per categorical variable, its leaves' least k
        self.leaf_vars = {f: np.unique(var, return_inverse=True) for f, (_, var) in self._leaf_groups.items()}
        self.cat_var_size = np.full(self.leaf_vars["cat"][0].size, np.iinfo(np.int64).max)
        np.minimum.at(self.cat_var_size, self.leaf_vars["cat"][1], self.cat_segments.lengths)
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
        # A DFS in slot order counts sum edges and nodes.  own: what a node
        # adds itself (its edge from a sum parent; one node); span: what its
        # visit adds, leaves to root; at: the counts where it begins, root to
        # leaves, as its parent's plus its earlier siblings' spans.
        own = np.stack([np.bincount(self.sum_edge_child, minlength=self.num_nodes), np.ones_like(self.in_degree)], 1)
        span, at = own.copy(), np.zeros_like(own)
        for b in self._stacks:
            span[b.parents] += b.blocks(span[b.child]).sum(axis=1)
        for b in reversed(self._stacks):
            inner = b.blocks(span[b.child])
            at[b.child] = (at[b.parents, None] + own[b.parents, None] + np.cumsum(inner, axis=1) - inner).reshape(-1, 2)
        d = at[self.sum_edge_child, 0]  # each global edge's DFS index
        dfs_to_global = np.argsort(d)
        sub_hi = (d + span[self.sum_edge_child, 0])[dfs_to_global]
        # the products in the order the DFS leaves them: by the node count at
        # which their visit ends, the deeper first where several end at once
        prods = np.concatenate([b.parents for _, level in self.level_edges for b in level] + [d[:0]])
        first = at[prods, 1]
        prod_nodes = prods[np.lexsort((-first, first + span[prods, 1]))].tolist()
        lo, hi = at[:, 0].tolist(), (at[:, 0] + span[:, 0]).tolist()
        prod_blocks = [[(lo[c], hi[c]) for c in self.nodes[q].children] for q in prod_nodes]
        self._tree = _TreeIndex(dfs_to_global, sub_hi, prod_nodes, prod_blocks)
        return self._tree

    # -- helpers -------------------------------------------------------------

    def kind(self, node: int) -> str:
        return self.nodes[node].kind


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


def _scope_bits(nodes: list[Node], topo) -> tuple[list[int], list[int]]:
    """Per node, its scope as an int bitset, in one pass over a children-first
    order, plus the sorted leaf variables: bit i stands for variables[i], so
    a bitset is no wider than the number of distinct variables."""
    variables = sorted({node.leaf.variable for node in nodes if node.kind == LEAF})
    rank = {v: i for i, v in enumerate(variables)}
    bits = [0] * len(nodes)
    for v in topo:
        node = nodes[v]
        if node.kind == LEAF:
            bits[v] = 1 << rank[node.leaf.variable]
        else:
            for c in node.children:
                bits[v] |= bits[c]
    return bits, variables


def _scope(bits: int, variables: list[int]) -> tuple[int, ...]:
    """The variables of a scope bitset, ascending."""
    return tuple(v for v, b in zip(variables, reversed(bin(bits)[2:])) if b == "1")


def validate(circuit: Circuit) -> ValidationReport:
    """Check smoothness, decomposability, alternation and rootedness.

    An empty report means the circuit is a valid smooth, decomposable PC with
    alternating sum/product layers and a single root.  A sum node is smooth
    when its children's scopes are equal; a product node is decomposable when
    its children's scope sizes add up to its own.
    """
    out = ValidationReport()
    bits, variables = _scope_bits(circuit.nodes, circuit.topo_order)
    for i, node in enumerate(circuit.nodes):
        if node.kind == SUM:
            ref = bits[node.children[0]]
            for c in node.children[1:]:
                if bits[c] != ref:
                    got, want = _scope(bits[c], variables), _scope(ref, variables)
                    out.violations.append(Violation("non-smooth", i, f"child {c} scope {got} != {want}"))
            for c in node.children:
                if circuit.kind(c) == SUM:
                    out.violations.append(Violation("non-alternating", i, f"sum child {c} of sum"))
        elif node.kind == PRODUCT:
            if sum(bits[c].bit_count() for c in node.children) != bits[i].bit_count():
                seen = 0  # union of the earlier children's scopes
                for slot, c in enumerate(node.children):
                    shared = seen & bits[c]
                    if shared:
                        low = shared & -shared  # the lowest shared variable
                        first = next(d for d in node.children[:slot] if bits[d] & low)
                        v = variables[low.bit_length() - 1]
                        out.violations.append(
                            Violation("non-decomposable", i, f"children {first} and {c} share variable {v}")
                        )
                    seen |= bits[c]
            for c in node.children:
                if circuit.kind(c) == PRODUCT:
                    out.violations.append(
                        Violation("non-alternating", i, f"product child {c} of product")
                    )
    for i in np.flatnonzero(circuit.in_degree == 0).tolist():
        if i != circuit.root:
            out.violations.append(Violation("multiple-roots", i, "non-root node has no parent"))
    if circuit.in_degree[circuit.root]:
        out.violations.append(Violation("root-has-parent", circuit.root, "root has a parent"))
    return out


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
    weights: dict[int, tuple[int, np.ndarray]] = {}  # node id -> (line, weights)
    for lineno, line in rows[1:]:
        tok = line.split()
        try:
            if tok[0] == "w":
                nid = int(tok[1])
                if nid in weights:
                    raise MalformedFile(f"second weight line for node {nid}", lineno)
                weights[nid] = lineno, np.array([float(x) for x in tok[2:]])
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

    for n, (lineno, _) in weights.items():
        if n not in circuit.sum_edge_offset:
            raise MalformedFile(f"weights for node {n}, which is not a sum node", lineno)
    for n in circuit.sum_nodes:
        if n not in weights:
            raise MalformedFile(f"missing weights for sum node {n}")
        lineno, w = weights[n]
        if len(w) != len(circuit.nodes[n].children):
            raise MalformedFile(f"weight count mismatch for sum node {n}", lineno)
    params = ParamSet.uniform(circuit)
    params.set_edge_vector(circuit, np.concatenate([np.zeros(0)] + [weights[n][1] for n in circuit.sum_nodes]))
    return circuit, params
