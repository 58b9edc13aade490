"""Backward pass: node flows and per-sum-edge flows, and the log-likelihood
gradient they induce.

A sum edge (n, c) carries flow F_n * theta_nc * p_c / p_n; a product edge
passes the parent's full flow to the child.  For a group of sum parents that
share one child list, with m the per-sample maximum of its children's log p,
that flow factors as theta_nc * a_n * s_c, a_n = F_n exp(m - log p_n) (0 where
p_n = 0) and s_c = exp(log p_c - m): :func:`backward` pushes the group's flows
down as s * (W^T a), one matrix product per stack of equal-shape groups, and
the batch sums of edge flows and of their squares are theta * (a s^T) and
theta^2 * ((a a) (s s)^T).  A group of one (every sum node of a tree) writes
its clipped ratios and edge flows as rows during the sweep instead.  The
per-sample [sum edges, samples] tables are completed once, for the readers
that need them: the penalty adjoint, Hessian-vector products and per-sample
gradients.  The first two sweep per edge over each stack's weight and ratio
rows (:func:`stack_rows`), gathering rows with take: :func:`push_down`
root-to-leaves, returning its edge shares' batch sums (no table), and
:func:`pull_up` leaves-to-root, both on [nodes, m, samples] tables that
carry m probes (Hessian vectors) side by side.  Every table is node-major,
[nodes or sum edges, samples].  Flows keep their trace, and a trace its
weights, so stale pairings raise StaleTrace.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .circuit import Circuit, ParamSet, _read_only
from .errors import StaleTrace, ZeroLikelihood
from .evaluate import EvalTrace


class FlowTable:
    """The flows of one backward pass over trace, the forward pass they were
    computed from.

    node_flow is [num_nodes, num_samples].  edge_flow_sum and edge_flow_sq_sum
    are the batch sums of every sum edge's flow and of its square, in global
    edge order.  edge_flow and ratio are [num_sum_edges, num_samples] in global
    edge order, ratio the clipped p_c / p_n (0 where p_n = 0) that edge_flow
    = F_n * theta * ratio; the rows of shared-child groups are filled on first
    use.  Each is computed at most once and shared, so it is read-only.
    """

    def __init__(self, node_flow: np.ndarray, trace: EvalTrace, single: tuple, factors: list):
        self.node_flow = node_flow
        self.trace = trace
        self._single = single  # (edge flows, ratios), [single edges, samples]: Circuit.single_edges
        self._factors = factors  # (stack, a [G, g, samples], s [G, k, samples]) per shared-child stack

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        tables = self._single  # every sum edge a singleton's: its rows are the tables
        if self._factors:
            circuit, lp = self.trace.circuit, self.trace.log_p.T
            tables = np.empty((circuit.num_sum_edges, lp.shape[1])), np.empty((circuit.num_sum_edges, lp.shape[1]))
            for table, rows in zip(tables, self._single):
                table[circuit.single_edges] = rows
            for b, _, _ in self._factors:
                _edge_rows(b, self.trace.theta, lp, self.node_flow, *tables, b.index)
        return tuple(_read_only(t) for t in tables)

    @property
    def edge_flow(self) -> np.ndarray:
        return self._tables[0]

    @property
    def ratio(self) -> np.ndarray:
        return self._tables[1]

    edge_flow_sum = cached_property(lambda self: self._batch_sum(square=False))
    edge_flow_sq_sum = cached_property(lambda self: self._batch_sum(square=True))

    def _batch_sum(self, square: bool) -> np.ndarray:
        theta, flow = self.trace.theta, self._single[0]
        out = np.empty(theta.size)
        out[self.trace.circuit.single_edges] = np.einsum("es,es->e", flow, flow) if square else flow.sum(axis=1)
        for b, a, s in self._factors:
            w = theta[b.edges]
            if square:
                w, a, s = w * w, a * a, s * s
            out[b.edges] = w * np.matmul(a, s.transpose(0, 2, 1))
        return _read_only(out)


def _edge_rows(b, theta: np.ndarray, lp: np.ndarray, flow: np.ndarray, edge_flow, ratio, rows) -> np.ndarray:
    """Write the per-edge rows of stack b to edge_flow[rows] and ratio[rows]
    ([edges, samples]): the ratios min(p_c / p_n, 1 / theta), 0 where p_n =
    0, and the flows F_n * theta * ratio, from node log-probabilities lp and
    flows [nodes, samples].  Returns the flows.  p_c * theta <= p_n, so the
    true ratio is bounded by 1/theta; the clip absorbs round-off from the
    log-space subtraction."""
    lp_n = lp.take(b.parents, axis=0)[:, None]
    r = lp.take(b.child, axis=0)
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(b.blocks(r), lp_n, out=b.blocks(r))
        np.exp(r, out=r)
        np.minimum(r, 1.0 / b.at(theta)[:, None], out=r)
    np.copyto(b.blocks(r), 0.0, where=~np.isfinite(lp_n))
    ratio[rows] = r
    del r  # read back from the table: one [edges, samples] temporary less at a time
    share = flow.take(b.parents, axis=0)[:, None] * b.blocks(b.at(theta)[:, None])
    share *= b.blocks(b.at(ratio, rows))
    share = share.reshape(b.child.size, lp.shape[1])
    edge_flow[rows] = share
    return share


def stack_rows(circuit: Circuit, theta: np.ndarray, ratio: np.ndarray) -> list:
    """Per level of circuit.level_edges, per sum stack, the rows that the
    reverse sweeps read: theta [stack edges] and, from a FlowTable's ratio
    [sum edges, samples], ratio [stack edges, 1, samples], which broadcasts
    over the m tables of a [nodes, m, samples] sweep.  Views where the
    stack's index is a slice, else gathered here once for every sweep over
    them."""
    return [[(b.at(theta), b.at(ratio)[:, None]) for b in sums] for sums, _ in circuit.level_edges]


def pull_up(circuit: Circuit, rows: list, acc: np.ndarray, edge_src: np.ndarray) -> None:
    """Propagate acc [nodes, m, samples], m tables side by side, leaves-to-root
    in place, the twin of push_down without its edge sums: a product node sums
    its children, a sum node sum_c theta_nc * ratio_nc * (acc_c + edge_src_nc),
    with rows from stack_rows and edge_src [sum edges, m or 1, samples or 1].
    Leaves keep their values."""
    for (sums, prods), level in zip(circuit.level_edges, rows):
        for b, (theta, ratio) in zip(sums, level):
            x = acc.take(b.child, axis=0)
            x += b.at(edge_src)
            x *= theta[:, None, None] * ratio
            acc[b.parents] = b.sum(x)
        for b in prods:
            acc[b.parents] = b.sum(acc.take(b.child, axis=0))


def push_down(circuit: Circuit, rows: list, adj: np.ndarray, source: np.ndarray | None = None) -> np.ndarray:
    """Propagate adj [nodes, m, samples], m tables side by side, root-to-leaves
    in place: a sum edge adds its share adj_n * theta_nc * ratio_nc (rows from
    stack_rows), plus source [sum edges, m, samples] when given, to its child;
    a product edge adds adj_n.  Returns the shares' batch sums [sum edges, m],
    each summed as a row of a [sum edges, samples] table would be; no such
    table is written."""
    out = np.empty((circuit.num_sum_edges, adj.shape[1]))
    for (sums, prods), level in zip(reversed(circuit.level_edges), reversed(rows)):
        for b, (theta, ratio) in zip(sums, level):
            share = np.repeat(adj.take(b.parents, axis=0), b.k, axis=0)
            share *= theta[:, None, None]
            share *= ratio
            if source is not None:
                share += b.at(source)
            out[b.index] = share.sum(axis=2)
            b.scatter.add_into(adj, share)
        for b in prods:
            b.scatter.add_into(adj, np.repeat(adj.take(b.parents, axis=0), b.k, axis=0))
    return out


def backward(circuit: Circuit, params: ParamSet, trace: EvalTrace) -> FlowTable:
    """Compute all node flows, and the edge flows of singleton sum stacks, in
    one reverse pass over the levels; shared-child groups keep their factors."""
    if trace.circuit is not circuit or trace.log_p.shape[1] != circuit.num_nodes:
        raise StaleTrace("trace does not match this circuit")
    if not np.array_equal(trace.theta, params.theta, equal_nan=True):
        raise StaleTrace("trace was evaluated under other sum weights than params")
    lp, theta = trace.log_p.T, params.theta
    n = lp.shape[1]
    flow = np.zeros((circuit.num_nodes, n))
    flow[circuit.root] = 1.0
    single = np.empty((circuit.single_edges.size, n)), np.empty((circuit.single_edges.size, n))  # flows, ratios
    factors = []
    for sums, prods in reversed(circuit.level_edges):
        for b in sums:
            if b.g == 1:
                b.scatter.add_into(flow, _edge_rows(b, theta, lp, flow, *single, b.rows))
                continue
            s = b.groups(lp.take(b.children, axis=0))  # [G, k, samples]
            m = s.max(axis=1, keepdims=True)
            m_safe = np.where(np.isfinite(m), m, 0.0)
            s -= m_safe
            np.exp(s, out=s)
            lp_n = lp.take(b.members, axis=0)  # [G, g, samples]
            a = m_safe - lp_n  # at most -log theta of the child that attains m
            np.copyto(a, -np.inf, where=~np.isfinite(lp_n))
            np.exp(a, out=a)
            a *= flow.take(b.members, axis=0)
            down = np.matmul(theta[b.edges].transpose(0, 2, 1), a)
            down *= s
            b.child_scatter.add_into(flow, down.reshape(b.children.size, n))
            factors.append((b, a, s))
        for b in prods:
            b.scatter.add_into(flow, np.repeat(flow.take(b.parents, axis=0), b.k, axis=0))
    return FlowTable(flow, trace, single, factors)


def _check_roots(trace: EvalTrace) -> None:
    """Raise ZeroLikelihood, naming the first row whose root log p is -inf:
    log p has no derivatives there, and its flows would all read 0."""
    dead = np.flatnonzero(np.isneginf(trace.root_log_p))
    if dead.size:
        raise ZeroLikelihood(f"row {dead[0]} has likelihood 0 (root log p = -inf): log p has no derivatives there")


def loglik_gradient(flows: FlowTable, params: ParamSet) -> np.ndarray:
    """Batch-summed d log P_root / d theta, one entry per global sum edge.

    Equal to the batch sum of F_nc(x) / theta_nc; nonnegative everywhere.
    Raises ZeroLikelihood as _check_roots for a row of likelihood 0, which
    would otherwise drop out of the sum unseen.
    """
    _check_roots(flows.trace)
    return flows.edge_flow_sum / params.theta
