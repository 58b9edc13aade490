"""Backward pass: node flows and per-sum-edge flows, and the log-likelihood
gradient they induce.

A sum edge (n, c) carries flow F_n * theta_nc * p_c / p_n; a product edge
passes the parent's full flow to the child.  :func:`edge_ratios` tabulates
the clipped p_c / p_n once per backward pass, and the flow table keeps it, so
the penalty adjoint and Hessian-vector products read the same table.  Every
table is node-major, [nodes or sum edges, samples], the layout the level
sweeps compute in.  The two sweeps read the ratios: :func:`push_down`
runs that recursion root-to-leaves from any seed (flows, log-probability
adjoints, flow tangents), :func:`pull_up` leaves-to-root (flow adjoints,
log-probability tangents).  Each runs over the fan-in buckets of
``Circuit.level_edges``: a parent's value (p_n, or its adjoint) broadcasts
over the [k, samples] block of its edges, with no per-edge gather.  Only sum
edges keep their edge values.  Flows keep their trace, and a trace its
weights, so stale pairings raise StaleTrace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, ParamSet
from .errors import StaleTrace
from .evaluate import EvalTrace


@dataclass
class FlowTable:
    """node_flow: [num_nodes, num_samples]; edge_flow and ratio: [num_sum_edges,
    num_samples] in global edge order, ratio the edge_ratios table the flows
    were pushed down with; trace: the forward pass they were computed from."""

    node_flow: np.ndarray
    edge_flow: np.ndarray
    ratio: np.ndarray
    trace: EvalTrace


def edge_ratios(circuit: Circuit, theta: np.ndarray, lp: np.ndarray) -> np.ndarray:
    """min(p_c / p_n, 1 / theta) for every sum edge, [sum edges, samples] in
    global edge order, from node log-probabilities lp [nodes, samples]; 0
    where p_n = 0.  p_c * theta <= p_n, so the true ratio is bounded by
    1/theta; the clip absorbs round-off from the log-space subtraction."""
    ratio = np.empty((theta.size, lp.shape[1]))
    for sums, _ in circuit.level_edges:  # level by level: no [edges, samples] gather of lp
        for b in sums:
            lp_n = lp[b.parents][:, None]
            r = lp[b.child]
            with np.errstate(invalid="ignore", over="ignore"):
                np.subtract(b.blocks(r), lp_n, out=b.blocks(r))
                np.exp(r, out=r)
                np.minimum(r, 1.0 / theta[b.index, None], out=r)
            np.copyto(b.blocks(r), 0.0, where=~np.isfinite(lp_n))
            ratio[b.index] = r
    return ratio


def pull_up(circuit: Circuit, theta: np.ndarray, ratio: np.ndarray, acc: np.ndarray, edge_src: np.ndarray) -> None:
    """Propagate acc [nodes, samples] leaves-to-root in place, the twin of
    push_down: a product node takes the sum of its children, a sum node
    sum_c theta_nc * ratio_nc * (acc_c + edge_src_nc), with edge_src
    [sum edges, samples or 1].  Leaves keep their values."""
    for sums, prods in circuit.level_edges:
        for b in sums:
            x = acc[b.child]
            x += edge_src[b.index]
            x *= theta[b.index, None] * ratio[b.index]
            acc[b.parents] = b.sum(x)
        for b in prods:
            acc[b.parents] = b.sum(acc[b.child])


def push_down(
    circuit: Circuit,
    theta: np.ndarray,
    ratio: np.ndarray,
    adj: np.ndarray,
    edge_adj: np.ndarray,
    source: np.ndarray | None = None,
) -> None:
    """Propagate adj [nodes, samples] root-to-leaves in place: a sum edge adds
    adj_n * theta_nc * ratio_nc (ratio from edge_ratios), plus source [sum
    edges, samples] when given, to its child and writes it to edge_adj [sum
    edges, samples]; a product edge adds adj_n."""
    for sums, prods in reversed(circuit.level_edges):
        for b in sums:
            share = adj[b.parents][:, None] * b.blocks(theta[b.index, None])
            share *= b.blocks(ratio[b.index])
            share = share.reshape(b.child.size, adj.shape[1])
            if source is not None:
                share += source[b.index]
            edge_adj[b.index] = share
            b.scatter.add_into(adj, share)
        for b in prods:
            b.scatter.add_into(adj, np.repeat(adj[b.parents], b.k, axis=0))


def backward(circuit: Circuit, params: ParamSet, trace: EvalTrace) -> FlowTable:
    """Compute all node and sum-edge flows in one reverse pass over edges."""
    if trace.circuit is not circuit or trace.log_p.shape[1] != circuit.num_nodes:
        raise StaleTrace("trace does not match this circuit")
    if not np.array_equal(trace.theta, params.theta, equal_nan=True):
        raise StaleTrace("trace was evaluated under other sum weights than params")
    n = trace.log_p.shape[0]
    flow = np.zeros((circuit.num_nodes, n))
    flow[circuit.root] = 1.0
    edge_flow = np.empty((circuit.num_sum_edges, n))
    ratio = edge_ratios(circuit, params.theta, trace.log_p.T)
    push_down(circuit, params.theta, ratio, flow, edge_flow)
    return FlowTable(flow, edge_flow, ratio, trace)


def loglik_gradient(flows: FlowTable, params: ParamSet) -> np.ndarray:
    """Batch-summed d log P_root / d theta, one entry per global sum edge.

    Equal to the batch sum of F_nc(x) / theta_nc; nonnegative everywhere.
    """
    return flows.edge_flow.sum(axis=1) / params.theta
