"""Backward pass: node flows and per-sum-edge flows, and the log-likelihood
gradient they induce.

A sum edge (n, c) carries flow F_n * theta_nc * p_c / p_n; a product edge
passes the parent's full flow to the child.  :func:`push_down` runs that
recursion root-to-leaves over the compiled levels from any seed: the root
indicator gives the flows, log-probability adjoints give the second phase of
the trace-penalty gradient, and a zero seed with a per-edge source gives the
flow tangents of a Hessian-vector product.  Only sum edges keep their edge
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, ParamSet
from .errors import StaleTrace
from .evaluate import EvalTrace


@dataclass
class FlowTable:
    """node_flow: [num_samples, num_nodes]; edge_flow: [num_samples, num_sum_edges]."""

    node_flow: np.ndarray
    edge_flow: np.ndarray
    circuit: Circuit


def edge_ratio(lp: np.ndarray, sums) -> np.ndarray:
    """p_c / p_n for the sum edges of one level, [edges, samples], from node
    log-probabilities lp [nodes, samples]; 0 where p_n = 0."""
    lp_n = lp[sums.parents][sums.runs.ids]
    alive = np.isfinite(lp_n)
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(alive, np.exp(lp[sums.child] - np.where(alive, lp_n, 0.0)), 0.0)


def push_down(
    circuit: Circuit,
    theta: np.ndarray,
    lp: np.ndarray,
    adj: np.ndarray,
    edge_adj: np.ndarray,
    source: np.ndarray | None = None,
) -> None:
    """Propagate adj [nodes, samples] root-to-leaves in place: a sum edge adds
    adj_n * theta_nc * p_c / p_n, plus source [sum edges, samples] when given,
    to its child and writes it to edge_adj [sum edges, samples]; a product
    edge adds adj_n."""
    for sums, prods in reversed(circuit.level_edges):
        if sums.index.size:
            th = theta[sums.index, None]
            # p_c * theta <= p_n, so the true ratio is bounded by 1/theta;
            # clip to absorb round-off from the log-space subtraction
            share = adj[sums.parents][sums.runs.ids] * th * np.minimum(edge_ratio(lp, sums), 1.0 / th)
            if source is not None:
                share += source[sums.index]
            edge_adj[sums.index] = share
            sums.scatter.add_into(adj, share)
        if prods.index.size:
            prods.scatter.add_into(adj, adj[prods.parents][prods.runs.ids])


def backward(circuit: Circuit, params: ParamSet, trace: EvalTrace) -> FlowTable:
    """Compute all node and sum-edge flows in one reverse pass over edges."""
    if trace.circuit is not circuit or trace.log_p.shape[1] != circuit.num_nodes:
        raise StaleTrace("trace does not match this circuit")
    n = trace.log_p.shape[0]
    flow = np.zeros((circuit.num_nodes, n))
    flow[circuit.root] = 1.0
    edge_flow = np.empty((circuit.num_sum_edges, n))
    push_down(circuit, params.theta, trace.log_p.T, flow, edge_flow)
    return FlowTable(np.ascontiguousarray(flow.T), np.ascontiguousarray(edge_flow.T), circuit)


def loglik_gradient(flows: FlowTable, params: ParamSet) -> np.ndarray:
    """Batch-summed d log P_root / d theta, one entry per global sum edge.

    Equal to the batch sum of F_nc(x) / theta_nc; nonnegative everywhere.
    """
    return flows.edge_flow.sum(axis=0) / params.theta
