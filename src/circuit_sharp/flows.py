"""Backward pass: node flows and per-sum-edge flows, and the log-likelihood
gradient they induce.

The recursion runs root-to-leaves over the same level schedule the forward
pass uses.  A sum edge (n, c) carries flow F_n * theta_nc * p_c / p_n; a
product edge transfers the parent's full flow to the child.  Edge flows are
materialized only for sum edges (the only parameterized ones); product-edge
flows exist transiently as the accumulation itself.
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


def backward(circuit: Circuit, params: ParamSet, trace: EvalTrace) -> FlowTable:
    """Compute all node and sum-edge flows in one reverse pass over edges."""
    if trace.circuit is not circuit or trace.log_p.shape[1] != circuit.num_nodes:
        raise StaleTrace("trace does not match this circuit")
    n = trace.log_p.shape[0]
    lp = trace.log_p.T
    theta = params.theta

    flow = np.zeros((circuit.num_nodes, n))
    flow[circuit.root] = 1.0
    edge_flow = np.zeros((circuit.num_sum_edges, n))

    for _level, edges in reversed(circuit.level_edges):
        if edges.sum_parent.size:
            lp_n = lp[edges.sum_parent]
            lp_c = lp[edges.sum_child]
            th = theta[edges.sum_edge, None]
            alive = np.isfinite(lp_n)
            with np.errstate(invalid="ignore", over="ignore"):
                ratio = np.where(alive, np.exp(lp_c - np.where(alive, lp_n, 0.0)), 0.0)
            # p_c * theta <= p_n, so the true ratio is bounded by 1/theta;
            # clip to absorb round-off from the log-space subtraction
            np.minimum(ratio, 1.0 / th, out=ratio)
            fe = flow[edges.sum_parent] * th * ratio
            edge_flow[edges.sum_edge] = fe
            np.add.at(flow, edges.sum_child, fe)
        if edges.prod_parent.size:
            np.add.at(flow, edges.prod_child, flow[edges.prod_parent])

    return FlowTable(np.ascontiguousarray(flow.T), np.ascontiguousarray(edge_flow.T), circuit)


def loglik_gradient(flows: FlowTable, params: ParamSet) -> np.ndarray:
    """Batch-summed d log P_root / d theta, one entry per global sum edge.

    Equal to the batch sum of F_nc(x) / theta_nc; nonnegative everywhere.
    """
    return flows.edge_flow.sum(axis=0) / params.theta
