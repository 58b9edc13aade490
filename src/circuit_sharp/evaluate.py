"""Forward evaluation of a circuit on a data batch, in log space end to end.

Sum nodes use the log-sum-exp trick with a per-parent shift; -inf
log-probabilities are legal values (deterministic-style supports) and are
propagated, never raised.  The pass runs leaves-to-root over the compiled
levels of ``Circuit.level_edges``, one stack at a time.  A stack holds
groups of sum parents that share one child list (in a tree, groups of one):
a group's children are gathered once, shifted by their per-sample maximum,
which is every member's own maximum, and exponentiated once per child.  A
group of one adds its weighted terms in slot order, bit for bit the per-edge
log-sum-exp; a group of g > 1 over k children takes one [g, k] x [k] product
of its weights and children per column (the columns are matmul's batch
axis), within a few ulp of max(|log p|, 1) of that form.  Each column is its
own product, so row tiles, row order, log_likelihood and probes stay bit for
bit (one GEMM over a tile's columns would not).  O(edges) work per row.

The batch is walked in row tiles, sized by ``TILE_BYTES`` so that a tile's
[num_nodes, tile] block stays in cache, but wide enough (``LEVEL_CELLS``)
that the level loop's fixed per-level cost, paid once per tile, stays small
on deep narrow circuits.  The leaf stage checks the domain once per distinct
variable of each leaf family and writes each family's [leaves, tile] rows
node-major.  Every column is computed on its own, so the tiling changes no
value.  :func:`forward` computes each tile in place in its columns of one
[num_nodes, samples] buffer, the trace that backward passes read;
:func:`log_likelihood` reuses one tile buffer, keeps only the root row and
stores no trace, for callers that need the per-sample log-likelihoods alone.
:func:`probe_log_likelihood` is its many-weights form: several weight probes
(landscape points) share one sweep, each row reading its own sum weights;
:func:`probe_width` bounds how many, and how many Hessian vectors share one
reverse sweep, by TILE_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, ParamSet
from .errors import OutOfDomain, ScopeMismatch

_LOG_2PI = float(np.log(2.0 * np.pi))

# Bytes of one [num_nodes, tile] buffer: about the L2 share that keeps a
# tile's level loop out of main memory (timings in CHANGES.md).
TILE_BYTES = 1 << 20
# Least (node + sum edge) x row cells a tile gives each level on average:
# a 3000-level chain takes one tile, as tiling it only repeats the loop.
LEVEL_CELLS = 1 << 14


@dataclass
class EvalTrace:
    """Per-sample, per-node log outputs of one forward pass.

    log_p has shape [num_samples, num_nodes]: it is the transposed view of
    the node-major [num_nodes, num_samples] buffer that forward computes in,
    so log_p.T is C-contiguous and the root column, the per-sample
    log-likelihood, is a contiguous row of it.  theta and batch are copies of
    the sum weights and the rows it was evaluated on, against which later
    passes detect a stale trace.
    """

    log_p: np.ndarray
    circuit: Circuit
    theta: np.ndarray
    batch: np.ndarray

    @property
    def root_log_p(self) -> np.ndarray:
        return self.log_p[:, self.circuit.root]


def as_batch(circuit: Circuit, batch) -> np.ndarray:
    """The batch as a float [samples, variables] array; raises ScopeMismatch
    unless the root scope is exactly the variables 0..width-1, the columns
    that the leaves read."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    scope, width = circuit.root_scope, batch.shape[1]
    if len(scope) != width:
        raise ScopeMismatch(f"batch width {width} != root scope size {len(scope)}")
    if scope and (scope[0] != 0 or scope[-1] != width - 1):  # sorted and distinct
        raise ScopeMismatch(f"root scope {scope[0]}..{scope[-1]} is not the batch columns 0..{width - 1}")
    return batch


def _leaf_inputs(circuit: Circuit, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per leaf family, the columns of the distinct variables its leaves read,
    [variables, samples] in circuit.leaf_vars order; Bernoulli columns as
    x > 0.5, categorical ones as int64.

    Raises OutOfDomain, naming the first bad row of the batch and its
    lowest-numbered bad variable, when a Bernoulli leaf reads a value other
    than 0 or 1, a categorical leaf one that is not an integer in [0, k), or a
    Gaussian leaf a non-finite value.
    """
    xb, xg, xc = (batch[:, circuit.leaf_vars[f][0]] for f in ("bern", "gauss", "cat"))
    for family, f, ok in (
        ("Bernoulli", "bern", (xb == 0) | (xb == 1)),
        ("Gaussian", "gauss", np.isfinite(xg)),
        ("categorical", "cat", (xc >= 0) & (xc < circuit.cat_var_size) & (xc == np.floor(xc))),
    ):
        if not ok.all():
            row, col = np.argwhere(~ok)[0]
            v = circuit.leaf_vars[f][0][col]
            raise OutOfDomain(f"row {row}, variable {v}: {batch[row, v]!r} is outside the {family} domain")
    return np.ascontiguousarray(xb.T > 0.5), np.ascontiguousarray(xg.T), xc.T.astype(np.int64, order="C")


def probe_width(circuit: Circuit, samples: int) -> int:
    """How many probes (Hessian vectors, landscape points) one sweep carries
    side by side on samples rows each: as many as keep a [num_nodes or sum
    edges, probes x samples] table within TILE_BYTES, and at least one."""
    return max(1, TILE_BYTES // (8 * max(1, samples) * max(circuit.num_nodes, circuit.num_sum_edges)))


def _sweep(circuit: Circuit, params: ParamSet, batch: np.ndarray, out: np.ndarray | None = None, theta=None):
    """Yield (rows, lp) for each row tile of batch, lp [num_nodes, tile] the
    log-probabilities of every node on those rows.  lp is the view out[:,
    rows] of a [num_nodes, samples] out, or else a view of one tile buffer
    that the next tile overwrites.  theta [sum edges, samples], when given,
    holds each row's own sum weights in place of params.theta ([sum edges,
    1]: one column for every row)."""
    xb, xg, xc = _leaf_inputs(circuit, batch)
    groups, leaf_vars = circuit.leaf_groups(), circuit.leaf_vars
    theta = params.theta[:, None] if theta is None else theta  # [sum edges, 1 or samples]
    (mean, sd), cat_starts = params.gauss.T, circuit.cat_segments.starts[:, None]
    # divide: log 0 at indicator leaves; invalid and over: diverged (inf or
    # tiny) parameters, whose non-finite rows are the DivergedNaN signal
    # handled by the trainers
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b, log_nb = np.log(params.bern)[:, None], np.log1p(-params.bern)[:, None]
        log_g, log_c = (-np.log(sd) - 0.5 * _LOG_2PI)[:, None], np.log(params.cat)
    n = batch.shape[0]
    cells = LEVEL_CELLS * max(1, len(circuit.level_edges)) // (circuit.num_nodes + circuit.num_sum_edges)
    tile = max(1, min(n, max(TILE_BYTES // (8 * circuit.num_nodes), cells)))
    if 0 < n % tile < tile / 4:  # no runt last tile: its level loop costs about a full tile's
        tile = -(-n // (n // tile))
    buf = np.empty((circuit.num_nodes, tile)) if out is None else out
    for lo in range(0, n, tile):
        rows = slice(lo, min(lo + tile, n))
        lp = buf[:, rows] if out is not None else buf[:, : rows.stop - lo]
        weights = theta if theta.shape[1] == 1 else theta[:, rows]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lp[groups["bern"][0]] = np.where(xb[:, rows].take(leaf_vars["bern"][1], axis=0), log_b, log_nb)
            z = xg[:, rows].take(leaf_vars["gauss"][1], axis=0)
            z -= mean[:, None]
            z /= sd[:, None]
            h = 0.5 * z
            h *= z  # (0.5 * z) * z in place: a fresh [leaves, tile] array per operation doubled this stage's time
            lp[groups["gauss"][0]] = np.subtract(log_g, h, out=h)
            lp[groups["cat"][0]] = log_c[cat_starts + xc[:, rows].take(leaf_vars["cat"][1], axis=0)]
        # lp[idx], not take: lp of a multi-tile forward is a strided column view, which take copies whole
        for sums, prods in circuit.level_edges:
            for b in prods:
                lp[b.parents] = b.sum(lp[b.child])
            for b in sums:
                w = lp[b.children]  # each group's children once: its max is every member's
                wg = b.groups(w)
                m = wg.max(axis=1)
                m_safe = np.where(np.isfinite(m), m, 0.0)
                np.subtract(wg, m_safe[:, None], out=wg)
                np.exp(w, out=w)
                if b.g > 1:  # [1 or tile, G, g, k] @ [tile, G, k, 1]; take: C-contiguous weights, which BLAS takes
                    w = np.matmul(weights.T.take(b.edges, axis=1), wg.transpose(2, 0, 1)[..., None])[..., 0]
                    w, m, m_safe, parents = w.transpose(1, 2, 0), m[:, None], m_safe[:, None], b.members
                else:
                    w, parents = b.sum(np.multiply(w, weights[b.index], out=w)), b.parents
                with np.errstate(divide="ignore"):
                    lp[parents] = np.where(np.isfinite(m), m_safe + np.log(w), -np.inf)
        yield rows, lp


def forward(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> EvalTrace:
    """Evaluate the circuit bottom-up on a batch of complete assignments.

    The batch must have one column per root-scope variable, indexed by
    variable id; raises ScopeMismatch otherwise, and OutOfDomain when a value
    lies outside the support of a leaf that reads it.
    """
    batch = as_batch(circuit, batch)
    log_p = np.empty((circuit.num_nodes, batch.shape[0]))
    for _ in _sweep(circuit, params, batch, log_p):
        pass  # each tile is computed in its columns of log_p
    return EvalTrace(log_p.T, circuit, params.theta.copy(), batch.copy())


def log_likelihood(circuit: Circuit, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    """Per-sample log-likelihood [samples]: forward's root column, bit for
    bit, without storing the trace.  Raises as forward does."""
    return probe_log_likelihood(circuit, params, batch, params.theta[:, None])[0]


def probe_log_likelihood(circuit: Circuit, params: ParamSet, batch: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-sample log-likelihoods [probes, samples] under each column of
    weights [sum edges, probes] in place of params.theta, all in one sweep
    over the rows repeated probe by probe, each row reading its probe's
    column.  Row j equals log_likelihood under weights[:, j] bit for bit;
    probe_width bounds how many probes keep the sweep's tables small."""
    batch = as_batch(circuit, batch)
    n, m = batch.shape[0], weights.shape[1]
    if m > 1:  # one column per row; a lone probe's column broadcasts
        batch, weights = np.tile(batch, (m, 1)), np.repeat(weights, n, axis=1)
    out = np.empty(m * n)
    for rows, lp in _sweep(circuit, params, batch, theta=weights):
        out[rows] = lp[circuit.root]
    return out.reshape(m, n)
