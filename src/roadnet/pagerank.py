"""PageRank with uniform teleport and dangling redistribution.

Over the chosen adjacency view the scores are the fixed point of

    score'(v) = (1 - d)/n + d * (sum_{u in adj(v)} score(u)/deg(u) + dangling/n)

where ``dangling`` is the total score sitting on zero-degree nodes; the
redistribution keeps the scores a probability distribution.

On the undirected view (the default) the step ``P = A D^-1`` is similar to
the symmetric ``S = D^-1/2 A D^-1/2``, so the scores are the normalised
``x = D^1/2 y`` of the SPD system ``(I - d S) y = D^-1/2 1``, whose
condition number is at most (1 + d)/(1 - d).  Conjugate gradients solve it
(Del Corso, Gulli & Romani 2005; Gleich 2015), and ``tolerance`` bounds the
relative residual ``||r|| / ||b||``.  Nodes with no undirected neighbour
(isolated, or self-loops only) are left out of the system with ``y = 1``.

With ``directed=True`` mass flows along raw arcs and deg(u) is the
outdegree.  Each directed solve sorts the raw arcs into an in-arc CSR and
runs the power step above until the L1 change drops below ``tolerance``.
Both stop after ``max_iterations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from ._text import Floats, Ints, write_rows
from .graph import Graph, TopKTable, arc_keys, csr_from_keys, table_from_scores
from .parallel import block_ranges, run_blocks

# CG stops, unconverged, once ||r||^2 falls below this: p * q and r * r
# would then underflow and the step length would be noise
_SMALLEST_RR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


@dataclass(frozen=True)
class PageRankVector:
    """``residual_trace`` holds one entry per iteration: the relative
    residual on the undirected view, the L1 change with ``directed``."""

    scores: np.ndarray
    damping: float
    iterations_run: int
    converged: bool
    residual_trace: tuple[float, ...]

    def __post_init__(self):
        self.scores.flags.writeable = False

    @property
    def final_delta(self) -> float:
        """The last entry of ``residual_trace``; 0.0 when the starting
        vector was exact and no iteration ran."""
        return self.residual_trace[-1] if self.residual_trace else 0.0

    def to_csv(self, fp: IO[str], graph: Graph) -> None:
        fp.write("node_id,score\n")
        write_rows(fp, [Ints(graph.id_map), ",", Floats(self.scores), "\n"])


def pagerank(graph: Graph, damping: float = 0.85, tolerance: float = 1e-10,
             max_iterations: int = 100, *, directed: bool = False,
             threads: int = 1) -> PageRankVector:
    """Rank nodes of the undirected view (default), where every edge acts
    as two arcs, or of the raw directed arcs (see the module docstring)."""
    if graph.n == 0:
        raise ValueError("pagerank needs a non-empty graph")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if not tolerance > 0.0:  # also refuses nan
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")

    if directed:
        # accumulate over in-arcs; each source u spreads score(u)/outdeg(u)
        keys = arc_keys(graph.targets, graph.sources, graph.n)
        spread = _arc_sums(*csr_from_keys(graph.n, keys), threads)
        scores, trace, converged = _power(spread, graph.outdegrees, damping,
                                          tolerance, max_iterations)
    else:
        spread = _arc_sums(graph.undirected_offsets,
                           graph.undirected_neighbors, threads)
        scores, trace, converged = _conjugate_gradients(
            spread, graph.degrees, damping, tolerance, max_iterations)
    return PageRankVector(
        scores=scores,
        damping=damping,
        iterations_run=len(trace),
        converged=converged,
        residual_trace=tuple(trace),
    )


def _arc_sums(offsets: np.ndarray, neighbors: np.ndarray, threads: int):
    """``spread(w, out)`` sets ``out[v]`` to the sum of ``w[u]`` over the
    CSR row of v.  Node blocks each sum their rows in CSR order, so the
    result is the same for any block count."""
    blocks = []  # (a, b, arc slice, local row of each arc) per node block
    for a, b in block_ranges(offsets.size - 1, "pagerank", neighbors.size,
                             threads):
        rows = np.repeat(np.arange(b - a), np.diff(offsets[a:b + 1]))
        blocks.append((a, b, slice(offsets[a], offsets[b]), rows))

    def spread(w: np.ndarray, out: np.ndarray) -> None:
        def accumulate(a: int, b: int, arcs: slice, rows: np.ndarray) -> None:
            # a block without arcs gets an int64 bincount; the slice casts it
            out[a:b] = np.bincount(rows, weights=w[neighbors[arcs]],
                                   minlength=b - a)

        run_blocks(accumulate, blocks, threads)

    return spread


def _power(spread, degrees: np.ndarray, damping: float, tolerance: float,
           max_iterations: int):
    n = degrees.size
    share_deg = degrees.astype(np.float64)
    # score / inf is 0.0, so dangling nodes send nothing without a mask
    dangling = np.flatnonzero(share_deg == 0)
    share_deg[dangling] = np.inf
    scores = np.full(n, 1.0 / n)
    new = np.empty(n)
    contrib = np.empty(n)
    w = np.empty(n)
    base = (1.0 - damping) / n

    trace = []
    while len(trace) < max_iterations:
        np.divide(scores, share_deg, out=w)
        spread(w, contrib)
        loose = scores[dangling].sum()
        # new = base + damping * (contrib + loose / n), in place
        np.add(contrib, loose / n, out=new)
        new *= damping
        new += base
        np.subtract(new, scores, out=w)  # w is free until the next step
        trace.append(float(np.abs(w, out=w).sum()))
        scores, new = new, scores
        if trace[-1] < tolerance:
            break
    return scores, trace, bool(trace[-1] < tolerance)


def _conjugate_gradients(spread, degrees: np.ndarray, damping: float,
                         tolerance: float, max_iterations: int):
    """Unpreconditioned CG on ``(I - d S) y = D^-1/2 1``; returns the
    normalised ``D^1/2 y``.  Reductions are ``np.add.reduce`` over whole
    vectors, so they do not depend on the block count."""
    n = degrees.size
    linked = degrees > 0
    inv_root = np.zeros(n)
    np.divide(1.0, np.sqrt(degrees), out=inv_root, where=linked)
    scale = damping * inv_root
    r = inv_root.copy()  # b, zero off the system: those y stay 0 until the end
    p = r.copy()
    y = np.zeros(n)
    q = np.empty(n)
    contrib = np.empty(n)
    tmp = np.empty(n)

    rr = np.add.reduce(np.multiply(r, r, out=tmp))
    b_norm = math.sqrt(rr)
    trace = []
    while rr and len(trace) < max_iterations:  # rr == 0: y = 1 is exact
        # q = (I - d S) p
        spread(np.multiply(p, inv_root, out=tmp), contrib)
        np.subtract(p, np.multiply(contrib, scale, out=q), out=q)
        alpha = rr / np.add.reduce(np.multiply(p, q, out=tmp))
        y += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(q, alpha, out=tmp)
        rr_next = np.add.reduce(np.multiply(r, r, out=tmp))
        trace.append(math.sqrt(rr_next) / b_norm)
        # an exact zero residual stops here, before 0/0 in the next step
        if trace[-1] < tolerance or rr_next < _SMALLEST_RR:
            break
        p *= rr_next / rr
        p += r
        rr = rr_next

    x = np.sqrt(degrees)
    x *= y
    x[~linked] = 1.0
    x /= np.add.reduce(x)
    return x, trace, bool(not trace or trace[-1] < tolerance)


def top_k_pagerank(ranks: PageRankVector, graph: Graph, k: int) -> TopKTable:
    """Table of the k highest-scoring nodes, degree breakdown as attributes."""
    return table_from_scores(graph, ranks.scores, k)
