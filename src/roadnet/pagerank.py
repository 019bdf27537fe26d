"""PageRank power iteration with uniform teleport and dangling redistribution.

Per iteration, over the chosen adjacency view:

    score'(v) = (1 - d)/n + d * (sum_{u in adj(v)} score(u)/deg(u) + dangling/n)

where ``dangling`` is the total score sitting on zero-out-degree nodes.  The
redistribution keeps the score vector a probability distribution, so the sum
stays 1 up to float rounding.  Iteration stops when the L1 change drops
below ``tolerance`` or after ``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from ._text import Floats, Ints, write_rows
from .graph import Graph, TopKTable, table_from_scores
from .parallel import block_count, block_ranges, run_blocks


@dataclass(frozen=True)
class PageRankVector:
    scores: np.ndarray
    damping: float
    iterations_run: int
    final_delta: float
    converged: bool

    def __post_init__(self):
        self.scores.flags.writeable = False

    def to_csv(self, fp: IO[str], graph: Graph) -> None:
        fp.write("node_id,score\n")
        write_rows(fp, [Ints(graph.id_map), ",", Floats(self.scores), "\n"])


def pagerank(graph: Graph, damping: float = 0.85, tolerance: float = 1e-10,
             max_iterations: int = 100, *, directed: bool = False,
             threads: int = 1) -> PageRankVector:
    """Rank nodes of the undirected view (default) or the raw directed arcs.

    On the undirected view every edge acts as two arcs, so deg(u) is the
    undirected degree.  With ``directed=True`` mass flows along raw arcs and
    deg(u) is the outdegree.
    """
    if graph.n == 0:
        raise ValueError("pagerank needs a non-empty graph")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if not tolerance > 0.0:  # also refuses nan
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")

    n = graph.n
    if directed:
        # accumulate over in-arcs; each source u spreads score(u)/outdeg(u)
        offsets, neighbors = graph.in_offsets, graph.in_neighbors
        share_deg = graph.outdegrees.astype(np.float64)
    else:
        offsets, neighbors = graph.undirected_offsets, graph.undirected_neighbors
        share_deg = graph.degrees.astype(np.float64)

    # score / inf is 0.0, so dangling nodes send nothing without a mask
    dangling = np.flatnonzero(share_deg == 0)
    share_deg[dangling] = np.inf
    blocks = []  # (a, b, arc slice, local row of each arc) per node block
    split = block_count("pagerank", neighbors.size, threads)
    for a, b in block_ranges(n, split):
        rows = np.repeat(np.arange(b - a), np.diff(offsets[a:b + 1]))
        blocks.append((a, b, slice(offsets[a], offsets[b]), rows))

    scores = np.full(n, 1.0 / n)
    new = np.empty(n)
    contrib = np.empty(n)
    w = np.empty(n)
    base = (1.0 - damping) / n

    def accumulate(a: int, b: int, arcs: slice, rows: np.ndarray) -> None:
        contrib[a:b] = np.bincount(rows, weights=w[neighbors[arcs]],
                                   minlength=b - a)

    iterations = 0
    delta = np.inf
    converged = False
    while iterations < max_iterations:
        np.divide(scores, share_deg, out=w)
        run_blocks(accumulate, blocks, threads)
        loose = scores[dangling].sum()
        # new = base + damping * (contrib + loose / n), in place
        np.add(contrib, loose / n, out=new)
        new *= damping
        new += base
        np.subtract(new, scores, out=w)  # w is free until the next step
        delta = float(np.abs(w, out=w).sum())
        scores, new = new, scores
        iterations += 1
        if delta < tolerance:
            converged = True
            break

    return PageRankVector(
        scores=scores,
        damping=damping,
        iterations_run=iterations,
        final_delta=delta,
        converged=converged,
    )


def top_k_pagerank(ranks: PageRankVector, graph: Graph, k: int) -> TopKTable:
    """Table of the k highest-scoring nodes, degree breakdown as attributes."""
    return table_from_scores(graph, ranks.scores, k)
