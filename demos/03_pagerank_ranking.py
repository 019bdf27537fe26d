"""Rank intersections by PageRank and print the top-k triple table.

PageRank runs over the undirected view: every edge passes score in both
directions, weighted by the sender's degree, with a (1 - damping) uniform
teleport.  Zero-degree nodes redistribute their mass uniformly so the
scores always sum to one.  On this view the scores solve a symmetric
positive definite system, which conjugate gradients solve until the
relative residual drops below the tolerance.
"""

import numpy as np

from roadnet import EdgeList, build_graph, pagerank, top_k_pagerank

# two dense neighborhoods bridged by a single connector node 999
rng = np.random.default_rng(3)
records = [(int(u), int(v)) for u, v in rng.integers(0, 15, size=(60, 2))]
records += [(int(u), int(v)) for u, v in rng.integers(20, 35, size=(60, 2))]
records += [(7, 999), (999, 27)]

graph = build_graph(EdgeList.from_records(records))
ranks = pagerank(graph, damping=0.85, tolerance=1e-12, max_iterations=500)

print(f"converged={ranks.converged} after {ranks.iterations_run} iterations "
      f"(final relative residual {ranks.final_delta:.2e})")
print(f"score mass: {ranks.scores.sum():.12f} (always 1 within 1e-9)")
print(f"minimum score: {ranks.scores.min():.3e} "
      f">= (1-d)/n = {(1 - 0.85) / graph.n:.3e}")

print("\ntop 10 intersections by page rank:")
print(top_k_pagerank(ranks, graph, 10).format_triples())

# symmetry check: on a cycle every node must score exactly 1/n
cycle = build_graph(EdgeList.from_records([(i, (i + 1) % 6) for i in range(6)]))
uniform = pagerank(cycle, tolerance=1e-14, max_iterations=1000)
print(f"\n6-cycle sanity: scores all 1/6 -> "
      f"{np.allclose(uniform.scores, 1 / 6, atol=1e-12)}")
