"""Degree, indegree and outdegree analysis with a ranked top-k table."""

import numpy as np

from roadnet import EdgeList, build_graph, degree_stats, top_k_by_degree

# a ring of minor roads with one busy interchange (node 100) connected
# to every fourth intersection
rng = np.random.default_rng(0)
records = [(i, (i + 1) % 40) for i in range(40)]
records += [(100, i) for i in range(0, 40, 4)]
records += [(int(u), int(v)) for u, v in rng.integers(0, 40, size=(25, 2))]

graph = build_graph(EdgeList.from_records(records))
stats = degree_stats(graph)

print(f"n={graph.n}, undirected edges={graph.undirected_edge_count}")
print(f"degree of dense index 0: {int(graph.degrees[0])}")
print(f"max degree:    node {stats.max_degree_node[1]} "
      f"with {stats.max_degree_node[2]}")
print(f"max indegree:  node {stats.max_indegree_node[1]} "
      f"with {stats.max_indegree_node[2]}")
print(f"max outdegree: node {stats.max_outdegree_node[1]} "
      f"with {stats.max_outdegree_node[2]}")

# handshake lemma: degrees sum to twice the edge count
assert stats.degree.sum() == 2 * graph.undirected_edge_count

print("\ntop 5 intersections by degree:")
print(top_k_by_degree(graph, 5).format_triples())
