"""Degree, indegree and outdegree analysis with a ranked top-k table."""

import numpy as np

from roadnet import EdgeList, build_graph, top_k_by_degree

# a ring of minor roads with one busy interchange (node 100) connected
# to every fourth intersection
rng = np.random.default_rng(0)
records = [(i, (i + 1) % 40) for i in range(40)]
records += [(100, i) for i in range(0, 40, 4)]
records += [(int(u), int(v)) for u, v in rng.integers(0, 40, size=(25, 2))]

graph = build_graph(EdgeList.from_records(records))

print(f"n={graph.n}, undirected edges={graph.undirected_edge_count}")
print(f"degree of dense index 0: {int(graph.degrees[0])}")
for label, values in [("max degree:   ", graph.degrees),
                      ("max indegree: ", graph.indegrees),
                      ("max outdegree:", graph.outdegrees)]:
    # the first maximum wins; id_map ascends, so that is the lowest ID
    i = int(np.argmax(values))
    print(f"{label} node {graph.id_map[i]} with {values[i]}")

# handshake lemma: degrees sum to twice the edge count
assert graph.degrees.sum() == 2 * graph.undirected_edge_count

print("\ntop 5 intersections by degree:")
print(top_k_by_degree(graph, 5).format_triples())
