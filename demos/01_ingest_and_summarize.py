"""Ingest a SNAP-style edge list and reproduce its dataset summary.

SNAP road-network files store every undirected road segment as two directed
lines, so the published edge counts refer to the deduplicated undirected
view.  This walkthrough builds a small file in that format, parses it, and
shows both views side by side.
"""

import io
from pathlib import Path

from roadnet import (build_graph, parse_edge_list, summarize,
                     write_edge_list)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# a toy "road network": a square of intersections plus one dead end,
# each segment written in both directions like the real files
segments = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)]
lines = ["# toy road network", "# FromNodeId\tToNodeId"]
for u, v in segments:
    lines.append(f"{u}\t{v}")
    lines.append(f"{v}\t{u}")
text = "\n".join(lines) + "\n"

path = OUT / "toy.txt"
path.write_text(text)
print(f"wrote {path} ({len(segments) * 2} data lines)")

edges = parse_edge_list(io.StringIO(text), "toy.txt")
print(f"parsed {edges.line_count} records, first three: {edges.records[:3]}")

s = summarize(edges)
print(f"nodes={s.node_count} edges={s.undirected_edge_count}")
print(f"raw directed lines: {s.directed_edge_count}, "
      f"self loops: {s.self_loop_count}")

graph = build_graph(edges)
print(f"graph: n={graph.n}, undirected edges={graph.undirected_edge_count}, "
      f"raw arcs={graph.arc_count}")
neighbors = graph.undirected_neighbors[
    graph.undirected_offsets[2]:graph.undirected_offsets[3]]
print(f"neighbors of intersection 2: {neighbors.tolist()}")

# writing the records back yields the identical sequence on re-parse
buf = io.StringIO()
write_edge_list(edges, buf)
again = parse_edge_list(io.StringIO(buf.getvalue()))
assert again.records == edges.records
print("round trip: records identical after write + re-parse")
