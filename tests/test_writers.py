"""pagerank.csv, degrees.csv and SNAP edge lists through the numpy row writer.

The per-row string writers these replaced are kept below as frozen
references; the new writers must give the same text, chunk edges and IDs
near 2**63 included.
"""

import io

import numpy as np
import pytest

from roadnet import (EdgeList, PageRankVector, build_graph, pagerank,
                     write_edge_list)
from roadnet._text import CHUNK_ROWS
from roadnet.cli import main

SIZES = [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]
TOP_IDS = [10**17, 2**62, 2**63 - 1]


def loop_pagerank_csv(id_map, scores):
    return "node_id,score\n" + "".join(map(
        "{},{!r}\n".format, id_map.tolist(), scores.tolist()))


def loop_degrees_csv(graph):
    return "node_id,degree,indegree,outdegree\n" + "".join(map(
        "{},{},{},{}\n".format, graph.id_map.tolist(), graph.degrees.tolist(),
        graph.indegrees.tolist(), graph.outdegrees.tolist()))


def loop_edge_list(edges):
    return "".join(f"{u}\t{v}\n" for u, v in
                   zip(edges.from_ids.tolist(), edges.to_ids.tolist()))


def mixed_graph_edges(n, seed):
    """Arcs over exactly n node IDs of every width up to 2**63 - 1: a path
    in shuffled order, plus repeated arcs and self-loops so that degree,
    indegree and outdegree differ."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(np.array([*range(n - len(TOP_IDS)), *TOP_IDS],
                                   dtype=np.int64))
    extra = rng.integers(0, n, size=(n // 10, 2))
    f = np.concatenate([ids[:-1], ids[extra[:, 0]], ids[:5]])
    t = np.concatenate([ids[1:], ids[extra[:, 1]], ids[:5]])
    return EdgeList(from_ids=f, to_ids=t)


def pagerank_csv(ranks, graph):
    buf = io.StringIO()
    ranks.to_csv(buf, graph)
    return buf.getvalue()


@pytest.mark.parametrize("n", SIZES)
def test_pagerank_csv_matches_loop(n):
    graph = build_graph(mixed_graph_edges(n, seed=n))
    assert graph.n == n and graph.id_map[-1] == 2**63 - 1
    ranks = pagerank(graph, max_iterations=5)
    assert pagerank_csv(ranks, graph) == loop_pagerank_csv(graph.id_map,
                                                           ranks.scores)


def test_pagerank_csv_exponent_and_integer_scores():
    scores = np.array([1e-05, 1.4792708053011196e-05, 0.25, 1.0, 0.0,
                       1.5e-300, 0.1 + 0.2])
    graph = build_graph(EdgeList.from_records(
        [(i, i + 1) for i in range(scores.size - 1)]))
    ranks = PageRankVector(scores, 0.85, 1, True, (0.0,))
    text = pagerank_csv(ranks, graph)
    assert text == loop_pagerank_csv(graph.id_map, scores)
    assert "0,1e-05\n1,1.4792708053011196e-05\n" in text
    assert "\n6,0.30000000000000004\n" in text

    one = build_graph(EdgeList.from_records([(7, 7)]))  # score 1.0
    ranks = pagerank(one)
    assert pagerank_csv(ranks, one) == "node_id,score\n7,1.0\n"


@pytest.mark.parametrize("n", SIZES)
def test_degrees_csv_matches_loop(n, tmp_path):
    edges = mixed_graph_edges(n, seed=n + 1)
    path = tmp_path / "edges.txt"
    with open(path, "w", encoding="utf-8") as fp:
        write_edge_list(edges, fp)
    assert main(["degrees", "--input", str(path), "--out",
                 str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "degrees.csv").read_text(encoding="utf-8")
    assert text == loop_degrees_csv(build_graph(edges))


def test_degrees_csv_of_empty_input_is_header_only(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# no data lines\n", encoding="utf-8")
    assert main(["degrees", "--input", str(path), "--out",
                 str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "degrees.csv").read_text(encoding="utf-8") \
        == "node_id,degree,indegree,outdegree\n"


@pytest.mark.parametrize("m", [0, 1, *SIZES])
def test_edge_list_matches_loop(m):
    rng = np.random.default_rng(m)
    ends = rng.integers(0, 2**63 - 1, size=(2, m), dtype=np.int64,
                        endpoint=True)
    ends[:, :m // 2] //= rng.integers(1, 10**18, size=m // 2)
    ends[:, :min(m, 3)] = [[0, 9, 2**63 - 1][:min(m, 3)]] * 2
    edges = EdgeList(from_ids=ends[0], to_ids=ends[1])
    buf = io.StringIO()
    write_edge_list(edges, buf)
    assert buf.getvalue() == loop_edge_list(edges)


def test_edge_list_refuses_negative_ids():
    for f, t in [([0, -1], [1, 2]), ([0, 1], [2, -5])]:
        edges = EdgeList(from_ids=np.array(f), to_ids=np.array(t))
        with pytest.raises(ValueError):
            write_edge_list(edges, io.StringIO())
