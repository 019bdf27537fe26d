"""pagerank.csv, degrees.csv and SNAP edge lists through the numpy row writer.

The per-row string writers these replaced are kept below as frozen
references; the new writers must give the same text, chunk edges and IDs
near 2**63 included.
"""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadnet import (EdgeList, PageRankVector, build_graph, pagerank,
                     write_edge_list)
from roadnet import _text
from roadnet._text import CHUNK_ROWS, Floats, write_rows
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


def assert_text_matches(got, want):
    """``got == want``; on a mismatch, name the first rows that differ
    rather than diff megabytes of text."""
    same = got == want
    assert same, [(a, b) for a, b in zip(got.splitlines(), want.splitlines())
                  if a != b][:5] or (len(got), len(want))


@pytest.mark.parametrize("n", SIZES)
def test_pagerank_csv_matches_loop(n):
    graph = build_graph(mixed_graph_edges(n, seed=n))
    assert graph.n == n and graph.id_map[-1] == 2**63 - 1
    ranks = pagerank(graph, max_iterations=5)
    assert_text_matches(pagerank_csv(ranks, graph),
                        loop_pagerank_csv(graph.id_map, ranks.scores))


def test_pagerank_csv_exponent_and_integer_scores():
    scores = np.array([1e-05, 1.4792708053011196e-05, 0.25, 1.0, 0.0,
                       1.5e-300, 0.1 + 0.2])
    graph = build_graph(EdgeList.from_records(
        [(i, i + 1) for i in range(scores.size - 1)]))
    ranks = PageRankVector(scores, 0.85, 1, True, (0.0,))
    text = pagerank_csv(ranks, graph)
    assert_text_matches(text, loop_pagerank_csv(graph.id_map, scores))
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
    assert_text_matches(text, loop_degrees_csv(build_graph(edges)))


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
    assert_text_matches(buf.getvalue(), loop_edge_list(edges))


def test_edge_list_refuses_negative_ids():
    for f, t in [([0, -1], [1, 2]), ([0, 1], [2, -5])]:
        edges = EdgeList(from_ids=np.array(f), to_ids=np.array(t))
        with pytest.raises(ValueError):
            write_edge_list(edges, io.StringIO())


def floats_text(v):
    buf = io.StringIO()
    write_rows(buf, [Floats(v), "\n"])
    return buf.getvalue()


def loop_floats_text(v):
    return "".join(map("{!r}\n".format, v.tolist()))


def assert_floats_match_repr(v):
    """The row writer's text equals the repr loop's."""
    assert_text_matches(floats_text(v), loop_floats_text(v))


def with_neighbours(v):
    v = np.asarray(v, dtype=np.float64)
    return np.concatenate([v, np.nextafter(v, 0), np.nextafter(v, np.inf)])


# SHA-256 of the repr loop text of the 10**6 seeded bit patterns below.
# Building that text takes over 2 s, so the sweep builds it only when the
# writer's text has another digest: to name the rows that differ, or to
# pass where another numpy stream drew other patterns.
NORMALS_REPR_SHA256 = \
    "4aa46b4663e16cad2ba74d91acc39a8bd19d0db983473d5cfd9cdf909407313b"


def test_shortest_digits_sweep_matches_repr():
    """Every chunk holds only positive normals, so all of them take the
    shortest-digits path."""
    rng = np.random.default_rng(14)
    normals = rng.integers(1 << 52, 0x7FF << 52, size=10**6, dtype=np.uint64)
    v = normals.view(np.float64)
    text = floats_text(v).encode()
    if hashlib.sha256(text).hexdigest() != NORMALS_REPR_SHA256:
        assert_floats_match_repr(v)
    v = np.concatenate([
        2.0 ** np.arange(-1022, 1024),  # c = 2**52: irregular spacing
        with_neighbours(10.0 ** np.arange(-307, 309)),
        with_neighbours([1e-5, 1e-4, 1e16]),  # where repr switches notation
        np.arange(2**53 - 300, 2**53 + 300, dtype=np.float64),
        rng.integers(1, 10, 3000) * 10.0 ** rng.integers(-300, 300, 3000),
    ])
    rng.shuffle(v)
    assert_floats_match_repr(v)


FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=np.finfo(np.float64).tiny, allow_infinity=False),
    st.integers(0, 2 * 10**16).map(float))


@settings(max_examples=100, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=40), st.integers(1, 9))
def test_floats_match_repr_in_every_chunk(values, chunk_rows):
    """Chunks mix every kind of value, nan, inf, -0.0 and subnormals
    included; each chunk picks its own path."""
    v = np.array(values, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_text, "CHUNK_ROWS", chunk_rows)
        assert_floats_match_repr(v)


def test_pagerank_scores_never_call_repr(monkeypatch):
    calls = []

    def spy(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(_text, "repr", spy, raising=False)
    graph = build_graph(mixed_graph_edges(CHUNK_ROWS + 1, seed=3))
    ranks = pagerank(graph)
    pagerank_csv(ranks, graph)
    assert calls == []
    assert_floats_match_repr(ranks.scores)
    assert calls == []
    scores = ranks.scores.copy()
    scores[0] = 0.0  # the first chunk now falls back, the last does not
    assert_floats_match_repr(scores)
    assert len(calls) == CHUNK_ROWS
