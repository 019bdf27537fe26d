import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadnet
from roadnet import EdgeList, build_graph, top_k_by_degree
from roadnet.cli import main
from roadnet.graph import (arc_keys, csr_from_keys, sorted_distinct,
                           split_keys, top_k_order)
from roadnet.graph_io import pair_keys
from conftest import random_records
from oracles import degree_scan, topk_sort

records_strategy = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)),
    min_size=1, max_size=250)


def graph_of(records):
    return build_graph(EdgeList.from_records(records))


def neighbors(g, v):
    return g.undirected_neighbors[
        g.undirected_offsets[v]:g.undirected_offsets[v + 1]]


def test_degree_on_path():
    g = graph_of([(0, 1), (1, 2)])
    assert g.degrees.tolist() == [1, 2, 1]


def test_degree_isolated_self_loop_node():
    # node 2 appears only in a self-loop: isolated in the undirected view
    g = graph_of([(0, 1), (2, 2)])
    assert g.degrees[g.id_map.tolist().index(2)] == 0


def run_degrees(path, out, capsys):
    """``degree_stats.json`` and the stdout lines of the degrees command."""
    assert main(["degrees", "--input", str(path), "--out", str(out)]) == 0
    maxima = json.loads((out / "degree_stats.json").read_text())
    return maxima, capsys.readouterr().out.splitlines()


def test_degree_stats_hand_count(snap_file, tmp_path, capsys):
    records = [(0, 1), (1, 0), (1, 2)]
    g = graph_of(records)
    assert g.outdegrees.tolist() == [1, 2, 0]
    assert g.indegrees.tolist() == [1, 1, 1]
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.indegrees.sum() == g.outdegrees.sum() == g.arc_count
    maxima, stdout = run_degrees(snap_file(records), tmp_path / "out", capsys)
    assert maxima == {"max_degree": {"node": 1, "value": 2},
                      "max_indegree": {"node": 0, "value": 1},
                      "max_outdegree": {"node": 1, "value": 2}}
    assert stdout == ["max_degree: node 1 value 2",
                      "max_indegree: node 0 value 1",
                      "max_outdegree: node 1 value 2"]


def test_degree_stats_empty_graph(snap_file, tmp_path, capsys):
    path = snap_file([], header="# only a comment")
    maxima, stdout = run_degrees(path, tmp_path / "out", capsys)
    assert maxima == {"max_degree": None, "max_indegree": None,
                      "max_outdegree": None}
    assert stdout == ["max_degree: none (empty graph)",
                      "max_indegree: none (empty graph)",
                      "max_outdegree: none (empty graph)"]
    assert (tmp_path / "out" / "degree_stats.json").read_text() == (
        '{\n  "max_degree": null,\n  "max_indegree": null,\n'
        '  "max_outdegree": null\n}\n')


def test_degree_stats_tie_breaks_to_lowest_id(snap_file, tmp_path, capsys):
    # 5, 7 and 9 tie on degree and on indegree, 5 and 9 on outdegree; the
    # smallest tied ID wins each, though node 1 sorts ahead of all three
    records = [(9, 5), (5, 9), (9, 5), (5, 9), (5, 7), (9, 7), (1, 1)]
    maxima, stdout = run_degrees(snap_file(records), tmp_path / "out", capsys)
    assert maxima == {"max_degree": {"node": 5, "value": 2},
                      "max_indegree": {"node": 5, "value": 2},
                      "max_outdegree": {"node": 5, "value": 3}}
    assert stdout == ["max_degree: node 5 value 2",
                      "max_indegree: node 5 value 2",
                      "max_outdegree: node 5 value 3"]


@pytest.mark.parametrize("name", ["degrees", "indegrees", "outdegrees",
                                  "sources", "targets"])
def test_degree_arrays_are_read_only(name):
    g = graph_of([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="read-only"):
        getattr(g, name)[0] = 99
    assert top_k_by_degree(g, 1).rows[0].attributes == (
        "degree=2", "indegree=1", "outdegree=1")


def test_every_public_name_resolves():
    import roadnet.pagerank
    import roadnet.stream
    for name in roadnet.__all__:
        value = getattr(roadnet, name)
        assert value is not None, name
        home = sys.modules[getattr(value, "__module__", "roadnet")]
        assert getattr(home, name) is value, name
    # the submodule imports above leave the function bound, not its module
    assert roadnet.pagerank is sys.modules["roadnet.pagerank"].pagerank
    assert set(roadnet.__all__) <= set(dir(roadnet))
    namespace = {}
    exec("from roadnet import *", namespace)
    assert {name: namespace[name] for name in roadnet.__all__} \
        == {name: getattr(roadnet, name) for name in roadnet.__all__}
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        roadnet.nonesuch


def test_top_k_star():
    records = [(0, i) for i in range(1, 5)]
    table = top_k_by_degree(graph_of(records), 1)
    assert len(table.rows) == 1
    assert table.rows[0].node_id == 0
    assert table.rows[0].score == 4


def test_top_k_tie_break_on_path():
    table = top_k_by_degree(graph_of([(0, 1), (1, 2)]), 3)
    assert [(r.node_id, r.score) for r in table.rows] == [(1, 2), (0, 1), (2, 1)]


def test_top_k_truncates_to_n():
    table = top_k_by_degree(graph_of([(0, 1)]), 10)
    assert len(table.rows) == 2
    assert table.k == 10


def test_top_k_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        top_k_by_degree(graph_of([(0, 1)]), 0)


def test_top_k_full_matches_sort_oracle():
    rng = np.random.default_rng(11)
    records = random_records(rng, 40, 200)
    g = graph_of(records)
    table = top_k_by_degree(g, g.n)
    deg, _, _ = degree_scan(records)
    expected = topk_sort(deg.items(), g.n)
    assert [(r.node_id, r.score) for r in table.rows] == expected


@pytest.mark.parametrize("seed", range(6))
def test_top_k_order_matches_full_sort(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    ids = rng.permutation(5 * n)[:n]
    ties = rng.integers(0, 4, size=n)  # integer scores, many ties
    floats = rng.choice(rng.random(max(n // 3, 1)), size=n)
    equal = np.full(n, 0.5)
    # most entries share the middle score, so the k-th score is tied there
    most = np.where(rng.random(n) < 0.8, 3, rng.choice([1, 5], size=n))
    for scores in (ties, floats, equal, most):
        for k in sorted({1, 2, n // 2 + 1, n - 1, n, n + 1, 10 * n} - {0}):
            expected = np.lexsort((ids, -scores))[:k]
            assert top_k_order(scores, ids, k).tolist() == expected.tolist()


def test_top_k_order_of_nothing():
    empty = np.zeros(0, dtype=np.int64)
    assert top_k_order(empty, empty, 5).size == 0


def test_attributes_carry_degree_breakdown():
    table = top_k_by_degree(graph_of([(0, 1), (1, 0), (1, 2)]), 1)
    assert table.rows[0].attributes == ("degree=2", "indegree=1", "outdegree=2")


def test_table_csv_format():
    table = top_k_by_degree(graph_of([(0, 1), (1, 2)]), 2)
    buf = io.StringIO()
    table.to_csv(buf)
    assert buf.getvalue() == (
        "node_id,score,attributes\n"
        "1,2,degree=2;indegree=1;outdegree=1\n"
        "0,1,degree=1;indegree=0;outdegree=1\n")


def test_table_triple_format():
    table = top_k_by_degree(graph_of([(0, 1), (1, 2)]), 1)
    assert table.format_triples() == \
        "(1, 2, List(degree=2, indegree=1, outdegree=1))"


@given(records_strategy)
@settings(max_examples=80, deadline=None)
def test_handshake_lemma(records):
    g = graph_of(records)
    assert g.degrees.sum() == 2 * g.undirected_edge_count
    assert g.indegrees.sum() == g.outdegrees.sum() == g.arc_count


@given(records_strategy)
@settings(max_examples=60, deadline=None)
def test_undirected_adjacency_structure(records):
    g = graph_of(records)
    for v in range(g.n):
        nbrs = neighbors(g, v)
        assert np.all(np.diff(nbrs) > 0)  # sorted, no duplicates
        assert v not in nbrs
        for u in nbrs.tolist():
            assert v in neighbors(g, u)


@given(records_strategy)
@settings(max_examples=60, deadline=None)
def test_degrees_match_scan_oracle(records):
    g = graph_of(records)
    deg, indeg, outdeg = degree_scan(records)
    for v in range(g.n):
        node = int(g.id_map[v])
        assert g.degrees[v] == deg[node]
        assert g.indegrees[v] == indeg[node]
        assert g.outdegrees[v] == outdeg[node]


def test_degree_equals_occurrences_in_neighbor_lists():
    rng = np.random.default_rng(3)
    g = graph_of(random_records(rng, 30, 120))
    counts = np.bincount(g.undirected_neighbors, minlength=g.n)
    assert np.array_equal(g.degrees, counts)


def test_raw_arcs_are_kept_in_file_order():
    rng = np.random.default_rng(5)
    # 2^40 IDs are sparse enough to move the node index to its sorted path
    for max_id, m in [(0, 3), (5, 60), (30, 400), (2**40, 300)]:
        records = random_records(rng, max_id, m)
        edges = EdgeList.from_records(records)
        g = build_graph(edges)
        assert np.array_equal(g.id_map[g.sources], edges.from_ids)
        assert np.array_equal(g.id_map[g.targets], edges.to_ids)
        _, indeg, outdeg = degree_scan(records)
        ids = g.id_map.tolist()
        assert g.indegrees.tolist() == [indeg[u] for u in ids]
        assert g.outdegrees.tolist() == [outdeg[u] for u in ids]


def assert_csr_matches_lexsort(n, src, dst):
    offsets, neighbors = csr_from_keys(n, arc_keys(src, dst, n))
    order = np.lexsort((dst, src))
    assert neighbors.dtype == np.int64
    assert np.array_equal(neighbors, dst[order])
    assert np.array_equal(offsets,
                          np.searchsorted(src[order], np.arange(n + 1)))


def test_csr_from_keys_matches_lexsort_reference():
    rng = np.random.default_rng(4)
    for n, m in [(1, 0), (1, 5), (7, 40), (300, 2000)]:
        # a small ID range forces duplicate arcs and self-loops
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        assert_csr_matches_lexsort(n, src, dst)
    # build_graph's input: the distinct pairs and their reverses, from arcs
    # heavy in duplicates and self-loops, and from few arcs over many nodes
    for n, m in [(1, 6), (9, 60), (40, 900), (50, 30)]:
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        src[::3] = dst[::3]  # every third arc a self-loop
        lo, hi = split_keys(pair_keys(src, dst, n))
        assert_csr_matches_lexsort(n, np.concatenate([lo, hi]),
                                   np.concatenate([hi, lo]))


def test_arc_keys_at_and_past_the_index_limit():
    top = np.array([2**31 - 1, 0, 2**31 - 1], dtype=np.int64)
    rev = np.array([0, 2**31 - 1, 5], dtype=np.int64)
    keys = np.sort(arc_keys(top, rev, 2**31))
    assert list(zip(*map(np.ndarray.tolist, split_keys(keys)))) == [
        (0, 2**31 - 1), (2**31 - 1, 0), (2**31 - 1, 5)]
    with pytest.raises(ValueError, match="2\\^31"):
        arc_keys(top, rev, 2**31 + 1)


@pytest.mark.parametrize("size,high", [(0, 5), (1, 5), (500, 10), (500, 2**62),
                                       (20_000, 3000)])
def test_sorted_distinct_equals_np_unique(size, high):
    values = np.random.default_rng(size).integers(-high, high, size=size)
    assert np.array_equal(sorted_distinct(values), np.unique(values))
