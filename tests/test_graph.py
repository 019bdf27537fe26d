import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadnet import EdgeList, build_graph, degree_stats, top_k_by_degree
from roadnet.graph import arc_keys, csr_from_arcs, sorted_distinct, split_keys
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


def test_degree_stats_hand_count():
    g = graph_of([(0, 1), (1, 0), (1, 2)])
    stats = degree_stats(g)
    assert stats.outdegree.tolist() == [1, 2, 0]
    assert stats.indegree.tolist() == [1, 1, 1]
    assert stats.degree.tolist() == [1, 2, 1]
    assert stats.max_degree_node == (1, 1, 2)
    assert stats.indegree.sum() == stats.outdegree.sum() == g.arc_count


def test_degree_stats_empty_graph():
    g = graph_of([])
    stats = degree_stats(g)
    assert stats.degree.size == 0
    assert stats.max_degree_node is None
    assert stats.max_indegree_node is None
    assert stats.max_outdegree_node is None


def test_degree_stats_tie_breaks_to_lowest_id():
    # both endpoints have degree 1; the smaller original ID wins
    stats = degree_stats(graph_of([(9, 5)]))
    assert stats.max_degree_node == (0, 5, 1)


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
    with pytest.raises(ValueError):
        top_k_by_degree(graph_of([(0, 1)]), 0)


def test_top_k_full_matches_sort_oracle():
    rng = np.random.default_rng(11)
    records = random_records(rng, 40, 200)
    g = graph_of(records)
    table = top_k_by_degree(g, g.n)
    deg, _, _ = degree_scan(records)
    expected = topk_sort(deg.items(), g.n)
    assert [(r.node_id, r.score) for r in table.rows] == expected


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


def test_csr_from_arcs_matches_lexsort_reference():
    rng = np.random.default_rng(4)
    for n, m in [(1, 0), (1, 5), (7, 40), (300, 2000)]:
        # a small ID range forces duplicate arcs and self-loops
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        offsets, neighbors = csr_from_arcs(n, src, dst)
        order = np.lexsort((dst, src))
        assert neighbors.dtype == np.int64
        assert np.array_equal(neighbors, dst[order])
        assert np.array_equal(offsets,
                              np.searchsorted(src[order], np.arange(n + 1)))


def test_arc_keys_at_and_past_the_index_limit():
    top = np.array([2**31 - 1, 0, 2**31 - 1], dtype=np.int64)
    rev = np.array([0, 2**31 - 1, 5], dtype=np.int64)
    keys = np.sort(arc_keys(top, rev, 2**31))
    assert list(zip(*map(np.ndarray.tolist, split_keys(keys)))) == [
        (0, 2**31 - 1), (2**31 - 1, 0), (2**31 - 1, 5)]
    with pytest.raises(ValueError, match="2\\^31"):
        csr_from_arcs(2**31 + 1, top, rev)


@pytest.mark.parametrize("size,high", [(0, 5), (1, 5), (500, 10), (500, 2**62),
                                       (20_000, 3000)])
def test_sorted_distinct_equals_np_unique(size, high):
    values = np.random.default_rng(size).integers(-high, high, size=size)
    assert np.array_equal(sorted_distinct(values), np.unique(values))
