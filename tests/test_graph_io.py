import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadnet import (EdgeList, EdgeRecord, ParseError, build_graph,
                     parse_edge_list, summarize, write_edge_list)
from roadnet.graph_io import pair_keys, split_keys
from conftest import random_records

records_strategy = st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=200)


def test_parse_basic():
    edges = parse_edge_list(io.StringIO("# comment\n0\t1\n1\t2\n"), "demo")
    assert edges.records == [EdgeRecord(0, 1), EdgeRecord(1, 2)]
    assert edges.line_count == 2
    assert edges.source_name == "demo"


def test_parse_empty_stream():
    edges = parse_edge_list(io.StringIO(""))
    assert edges.line_count == 0
    assert edges.records == []
    assert summarize(edges) == type(summarize(edges))(0, 0, 0, 0)


def test_parse_blank_lines_and_comments_skipped():
    text = "# a\n\n  \n0\t1\n# b\n2\t3\n\n"
    edges = parse_edge_list(io.StringIO(text))
    assert edges.records == [(0, 1), (2, 3)]


def test_parse_whitespace_runs():
    edges = parse_edge_list(io.StringIO("0  1\n1\t\t2\n 2 \t 3 \n"))
    assert edges.records == [(0, 1), (1, 2), (2, 3)]


def test_parse_byte_stream():
    edges = parse_edge_list(io.BytesIO(b"# c\n5\t7\n"), "bin")
    assert edges.records == [(5, 7)]


@pytest.mark.parametrize("text,bad_line", [
    ("# ok\n0\tx\n", 2),
    ("0\t1\n1\n", 2),
    ("0 1 2\n", 1),
    ("-1\t2\n", 1),
    ("0\t1\n\n# c\n3.5\t2\n", 4),
])
def test_parse_malformed_line(text, bad_line):
    with pytest.raises(ParseError) as err:
        parse_edge_list(io.StringIO(text), "bad.txt")
    assert err.value.line_number == bad_line
    assert err.value.source_name == "bad.txt"
    assert repr(err.value.text) in str(err.value)
    assert f":{bad_line}:" in str(err.value)


def test_parse_io_failure_carries_source():
    class Boom(io.StringIO):
        def __next__(self):
            raise OSError("disk gone")

    with pytest.raises(OSError, match="reading flaky.txt"):
        parse_edge_list(Boom("0\t1\n"), "flaky.txt")


def test_summarize_hand_counts():
    edges = EdgeList.from_records([(0, 1), (1, 0), (1, 2)])
    s = summarize(edges)
    assert (s.node_count, s.directed_edge_count,
            s.undirected_edge_count, s.self_loop_count) == (3, 3, 2, 0)


def test_summarize_self_loop():
    s = summarize(EdgeList.from_records([(5, 5)]))
    assert (s.node_count, s.directed_edge_count,
            s.undirected_edge_count, s.self_loop_count) == (1, 1, 0, 1)


def test_summarize_duplicate_arcs_collapse():
    s = summarize(EdgeList.from_records([(0, 1), (0, 1), (1, 0)]))
    assert s.directed_edge_count == 3
    assert s.undirected_edge_count == 1


def test_build_graph_symmetrized_pair():
    g = build_graph(EdgeList.from_records([(0, 1), (1, 0)]))
    assert g.n == 2
    assert g.arc_count == 2
    assert g.undirected_edge_count == 1


def test_build_graph_drops_self_loop_from_undirected():
    g = build_graph(EdgeList.from_records([(2, 2), (2, 7)]))
    assert g.arc_count == 2
    assert g.undirected_edge_count == 1
    assert list(g.id_map) == [2, 7]
    assert list(g.neighbors(0)) == [1]


def test_id_map_is_sorted_original_ids():
    g = build_graph(EdgeList.from_records([(10, 5), (7, 10)]))
    assert list(g.id_map) == [5, 7, 10]
    # dense indices follow ascending original IDs
    assert g.original_id(0) == 5 and g.original_id(2) == 10


def test_graph_arrays_immutable():
    g = build_graph(EdgeList.from_records([(0, 1)]))
    with pytest.raises(ValueError):
        g.undirected_neighbors[0] = 9


def test_from_records_rejects_negative():
    with pytest.raises(ValueError):
        EdgeList.from_records([(0, -1)])


@given(records_strategy)
@settings(max_examples=60, deadline=None)
def test_round_trip_write_parse(records):
    edges = EdgeList.from_records(records, source_name="mem")
    buf = io.StringIO()
    write_edge_list(edges, buf)
    again = parse_edge_list(io.StringIO(buf.getvalue()), "mem")
    assert again.records == edges.records


@given(records_strategy)
@settings(max_examples=60, deadline=None)
def test_summary_agrees_with_graph(records):
    edges = EdgeList.from_records(records)
    s = summarize(edges)
    g = build_graph(edges)
    assert s.undirected_edge_count == g.undirected_edge_count
    assert s.directed_edge_count == g.arc_count
    assert s.node_count == g.n


def test_dense_index_bijection():
    rng = np.random.default_rng(7)
    records = random_records(rng, 500, 300)
    g = build_graph(EdgeList.from_records(records))
    originals = sorted({u for u, v in records} | {v for u, v in records})
    assert list(g.id_map) == originals
    assert np.all(np.diff(g.id_map) > 0)


def test_pair_keys_round_trip_at_index_limit():
    top = 2**31 - 1
    src = np.array([top, 0, top - 1, 5, top], dtype=np.int64)
    dst = np.array([top - 1, top, top, 5, 0], dtype=np.int64)
    keys = pair_keys(src, dst, 2**31)
    assert np.all(keys >= 0) and np.all(np.diff(keys) > 0)
    lo, hi = split_keys(keys)
    assert list(zip(lo.tolist(), hi.tolist())) == [(0, top), (top - 1, top)]


def test_pair_keys_reject_too_many_nodes():
    one = np.array([1], dtype=np.int64)
    with pytest.raises(ValueError, match="2\\^31"):
        pair_keys(one - 1, one, 2**31 + 1)
