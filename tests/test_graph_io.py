import gc
import io
import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadnet import (EdgeList, ParseError, build_graph, load_edge_list,
                     parse_edge_list, summarize, write_edge_list)
from roadnet import graph_io
from roadnet.graph import split_keys
from roadnet.graph_io import (BLOCK_LINES, DIRECT_TABLE_FLOOR, NodeIndex,
                              iter_edge_blocks, iter_edge_lines, pair_keys)
from roadnet.stream import stream_batches
from conftest import random_records

records_strategy = st.lists(
    st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)),
    max_size=200)


def test_parse_basic():
    edges = parse_edge_list(io.StringIO("# comment\n0\t1\n1\t2\n"), "demo")
    assert edges.records == [(0, 1), (1, 2)]
    assert edges.line_count == 2


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
    ("0\t1\n-0\t2\n", 2),
    ("0\t1\n\n# c\n3.5\t2\n", 4),
    ("0\t1\n0\t9223372036854775808\n", 2),
    ("0 1\n+1\t1_0\n", 2),
    ("\u0663 4\n", 1),
    ("7 \uff17\n", 1),
])
def test_parse_malformed_line(text, bad_line):
    with pytest.raises(ParseError) as err:
        parse_edge_list(io.StringIO(text), "bad.txt")
    assert err.value.line_number == bad_line
    assert err.value.source_name == "bad.txt"
    assert repr(err.value.text) in str(err.value)
    assert f":{bad_line}:" in str(err.value)


def test_binary_stream_left_open_without_resource_warnings(tmp_path):
    path = tmp_path / "e.txt"
    path.write_bytes(b"0 1\n1 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        buf = io.BytesIO(b"0 1\n")
        assert parse_edge_list(buf).records == [(0, 1)]
        assert not buf.closed
        buf = io.BytesIO(b"0 1\n1 2\n")
        lines = iter_edge_lines(buf)
        next(lines)
        lines.close()  # a read abandoned half way
        assert not buf.closed
        assert load_edge_list(path).line_count == 2
        with open(path, "rb") as fp:
            assert len(list(iter_edge_blocks(fp))) == 1
            assert not fp.closed
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_scanner_numbers_lines_from_first_line():
    lines = iter_edge_lines(io.StringIO("0 1\n\n2 x\n"), "f", first_line=40)
    assert next(lines) == (40, 0, 1)
    with pytest.raises(ParseError) as err:
        next(lines)
    assert (err.value.source_name, err.value.line_number, err.value.text,
            err.value.reason) == ("f", 42, "2 x", "non-integer node identifier")


def test_parse_io_failure_carries_source():
    class Boom(io.StringIO):
        def __next__(self):
            raise OSError("disk gone")

    with pytest.raises(OSError, match="reading flaky.txt"):
        parse_edge_list(Boom("0\t1\n"), "flaky.txt")


def test_strict_decode_failure_carries_source(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0\t1\n\xff\t2\n")

    def scan(fp, name):
        return list(iter_edge_lines(fp, name))

    for read in (parse_edge_list, scan):
        with open(path, encoding="utf-8") as fp, \
                pytest.raises(ValueError, match="reading bad.txt") as err:
            read(fp, "bad.txt")
        assert isinstance(err.value.__cause__, UnicodeDecodeError)


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
    assert g.undirected_neighbors[
        g.undirected_offsets[0]:g.undirected_offsets[1]].tolist() == [1]


def test_id_map_is_sorted_original_ids():
    g = build_graph(EdgeList.from_records([(10, 5), (7, 10)]))
    # dense index i is original ID id_map[i], in ascending order
    assert list(g.id_map) == [5, 7, 10]


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
    edges = EdgeList.from_records(records)
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


def unique_indices(f, t):
    """The reference for a one-batch NodeIndex: one sort of both arrays."""
    ids, inverse = np.unique(np.concatenate([f, t]), return_inverse=True)
    return ids, inverse[:f.size], inverse[f.size:]


# arcs enough that their limit, 4 entries per endpoint, passes the floor
ABOVE_FLOOR = DIRECT_TABLE_FLOOR // 8 + 1000
BIG = 2**63 - 1


@pytest.mark.parametrize("ends,direct", [
    ([], True),
    ([7], True),
    ([BIG], False),
    (np.concatenate([np.arange(20), BIG - np.arange(20)]), False),
    (np.arange(0, 2**62, 2**62 // 3000), False),
    ([3, 0, DIRECT_TABLE_FLOOR - 1], True),  # max_id + 1 at the limit
    ([3, 0, DIRECT_TABLE_FLOOR], False),
    ([-4, 0, 9], False),
    (np.arange(2 * ABOVE_FLOOR) % 1000, True),
    (np.append(np.arange(2 * ABOVE_FLOOR - 1) % 1000, 8 * ABOVE_FLOOR - 1),
     True),
    (np.append(np.arange(2 * ABOVE_FLOOR - 1) % 1000, 8 * ABOVE_FLOOR),
     False),
], ids=["empty", "one", "one_big", "near_max", "wide", "floor_in",
        "floor_out", "negative", "above_floor", "above_floor_in",
        "above_floor_out"])
def test_dense_indices_match_sort(ends, direct, monkeypatch):
    rng = np.random.default_rng(5)
    ends = rng.permutation(np.asarray(ends, dtype=np.int64))
    f, t = ends[:ends.size // 2], ends[ends.size // 2:]
    expected = unique_indices(f, t)
    sorts, unique = [], np.unique

    def spy(*args, **kwargs):
        sorts.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    got = NodeIndex().add(f, t)
    assert len(sorts) == (0 if direct else 1)
    for a, b in zip(got, expected):
        assert a.dtype == np.int64 and a.tolist() == b.tolist()


def dict_index(batches):
    """The reference numbering, batch by batch: each ID unseen before the
    batch takes the next index, in ID order within the batch."""
    index, out = {}, []
    for f, t in batches:
        for u in sorted(set(f.tolist() + t.tolist()) - index.keys()):
            index[u] = len(index)
        out.append(([index[u] for u in f.tolist()],
                    [index[u] for u in t.tolist()]))
    return list(index), out


DENSE = np.arange(300)
# each stream is a list of phases, one run of arcs each; "crosses_gate"
# starts on the direct table and brings IDs past its bound mid-run
ID_STREAMS = {
    "dense": [DENSE],
    "near_max": [BIG - DENSE],
    "negative": [DENSE - 150],
    "crosses_gate": [DENSE, np.append(DENSE, 2 * DIRECT_TABLE_FLOOR + DENSE)],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("stream", sorted(ID_STREAMS))
def test_node_index_matches_dict_reference(stream, seed):
    # random batch cuts of 1-99 arcs: on the table the first batch marks
    # its IDs, and later batches sort their unseen endpoints
    rng = np.random.default_rng([seed, sorted(ID_STREAMS).index(stream)])
    arcs = np.concatenate([rng.choice(ids, size=(1500, 2))
                           for ids in ID_STREAMS[stream]])
    cuts = np.cumsum(rng.integers(1, 100, arcs.shape[0]))
    cuts = cuts[cuts < arcs.shape[0]]
    batches = [(a[:, 0].copy(), a[:, 1].copy())
               for a in np.split(arcs, cuts)]
    ids, expected = dict_index(batches)
    index, on_table, got_ids = NodeIndex(), [], []
    for (f, t), (src, dst) in zip(batches, expected):
        fresh, got_src, got_dst = index.add(f, t)
        on_table.append(index.table is not None)
        assert got_src.tolist() == src and got_dst.tolist() == dst
        got_ids += fresh.tolist()
        assert got_ids == ids[:index.n]
    assert index.n == len(ids) and on_table[-1] == (stream == "dense")
    assert on_table[0] or stream != "crosses_gate"


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


def test_parse_largest_id():
    top = 2**63 - 1
    assert parse_edge_list(io.StringIO(f"{top}\t0\n")).records == [(top, 0)]


def reader_of(data):
    return io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)


def outcome(pairs_with_error):
    """Rows yielded before any ParseError, and its (line, text, reason)."""
    rows = []
    try:
        for u, v in pairs_with_error:
            rows.append((u, v))
    except ParseError as err:
        return rows, (err.line_number, err.text, err.reason)
    return rows, None


def scanned(data):
    """The line scanner (the oracle) over ``data``."""
    return outcome((u, v) for _, u, v in iter_edge_lines(reader_of(data), "f"))


def block_read(data):
    return outcome(pair for f, t in iter_edge_blocks(reader_of(data), "f")
                   for pair in zip(f.tolist(), t.tolist()))


def assert_parses_like_scanner(data):
    rows, error = scanned(data)
    assert block_read(data) == (rows, error)
    if error is None:
        edges = parse_edge_list(reader_of(data), "f")
        assert edges.from_ids.dtype == edges.to_ids.dtype == np.int64
        assert edges.records == rows
    else:
        with pytest.raises(ParseError) as err:
            parse_edge_list(reader_of(data), "f")
        assert (err.value.line_number, err.value.text,
                err.value.reason) == error


PIECES = ["0", "7", "42", "123456789012345678", "9223372036854775807",
          "9223372036854775808", "12345678901234567890", "+", "-", "_", ".",
          "x", "#", "# c", " ", "\t", "\n", "\n", "\r", "\r\n", "\x0c",
          "\xa0", "\u0663", "0 1\n", "3\t4\n"]


@given(st.lists(st.sampled_from(PIECES), max_size=60).map("".join),
       st.sampled_from([1, 2, 3, BLOCK_LINES]))
@settings(max_examples=300, deadline=None)
def test_block_parser_matches_line_scanner(text, block_lines):
    with mock.patch.object(graph_io, "BLOCK_LINES", block_lines):
        assert_parses_like_scanner(text)
        data = text.encode("utf-8")
        assert_parses_like_scanner(data)
        assert_parses_like_scanner(data.replace(b"x", b"\xff"))  # not UTF-8


def test_line_holding_two_newlines_stays_one_line():
    lines = ["0 1\n2 3\n", "4 5\n"]  # an iterable of lines, not a file
    with pytest.raises(ParseError, match="expected 2 fields, got 4") as err:
        parse_edge_list(lines)
    assert err.value.line_number == 1


def data_lines(n):
    return [f"{i}\t{i * 7919 % 100003}\n" for i in range(n)]


def test_bad_line_in_third_block_has_absolute_line_number():
    lines = data_lines(3 * BLOCK_LINES)
    lines[2 * BLOCK_LINES + 100] = "12\tx7\n"
    assert_parses_like_scanner("".join(lines))
    with pytest.raises(ParseError) as err:
        parse_edge_list(io.StringIO("".join(lines)), "big.txt")
    assert err.value.line_number == 2 * BLOCK_LINES + 101
    assert err.value.text == "12\tx7"


@pytest.mark.parametrize("bad_line", [3, 2 * BLOCK_LINES + 101])
def test_non_utf8_byte_reports_its_line(bad_line):
    # a comment of bytes that are not UTF-8 is skipped; a data line is not
    lines = [s.encode() for s in data_lines(3 * BLOCK_LINES)]
    lines[0] = b"# caf\xe9 \xff\n"
    lines[bad_line - 1] = b"\xff\t3\n"
    data = b"".join(lines)
    assert_parses_like_scanner(data)
    with pytest.raises(ParseError) as err:
        parse_edge_list(io.BytesIO(data), "bad.txt")
    assert err.value.line_number == bad_line
    assert str(err.value) == (f"bad.txt:{bad_line}: non-integer node "
                              "identifier: '\\udcff\\t3'")


def test_mid_file_comments_and_blank_lines():
    lines = data_lines(2 * BLOCK_LINES + 500)
    for at, extra in [(2 * BLOCK_LINES + 3, "  \t \n"), (BLOCK_LINES, "\n"),
                      (BLOCK_LINES - 1, "# mid-file comment\n"),
                      (7, " \t# indented comment \u00e9\n"), (0, "# header\n")]:
        lines.insert(at, extra)
    text = "".join(lines)
    assert_parses_like_scanner(text)
    assert parse_edge_list(io.StringIO(text)).line_count == 2 * BLOCK_LINES + 500


def test_crlf_file(tmp_path):
    text = "# header\r\n" + "".join(data_lines(2 * BLOCK_LINES + 9)).replace(
        "\n", "\r\n") + "\r\n"
    assert_parses_like_scanner(text.encode())
    assert_parses_like_scanner(text)
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.encode())
    edges = load_edge_list(path)
    assert edges.records == scanned(text.encode())[0]
    assert edges.line_count == 2 * BLOCK_LINES + 9


def test_lone_cr_in_first_block_shifts_bad_line_in_second():
    lines = data_lines(2 * BLOCK_LINES + 10)
    lines[10] = "1\t2\r3\t4\n"  # universal newlines: two lines
    lines[BLOCK_LINES + 50] = "oops\n"
    data = "".join(lines).encode()
    assert_parses_like_scanner(data)
    assert_parses_like_scanner(data.decode())
    with pytest.raises(ParseError) as err:
        parse_edge_list(io.BytesIO(data), "cr.txt")
    assert err.value.line_number == BLOCK_LINES + 52


def test_snap_format_stays_on_the_fast_path(tmp_path, monkeypatch):
    def no_scanner(*args, **kwargs):
        raise AssertionError("line scanner used")

    monkeypatch.setattr(graph_io, "iter_edge_lines", no_scanner)
    body = "".join(data_lines(2 * BLOCK_LINES + 3))
    text = ("# Directed graph (each unordered pair of nodes is saved once)\n"
            "# FromNodeId\tToNodeId\n\n" + body + "\n5 6\n 7 \t 8 \n\n")
    path = tmp_path / "snap.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    edges = load_edge_list(path)
    assert edges.line_count == 2 * BLOCK_LINES + 5
    assert edges.records[-2:] == [(5, 6), (7, 8)]


@given(st.lists(st.sampled_from(PIECES), max_size=60).map("".join),
       st.sampled_from([1, 2, 3, 7, graph_io.BLOCK_BYTES]))
@settings(max_examples=300, deadline=None)
def test_byte_chunks_parse_like_line_scanner(text, block_bytes):
    data = text.encode("utf-8")
    with mock.patch.object(graph_io, "BLOCK_BYTES", block_bytes):
        assert_parses_like_scanner(data)
        assert_parses_like_scanner(data.replace(b"x", b"\xff"))  # not UTF-8


@pytest.mark.parametrize("data", [
    b"# " + b"c" * 40 + b"\n0 1\n" + b"1" * 17 + b"\t2\n3 4\n",  # long lines
    b"0 1\n2 3",  # no final newline
    b"0 1\r\n2 3\r\n4\t5\r\n",
    b"0 1\r2 3\n4 5\nx\n",  # a lone "\r" ends a line: x is line 4
    b"0 1\n2\r3\n",  # line 2 holds one token
    b"0 1\n2 3\r",
    b"# caf\xe9\n0 1\n2 3\n",  # not UTF-8 in a comment
    b"# caf\xc3\xa9 \xc3\xa9\n0 1\n2 3\n",  # UTF-8 across a chunk edge
    b"0 1\n# \xff\n\xff\t3\n",  # not UTF-8 in a data line
], ids=["long-lines", "no-final-newline", "crlf", "lone-cr",
        "lone-cr-in-a-pair", "final-cr", "latin-1-comment", "utf-8-comment",
        "bad-byte"])
@pytest.mark.parametrize("block_bytes", range(1, 13))
def test_chunk_edges_parse_like_line_scanner(data, block_bytes):
    with mock.patch.object(graph_io, "BLOCK_BYTES", block_bytes):
        assert_parses_like_scanner(data)


def test_bad_line_in_third_chunk_has_absolute_line_number():
    lines = data_lines(4 * graph_io.BLOCK_BYTES // 10)
    ends = np.cumsum([len(s) for s in lines])
    bad = int(np.searchsorted(ends, 2 * graph_io.BLOCK_BYTES + 100))
    lines[bad] = "12\tx7\n"
    data = "".join(lines).encode()
    assert len(data) > 3 * graph_io.BLOCK_BYTES
    assert_parses_like_scanner(data)
    with pytest.raises(ParseError) as err:
        parse_edge_list(io.BytesIO(data), "big.txt")
    assert err.value.line_number == bad + 1
    assert err.value.text == "12\tx7"


class FailsAfter(io.RawIOBase):
    """A raw binary stream that serves ``data[:limit]``, then fails."""

    def __init__(self, data, limit):
        self.data, self.limit, self.served = data, limit, 0

    def readable(self):
        return True

    def readinto(self, buf):
        if self.served == self.limit:
            raise OSError("disk gone")
        n = min(len(buf), self.limit - self.served)
        buf[:n] = self.data[self.served:self.served + n]
        self.served += n
        return n


@pytest.mark.parametrize("limit", [0, 3, 4, 13, 5000, 200_000])
def test_rows_before_an_io_failure_are_the_whole_lines_read(limit):
    data = "".join(data_lines(30_000)).replace("\n", "\r\n", 50).encode()
    rows = []
    with pytest.raises(OSError, match="reading f.txt"):
        for f, t in iter_edge_blocks(FailsAfter(data, limit), "f.txt"):
            rows += zip(f.tolist(), t.tolist())
    read = data[:limit]
    assert rows == scanned(read[:read.rfind(b"\n") + 1])[0]


def test_binary_snap_file_is_parsed_as_bytes(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("text path used")

    body = "".join(data_lines(3 * graph_io.BLOCK_BYTES // 10))
    text = ("# Directed graph (each unordered pair of nodes is saved once)\n"
            "# FromNodeId\tToNodeId\n\n" + body + "\n5 6\n\n  7 \t 8  ")
    data = text.replace("\n", "\r\n").encode()
    assert len(data) > 3 * graph_io.BLOCK_BYTES
    expected = scanned(data)
    path = tmp_path / "snap.txt"
    path.write_bytes(data)
    monkeypatch.setattr(graph_io, "iter_edge_lines", refuse)
    monkeypatch.setattr(io, "TextIOWrapper", refuse)
    edges = load_edge_list(path)
    assert (edges.records, None) == expected
    assert edges.records[-2:] == [(5, 6), (7, 8)]


def test_pipe_yields_the_rows_that_have_arrived():
    read_fd, write_fd = os.pipe()
    got = []
    with open(read_fd, "rb") as reader, open(write_fd, "wb", 0) as writer:
        writer.write(b"# c\n0 1\n2 3\n4")  # the writer stays open
        blocks = iter_edge_blocks(reader, "pipe")
        worker = threading.Thread(target=lambda: got.append(next(blocks)))
        worker.start()
        worker.join(timeout=10)
        arrived = not worker.is_alive()
        writer.close()  # ends a read still waiting for more
        worker.join(timeout=10)
    assert arrived and not worker.is_alive()
    assert [t.tolist() for t in got[0]] == [[0, 2], [1, 3]]


@pytest.mark.parametrize("read", [
    parse_edge_list, lambda lines: list(stream_batches(lines, 1)),
], ids=["parse_edge_list", "stream_batches"])
def test_line_with_an_inner_newline_next_to_one_without_is_one_line(read):
    # as many "\n"s as lines, yet line 1 is "0 1\n2" to the scanner
    with pytest.raises(ParseError) as err:
        read(["0 1\n2", " 3\n"])
    assert (err.value.line_number, err.value.text, err.value.reason) == (
        1, "0 1\n2", "expected 2 fields, got 3")


def rows_in_blocks_of_at_most(blocks, most):
    for f, t in blocks:
        assert 0 < f.size <= most
        yield from zip(f.tolist(), t.tolist())


@given(st.lists(st.sampled_from(PIECES), max_size=60).map("".join),
       st.data(), st.sampled_from([1, 2, 3, BLOCK_LINES]))
@settings(max_examples=300, deadline=None)
def test_line_lists_parse_like_line_scanner(text, data, block_lines):
    # cut anywhere, so an item may hold an inner "\n" or lack a final one
    cuts = sorted(data.draw(st.sets(st.integers(0, len(text)), max_size=12)))
    lines = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
    with mock.patch.object(graph_io, "BLOCK_LINES", block_lines):
        blocks = iter_edge_blocks(lines, "f")
        assert outcome(rows_in_blocks_of_at_most(blocks, block_lines)) == \
            outcome((u, v) for _, u, v in iter_edge_lines(lines, "f"))


def test_list_of_more_lines_than_a_block_is_read_once():
    lines = data_lines(BLOCK_LINES + 1)
    assert [f.size for f, _ in iter_edge_blocks(lines)] == [BLOCK_LINES, 1]
    assert parse_edge_list(lines).records == \
        [(u, v) for _, u, v in iter_edge_lines(lines)]


# whole well-formed lines, drawn as often as all of PIECES together, so runs
# of data lines reach past the block and batch edges
LINES = ["0 1\n", "7\t12\r\n", "42 9223372036854775807\n", "5 5\r"]
lines_and_pieces = st.lists(
    st.one_of(st.sampled_from(LINES), st.sampled_from(PIECES)), max_size=60)


@given(lines_and_pieces.map("".join), st.sampled_from([1, 2, 3, BLOCK_LINES]))
@settings(max_examples=300, deadline=None)
def test_runs_of_lines_block_parse_like_line_scanner(text, block_lines):
    test_block_parser_matches_line_scanner.hypothesis.inner_test(
        text, block_lines)


@given(lines_and_pieces.map("".join),
       st.sampled_from([1, 2, 3, 7, graph_io.BLOCK_BYTES]))
@settings(max_examples=300, deadline=None)
def test_runs_of_lines_in_byte_chunks_parse_like_line_scanner(text,
                                                              block_bytes):
    test_byte_chunks_parse_like_line_scanner.hypothesis.inner_test(
        text, block_bytes)


@given(lines_and_pieces, st.sampled_from([1, 2, 3, BLOCK_LINES]))
@settings(max_examples=300, deadline=None)
def test_runs_of_lines_in_line_lists_parse_like_line_scanner(lines,
                                                             block_lines):
    # one item per line, so the runs of data lines are kept whole
    with mock.patch.object(graph_io, "BLOCK_LINES", block_lines):
        blocks = iter_edge_blocks(lines, "f")
        assert outcome(rows_in_blocks_of_at_most(blocks, block_lines)) == \
            outcome((u, v) for _, u, v in iter_edge_lines(lines, "f"))
