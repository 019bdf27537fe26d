import io
import json

import numpy as np
import pytest

from roadnet import (DatasetSummary, EdgeList, ParseError, build_graph,
                     pagerank, run_stream, stream_batches, summarize,
                     top_k_by_degree, top_k_pagerank, write_edge_list)
import roadnet.stream
from roadnet.graph import (TopKRow, TopKTable, degree_attributes,
                           sorted_distinct, split_keys, top_k_order)
from roadnet.graph_io import (BLOCK_LINES, DIRECT_TABLE_FLOOR,
                              iter_edge_lines, pair_keys)
from roadnet.stream import _DegreeTracker, write_ndjson
from conftest import random_records


def as_stream(records):
    buf = io.StringIO()
    write_edge_list(EdgeList.from_records(records), buf)
    return io.StringIO(buf.getvalue())


def test_chunk_sizes():
    records = [(i, i + 1) for i in range(5)]
    chunks = list(stream_batches(as_stream(records), 2))
    assert [c.line_count for c in chunks] == [2, 2, 1]
    assert [r for c in chunks for r in c.records] == records


def test_single_chunk_when_batch_covers_input():
    records = [(0, 1), (1, 2)]
    chunks = list(stream_batches(as_stream(records), 10))
    assert len(chunks) == 1
    assert chunks[0].records == records


def test_empty_input_yields_nothing():
    assert list(stream_batches(io.StringIO(""), 3)) == []
    assert list(run_stream(io.StringIO("# only comments\n"), 3)) == []


def test_batch_size_validated():
    with pytest.raises(ValueError):
        list(stream_batches(io.StringIO("0\t1\n"), 0))
    with pytest.raises(ValueError):
        list(run_stream(io.StringIO("0\t1\n"), 5, k=0))


def test_parse_error_has_absolute_line_number():
    text = "0\t1\n1\t2\n2\t3\n# c\nbad line here\n"
    with pytest.raises(ParseError) as err:
        list(stream_batches(io.StringIO(text), 2, "s.txt"))
    assert err.value.line_number == 5


def snap_text(n):
    """A '#' header, n data lines and a blank line every 1000 lines."""
    return "# header\n" + "".join(
        f"{i}\t{i * 7919 % 100003}\n" + ("\n" if i % 1000 == 999 else "")
        for i in range(n))


@pytest.mark.parametrize("batch_size", [1, 7, BLOCK_LINES - 1, BLOCK_LINES + 1])
def test_batches_across_blocks(batch_size):
    text = snap_text(2 * BLOCK_LINES + 77)
    chunks = list(stream_batches(io.StringIO(text), batch_size))
    sizes = [c.line_count for c in chunks]
    assert sizes[:-1] == [batch_size] * (len(chunks) - 1)
    assert 1 <= sizes[-1] <= batch_size
    expected = [(u, v) for _, u, v in iter_edge_lines(io.StringIO(text))]
    got = np.concatenate([np.column_stack([c.from_ids, c.to_ids])
                          for c in chunks])
    assert got.tolist() == [list(p) for p in expected]


def test_batches_before_parse_error_match_line_by_line_read():
    # 19,999 data lines after the header, then a bad line 20,001; a
    # line-by-line read fills 9,999 batches of 2 before reaching it.
    text = snap_text(19_999).replace("\n\n", "\n") + "7\t-\n0\t1\n"
    emitted = 0
    with pytest.raises(ParseError) as err:
        for _ in stream_batches(io.StringIO(text), 2, "s.txt"):
            emitted += 1
    assert err.value.line_number == 20_001
    assert emitted == 9_999


def test_batches_before_io_failure_are_emitted():
    class FailsAfter(io.StringIO):
        def __init__(self, text, lines):
            super().__init__(text)
            self.lines = lines

        def __next__(self):
            if self.lines == 0:
                raise OSError("disk gone")
            self.lines -= 1
            return super().__next__()

    emitted = []
    with pytest.raises(OSError, match="reading s.txt"):
        for chunk in stream_batches(FailsAfter(snap_text(10), 6), 2, "s.txt"):
            emitted.append(chunk.records)
    assert emitted == [[(0, 0), (1, 7919)], [(2, 15838), (3, 23757)]]


def test_two_batch_example():
    stats = list(run_stream(as_stream([(0, 1), (1, 2)]), 1, k=1))
    assert [s.batch_index for s in stats] == [1, 2]
    first, second = stats
    assert first.top_degree.rows[0].node_id == 0  # degree tie, lowest ID
    assert first.top_degree.rows[0].score == 1
    assert second.top_degree.rows[0].node_id == 1
    assert second.top_degree.rows[0].score == 2
    assert first.top_pagerank is None


def test_cumulative_counts_non_decreasing():
    rng = np.random.default_rng(42)
    records = random_records(rng, 50, 300)
    stats = list(run_stream(as_stream(records), 37, k=3))
    edges = [s.cumulative_edges for s in stats]
    nodes = [s.cumulative_nodes for s in stats]
    assert edges == sorted(edges)
    assert nodes == sorted(nodes)
    assert edges[-1] == 300


@pytest.mark.parametrize("batch_size", [1, 7, 50, 1000])
def test_final_batch_equals_batch_pipeline(batch_size):
    # duplicates and self-loops included: the tie rules and dedupe must match
    rng = np.random.default_rng(17)
    records = random_records(rng, 25, 400)
    k = 10
    final = list(run_stream(as_stream(records), batch_size, k=k))[-1]
    graph = build_graph(EdgeList.from_records(records))
    assert final.top_degree == top_k_by_degree(graph, k)
    assert final.cumulative_nodes == graph.n
    assert final.cumulative_edges == graph.arc_count


def test_recompute_pagerank_final_matches_batch_pipeline():
    rng = np.random.default_rng(6)
    records = random_records(rng, 20, 120)
    final = list(run_stream(as_stream(records), 50, k=5,
                            recompute_pagerank=True))[-1]
    graph = build_graph(EdgeList.from_records(records))
    expected = top_k_pagerank(pagerank(graph), graph, 5)
    assert final.top_pagerank == expected


def test_every_batch_has_pagerank_when_enabled():
    stats = list(run_stream(as_stream([(0, 1), (1, 2), (2, 3)]), 1, k=2,
                            recompute_pagerank=True))
    assert all(s.top_pagerank is not None for s in stats)


def test_ndjson_shape_and_determinism_modulo_ms():
    rng = np.random.default_rng(10)
    records = random_records(rng, 30, 90)

    def capture():
        sink = io.StringIO()
        for _ in write_ndjson(run_stream(as_stream(records), 25, k=4), sink):
            pass
        return sink.getvalue().splitlines()

    first, second = capture(), capture()
    assert len(first) == len(second) == 4  # ceil(90 / 25)
    for a, b in zip(first, second):
        da, db = json.loads(a), json.loads(b)
        assert list(da) == ["batch", "cumulative_edges", "cumulative_nodes",
                            "top_degree", "ms"]
        da.pop("ms"), db.pop("ms")
        assert da == db
        for entry in da["top_degree"]:
            assert set(entry) == {"node", "score"}


def assert_every_batch_matches_prefix(records, batch_size, k):
    """Each batch's table and counts equal the batch pipeline on the prefix."""
    stats = list(run_stream(as_stream(records), batch_size, k=k))
    assert len(stats) == -(-len(records) // batch_size)
    for s in stats:
        prefix = records[:s.batch_index * batch_size]
        graph = build_graph(EdgeList.from_records(prefix))
        assert s.cumulative_edges == len(prefix)
        assert s.cumulative_nodes == graph.n
        assert s.top_degree == top_k_by_degree(graph, k), s.batch_index
        assert all(type(row.score) is int and type(row.node_id) is int
                   for row in s.top_degree.rows)
    return stats


@pytest.mark.parametrize("batch_size", [1, 7, 50, 1000])
def test_every_batch_equals_batch_pipeline_on_prefix(batch_size):
    rng = np.random.default_rng(17)
    records = random_records(rng, 25, 400)
    assert_every_batch_matches_prefix(records, batch_size, k=10)


def test_node_drops_out_of_top_k_on_id_tie():
    # after batch 3, node 1 ties node 6 at degree 1 and wins on the lower ID
    stats = assert_every_batch_matches_prefix([(5, 6), (5, 7), (1, 2)], 1, k=2)
    tops = [[row.node_id for row in s.top_degree.rows] for s in stats]
    assert tops == [[5, 6], [5, 6], [5, 1]]


BIG = 2**63 - 1
# 5 nodes, 7 arcs, 3 undirected edges, 2 self-loops; node 7 has only
# self-loops, and the IDs next to 2^63 sit beside 0
EDGE_RECORDS = [(BIG, 0), (0, BIG), (BIG - 1, BIG), (7, 7), (7, 7), (3, 0),
                (BIG, BIG - 1)]


def test_edge_inputs_summary_and_top_k():
    edges = EdgeList.from_records(EDGE_RECORDS)
    assert summarize(edges) == DatasetSummary(5, 7, 3, 2)
    table = top_k_by_degree(build_graph(edges), 10)
    assert [(r.node_id, r.score) for r in table.rows] == [
        (0, 2), (BIG, 2), (3, 1), (BIG - 1, 1), (7, 0)]
    assert table.rows[-1].attributes == ("degree=0", "indegree=2",
                                         "outdegree=2")


@pytest.mark.parametrize("batch_size", [1, 2, 3])
def test_edge_inputs_every_batch(batch_size):
    stats = assert_every_batch_matches_prefix(EDGE_RECORDS, batch_size, k=10)
    assert len(stats[-1].top_degree.rows) == 5
    assert json.loads(stats[-1].to_json())["top_degree"][1] == {
        "node": BIG, "score": 2}



class ReferenceTracker:
    """The tracker as it was before capacity-doubled state, the threshold
    filter and the direct ID table, kept frozen as the reference the current
    one must match.  Its batch index (``np.unique``) and its ranking (a full
    ``lexsort``) are inlined, so they do not follow changes to the code under
    test."""

    def __init__(self, k: int):
        self.k = k
        self.ids = self.slot_of = self.keys = np.full(1, -1, dtype=np.int64)
        self.node_id = self.top = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros((3, 0), dtype=np.int64)

    def add(self, edges: EdgeList) -> TopKTable:
        """Merge one batch of arcs; return the new top-k table."""
        batch_ids, inverse = np.unique(
            np.concatenate([edges.from_ids, edges.to_ids]), return_inverse=True)
        src, dst = np.split(inverse, [edges.line_count])
        pos = np.searchsorted(self.ids, batch_ids, side="right")
        fresh = self.ids[pos - 1] != batch_ids
        slots = self.slot_of[pos - 1]
        n = self.node_id.size + int(np.count_nonzero(fresh))
        slots[fresh] = np.arange(self.node_id.size, n)
        self.ids = np.insert(self.ids, pos[fresh], batch_ids[fresh])
        self.slot_of = np.insert(self.slot_of, pos[fresh], slots[fresh])
        self.node_id = np.concatenate([self.node_id, batch_ids[fresh]])
        src, dst = slots[src], slots[dst]
        keys = pair_keys(src, dst, n)
        at = np.searchsorted(self.keys, keys, side="right")
        unseen = self.keys[at - 1] != keys
        self.keys = np.insert(self.keys, at[unseen], keys[unseen])
        ends = np.concatenate(split_keys(keys[unseen]))
        self.counts = np.pad(self.counts, ((0, 0), (0, n - self.counts.shape[1])))
        self.counts += [np.bincount(x, minlength=n) for x in (ends, dst, src)]
        # Ranking the old top-k plus the batch's nodes is exact: degrees only
        # grow and (degree desc, ID asc) is a strict total order, so a node
        # outside both still has the k old leaders above it.
        cand = sorted_distinct(np.concatenate([self.top, slots]))
        order = np.lexsort((self.node_id[cand], -self.counts[0, cand]))
        self.top = cand[order[:self.k]]
        counts = self.counts[:, self.top].T.tolist()  # [degree, indegree, outdegree]
        rows = tuple(TopKRow(node, c[0], degree_attributes(*c))
                     for node, c in zip(self.node_id[self.top].tolist(), counts))
        return TopKTable(rows=rows, k=self.k)


def assert_tracker_matches_reference(batches, k):
    """Feed both trackers the same batches; compare every table and count."""
    tracker, reference = _DegreeTracker(k), ReferenceTracker(k)
    tables = []
    for index, batch in enumerate(batches, start=1):
        table = tracker.add(batch)
        assert table == reference.add(batch), index
        assert tracker.nodes.n == reference.node_id.size, index
        tables.append([row.node_id for row in table.rows])
    return tables


def cut_batches(arcs, batch_size):
    """EdgeList batches of batch_size rows of an (m, 2) arc array."""
    return [EdgeList(arcs[i:i + batch_size, 0].copy(),
                     arcs[i:i + batch_size, 1].copy())
            for i in range(0, len(arcs), batch_size)]


def random_arcs(rng, ids, m):
    """m arcs over the ID pool, a tenth of them self-loops and a tenth
    repeats of earlier arcs."""
    arcs = rng.choice(ids, size=(m, 2))
    loops = rng.random(m) < 0.1
    arcs[loops, 1] = arcs[loops, 0]
    again = np.flatnonzero(rng.random(m) < 0.1)
    arcs[again] = arcs[rng.integers(0, again + 1)]
    return arcs


SMALL = np.arange(40, dtype=np.int64)
WIDE = np.arange(0, 2**62, 2**62 // 3000, dtype=np.int64)
# each pool is a list of phases, one run of arcs each; "wide_after_dense"
# starts on the direct ID table and turns sparse mid-stream
ID_POOLS = {
    "tiny": [np.arange(6, dtype=np.int64)],
    "small": [SMALL],
    "near_max": [np.concatenate([np.arange(20), BIG - np.arange(20)])],
    "wide": [WIDE],
    "wide_after_dense": [SMALL, WIDE],
}


@pytest.mark.parametrize("batch_size,m", [(1, 300), (7, 700), (2500, 8000)])
@pytest.mark.parametrize("pool", sorted(ID_POOLS))
def test_tracker_matches_reference_on_random_streams(batch_size, m, pool):
    rng = np.random.default_rng([batch_size, sorted(ID_POOLS).index(pool)])
    phases = ID_POOLS[pool]
    arcs = np.concatenate([random_arcs(rng, ids, m // len(phases))
                           for ids in phases])
    batches = cut_batches(arcs, batch_size)
    for k in (1, 3, 10, 10_000):  # 10,000 exceeds every node count
        assert_tracker_matches_reference(batches, k)


def edge_batches(*batches):
    return [EdgeList.from_records(records) for records in batches]


def test_equal_degree_lower_id_displaces_weakest_leader():
    # after batch 1 the table is full: 5 and 6 at degree 1; in batch 3,
    # node 1 reaches degree 1 and beats 6, the weakest leader, on the ID
    tops = assert_tracker_matches_reference(
        edge_batches([(5, 6)], [(5, 7)], [(1, 9)]), k=2)
    assert tops == [[5, 6], [5, 6], [5, 1]]


def test_weakest_leader_measured_after_its_own_growth():
    # after batch 1: 5 at degree 3 leads 9 at degree 1.  In batch 2, 9 grows
    # to 4, so 5 becomes the weakest leader, and 2 ties it at 3 with a lower
    # ID; a threshold taken from the old order would keep 5 instead of 2
    tops = assert_tracker_matches_reference(edge_batches(
        [(5, 10), (5, 11), (5, 12), (9, 13)],
        [(9, 14), (9, 15), (9, 16), (2, 17), (2, 18), (2, 19)]), k=2)
    assert tops == [[5, 9], [9, 2]]


def lattice_batches(side, batch_size):
    """Both arcs of every edge of a side x side lattice (row-major IDs),
    sorted by from-ID as in the SNAP files, cut into batches."""
    cell = np.arange(side * side, dtype=np.int64).reshape(side, side)
    pairs = np.concatenate([
        np.column_stack([cell[:, :-1].ravel(), cell[:, 1:].ravel()]),
        np.column_stack([cell[:-1].ravel(), cell[1:].ravel()])])
    arcs = np.concatenate([pairs, pairs[:, ::-1]])
    return cut_batches(arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))], batch_size)


def test_counts_reallocated_logarithmically():
    batches = lattice_batches(120, 500)
    tracker = _DegreeTracker(10)
    held, reallocations = tracker.counts, 0
    for batch in batches:
        tracker.add(batch)
        if tracker.counts is not held:
            held, reallocations = tracker.counts, reallocations + 1
    assert len(batches) > 100 and tracker.nodes.n == 120 * 120
    assert reallocations <= np.log2(tracker.nodes.n) + 2


def test_dense_stream_indexes_ids_through_a_direct_table(monkeypatch):
    # only the pair keys take sorted inserts, and the slot table and the
    # IDs of the slots grow by doubling as the lattice is read batch by batch
    batches = lattice_batches(120, 500)
    tracker = _DegreeTracker(10)
    into_keys, insert = [], np.insert

    def spy(arr, *args, **kwargs):
        into_keys.append(arr is tracker.keys)
        return insert(arr, *args, **kwargs)

    monkeypatch.setattr(np, "insert", spy)
    nodes = tracker.nodes
    held, reallocations = [nodes.table, nodes.ids], [0, 0]
    for batch in batches:
        tracker.add(batch)
        for i, arr in enumerate([nodes.table, nodes.ids]):
            if arr is not held[i]:
                held[i], reallocations[i] = arr, reallocations[i] + 1
    assert nodes.sorted_ids is None and into_keys == [True] * len(batches)
    assert nodes.n == 120 * 120 and nodes.table.size >= nodes.n
    assert max(reallocations) <= np.log2(nodes.n) + 2
    assert nodes.table[nodes.ids[:nodes.n]].tolist() == list(range(nodes.n))


def test_sparse_batch_moves_the_index_to_the_sorted_path_once():
    top = DIRECT_TABLE_FLOOR - 1  # the largest ID the first batches admit
    tracker = _DegreeTracker(3)
    nodes = tracker.nodes
    tracker.add(EdgeList.from_records([(5, top), (top, 0)]))
    assert nodes.sorted_ids is None and nodes.table.size == top + 1
    tracker.add(EdgeList.from_records([(0, top + 1)]))
    assert nodes.sorted_ids.tolist() == [-1, 0, 5, top, top + 1]
    assert nodes.sorted_index.tolist() == [-1, 0, 1, 2, 3]
    tracker.add(EdgeList.from_records([(1, 2)]))  # dense again, still sorted
    assert nodes.sorted_ids.tolist() == [-1, 0, 1, 2, 5, top, top + 1]
    assert nodes.sorted_index.tolist() == [-1, 0, 4, 5, 1, 2, 3]


def test_ranked_candidates_stay_near_k(monkeypatch):
    # read in from-ID order, a lattice's lowest-ID nodes of degree 4 lead
    # early, so few later batch nodes beat the weakest of them
    ranked = []

    def spy(scores, ids, k):
        ranked.append(scores.size)
        return top_k_order(scores, ids, k)

    monkeypatch.setattr(roadnet.stream, "top_k_order", spy)
    k = 10
    tracker = _DegreeTracker(k)
    for batch in lattice_batches(100, 500):
        full = tracker.top.size == k
        tracker.add(batch)
        if full:
            batch_nodes = np.unique(np.concatenate(
                [batch.from_ids, batch.to_ids])).size
            assert ranked[-1] <= 2 * k < batch_nodes
    assert len(ranked) == 80
