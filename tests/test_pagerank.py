import sys

import numpy as np
import pytest

from roadnet import (EdgeList, build_graph, pagerank, top_k_pagerank)
from conftest import random_records
from oracles import dense_pagerank, topk_sort

# star with center 0 and leaves 1..3; frozen from the dense-matrix oracle
# (analytically 0.8875/1.85 for the center at damping 0.85)
STAR_RECORDS = [(0, 1), (0, 2), (0, 3)]
STAR_CENTER = 0.47972972972972966
STAR_LEAF = 0.17342342342342346


def graph_of(records):
    return build_graph(EdgeList.from_records(records))


def test_three_cycle_is_uniform():
    ranks = pagerank(graph_of([(0, 1), (1, 2), (2, 0)]), tolerance=1e-14,
                     max_iterations=500)
    assert np.max(np.abs(ranks.scores - 1.0 / 3.0)) < 1e-12
    assert ranks.converged


def test_single_edge_is_uniform():
    ranks = pagerank(graph_of([(0, 1)]), tolerance=1e-14, max_iterations=500)
    assert np.max(np.abs(ranks.scores - 0.5)) < 1e-12


def test_star_matches_frozen_oracle_values():
    ranks = pagerank(graph_of(STAR_RECORDS), tolerance=1e-14,
                     max_iterations=2000)
    expected = np.array([STAR_CENTER, STAR_LEAF, STAR_LEAF, STAR_LEAF])
    assert np.max(np.abs(ranks.scores - expected)) < 1e-10
    # and against the oracle recomputed here
    oracle = dense_pagerank(STAR_RECORDS)
    assert np.max(np.abs(ranks.scores - oracle)) < 1e-10


def test_hundred_random_graphs_match_dense_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 4 * n))
        records = random_records(rng, n - 1, m)
        ranks = pagerank(graph_of(records), tolerance=1e-14,
                         max_iterations=20000)
        oracle = dense_pagerank(records, tol=1e-16)
        worst = max(worst, float(np.max(np.abs(ranks.scores - oracle))))
    assert worst <= 1e-10


def test_mass_conserved_after_every_iteration():
    records = [(0, 1), (1, 2), (3, 3), (4, 2)]
    for iters in range(1, 8):
        ranks = pagerank(graph_of(records), tolerance=1e-30,
                         max_iterations=iters)
        assert abs(ranks.scores.sum() - 1.0) < 1e-9
        assert ranks.iterations_run == iters


def test_score_lower_bound_and_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        records = random_records(rng, 30, 60)
        g = graph_of(records)
        ranks = pagerank(g, tolerance=1e-12, max_iterations=2000)
        assert abs(ranks.scores.sum() - 1.0) < 1e-9
        assert ranks.scores.min() >= (1.0 - ranks.damping) / g.n - 1e-12


def test_dangling_node_single_self_loop():
    ranks = pagerank(graph_of([(5, 5)]))
    assert ranks.scores.tolist() == [1.0]
    assert ranks.converged


def test_dangling_mass_redistributed():
    # node 0 only self-loops: degree 0 in the undirected view
    ranks = pagerank(graph_of([(0, 0), (1, 2)]), tolerance=1e-13,
                     max_iterations=2000)
    assert abs(ranks.scores.sum() - 1.0) < 1e-9
    assert ranks.scores[1] == ranks.scores[2] > ranks.scores[0] > 0


def test_bit_identical_across_thread_counts():
    rng = np.random.default_rng(9)
    g = graph_of(random_records(rng, 80, 400))
    one = pagerank(g, threads=1, tolerance=1e-12, max_iterations=300)
    four = pagerank(g, threads=4, tolerance=1e-12, max_iterations=300)
    assert np.array_equal(one.scores, four.scores)
    assert one.iterations_run == four.iterations_run
    assert one.final_delta == four.final_delta


def test_parameter_validation():
    g = graph_of([(0, 1)])
    with pytest.raises(ValueError):
        pagerank(g, damping=0.0)
    with pytest.raises(ValueError):
        pagerank(g, damping=1.0)
    with pytest.raises(ValueError):
        pagerank(g, tolerance=0.0)
    with pytest.raises(ValueError):
        pagerank(g, max_iterations=0)
    with pytest.raises(ValueError):
        pagerank(graph_of([]))


def test_convergence_flag_and_delta():
    g = graph_of([(0, 1), (1, 2)])
    loose = pagerank(g, tolerance=10.0, max_iterations=50)
    assert loose.converged and loose.iterations_run == 1
    tight = pagerank(g, tolerance=1e-30, max_iterations=5)
    assert not tight.converged and tight.iterations_run == 5
    assert tight.final_delta >= 0.0


def test_directed_cycle_is_uniform():
    ranks = pagerank(graph_of([(0, 1), (1, 2), (2, 0)]), directed=True,
                     tolerance=1e-14, max_iterations=500)
    assert np.max(np.abs(ranks.scores - 1.0 / 3.0)) < 1e-12


def test_directed_differs_from_undirected_when_asymmetric():
    records = [(0, 1), (0, 2), (3, 0)]
    g = graph_of(records)
    directed = pagerank(g, directed=True, tolerance=1e-12, max_iterations=2000)
    undirected = pagerank(g, tolerance=1e-12, max_iterations=2000)
    assert abs(directed.scores.sum() - 1.0) < 1e-9
    assert not np.allclose(directed.scores, undirected.scores)


def test_top_k_uniform_tie_breaks_by_id():
    g = graph_of([(0, 1), (1, 2), (2, 0)])
    table = top_k_pagerank(pagerank(g), g, 2)
    assert [r.node_id for r in table.rows] == [0, 1]


def test_top_k_star_center_first():
    g = graph_of(STAR_RECORDS)
    table = top_k_pagerank(pagerank(g, tolerance=1e-14, max_iterations=2000),
                           g, 1)
    assert table.rows[0].node_id == 0
    assert abs(table.rows[0].score - STAR_CENTER) < 1e-10


def test_top_k_matches_sort_oracle():
    rng = np.random.default_rng(77)
    records = random_records(rng, 25, 120)
    g = graph_of(records)
    ranks = pagerank(g, tolerance=1e-13, max_iterations=3000)
    table = top_k_pagerank(ranks, g, 10)
    expected = topk_sort(
        [(int(g.id_map[v]), float(ranks.scores[v])) for v in range(g.n)], 10)
    assert [(r.node_id, r.score) for r in table.rows] == expected


def test_top_k_rejects_bad_k():
    g = graph_of([(0, 1)])
    with pytest.raises(ValueError):
        top_k_pagerank(pagerank(g), g, 0)


def loop_pagerank(graph, damping=0.85, tolerance=1e-10, max_iterations=100,
                  directed=False):
    """The power step as first written (masks, fresh arrays every step):
    the reference the in-place, blocked solver must match bit for bit."""
    if directed:
        offsets, neighbors = graph.in_offsets, graph.in_neighbors
        share_deg = graph.outdegrees.astype(np.float64)
    else:
        offsets, neighbors = graph.undirected_offsets, graph.undirected_neighbors
        share_deg = graph.degrees.astype(np.float64)
    n = graph.n
    has_links = share_deg > 0
    row_of_arc = np.repeat(np.arange(n), np.diff(offsets))
    scores = np.full(n, 1.0 / n)
    w = np.zeros(n)
    for iterations in range(1, max_iterations + 1):
        np.divide(scores, share_deg, out=w, where=has_links)
        contrib = np.bincount(row_of_arc, weights=w[neighbors], minlength=n)
        loose = scores[~has_links].sum()
        new = (1.0 - damping) / n + damping * (contrib + loose / n)
        delta = float(np.abs(new - scores).sum())
        scores = new
        if delta < tolerance:
            break
    return scores, iterations, delta


@pytest.fixture
def block_counts(monkeypatch):
    """The number of blocks each PageRank power step ran in."""
    from roadnet import parallel
    counts = []

    def run_blocks(fn, blocks, threads):
        counts.append(len(blocks))
        parallel.run_blocks(fn, blocks, threads)

    monkeypatch.setattr(sys.modules["roadnet.pagerank"], "run_blocks",
                        run_blocks)
    return counts


@pytest.mark.parametrize("directed", [False, True])
def test_blocked_solve_is_bit_identical_to_the_loop(block_counts, monkeypatch,
                                                    directed):
    from roadnet import parallel
    monkeypatch.setitem(parallel.MIN_BLOCK_WORK, "pagerank", 1)
    rng = np.random.default_rng(31)
    # self-loops and one-way arcs leave dangling nodes in both views
    records = random_records(rng, 60, 150) + [(61, 61), (62, 3)]
    g = graph_of(records)
    scores, iterations, delta = loop_pagerank(g, tolerance=1e-12,
                                              max_iterations=400,
                                              directed=directed)
    for threads in (1, 2, 3, 7):
        block_counts.clear()
        ranks = pagerank(g, threads=threads, tolerance=1e-12,
                         max_iterations=400, directed=directed)
        assert set(block_counts) == {threads}
        assert np.array_equal(ranks.scores, scores)
        assert ranks.iterations_run == iterations
        assert ranks.final_delta == delta


def test_small_graphs_solve_in_one_block(block_counts):
    pagerank(graph_of(STAR_RECORDS), threads=4)
    assert set(block_counts) == {1}
