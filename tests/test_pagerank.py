import sys

import numpy as np
import pytest

from roadnet import (EdgeList, build_graph, pagerank, top_k_pagerank)
from conftest import random_records
from gen import make_grid
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
        oracle = dense_pagerank(records)
        worst = max(worst, float(np.max(np.abs(ranks.scores - oracle))))
    assert worst <= 1e-10


def test_mass_conserved_after_every_iteration():
    records = [(0, 1), (1, 2), (3, 3), (4, 2)]
    for iters in range(1, 8):
        ranks = pagerank(graph_of(records), tolerance=1e-30,
                         max_iterations=iters, directed=True)
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
    loose = pagerank(g, tolerance=10.0, max_iterations=50, directed=True)
    assert loose.converged and loose.iterations_run == 1
    tight = pagerank(g, tolerance=1e-30, max_iterations=5, directed=True)
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


def loop_pagerank(graph, damping=0.85, tolerance=1e-10, max_iterations=100):
    """The directed power step as first written (masks, fresh arrays every
    step): the reference the in-place, blocked solver must match bit for
    bit.  Returns the scores and the L1 change of every step."""
    n = graph.n
    # in-arcs grouped by target, sources ascending within a target
    order = np.lexsort((graph.sources, graph.targets))
    neighbors = graph.sources[order]
    row_of_arc = np.repeat(np.arange(n), np.bincount(graph.targets, minlength=n))
    share_deg = np.bincount(graph.sources, minlength=n).astype(np.float64)
    has_links = share_deg > 0
    scores = np.full(n, 1.0 / n)
    w = np.zeros(n)
    trace = []
    for _ in range(max_iterations):
        np.divide(scores, share_deg, out=w, where=has_links)
        contrib = np.bincount(row_of_arc, weights=w[neighbors], minlength=n)
        loose = scores[~has_links].sum()
        new = (1.0 - damping) / n + damping * (contrib + loose / n)
        trace.append(float(np.abs(new - scores).sum()))
        scores = new
        if trace[-1] < tolerance:
            break
    return scores, trace


def loop_cg_pagerank(graph, damping=0.85, tolerance=1e-10, max_iterations=100):
    """Conjugate gradients on (I - d D^-1/2 A D^-1/2) y = D^-1/2 1, written
    plainly (fresh arrays every step): the reference the in-place, blocked
    undirected solver must match bit for bit.  Returns the scores and the
    relative residual after every step."""
    offsets, neighbors = graph.undirected_offsets, graph.undirected_neighbors
    deg = graph.degrees
    n = graph.n
    linked = deg > 0
    inv_root = np.zeros(n)
    inv_root[linked] = 1.0 / np.sqrt(deg[linked])
    row_of_arc = np.repeat(np.arange(n), np.diff(offsets))

    def apply(p):
        contrib = np.bincount(row_of_arc, weights=(p * inv_root)[neighbors],
                              minlength=n)
        return p - contrib * (damping * inv_root)

    y = np.zeros(n)
    r = inv_root.copy()
    p = r.copy()
    rr = np.add.reduce(r * r)
    b_norm = np.sqrt(rr)
    trace = []
    while rr > 0 and len(trace) < max_iterations:
        q = apply(p)
        alpha = rr / np.add.reduce(p * q)
        y = y + p * alpha
        r = r - q * alpha
        rr_next = np.add.reduce(r * r)
        trace.append(float(np.sqrt(rr_next) / b_norm))
        if trace[-1] < tolerance:
            break
        p = r + p * (rr_next / rr)
        rr = rr_next
    x = np.where(linked, np.sqrt(deg) * y, 1.0)
    return x / np.add.reduce(x), trace


@pytest.fixture
def block_counts(monkeypatch):
    """The number of blocks each PageRank matrix-vector product ran in."""
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
    """CG on the undirected view, the power iteration with ``directed``."""
    from roadnet import parallel
    monkeypatch.setitem(parallel.MIN_BLOCK_WORK, "pagerank", 1)
    rng = np.random.default_rng(31)
    # self-loops and one-way arcs leave dangling nodes in both views; the
    # isolated run 70..89 leaves the last undirected block of 7 without arcs
    records = (random_records(rng, 60, 150) + [(61, 61), (62, 3)]
               + [(i, i) for i in range(70, 90)])
    g = graph_of(records)
    if directed:
        scores, trace = loop_pagerank(g, tolerance=1e-12, max_iterations=400)
    else:
        scores, trace = loop_cg_pagerank(g, tolerance=1e-12,
                                         max_iterations=400)
    for threads in (1, 2, 3, 7):
        block_counts.clear()
        ranks = pagerank(g, threads=threads, tolerance=1e-12,
                         max_iterations=400, directed=directed)
        assert set(block_counts) == {threads}
        assert np.array_equal(ranks.scores, scores)
        assert ranks.residual_trace == tuple(trace)
        assert ranks.iterations_run == len(trace)
        assert ranks.final_delta == trace[-1]


def test_small_graphs_solve_in_one_block(block_counts):
    pagerank(graph_of(STAR_RECORDS), threads=4)
    assert set(block_counts) == {1}


def test_residual_trace_holds_l1_changes_when_directed():
    g = graph_of([(0, 1), (1, 2), (2, 0), (2, 3), (4, 4)])
    ranks = pagerank(g, tolerance=1e-12, max_iterations=400, directed=True)
    assert len(ranks.residual_trace) == ranks.iterations_run
    assert ranks.final_delta == ranks.residual_trace[-1] < 1e-12
    assert min(ranks.residual_trace[:-1]) >= 1e-12
    for k in range(1, 6):
        before = pagerank(g, max_iterations=k, directed=True).scores
        after = pagerank(g, max_iterations=k + 1, directed=True).scores
        change = float(np.abs(after - before).sum())
        assert ranks.residual_trace[k] == pytest.approx(change, rel=1e-12)


def test_residual_trace_holds_relative_residuals():
    # node 90 only self-loops, so z = 1 there fixes the scale of y = D^-1/2 z
    rng = np.random.default_rng(12)
    g = graph_of(random_records(rng, 40, 120) + [(90, 90)])
    deg = g.degrees.astype(np.float64)
    linked = deg > 0
    dense = np.zeros((g.n, g.n))
    rows = np.repeat(np.arange(g.n), np.diff(g.undirected_offsets))
    dense[rows, g.undirected_neighbors] = 1.0
    inv_root = np.where(linked, 1.0 / np.sqrt(np.where(linked, deg, 1.0)), 0.0)
    system = np.eye(g.n) - 0.85 * inv_root[:, None] * dense * inv_root[None, :]
    ranks = pagerank(g, tolerance=1e-13, max_iterations=200)
    assert ranks.converged
    assert len(ranks.residual_trace) == ranks.iterations_run
    assert ranks.final_delta == ranks.residual_trace[-1] < 1e-13
    assert min(ranks.residual_trace[:-1]) >= 1e-13
    for k in range(1, 8):
        x = pagerank(g, max_iterations=k).scores
        y = np.where(linked, x / x[-1] * inv_root, 0.0)
        true = np.linalg.norm(inv_root - system @ y) / np.linalg.norm(inv_root)
        assert abs(true - ranks.residual_trace[k - 1]) <= 1e-12


@pytest.mark.parametrize("side", [60, 120])
def test_one_more_power_step_moves_grid_scores_by_at_most_tol(side):
    grid = make_grid(side, side)
    g = build_graph(EdgeList(grid.from_ids, grid.to_ids))
    ranks = pagerank(g)  # the CLI defaults: tol 1e-10, at most 100 steps
    assert ranks.converged
    # a grid has no dangling node, so one power step is A D^-1 x
    rows = np.repeat(np.arange(g.n), np.diff(g.undirected_offsets))
    spread = np.bincount(rows, minlength=g.n, weights=(
        ranks.scores / g.degrees)[g.undirected_neighbors])
    step = 0.15 / g.n + 0.85 * spread
    assert float(np.abs(step - ranks.scores).sum()) <= 1e-10


def test_single_isolated_node_needs_no_iteration():
    ranks = pagerank(graph_of([(7, 7)]), max_iterations=1)
    assert ranks.scores.tolist() == [1.0]
    assert ranks.converged and ranks.iterations_run == 0
    assert ranks.residual_trace == () and ranks.final_delta == 0.0


def test_tiny_residuals_stop_without_nan():
    with np.errstate(all="raise"):
        # one CG step solves these exactly: the residual is 0.0, not 0/0
        for records in ([(0, 1)], [(0, 0), (1, 2)], [(0, 1), (2, 3), (4, 4)]):
            ranks = pagerank(graph_of(records), tolerance=5e-324)
            assert ranks.converged is True and ranks.iterations_run == 1
            assert ranks.final_delta == 0.0
        # the residual underflows before this tolerance: stop, unconverged
        ranks = pagerank(graph_of([(i, i + 1) for i in range(40)]),
                         tolerance=5e-324, max_iterations=1000)
    assert not ranks.converged and ranks.iterations_run < 1000
    assert np.isfinite(ranks.scores).all()
    assert abs(ranks.scores.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("max_iterations,converged", [(1000, True),
                                                      (2, False)])
def test_converged_is_a_python_bool_for_a_numpy_tolerance(
        directed, max_iterations, converged):
    grid = make_grid(20, 5)
    g = build_graph(EdgeList(grid.from_ids, grid.to_ids))
    ranks = pagerank(g, tolerance=np.float64(1e-10),
                     max_iterations=max_iterations, directed=directed)
    assert type(ranks.converged) is bool
    assert ranks.converged is converged
