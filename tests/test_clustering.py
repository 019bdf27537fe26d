import json
import sys

import numpy as np
import pytest

from roadnet import (ClusteringResult, EdgeList, PointSet, edges_to_points,
                     kmeans, kmeans_init, objective)
from conftest import FOUR_POINTS
from oracles import (exhaustive_kmeans_optimum, kmeanspp_support,
                     partition_wcss, wcss)


def pset(points):
    return PointSet(np.array(points, dtype=np.float64))


def make_result(centroids, assignment, k):
    centroids = np.asarray(centroids, dtype=float)
    assignment = np.asarray(assignment, dtype=np.int64)
    return ClusteringResult(
        centroids=centroids,
        assignment=assignment,
        cluster_sizes=np.bincount(assignment, minlength=k),
        objective=0.0, iterations_run=0, converged=True,
        distance_evaluations=0, objective_trace=())


@pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3), (2, 2, 2)])
def test_point_set_refuses_an_array_not_t_by_2(shape):
    with pytest.raises(ValueError, match=r"expected a \(t, 2\) array, got "):
        PointSet(np.zeros(shape))


def test_edges_to_points_maps_records():
    points = edges_to_points(EdgeList.from_records([(0, 1), (1, 0)]))
    assert points.t == 2
    assert points.xy.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert points.xy.flags.f_contiguous  # k-means reads the columns in place


def test_edges_to_points_empty():
    assert edges_to_points(EdgeList.from_records([])).t == 0


def test_edges_to_points_keeps_duplicates_in_order():
    points = edges_to_points(EdgeList.from_records([(3, 3), (0, 9), (0, 9)]))
    assert points.xy.tolist() == [[3.0, 3.0], [0.0, 9.0], [0.0, 9.0]]


def test_objective_two_points_one_cluster():
    result = make_result([(1.0, 0.0)], [0, 0], 1)
    assert objective(pset([(0, 0), (2, 0)]), result) == 2.0


def test_objective_zero_when_every_point_its_own_cluster():
    points = [(0, 0), (3, 4), (9, 9)]
    result = make_result(points, [0, 1, 2], 3)
    assert objective(pset(points), result) == 0.0


def test_objective_matches_double_loop_oracle():
    rng = np.random.default_rng(123)
    points = rng.uniform(-5, 5, size=(20, 2))
    centroids = rng.uniform(-5, 5, size=(3, 2))
    labels = rng.integers(0, 3, size=20)
    got = objective(pset(points), make_result(centroids, labels, 3))
    expected = wcss(points.tolist(), centroids.tolist(), labels.tolist())
    assert got == pytest.approx(expected, rel=1e-12)


def test_objective_contract_errors():
    result = make_result([(0.0, 0.0)], [0], 1)
    with pytest.raises(ValueError):
        objective(pset([(0, 0), (1, 1)]), result)
    bad = make_result([(0.0, 0.0)], [0, 1], 2)
    object.__setattr__(bad, "centroids", bad.centroids[:1])
    with pytest.raises(ValueError):
        objective(pset([(0, 0), (1, 1)]), bad)


def test_init_first_k_returns_prefix():
    points = pset([(0, 0), (1, 1), (2, 2)])
    centroids = kmeans_init(points, 3, method="first-k")
    assert centroids.tolist() == points.xy.tolist()


def test_init_k1_is_a_data_point():
    points = pset([(0, 0), (5, 5), (9, 1)])
    for method in ("kmeans++", "uniform-random", "first-k"):
        centroid = kmeans_init(points, 1, method=method, seed=3)[0]
        assert centroid.tolist() in points.xy.tolist()


def test_init_kmeanspp_far_pair_always_selected():
    points = [(0.0, 0.0), (100.0, 100.0)]
    # brute-force support check: both indices can be drawn
    assert kmeanspp_support(points, 2) == {0, 1}
    for seed in range(10):
        centroids = kmeans_init(pset(points), 2, method="kmeans++", seed=seed)
        assert sorted(map(tuple, centroids.tolist())) == sorted(points)


def test_init_deterministic_per_seed():
    rng = np.random.default_rng(4)
    points = pset(rng.uniform(0, 1, size=(40, 2)))
    for method in ("kmeans++", "uniform-random"):
        a = kmeans_init(points, 5, method=method, seed=17)
        b = kmeans_init(points, 5, method=method, seed=17)
        assert np.array_equal(a, b)


def test_init_errors():
    points = pset([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        kmeans_init(points, 0)
    with pytest.raises(ValueError):
        kmeans_init(points, 3)  # k > t
    with pytest.raises(ValueError):
        kmeans_init(points, 2, method="quantum")
    with pytest.raises(ValueError):
        kmeans_init(PointSet(np.empty((0, 2))), 1)
    dupes = pset([(1, 1), (1, 1), (1, 1)])
    with pytest.raises(ValueError, match="distinct"):
        kmeans_init(dupes, 2, method="kmeans++")


def test_kmeans_four_point_fixture_reaches_global_optimum():
    points = pset(FOUR_POINTS)
    result = kmeans(points, 2, seed=42)
    assert result.converged
    assert sorted(result.centroids.tolist()) == [[0.0, 0.5], [10.0, 0.5]]
    assert result.objective == pytest.approx(1.0, rel=1e-9)
    assert result.objective == pytest.approx(
        exhaustive_kmeans_optimum(FOUR_POINTS, 2), rel=1e-9)
    assert sorted(result.cluster_sizes.tolist()) == [2, 2]


def test_kmeans_k1_centroid_is_mean():
    rng = np.random.default_rng(8)
    xy = rng.uniform(-3, 3, size=(25, 2))
    result = kmeans(pset(xy), 1, seed=0)
    assert np.allclose(result.centroids[0], xy.mean(axis=0), rtol=1e-12)
    assert result.converged
    assert result.iterations_run <= 2
    assert result.cluster_sizes.tolist() == [25]


def test_objective_monotone_on_100_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        t = int(rng.integers(5, 60))
        k = int(rng.integers(1, min(6, t + 1)))
        points = pset(rng.uniform(0, 100, size=(t, 2)))
        result = kmeans(points, k, seed=int(rng.integers(1000)))
        trace = result.objective_trace
        for before, after in zip(trace, trace[1:]):
            assert after <= before + 1e-9 * max(1.0, abs(before))


def test_best_of_20_restarts_hits_exhaustive_optimum():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        t = int(rng.integers(k, 9))
        xy = rng.uniform(0, 10, size=(t, 2))
        points = pset(xy)
        best = min(kmeans(points, k, seed=s, tolerance=0.0).objective
                   for s in range(20))
        opt = exhaustive_kmeans_optimum(xy, k)
        slack = 1e-9 * max(1.0, opt)
        assert best <= opt + slack
        assert best >= opt - slack  # cannot beat the global optimum


def test_distance_evaluation_budget():
    # three tight blobs far apart, one seed in each: after the first pass
    # every point's bounds hold, so each later pass costs one distance per
    # point (its own centroid) and the first pass costs k per point
    rng = np.random.default_rng(12)
    centers = np.array([(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0)])
    xy = centers[np.arange(300) % 3] + rng.uniform(-5, 5, size=(300, 2))
    result = kmeans(pset(xy), 3, init="first-k", tolerance=0.0)
    s = result.iterations_run
    assert result.converged and s >= 2
    assert result.distance_evaluations == 3 * 300 + 300 * (s - 1)
    assert result.distance_evaluations <= 3 * 300 * s

    points = pset(rng.uniform(0, 50, size=(200, 2)))
    result = kmeans(points, 4, seed=5)
    s = result.iterations_run
    assert s > 2
    assert 4 * 200 + 200 * (s - 1) < result.distance_evaluations
    assert result.distance_evaluations <= 4 * 200 * s


def test_fixed_point_after_assignment_stable_convergence():
    rng = np.random.default_rng(21)
    xy = rng.uniform(0, 10, size=(40, 2))
    result = kmeans(pset(xy), 3, seed=7, tolerance=0.0)
    assert result.converged
    # one further assign + update changes nothing
    d2 = ((xy[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    assert np.array_equal(labels, result.assignment)
    for c in range(3):
        members = xy[labels == c]
        assert np.allclose(members.mean(axis=0), result.centroids[c],
                           rtol=1e-12, atol=1e-12)


def test_empty_cluster_reseeded_to_farthest_point():
    points = pset([(0, 0), (0, 0), (10, 10)])
    result = kmeans(points, 2, init="first-k", seed=0)
    assert result.cluster_sizes.min() >= 1
    assert result.objective == 0.0
    assert result.converged


def test_result_invariants_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(10):
        t = int(rng.integers(10, 80))
        k = int(rng.integers(2, 6))
        xy = rng.uniform(0, 1000, size=(t, 2))
        points = pset(xy)
        result = kmeans(points, k, seed=int(rng.integers(500)))
        assert result.cluster_sizes.sum() == t
        assert result.assignment.min() >= 0
        assert result.assignment.max() < k
        # stored assignment is nearest-centroid with lowest-index ties
        d2 = ((xy[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d2.argmin(axis=1), result.assignment)
        # stored objective matches an independent recomputation
        recomputed = objective(points, result)
        assert result.objective == pytest.approx(recomputed, rel=1e-9)
        assert recomputed == pytest.approx(
            wcss(xy.tolist(), result.centroids.tolist(),
                 result.assignment.tolist()), rel=1e-9)


def test_exhaustive_oracle_permutation_invariant():
    rng = np.random.default_rng(55)
    xy = rng.uniform(0, 10, size=(6, 2))
    perm = rng.permutation(6)
    a = exhaustive_kmeans_optimum(xy, 2)
    b = exhaustive_kmeans_optimum(xy[perm], 2)
    assert a == pytest.approx(b, rel=1e-12)


def test_kmeans_parameter_validation():
    points = pset([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        kmeans(points, 2, max_iterations=0)
    with pytest.raises(ValueError):
        kmeans(points, 2, tolerance=-1.0)


def test_partition_oracle_agrees_with_wcss():
    rng = np.random.default_rng(14)
    xy = rng.uniform(0, 5, size=(7, 2))
    labels = rng.integers(0, 2, size=7)
    means = [xy[labels == c].mean(axis=0).tolist() for c in range(2)]
    assert partition_wcss(xy, labels, 2) == pytest.approx(
        wcss(xy.tolist(), means, labels.tolist()), rel=1e-12)


def matrix_kmeans(points, k, seed, tolerance, max_iterations=300,
                  init="kmeans++"):
    """Lloyd's loop as first written: a (t, k) distance matrix reduced by
    argmin and min on every pass, then ``np.bincount`` means, each empty
    cluster re-seeded to the next farthest point (ties to the lowest
    index).  The reference the bound-gated, blocked solver must match bit
    for bit; it shares none of the solver's update code."""
    xy = points.xy
    centroids = kmeans_init(points, k, method=init, seed=seed)
    trace = []
    prev_labels = prev_obj = None
    converged = False
    iterations = 0
    while iterations < max_iterations:
        d2 = np.empty((points.t, k))
        for i in range(k):
            d2[:, i] = (xy[:, 0] - centroids[i, 0]) ** 2 \
                + (xy[:, 1] - centroids[i, 1]) ** 2
        labels = np.argmin(d2, axis=1)
        mind2 = np.min(d2, axis=1)
        iterations += 1
        obj = float(mind2.sum())
        trace.append(obj)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            break
        if prev_obj is not None and prev_obj - obj < tolerance:
            converged = True
            break
        if iterations == max_iterations:
            break
        counts = np.bincount(labels, minlength=k)
        centroids = np.column_stack([
            np.bincount(labels, weights=xy[:, c], minlength=k) for c in (0, 1)])
        filled = counts > 0
        centroids[filled] /= counts[filled, None]
        empty = np.flatnonzero(~filled)
        far = np.argsort(-mind2, kind="stable")[:empty.size]
        centroids[empty] = xy[far]
        prev_labels, prev_obj = labels, obj
    return labels, centroids, tuple(trace), iterations, converged


@pytest.fixture
def kmeans_blocks(monkeypatch):
    """The number of blocks each k-means assignment pass ran in."""
    from roadnet import parallel
    counts = []

    def run_blocks(fn, blocks, threads):
        counts.append(len(blocks))
        return parallel.run_blocks(fn, blocks, threads)

    monkeypatch.setattr(sys.modules["roadnet.clustering"], "run_blocks",
                        run_blocks)
    return counts


def test_kmeans_split_into_blocks_is_bit_identical(kmeans_blocks, monkeypatch):
    from roadnet import parallel
    monkeypatch.setitem(parallel.MIN_BLOCK_WORK, "kmeans", 1)
    rng = np.random.default_rng(77)
    points = pset(rng.integers(0, 40, size=(500, 2)))  # many exact ties
    labels, centroids, trace, iterations, converged = matrix_kmeans(
        points, 5, seed=3, tolerance=0.0)
    assert iterations > 2
    evaluations = set()
    for threads in (1, 2, 3, 7):
        kmeans_blocks.clear()
        result = kmeans(points, 5, seed=3, tolerance=0.0, threads=threads)
        assert set(kmeans_blocks) == {threads}
        assert np.array_equal(result.assignment, labels)
        assert np.array_equal(result.centroids, centroids)
        assert result.objective_trace == trace
        assert result.iterations_run == iterations
        assert result.converged == converged
        evaluations.add(result.distance_evaluations)
    assert len(evaluations) == 1
    assert 5 * 500 + 500 * (iterations - 1) < evaluations.pop() \
        <= 5 * 500 * iterations


def _bound_stress_cases():
    rng = np.random.default_rng(3)
    far = 500 + rng.integers(0, 3, size=(6, 2))
    reseed = np.vstack([[(0, 0), (0, 0)], rng.integers(0, 20, size=(60, 2)),
                        far])
    return {
        # first-k on duplicates: two centroids coincide for the whole solve,
        # so half the gap between them is 0 and their points always redo
        "coincident": ([(1, 1), (1, 1), (5, 5)], 3, "first-k",
                       [2, 0, 1]),
        # cluster 1 starts on top of cluster 0 and is empty; it is re-seeded
        # to a far point (a drift of about 700) in passes 1 and 2
        "reseed": (reseed, 3, "first-k", [33, 6, 29]),
        # (2, 0) is nearer centroid 1 in pass 1, then exactly as near to
        # centroid 0, which takes it in pass 2
        "bisector": ([(0, 0), (3, 0), (-1, 0), (1, 0), (2, 0), (7, 0)], 2,
                     "first-k", [4, 2]),
        # the same along (0.1, 0.9): the tie is still exact, but the bounds
        # round up past the point's distance, and without the rounding
        # margin (2, 0)'s image would stay on centroid 1
        "bisector_rounded": (np.outer([0, 3, -1, 1, 2, 7], [0.1, 0.9]),
                             2, "first-k", [4, 2]),
        # in pass 2, (0, 2) is exactly as near to centroid 0 as to its own
        # centroid 1 and moves to 0; (-2, 0) and (3, -1) are exactly as near
        # to centroids 2 and 1 as to their own centroid 0 and stay
        "ties_both_ways": ([(-1, -2), (0, 2), (-4, 1), (-2, 0), (6, 2),
                            (3, -1)], 3, "first-k", [4, 1, 1]),
        # 16 sites, 12 centroids: in pass 2, 8 points tied with a lower
        # centroid move and 8 tied with a higher one stay; passes 2-5 search
        # 2-5 of the 12 own-centroid groups, the rest are empty
        "ties_k=12": (np.random.default_rng(21).integers(0, 4, size=(150, 2)),
                      12, "first-k",
                      [18, 26, 16, 7, 10, 14, 4, 24, 8, 9, 9, 5]),
        # one centroid: no other centroid bounds anything, every pass skips
        "k=1": (rng.integers(0, 9, size=(40, 2)), 1, "kmeans++", [40]),
        "k=t": (rng.permutation(12).reshape(6, 2), 6, "kmeans++", [1] * 6),
        # coordinates past 2**500: no bound is trusted, every point redoes
        "huge": (reseed * 2.0 ** 495, 3, "first-k", [33, 6, 29]),
        # 47 passes to a fixed point
        "long": (rng.uniform(0, 100, size=(2000, 2)), 10, "kmeans++", None),
    }


@pytest.mark.parametrize("threads", [1, 2, 7])
@pytest.mark.parametrize("case", sorted(_bound_stress_cases()))
def test_bounded_passes_match_lloyd_bit_for_bit(case, threads, kmeans_blocks,
                                                monkeypatch):
    from roadnet import parallel
    xy, k, init, sizes = _bound_stress_cases()[case]
    points = pset(xy)
    seed = 7 if case == "long" else 4
    labels, centroids, trace, iterations, converged = matrix_kmeans(
        points, k, seed=seed, tolerance=0.0, init=init)
    one_block = kmeans(points, k, init=init, seed=seed, tolerance=0.0)
    monkeypatch.setitem(parallel.MIN_BLOCK_WORK, "kmeans", 1)
    kmeans_blocks.clear()
    result = kmeans(points, k, init=init, seed=seed, tolerance=0.0,
                    threads=threads)
    assert set(kmeans_blocks) == {min(threads, points.t)}
    assert np.array_equal(result.assignment, labels)
    assert np.array_equal(result.centroids, centroids)
    assert result.objective_trace == trace
    assert result.iterations_run == iterations
    assert result.converged == converged
    assert result.distance_evaluations == one_block.distance_evaluations \
        <= k * points.t * iterations
    if sizes is not None:
        assert result.cluster_sizes.tolist() == sizes
    if case == "long":
        assert iterations == 47
    if case == "huge":
        assert result.distance_evaluations == k * points.t * iterations


def test_kmeans_refuses_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        xy = np.arange(12.0).reshape(6, 2)
        xy[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans(pset(xy), 2, init="first-k")


def test_kmeans_never_splits_past_the_thread_count(kmeans_blocks):
    t = (1 << 20) + 3
    xy = np.zeros((t, 2))
    xy[:, 0] = np.arange(t) % 1000
    kmeans(PointSet(xy), 3, init="first-k", max_iterations=1, threads=1)
    assert kmeans_blocks == [1]


def test_blocked_solves_reuse_one_thread_pool(monkeypatch):
    import concurrent.futures
    from roadnet import parallel
    monkeypatch.setitem(parallel.MIN_BLOCK_WORK, "kmeans", 1)
    made = []

    class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    # parallel._pool imports the executor class when it makes one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        CountingExecutor)
    parallel._pool.cache_clear()  # an earlier test may have made _pool(2)
    rng = np.random.default_rng(78)
    points = pset(rng.integers(0, 40, size=(300, 2)))
    try:
        for seed in (1, 2):
            result = kmeans(points, 4, seed=seed, tolerance=0.0, threads=2)
            assert result.iterations_run > 1
        assert len(made) == 1
    finally:  # later tests make their own pool, of the real class
        if made:
            parallel._pool(2).shutdown()
        parallel._pool.cache_clear()


class UpdateLog:
    """The cluster sizes each centroid update divided by, and the indices
    of the updates that counted every point again after their pass."""

    def __init__(self):
        self.sizes, self.recounts = [], []

    def clear(self):
        self.sizes.clear()
        self.recounts.clear()


@pytest.fixture
def centroid_updates(monkeypatch, kmeans_blocks):
    """An ``UpdateLog`` of every centroid update from here on.  A count is
    a recount when it runs outside the assignment passes (``run_blocks``)."""
    clustering = sys.modules["roadnet.clustering"]
    log = UpdateLog()
    run_blocks, totals, means = (clustering.run_blocks, clustering._totals,
                                 clustering._means)
    passing, counted = [], []

    def spy_run_blocks(*args):
        passing.append(True)
        try:
            return run_blocks(*args)
        finally:
            passing.pop()

    def spy_totals(x, y, labels, k):
        if not passing:
            counted.append(labels.size)
        return totals(x, y, labels, k)

    def spy_means(xy, sums, mind2):
        if counted:
            assert counted == [mind2.size]  # one count, over every point
            log.recounts.append(len(log.sizes))
            counted.clear()
        log.sizes.append(sums[0].tolist())
        return means(xy, sums, mind2)

    monkeypatch.setattr(clustering, "run_blocks", spy_run_blocks)
    monkeypatch.setattr(clustering, "_totals", spy_totals)
    monkeypatch.setattr(clustering, "_means", spy_means)
    return log


def _exact_update_cases():
    rng = np.random.default_rng(9)
    below = 2**47 - 1 - rng.integers(0, 2**30, size=(64, 2))
    below[5, 1] = 2**47 - 1
    return {
        # max|coordinate| * t = 2**53 - 64: the sums are kept
        "below_guard": (below, 3, "kmeans++", True),
        # 2**53 exactly: a recount after every pass
        "at_guard": (below + 1, 3, "kmeans++", False),
        # cluster sums near 2**58 round, and only a recount gives bincount's
        # sums
        "rounding": (2**52 + rng.integers(-2**40, 2**40, size=(300, 2)), 4,
                     "kmeans++", False),
        "non_integer": (rng.normal(0, 10, size=(300, 2)), 4, "kmeans++",
                        False),
        "negative": (rng.integers(-500, 500, size=(1000, 2)), 6, "kmeans++",
                     True),
        # in pass 2 both copies of (5, 8) leave cluster 1 for 0 and (6, 4)
        # leaves it for 2, so the kept sums empty it and it is re-seeded
        "emptied": ([(4, 8), (5, 8), (7, 0), (3, 3), (6, 4), (5, 8)], 3,
                    "first-k", True),
    }


@pytest.mark.parametrize("threads", [1, 2, 7])
@pytest.mark.parametrize("case", sorted(_exact_update_cases()))
def test_kept_centroid_sums_match_lloyd_bit_for_bit(case, threads,
                                                    kmeans_blocks,
                                                    centroid_updates,
                                                    monkeypatch):
    from roadnet import parallel
    xy, k, init, kept = _exact_update_cases()[case]
    points = pset(xy)
    labels, centroids, trace, iterations, converged = matrix_kmeans(
        points, k, seed=4, tolerance=0.0, init=init)
    centroid_updates.clear()  # the reference's updates
    monkeypatch.setitem(parallel.MIN_BLOCK_WORK, "kmeans", 1)
    result = kmeans(points, k, init=init, seed=4, tolerance=0.0,
                    threads=threads)
    assert set(kmeans_blocks) == {min(threads, points.t)}
    assert np.array_equal(result.assignment, labels)
    assert np.array_equal(result.centroids, centroids)
    assert result.objective_trace == trace
    assert result.iterations_run == iterations > 2
    assert result.converged == converged
    updates = list(range(iterations - 1))
    assert len(centroid_updates.sizes) == len(updates)
    assert centroid_updates.recounts == ([] if kept else updates)
    if case == "emptied":
        assert centroid_updates.sizes[1] == [3, 0, 3]
        assert result.cluster_sizes.tolist() == [3, 1, 2]


def test_cli_kmeans_keeps_the_sums_of_integer_ids(tmp_path, centroid_updates):
    from gen import make_grid
    from roadnet.cli import main
    grid = make_grid(30, 1)
    # IDs near 2**63 are integers, but their sums could round; spread out,
    # so that they stay distinct as floats and the solve takes many passes
    top = 2**63 - 1
    inputs = {"grid.txt": (grid.from_ids, grid.to_ids),
              "high.txt": (top - 4096 * grid.from_ids,
                           top - 4096 * grid.to_ids)}
    for name, (u, v) in inputs.items():
        path = tmp_path / name
        path.write_text("".join(f"{a}\t{b}\n" for a, b in zip(u.tolist(),
                                                              v.tolist())))
        centroid_updates.clear()
        out = tmp_path / name.replace(".txt", "")
        assert main(["kmeans", "--input", str(path), "--out", str(out),
                     "--k", "3", "--threads", "1"]) == 0
        passes = json.loads((out / "kmeans_result.json").read_text())[
            "iterations_run"]
        assert passes > 3
        updates = list(range(passes - 1))
        assert len(centroid_updates.sizes) == len(updates)
        assert centroid_updates.recounts == (
            [] if name == "grid.txt" else updates)



@pytest.mark.parametrize("tolerance,max_iterations,converged", [
    (1e12, 300, True),  # stopped by the objective improvement, at pass 2
    (0.0, 300, True),  # stopped at a fixed point
    (0.0, 2, False),  # stopped at the cap
])
def test_converged_is_a_python_bool_for_a_numpy_tolerance(
        tolerance, max_iterations, converged):
    rng = np.random.default_rng(5)
    points = pset(rng.integers(0, 40, size=(200, 2)))
    result = kmeans(points, 4, seed=1, tolerance=np.float64(tolerance),
                    max_iterations=max_iterations)
    assert type(result.converged) is bool
    assert result.converged is converged
    assert json.loads(result.to_json())["converged"] is converged


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("cap", [1, 2, 3, 5, 8])
def test_kmeans_capped_by_max_iterations_matches_lloyd(cap, threads,
                                                       kmeans_blocks,
                                                       monkeypatch):
    """A solve stopped by the cap ends with the centroids its last pass
    assigned to: no update runs after the last pass."""
    from roadnet import parallel
    monkeypatch.setitem(parallel.MIN_BLOCK_WORK, "kmeans", 1)
    rng = np.random.default_rng(77)
    points = pset(rng.integers(0, 40, size=(500, 2)))  # many exact ties
    labels, centroids, trace, iterations, converged = matrix_kmeans(
        points, 5, seed=3, tolerance=0.0, max_iterations=cap)
    result = kmeans(points, 5, seed=3, tolerance=0.0, max_iterations=cap,
                    threads=threads)
    assert set(kmeans_blocks) == {threads}
    assert np.array_equal(result.assignment, labels)
    assert np.array_equal(result.centroids, centroids)
    assert result.objective_trace == trace
    assert result.iterations_run == iterations == len(trace)
    assert result.converged is converged
    if cap < 5:
        assert iterations == cap and not converged
