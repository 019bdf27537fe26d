"""k-means over the 2D edge-scatter cloud: Lloyd's loop, k-means++ seeding.

Each raw edge record becomes one point (from_id, to_id).  Lloyd's algorithm
alternates nearest-centroid assignment with mean updates, and stops when the
assignment stabilizes, the objective improvement falls below tolerance, or
max_iterations is hit.  The objective is the within-cluster sum of squared
Euclidean distances.  One kernel finds nearest centroids, with ties to the
lowest index; passes after the first run it only where Hamerly's bounds
fail, and give the same bits as full passes.  When every coordinate is an
integer and the sums cannot round, the centroid sums are kept across
passes, each pass adding the change its blocks hand back, again with the
bits of a count over every point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO

import numpy as np

from ._text import Floats, Ints, write_rows
from .graph import top_k_order
from .graph_io import EdgeList
from .parallel import block_ranges, run_blocks

INIT_METHODS = ("kmeans++", "uniform-random", "first-k")


@dataclass(frozen=True)
class PointSet:
    """Ordered 2D points, one per raw edge record."""

    xy: np.ndarray

    def __post_init__(self):
        if self.xy.ndim != 2 or self.xy.shape[1] != 2:
            raise ValueError(f"expected a (t, 2) array, got {self.xy.shape}")
        self.xy.flags.writeable = False

    @property
    def t(self) -> int:
        return int(self.xy.shape[0])


@dataclass(frozen=True)
class ClusteringResult:
    """A k-means solve.  ``distance_evaluations`` counts the point-centroid
    distances computed: k per point in the first pass, then per pass one per
    point (to its own centroid) plus k - 1 per point whose bounds failed; at
    most k * t per pass."""

    centroids: np.ndarray
    assignment: np.ndarray
    cluster_sizes: np.ndarray
    objective: float
    iterations_run: int
    converged: bool
    distance_evaluations: int
    objective_trace: tuple[float, ...]

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "centroids": self.centroids.tolist(),
            "cluster_sizes": self.cluster_sizes.tolist(),
            "objective": self.objective,
            "iterations_run": self.iterations_run,
            "converged": self.converged,
            "distance_evaluations": self.distance_evaluations,
        }, indent=2)

    def to_csv(self, fp: IO[str], points: PointSet) -> None:
        fp.write("point_index,x,y,cluster\n")
        write_rows(fp, [Ints(np.arange(points.t)), ",", Floats(points.xy[:, 0]),
                        ",", Floats(points.xy[:, 1]), ",",
                        Ints(self.assignment), "\n"])


def edges_to_points(edges: EdgeList) -> PointSet:
    """One point per raw edge record: (from_id, to_id), file order preserved.

    The array is stored column by column, so k-means reads each coordinate
    as one contiguous run."""
    xy = np.empty((edges.line_count, 2), order="F")
    xy[:, 0] = edges.from_ids
    xy[:, 1] = edges.to_ids
    return PointSet(xy=xy)


def objective(points: PointSet, result: ClusteringResult) -> float:
    """Within-cluster sum of squared distances, recomputed from scratch."""
    if result.assignment.shape[0] != points.t:
        raise ValueError(
            f"assignment covers {result.assignment.shape[0]} points, "
            f"point set has {points.t}")
    if points.t and (result.assignment.min() < 0
                     or result.assignment.max() >= result.k):
        raise ValueError("assignment indices out of range")
    diff = points.xy - result.centroids[result.assignment]
    return float((diff * diff).sum())


def kmeans_init(points: PointSet, k: int, method: str = "kmeans++",
                seed: int = 0) -> np.ndarray:
    """Pick k starting centroids from the data points.

    kmeans++ draws the first centroid uniformly, then each next one with
    probability proportional to its squared distance to the nearest centroid
    chosen so far; it therefore needs k distinct points.
    """
    t = points.t
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t == 0:
        raise ValueError("cannot initialize on an empty point set")
    if k > t:
        raise ValueError(f"k={k} exceeds the number of points t={t}")
    if method not in INIT_METHODS:
        raise ValueError(f"unknown init method {method!r}, "
                         f"expected one of {INIT_METHODS}")

    xy = points.xy
    if method == "first-k":
        return xy[:k].copy()

    rng = np.random.default_rng(seed)
    if method == "uniform-random":
        idx = rng.choice(t, size=k, replace=False)
        return xy[idx].copy()

    centroids = np.empty((k, 2))
    centroids[0] = xy[rng.integers(t)]
    x, y = xy[:, 0], xy[:, 1]
    d2 = _sq_dist_to(x, y, centroids[0])
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            raise ValueError(
                f"kmeans++ needs {k} distinct points, only {i} available")
        idx = rng.choice(t, p=d2 / total)
        centroids[i] = xy[idx]
        np.minimum(d2, _sq_dist_to(x, y, centroids[i]), out=d2)
    return centroids


def _sq_dist_to(x: np.ndarray, y: np.ndarray, c,
                out: np.ndarray | None = None,
                tmp: np.ndarray | None = None) -> np.ndarray:
    """(x - cx)**2 + (y - cy)**2 per point, into ``out`` and ``tmp`` when
    given; cx and cy may be per-point arrays, even ``out`` and ``tmp``."""
    out = np.square(np.subtract(x, c[0], out=out), out=out)
    tmp = np.square(np.subtract(y, c[1], out=tmp), out=tmp)
    return np.add(out, tmp, out=out)


# Every bound is kept this much below its true value: _MARGIN times the
# largest coordinate magnitude, plus _FLOOR.  Each distance, drift or bound
# update rounds by a few units of 2**-53 of a length below 4x that magnitude
# (centroids are means of points), so the margin covers them 2**7 times
# over; the floor keeps every trusted bound far above the subnormal range.
# Below _LARGEST no squared distance overflows.
_MARGIN = 2.0 ** -40
_FLOOR = 2.0 ** -400
_LARGEST = 2.0 ** 500
# points whose bounds failed are searched this many at a time
_CHUNK = 1 << 12


def kmeans(points: PointSet, k: int, *, init: str = "kmeans++", seed: int = 42,
           max_iterations: int = 300, tolerance: float = 1e-6,
           threads: int = 1) -> ClusteringResult:
    """Lloyd's loop from a seeded initialization, with Hamerly's bounds.

    Termination: assignment unchanged (converged at a fixed point), objective
    improvement below tolerance, or max_iterations assignment passes.  A
    cluster that empties is re-seeded to the point farthest from its assigned
    centroid.

    Passes after the first skip most distances with the bounds of Hamerly
    2010 ("Making k-means even faster", SDM): each point keeps a lower bound
    on its distance to every centroid but its own, lowered after each update
    by the largest centroid drift, and each centroid keeps half the distance
    to its nearest other centroid.  A pass computes every point's distance to
    its own centroid, with the operations of a full pass; only a point whose
    distance is not strictly below the larger of its two bounds gets the
    other k - 1 distances.  Both kinds of pass search with ``_nearest``,
    whose strict < over the centroids in index order sends ties to the
    lowest index.  The bounds are held below their true values by a margin
    that covers every rounding error, so labels, centroids,
    ``objective_trace``, ``iterations_run`` and ``converged`` are those of
    plain Lloyd passes, bit for bit, at any thread count.

    The margin is 2**-40 of the largest coordinate magnitude.  So points
    whose spread is that small against their distance from the origin (node
    IDs near 2**63) never skip, and each pass costs k * t as in plain Lloyd;
    so do coordinates beyond 2**500.  Coordinates must be finite.

    ``distance_evaluations`` counts the point-to-centroid distances
    computed: k per point in the first pass; in each later pass one per
    point plus k - 1 per point whose bounds failed.  So it is at most
    k * t per pass.

    Each update takes each cluster's count and coordinate sums as
    ``np.bincount`` gives them over every point.  A float64 sum of integers
    is exact in any order while every partial sum stays below 2**53 in
    magnitude.  So when every coordinate is an integer and
    max|coordinate| * t < 2**53 (node IDs up to about 1.6e9 over
    roadNet-CA's 5.5M records), the sums start at zero and are kept across
    passes, and each block hands back its change, bit for bit whatever the
    blocks: the first pass its points' sums, a later pass each chunk of
    cluster j's searched points added at their nearest centroids and taken
    from j.  Any other point set is counted again after every pass.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    if not tolerance >= 0:  # also refuses nan
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    xy = points.xy
    t = points.t
    x = np.ascontiguousarray(xy[:, 0])
    y = np.ascontiguousarray(xy[:, 1])
    ends = [x.min(), x.max(), y.min(), y.max()] if t else [0.0]
    scale = float(np.max(np.abs(ends)))
    if not np.isfinite(scale):
        raise ValueError("k-means needs finite coordinates")
    centroids = kmeans_init(points, k, method=init, seed=seed)
    labels = np.empty(t, dtype=np.int64)
    # one block of memory for the solve's float arrays: the allocator gives
    # it back whole at the end, which keeps the CLI's peak RSS at the level
    # of plain Lloyd (three separate arrays measured 0.5-1 MB above it)
    mind2, lower, scratch = np.empty((3, t))
    # each block owns its scratch for the whole solve, so a later pass
    # allocates nothing t-sized (freed per-pass temporaries stay in each
    # worker's malloc arena)
    blocks = [(x[a:b], y[a:b], labels[a:b], mind2[a:b], lower[a:b],
               scratch[a:b], np.empty(b - a, dtype=bool))
              for a, b in block_ranges(t, "kmeans", k * t, threads)]
    # whether the centroid sums can be kept across passes (see above): the
    # integer check runs in each block's scratch, and allocates nothing
    # t-sized
    exact = scale * t < 2.0 ** 53 and all(
        np.equal(np.trunc(c, out=tmp), c, out=keep).all()
        for bx, by, *_, tmp, keep in blocks for c in (bx, by))
    # each cluster's point count and coordinate sums, kept if exact
    totals = np.zeros((3, k))
    # past _LARGEST no bound holds, and every point is redone
    eta = _MARGIN * scale + _FLOOR if scale <= _LARGEST else np.inf
    half_gap = None
    drift = 0.0

    def full_pass(x, y, label, best, second, tmp, closer):
        # ``second`` is the point's first lower bound
        _nearest(x, y, centroids, label, best, second, tmp, closer)
        np.subtract(np.sqrt(second, out=second), eta, out=second)
        return True, x.size, _totals(x, y, label, k) if exact else None

    def bounded_pass(x, y, label, best, lower, tmp, keep):
        # the own-centroid distance by _sq_dist_to, so a skipped point's
        # mind2 has the bits a full pass would give it
        np.take(centroids[:, 0], label, out=best, mode="clip")
        np.take(centroids[:, 1], label, out=tmp, mode="clip")
        _sq_dist_to(x, y, (best, tmp), best, tmp)
        np.subtract(lower, drift, out=lower)
        np.take(half_gap, label, out=tmp, mode="clip")
        np.square(np.maximum(tmp, lower, out=tmp), out=tmp)
        np.less(best, tmp, out=keep)
        redo = np.flatnonzero(np.logical_not(keep, out=keep))
        # grouped by own centroid, whose distance is known and not computed
        # again; the stable sort keeps each group in index order, for memory
        # locality.  In chunks, so the temporaries stay small in the early
        # passes, where many points redo
        redo = redo[np.argsort(label[redo], kind="stable")]
        ends = np.searchsorted(label[redo], np.arange(k + 1)).tolist()
        moved = False
        delta = np.zeros((3, k)) if exact else None
        for j in range(k):
            for a in range(ends[j], ends[j + 1], _CHUNK):
                rows = redo[a:min(a + _CHUNK, ends[j + 1])]
                xs, ys = x[rows], y[rows]
                nearest = np.empty(rows.size, dtype=np.int64)
                near, second = np.empty((2, rows.size))
                _nearest(xs, ys, centroids, nearest, near, second,
                         tmp[:rows.size], keep[:rows.size], j, best[rows])
                label[rows] = nearest
                best[rows] = near
                lower[rows] = np.sqrt(second) - eta
                moved = moved or bool((nearest != j).any())
                if exact:
                    # the chunk's points leave cluster j for their nearest:
                    # exact, so the blocks' deltas may be added in any order
                    delta += _totals(xs, ys, nearest, k)
                    delta[:, j] -= rows.size, xs.sum(), ys.sum()
        return moved, redo.size, delta

    evaluations = 0
    trace: list[float] = []
    step = full_pass
    while True:
        passes = run_blocks(step, blocks, threads)
        evaluations += t + (k - 1) * sum(redone for _, redone, _ in passes)
        trace.append(float(mind2.sum()))
        # bool(): a numpy tolerance would make the comparison a numpy.bool
        converged = bool(
            not any(moved for moved, _, _ in passes)
            or len(trace) > 1 and trace[-2] - trace[-1] < tolerance)
        if converged or len(trace) == max_iterations:
            break
        if exact:
            totals += sum(delta for *_, delta in passes)
        else:
            totals = _totals(x, y, labels, k)
        updated = _means(xy, totals, mind2)
        drift = float(np.hypot(*(updated - centroids).T).max()) + eta
        centroids = updated
        half_gap = _half_gaps(centroids, eta)
        step = bounded_pass

    return ClusteringResult(
        centroids=centroids,
        assignment=labels,
        cluster_sizes=np.bincount(labels, minlength=k),
        objective=trace[-1],
        iterations_run=len(trace),
        converged=converged,
        distance_evaluations=evaluations,
        objective_trace=tuple(trace),
    )


def _nearest(x: np.ndarray, y: np.ndarray, centroids: np.ndarray, label,
             best, second, tmp, closer, own: int = -1, known=None) -> None:
    """Each point's nearest centroid, its squared distance and its least
    squared distance to any other centroid, into ``label``, ``best`` and
    ``second``: a running minimum from +inf over the centroids in index
    order, whose strict < keeps ties at the lowest index.  ``known`` holds
    the distances to centroid ``own``; ``tmp``, ``closer`` are scratch."""
    best.fill(np.inf)
    label.fill(0)
    second.fill(np.inf)
    d2 = np.empty(x.size)
    for i in range(centroids.shape[0]):
        d = known if i == own else _sq_dist_to(x, y, centroids[i], d2, tmp)
        np.less(d, best, out=closer)
        np.minimum(second, d, out=second)
        np.copyto(second, best, where=closer)
        np.copyto(best, d, where=closer)
        np.copyto(label, i, where=closer)


def _half_gaps(centroids: np.ndarray, eta: float) -> np.ndarray:
    """Half the distance from each centroid to its nearest other one, less
    ``eta`` and at least 0; +inf when there is no other centroid."""
    gaps = np.empty(centroids.shape[0])
    for j, c in enumerate(centroids):
        d = np.hypot(*(centroids - c).T)
        d[j] = np.inf
        gaps[j] = d.min()
    return np.maximum(0.5 * gaps - eta, 0.0)


def _totals(x: np.ndarray, y: np.ndarray, labels: np.ndarray,
            k: int) -> np.ndarray:
    """Each cluster's point count, x sum and y sum, as the rows of a
    (3, k) array."""
    return np.stack([np.bincount(labels, minlength=k),
                     np.bincount(labels, weights=x, minlength=k),
                     np.bincount(labels, weights=y, minlength=k)])


def _means(xy: np.ndarray, totals: np.ndarray,
           mind2: np.ndarray) -> np.ndarray:
    """Mean of each cluster from its ``_totals``; empty clusters re-seed to
    the farthest points."""
    counts = totals[0]
    centroids = np.column_stack([totals[1], totals[2]])
    filled = counts > 0
    centroids[filled] /= counts[filled, None]

    empty = np.flatnonzero(~filled)
    if empty.size:
        # farthest-first, ties to the lowest point index; one point each
        far = top_k_order(mind2, np.arange(mind2.size), empty.size)
        for cluster, point in zip(empty, far):
            centroids[cluster] = xy[point]
    return centroids
