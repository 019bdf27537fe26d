"""k-means over the 2D edge-scatter cloud: Lloyd's loop, k-means++ seeding.

Each raw edge record becomes one point (from_id, to_id).  Lloyd's algorithm
alternates nearest-centroid assignment (ties to the lowest centroid index)
with mean updates, and stops when the assignment stabilizes, the objective
improvement falls below tolerance, or max_iterations is hit.  The objective
is the within-cluster sum of squared Euclidean distances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO

import numpy as np

from .graph_io import EdgeList
from .parallel import block_count, block_ranges, run_blocks

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
        fp.write("".join(map("{},{!r},{!r},{}\n".format, range(points.t),
                             points.xy[:, 0].tolist(),
                             points.xy[:, 1].tolist(),
                             self.assignment.tolist())))


def edges_to_points(edges: EdgeList) -> PointSet:
    """One point per raw edge record: (from_id, to_id), file order preserved."""
    xy = np.column_stack([edges.from_ids, edges.to_ids]).astype(np.float64)
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
    d2 = _sq_dist_to(xy, centroids[0])
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            raise ValueError(
                f"kmeans++ needs {k} distinct points, only {i} available")
        idx = rng.choice(t, p=d2 / total)
        centroids[i] = xy[idx]
        np.minimum(d2, _sq_dist_to(xy, centroids[i]), out=d2)
    return centroids


def _sq_dist_to(xy: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (xy[:, 0] - c[0]) ** 2 + (xy[:, 1] - c[1]) ** 2


def kmeans(points: PointSet, k: int, *, init: str = "kmeans++", seed: int = 42,
           max_iterations: int = 300, tolerance: float = 1e-6,
           threads: int = 1) -> ClusteringResult:
    """Lloyd's loop from a seeded initialization.

    Termination: assignment unchanged (converged at a fixed point), objective
    improvement below tolerance, or max_iterations assignment passes.  A
    cluster that empties is re-seeded to the point farthest from its assigned
    centroid.  ``distance_evaluations`` counts point-to-centroid evaluations
    in assignment passes, exactly k * t per pass.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    if not tolerance >= 0:  # also refuses nan
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    centroids = kmeans_init(points, k, method=init, seed=seed)

    xy = points.xy
    t = points.t
    labels = np.empty(t, dtype=np.int64)
    mind2 = np.empty(t)
    ranges = block_ranges(t, block_count("kmeans", k * t, threads))

    def assign(a: int, b: int) -> None:
        # running minimum over the centroids; strict < keeps ties at the
        # lowest index, as argmin does
        block = xy[a:b]
        best, label = mind2[a:b], labels[a:b]
        best[:] = _sq_dist_to(block, centroids[0])
        label[:] = 0
        for i in range(1, k):
            d2 = _sq_dist_to(block, centroids[i])
            closer = d2 < best
            np.copyto(best, d2, where=closer)
            label[closer] = i

    evaluations = 0
    trace: list[float] = []
    prev_labels = None
    prev_obj = None
    converged = False
    iterations = 0
    while iterations < max_iterations:
        run_blocks(assign, ranges, threads)
        evaluations += k * t
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
        centroids = _update_centroids(xy, labels, mind2, k)
        prev_labels = labels.copy()
        prev_obj = obj

    return ClusteringResult(
        centroids=centroids,
        assignment=labels,
        cluster_sizes=np.bincount(labels, minlength=k),
        objective=trace[-1],
        iterations_run=iterations,
        converged=converged,
        distance_evaluations=evaluations,
        objective_trace=tuple(trace),
    )


def _update_centroids(xy: np.ndarray, labels: np.ndarray, mind2: np.ndarray,
                      k: int) -> np.ndarray:
    """Mean of each cluster; empty clusters re-seed to the farthest points."""
    counts = np.bincount(labels, minlength=k)
    sums_x = np.bincount(labels, weights=xy[:, 0], minlength=k)
    sums_y = np.bincount(labels, weights=xy[:, 1], minlength=k)
    centroids = np.column_stack([sums_x, sums_y])
    filled = counts > 0
    centroids[filled] /= counts[filled, None]

    empty = np.flatnonzero(~filled)
    if empty.size:
        # farthest-first, ties to the lowest point index; one point each
        order = np.argsort(-mind2, kind="stable")
        for cluster, point in zip(empty, order[:empty.size]):
            centroids[cluster] = xy[point]
    return centroids
