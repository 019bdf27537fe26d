"""Output checks for the benchmark's workloads, independent of roadnet.

Each check reads the artifacts a command wrote and compares them with the
generator's ground truth (``gen.Grid``) or with facts recomputed here in
numpy.  A failed check raises ``CheckError`` naming what was wrong.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from gen import Grid


class CheckError(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _dense(grid: Grid):
    return (np.searchsorted(grid.ids, grid.from_ids),
            np.searchsorted(grid.ids, grid.to_ids))


def _read_topk(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fp:
        rows = list(csv.reader(fp))
    _require(rows and rows[0] == ["node_id", "score", "attributes"],
             f"{path.name}: bad header")
    return rows[1:]


def _degree_attrs(deg: int) -> str:
    return f"degree={deg};indegree={deg};outdegree={deg}"


def check_pagerank(out: Path, grid: Grid, damping: float, tol: float,
                   top: int) -> None:
    """pagerank.csv covers every node once, sums to 1, is a fixed point of
    one more power step to within ``tol``, and pagerank_topk.csv is its top
    ``top`` by (descending score, ascending ID)."""
    path = out / "pagerank.csv"
    with open(path, encoding="utf-8") as fp:
        _require(fp.readline() == "node_id,score\n", "pagerank.csv: bad header")
    # IDs stay below 2**53, so they read exactly as float64
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    order = np.argsort(table[:, 0], kind="stable")
    ids, scores = table[order, 0].astype(np.int64), table[order, 1]
    _require(np.array_equal(ids, grid.ids),
             f"pagerank.csv: {ids.size} rows, expected one per node "
             f"({grid.node_count})")
    total = math.fsum(scores.tolist())
    _require(abs(total - 1.0) <= 1e-9, f"pagerank.csv: scores sum to {total!r}")

    src, dst = _dense(grid)
    n = grid.node_count
    spread = np.bincount(dst, weights=(scores / grid.degree)[src], minlength=n)
    step = (1.0 - damping) / n + damping * spread
    residual = float(np.abs(step - scores).sum())
    _require(residual <= 10 * tol,
             f"pagerank.csv: one more power step moves the scores by "
             f"{residual:.3e} (L1), tolerance {tol:.0e}")

    rows = _read_topk(out / "pagerank_topk.csv")
    best = np.lexsort((ids, -scores))[:top]
    _require(len(rows) == best.size,
             f"pagerank_topk.csv: {len(rows)} rows, expected {best.size}")
    for row, i in zip(rows, best.tolist()):
        _require(int(row[0]) == ids[i] and float(row[1]) == scores[i]
                 and row[2] == _degree_attrs(int(grid.degree[i])),
                 f"pagerank_topk.csv: row {row} differs from node "
                 f"{ids[i]} score {scores[i]!r}")


def check_kmeans(out: Path, grid: Grid, k: int) -> dict:
    """The solve converged, every label is the nearest final centroid (ties
    to the lowest index), the objective matches the artifacts, and the
    distance-evaluation count is within k*t*iterations.  Returns the
    result summary."""
    result = json.loads((out / "kmeans_result.json").read_text(encoding="utf-8"))
    _require(result["converged"] is True, "kmeans: solve did not converge")
    centroids = np.asarray(result["centroids"], dtype=np.float64)
    _require(centroids.shape == (k, 2), f"kmeans: centroids {centroids.shape}")

    path = out / "kmeans_points.csv"
    with open(path, encoding="utf-8") as fp:
        _require(fp.readline() == "point_index,x,y,cluster\n",
                 "kmeans_points.csv: bad header")
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64,
                       ndmin=2)
    t = grid.arc_count
    _require(table.shape == (t, 4),
             f"kmeans_points.csv: {table.shape[0]} rows, expected {t}")
    x, y = table[:, 1], table[:, 2]
    labels = table[:, 3].astype(np.int64)
    _require(np.array_equal(table[:, 0], np.arange(t))
             and np.array_equal(x, grid.from_ids)
             and np.array_equal(y, grid.to_ids),
             "kmeans_points.csv: points differ from the input arcs")

    d2 = np.empty((t, k))
    for i, (cx, cy) in enumerate(centroids):
        d2[:, i] = (x - cx) ** 2 + (y - cy) ** 2
    nearest = np.argmin(d2, axis=1)
    wrong = np.flatnonzero(nearest != labels)
    _require(wrong.size == 0,
             f"kmeans: {wrong.size} labels are not the nearest centroid "
             f"(first at point {wrong[:1].tolist()})")
    recomputed = math.fsum(d2[np.arange(t), labels].tolist())
    _require(abs(recomputed - result["objective"]) <= 1e-9 * abs(recomputed),
             f"kmeans: objective {result['objective']!r}, recomputed "
             f"{recomputed!r}")
    _require(result["cluster_sizes"] == np.bincount(labels, minlength=k).tolist(),
             "kmeans: cluster_sizes differ from the labels")
    _require(0 < result["distance_evaluations"]
             <= k * t * result["iterations_run"],
             f"kmeans: distance_evaluations {result['distance_evaluations']} "
             f"exceeds k*t*iterations")

    svg = (out / f"clusters_k{k}.svg").read_text(encoding="utf-8")
    _require(svg.count('class="centroid"') == k,
             "clusters svg: expected one cross per centroid")
    return result


def check_stream(ndjson: Path, grid: Grid, batch_size: int, top: int) -> int:
    """One line per batch in order, cumulative edge and node counts right
    after every batch, and the final top-k degree table equal to the ground
    truth.  Returns the batch count."""
    lines = ndjson.read_text(encoding="utf-8").splitlines()
    arcs = grid.arc_count
    expected = -(-arcs // batch_size)
    _require(len(lines) == expected,
             f"stream: {len(lines)} batches, expected {expected}")

    src, dst = _dense(grid)
    # line index at which each node first appears, in either column
    first = np.full(grid.node_count, arcs, dtype=np.int64)
    for column in (src, dst):
        nodes, at = np.unique(column, return_index=True)
        first[nodes] = np.minimum(first[nodes], at)
    first.sort()

    for index, text in enumerate(lines, start=1):
        batch = json.loads(text)
        edges = min(index * batch_size, arcs)
        nodes = int(np.searchsorted(first, edges))
        _require(batch["batch"] == index and batch["cumulative_edges"] == edges
                 and batch["cumulative_nodes"] == nodes,
                 f"stream: batch {index} reports {batch['batch']}/"
                 f"{batch['cumulative_edges']}/{batch['cumulative_nodes']}, "
                 f"expected {index}/{edges}/{nodes}")

    best = np.lexsort((grid.ids, -grid.degree))[:top]
    truth = [{"node": int(grid.ids[i]), "score": int(grid.degree[i])}
             for i in best]
    _require(batch["top_degree"] == truth,
             f"stream: final top-{top} degree table {batch['top_degree']} "
             f"differs from {truth}")
    return expected
