"""Independent brute-force oracles; no roadnet internals are used here.

These re-derive expected values by the most direct route available (dense
matrices, dict scans, exhaustive enumeration, double loops) so the tests
check the library against a genuinely separate code path.
"""

from itertools import product

import numpy as np


def undirected_adjacency(records):
    """Neighbor sets of the simple undirected view, keyed by original ID."""
    adj = {}
    for u, v in records:
        adj.setdefault(u, set())
        adj.setdefault(v, set())
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def degree_scan(records):
    """(degree, indegree, outdegree) dicts computed by a direct scan."""
    adj = undirected_adjacency(records)
    indeg = {u: 0 for u in adj}
    outdeg = {u: 0 for u in adj}
    for u, v in records:
        outdeg[u] += 1
        indeg[v] += 1
    return {u: len(nbrs) for u, nbrs in adj.items()}, indeg, outdeg


def dense_pagerank(records, damping=0.85):
    """Direct solve of ``(I - d T) x = (1 - d)/n 1`` on the dense transition
    matrix ``T`` of the undirected view.

    Dangling columns teleport uniformly, matching a redistribution of their
    mass over all nodes; every column of ``T`` sums to 1, so ``x`` sums to 1.
    Returns scores aligned to ascending original ID.
    """
    adj = undirected_adjacency(records)
    ids = sorted(adj)
    n = len(ids)
    index = {u: i for i, u in enumerate(ids)}
    T = np.zeros((n, n))
    for u in ids:
        col = index[u]
        if adj[u]:
            share = 1.0 / len(adj[u])
            for v in adj[u]:
                T[index[v], col] = share
        else:
            T[:, col] = 1.0 / n
    return np.linalg.solve(np.eye(n) - damping * T,
                           np.full(n, (1.0 - damping) / n))


def topk_sort(pairs, k):
    """Full sort by (descending score, ascending ID), truncated to k."""
    return sorted(pairs, key=lambda p: (-p[1], p[0]))[:k]


def wcss(points, centroids, labels):
    """Double-loop within-cluster sum of squared Euclidean distances."""
    total = 0.0
    for point, label in zip(points, labels):
        cx, cy = centroids[label]
        total += (point[0] - cx) ** 2 + (point[1] - cy) ** 2
    return total


def partition_wcss(points, labels, k):
    """WCSS of a labeling with per-cluster means as centroids."""
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    total = 0.0
    for c in range(k):
        members = points[labels == c]
        if len(members):
            mean = members.mean(axis=0)
            total += ((members - mean) ** 2).sum()
    return float(total)


def exhaustive_kmeans_optimum(points, k):
    """Global optimum objective over every assignment of points to k clusters."""
    t = len(points)
    best = np.inf
    for labels in product(range(k), repeat=t):
        best = min(best, partition_wcss(points, labels, k))
    return best


def kmeanspp_support(points, k, trials=200):
    """All point indices selectable into a k-means++ seeding.

    Enumerates the nonzero-probability support of the sequential D^2
    distribution by brute force over many seeds of an independent sampler.
    """
    points = np.asarray(points, dtype=float)
    chosen = set()
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        picks = [int(rng.integers(len(points)))]
        d2 = ((points - points[picks[0]]) ** 2).sum(axis=1)
        for _ in range(k - 1):
            probs = d2 / d2.sum()
            nxt = int(rng.choice(len(points), p=probs))
            picks.append(nxt)
            d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
        chosen.update(picks)
    return chosen
