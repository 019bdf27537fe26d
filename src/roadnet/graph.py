"""Immutable compressed-adjacency graph with degree analytics and top-k tables."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Road network in CSR form, dense node indices 0..n-1.

    Two views are kept side by side.  The symmetrized simple undirected view
    (self-loops dropped, parallel edges merged) is the CSR of the keys of
    each distinct pair and of its reverse.  The raw directed arc multiset,
    exactly as read from the file (duplicates and self-loops preserved), is
    kept as the arcs ``sources[j] -> targets[j]`` in file order.
    ``id_map[i]`` gives the original node identifier of dense index ``i``;
    it is sorted ascending, so dense order is original-ID order.
    """

    n: int
    undirected_offsets: np.ndarray
    undirected_neighbors: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    id_map: np.ndarray

    def __post_init__(self):
        for arr in (self.undirected_offsets, self.undirected_neighbors,
                    self.sources, self.targets, self.id_map):
            arr.flags.writeable = False

    @property
    def undirected_edge_count(self) -> int:
        return self.undirected_neighbors.size // 2

    @property
    def arc_count(self) -> int:
        """Raw directed arcs, duplicates and self-loops included."""
        return int(self.sources.size)

    @cached_property
    def degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.undirected_offsets))

    @cached_property
    def indegrees(self) -> np.ndarray:
        return _frozen(np.bincount(self.targets, minlength=self.n))

    @cached_property
    def outdegrees(self) -> np.ndarray:
        return _frozen(np.bincount(self.sources, minlength=self.n))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def arc_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """int64 keys ``src << 32 | dst`` over int64 indices in 0..n-1; they sort
    as the (src, dst) pairs do."""
    if n > 2**31:
        raise ValueError(f"{n} nodes exceed the 2^31 limit of the pair keys")
    return (src << 32) | dst


def split_keys(keys: np.ndarray):
    """Inverse of ``arc_keys``: the (src, dst) index arrays."""
    return keys >> 32, keys & 0xFFFFFFFF


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, as ``np.unique``; sorts ``values`` in place.

    One sort and an adjacent-difference mask: ``np.unique`` without
    ``return_*`` takes a hash-table path on numpy >= 2.3 that costs 10-30x
    more on int64 keys.
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def csr_from_keys(n: int, keys: np.ndarray):
    """Build (offsets, neighbors) from the ``arc_keys`` of the arcs, each
    neighbor run sorted ascending.  ``keys`` is sorted and masked to its dst
    halves in place, and becomes ``neighbors``."""
    keys.sort()
    # the last offset is keys.size, as n << 32 overflows at n = 2^31
    offsets = np.append(np.searchsorted(keys, np.arange(n) << 32), keys.size)
    keys &= 0xFFFFFFFF
    return offsets, keys


class TopKRow(NamedTuple):
    node_id: int
    score: float
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class TopKTable:
    """Rows sorted by descending score, ties broken by ascending node ID."""

    rows: tuple[TopKRow, ...]
    k: int

    def to_csv(self, fp) -> None:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["node_id", "score", "attributes"])
        for row in self.rows:
            writer.writerow([row.node_id, _fmt_score(row.score),
                             ";".join(row.attributes)])

    def format_triples(self) -> str:
        """One ``(node, score, List(attr, ...))`` line per row."""
        lines = []
        for row in self.rows:
            attrs = ", ".join(row.attributes)
            lines.append(f"({row.node_id}, {_fmt_score(row.score)}, List({attrs}))")
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        return [{"node": row.node_id, "score": row.score} for row in self.rows]


def _fmt_score(score) -> str:
    if isinstance(score, (int, np.integer)):
        return str(int(score))
    return repr(float(score))


def top_k_order(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best entries under (descending score, ascending ID),
    for distinct ``ids``.

    Every entry above the k-th best score wins, and so do the lowest IDs of
    the entries tied at it; only those k winners are sorted.
    """
    k = min(k, scores.size)
    if 0 < k < scores.size:
        cut = np.partition(scores, -k)[-k]
        cand = np.flatnonzero(scores >= cut)
        if cand.size > k:
            tied = scores[cand] == cut
            at = cand[tied]
            need = k - (cand.size - at.size)  # >= 1: cut is a k-th score
            cand = np.concatenate([
                cand[~tied], at[np.argpartition(ids[at], need - 1)[:need]]])
        return cand[np.lexsort((ids[cand], -scores[cand]))]
    return np.lexsort((ids, -scores))[:k]


def degree_attributes(deg: int, indeg: int, outdeg: int) -> tuple[str, str, str]:
    return (f"degree={deg}", f"indegree={indeg}", f"outdegree={outdeg}")


def top_k_table(node_ids: np.ndarray, scores: np.ndarray, counts,
                chosen: np.ndarray, k: int) -> TopKTable:
    """TopKTable of the ``chosen`` indices, in the order given, with the
    (degree, indegree, outdegree) ``counts`` arrays as attributes."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = tuple(
        TopKRow(node, score, degree_attributes(*c))
        for node, score, c in zip(node_ids[chosen].tolist(),
                                  scores[chosen].tolist(),
                                  zip(*(a[chosen].tolist() for a in counts))))
    return TopKTable(rows=rows, k=k)


def table_from_scores(graph: Graph, scores: np.ndarray, k: int) -> TopKTable:
    """Rank dense-index scores into a TopKTable with degree-breakdown attributes."""
    return top_k_table(graph.id_map, scores,
                       (graph.degrees, graph.indegrees, graph.outdegrees),
                       top_k_order(scores, graph.id_map, k), k)


def top_k_by_degree(graph: Graph, k: int) -> TopKTable:
    """Table of the k highest-undirected-degree nodes."""
    return table_from_scores(graph, graph.degrees, k)
