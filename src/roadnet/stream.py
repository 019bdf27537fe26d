"""Micro-batch ingestion with live cumulative top-k statistics.

The edge stream is consumed in fixed-size chunks of data lines.  Each batch
is merged into numpy degree state (node slots, found through a direct table
indexed by node ID, and the sorted ``pair_keys`` seen so far), and the top-k
by undirected degree is re-ranked over the previous top-k plus the batch's
nodes that beat the weakest of them; optionally the cumulative graph is
rebuilt and ranked by PageRank per batch.  Every batch's table equals the
batch pipeline's on the prefix read, same tie rules included.  The sorted
inserts into the pair keys, and into the node index once sparse IDs have
moved it to its sorted path, are the one per-batch cost that grows with the
prefix.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .graph import (TopKTable, sorted_distinct, split_keys, top_k_order,
                    top_k_table)
from .graph_io import (EdgeList, build_graph, concat_blocks, dense_indices,
                       direct_table_limit, iter_edge_blocks, pair_keys)
from .pagerank import pagerank, top_k_pagerank


@dataclass
class BatchStats:
    batch_index: int
    cumulative_edges: int
    cumulative_nodes: int
    top_degree: TopKTable
    top_pagerank: TopKTable | None
    pagerank_converged: bool | None  # None when PageRank is not recomputed
    wall_time_ms: float

    def to_json(self) -> str:
        payload = {
            "batch": self.batch_index,
            "cumulative_edges": self.cumulative_edges,
            "cumulative_nodes": self.cumulative_nodes,
            "top_degree": self.top_degree.to_records(),
        }
        if self.top_pagerank is not None:
            payload["top_pagerank"] = self.top_pagerank.to_records()
        payload["ms"] = self.wall_time_ms
        return json.dumps(payload)


def stream_batches(reader, batch_size: int,
                   source_name: str = "<stream>") -> Iterator[EdgeList]:
    """Yield EdgeList chunks of batch_size data lines (last may be short).

    The blocks of ``iter_edge_blocks`` (numpy fast path, line-scanner
    fallback) are re-sliced into batches, so a malformed line raises the
    scanner's ParseError after the same batches as a line-by-line read.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    held, count = [], 0  # blocks (or a block tail) not yet emitted
    for block in iter_edge_blocks(reader, source_name):
        held.append(block)
        count += block[0].size
        if count < batch_size:
            continue
        edges = concat_blocks(held)
        cut = count - count % batch_size
        for i in range(0, cut, batch_size):
            yield EdgeList(edges.from_ids[i:i + batch_size],
                           edges.to_ids[i:i + batch_size])
        held, count = [(edges.from_ids[cut:], edges.to_ids[cut:])], count - cut
    if count:
        yield concat_blocks(held)


class _DegreeTracker:
    """Cumulative degrees and top-k table over a stream of arcs.

    Slots are assigned batch by batch, and in ID order within a batch, so the
    nodes of earlier batches keep theirs.  ``node_id`` and the rows of
    ``counts`` (degree, indegree, outdegree) are indexed by slot.  ``keys``
    are the ``pair_keys`` over slots so far; they start with a -1 sentinel,
    so ``searchsorted(side="right") - 1`` always indexes an entry.

    Node IDs map to slots through ``slot_of``, a direct table indexed by ID
    that holds -1 where an ID is unseen.  It grows by doubling to the largest
    ID seen, and never past ``direct_table_limit`` of the nodes seen plus the
    batch's endpoints.  A batch whose largest ID would pass that limit
    converts the index once, for the rest of the stream, to sorted ``ids``
    with their ``slot_of``, both starting with the -1 sentinel (``ids`` is
    None until then).

    ``node_id`` and ``counts`` have a capacity that doubles when outgrown:
    slots ``0..n-1`` are in use and ``counts`` is zero past them, so a batch
    touches only its own slots.  The sorted inserts into ``keys``, and into
    ``ids`` and ``slot_of`` on the sorted path, are the one per-batch cost
    that grows with the prefix.

    Once ``top`` holds k slots, only the old leaders and those batch nodes
    that beat the weakest old leader (current degree desc, ID asc) are
    ranked.  That is exact: degrees only grow, so a node outside the batch
    still trails all k old leaders, and a batch node that does not beat the
    weakest of them trails them all too.
    """

    def __init__(self, k: int):
        self.k, self.n = k, 0
        self.ids = None
        self.slot_of = np.full(0, -1, dtype=np.int64)
        self.keys = np.full(1, -1, dtype=np.int64)
        self.node_id = self.top = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros((3, 0), dtype=np.int64)

    def _reserve(self, n: int) -> None:
        """Grow ``node_id`` and ``counts`` to hold n slots, at least doubling."""
        if n <= self.node_id.size:
            return
        cap = max(n, 2 * self.node_id.size)
        node_id = np.empty(cap, dtype=np.int64)
        node_id[:self.n] = self.node_id[:self.n]
        counts = np.zeros((3, cap), dtype=np.int64)
        counts[:, :self.n] = self.counts[:, :self.n]
        self.node_id, self.counts = node_id, counts

    def _slots(self, f: np.ndarray, t: np.ndarray):
        """Slots of the arcs' endpoints; IDs not seen before get new slots,
        in ID order.  Returns (src, dst, the new IDs)."""
        ends = np.concatenate([f, t])
        top = int(ends.max(initial=-1))
        limit = direct_table_limit(self.n + ends.size)
        if self.ids is None and top >= limit:
            seen = np.flatnonzero(self.slot_of >= 0)
            self.ids = np.concatenate([[-1], seen])
            self.slot_of = np.concatenate([[-1], self.slot_of[seen]])
        if self.ids is None:
            if top >= self.slot_of.size:
                size = min(max(top + 1, 2 * self.slot_of.size), limit)
                table = np.full(size, -1, dtype=np.int64)
                table[:self.slot_of.size] = self.slot_of
                self.slot_of = table
            fresh = sorted_distinct(ends[self.slot_of[ends] < 0])
            self.slot_of[fresh] = np.arange(self.n, self.n + fresh.size)
            slots = self.slot_of[ends]
            return slots[:f.size], slots[f.size:], fresh
        batch_ids, src, dst = dense_indices(f, t)
        pos = np.searchsorted(self.ids, batch_ids, side="right")
        fresh = self.ids[pos - 1] != batch_ids
        slots = self.slot_of[pos - 1]
        slots[fresh] = np.arange(self.n, self.n + np.count_nonzero(fresh))
        self.ids = np.insert(self.ids, pos[fresh], batch_ids[fresh])
        self.slot_of = np.insert(self.slot_of, pos[fresh], slots[fresh])
        return slots[src], slots[dst], batch_ids[fresh]

    def add(self, edges: EdgeList) -> TopKTable:
        """Merge one batch of arcs; return the new top-k table."""
        src, dst, fresh = self._slots(edges.from_ids, edges.to_ids)
        n = self.n + fresh.size
        self._reserve(n)
        self.node_id[self.n:n] = fresh
        self.n = n
        deg, indeg, outdeg = self.counts
        np.add.at(indeg, dst, 1)
        np.add.at(outdeg, src, 1)
        keys = pair_keys(src, dst, n)
        at = np.searchsorted(self.keys, keys, side="right")
        unseen = self.keys[at - 1] != keys
        self.keys = np.insert(self.keys, at[unseen], keys[unseen])
        np.add.at(deg, np.concatenate(split_keys(keys[unseen])), 1)
        cand = batch = sorted_distinct(np.concatenate([src, dst]))
        if self.top.size == self.k:
            low = deg[self.top].min()
            last = self.node_id[self.top][deg[self.top] == low].max()
            d = deg[batch]
            cand = batch[(d > low) | ((d == low) & (self.node_id[batch] < last))]
        cand = sorted_distinct(np.concatenate([self.top, cand]))
        self.top = cand[top_k_order(deg[cand], self.node_id[cand], self.k)]
        return top_k_table(self.node_id, deg, self.counts, self.top, self.k)


def run_stream(reader, batch_size: int, k: int = 10,
               recompute_pagerank: bool = False,
               source_name: str = "<stream>",
               threads: int = 1) -> Iterator[BatchStats]:
    """Process the stream batch by batch, emitting cumulative statistics."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tracker = _DegreeTracker(k)
    prefix = concat_blocks([])  # every arc read so far, for --pagerank
    cumulative_edges = 0

    for index, batch in enumerate(stream_batches(reader, batch_size,
                                                 source_name), start=1):
        started = time.perf_counter()
        top_degree = tracker.add(batch)
        cumulative_edges += batch.line_count
        top_pr = converged = None
        if recompute_pagerank:
            prefix = concat_blocks([(prefix.from_ids, prefix.to_ids),
                                    (batch.from_ids, batch.to_ids)])
            graph = build_graph(prefix)
            ranks = pagerank(graph, threads=threads)
            top_pr, converged = top_k_pagerank(ranks, graph, k), ranks.converged
        yield BatchStats(
            batch_index=index,
            cumulative_edges=cumulative_edges,
            cumulative_nodes=tracker.n,
            top_degree=top_degree,
            top_pagerank=top_pr,
            pagerank_converged=converged,
            wall_time_ms=(time.perf_counter() - started) * 1e3,
        )


def write_ndjson(stats: Iterator[BatchStats], fp: IO[str]) -> Iterator[BatchStats]:
    """Pass batches through while appending one NDJSON line each."""
    for item in stats:
        fp.write(item.to_json() + "\n")
        yield item
