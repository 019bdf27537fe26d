"""Micro-batch ingestion with live cumulative top-k statistics.

The edge stream is consumed in fixed-size chunks of data lines.  Each batch
is merged into numpy degree state (arrival-order node slots and the sorted
``pair_keys`` seen so far), and the top-k by undirected degree is re-ranked
over the previous top-k plus the batch's nodes alone; optionally the
cumulative graph is rebuilt and ranked by PageRank per batch.  Every batch's
table equals the batch pipeline's on the prefix read, same tie rules included.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .graph import (TopKRow, TopKTable, degree_attributes, sorted_distinct,
                    split_keys, top_k_order)
from .graph_io import (EdgeList, build_graph, concat_blocks, dense_indices,
                       iter_edge_blocks, pair_keys)
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
        edges = concat_blocks(held, source_name)
        cut = count - count % batch_size
        for i in range(0, cut, batch_size):
            yield EdgeList(edges.from_ids[i:i + batch_size],
                           edges.to_ids[i:i + batch_size], source_name)
        held, count = [(edges.from_ids[cut:], edges.to_ids[cut:])], count - cut
    if count:
        yield concat_blocks(held, source_name)


class _DegreeTracker:
    """Cumulative degrees and top-k table over a stream of arcs.

    Nodes get stable slots in arrival order; ``ids`` (sorted) and ``slot_of``
    map node IDs to slots, and ``node_id`` and the rows of ``counts`` (degree,
    indegree, outdegree) are indexed by slot.  ``keys`` are the ``pair_keys``
    over slots so far.  ``ids``, ``slot_of`` and ``keys`` start with a -1
    sentinel, so ``searchsorted(side="right") - 1`` always indexes an entry.
    """

    def __init__(self, k: int):
        self.k = k
        self.ids = self.slot_of = self.keys = np.full(1, -1, dtype=np.int64)
        self.node_id = self.top = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros((3, 0), dtype=np.int64)

    def add(self, edges: EdgeList) -> TopKTable:
        """Merge one batch of arcs; return the new top-k table."""
        batch_ids, src, dst = dense_indices(edges.from_ids, edges.to_ids)
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
        self.top = cand[top_k_order(self.counts[0, cand], self.node_id[cand], self.k)]
        counts = self.counts[:, self.top].T.tolist()  # [degree, indegree, outdegree]
        rows = tuple(TopKRow(node, c[0], degree_attributes(*c))
                     for node, c in zip(self.node_id[self.top].tolist(), counts))
        return TopKTable(rows=rows, k=self.k)


def run_stream(reader, batch_size: int, k: int = 10,
               recompute_pagerank: bool = False,
               source_name: str = "<stream>",
               threads: int = 1) -> Iterator[BatchStats]:
    """Process the stream batch by batch, emitting cumulative statistics."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tracker = _DegreeTracker(k)
    chunks: list[EdgeList] = []
    cumulative_edges = 0

    for index, batch in enumerate(stream_batches(reader, batch_size,
                                                 source_name), start=1):
        started = time.perf_counter()
        top_degree = tracker.add(batch)
        cumulative_edges += batch.line_count
        top_pr = converged = None
        if recompute_pagerank:
            chunks.append(batch)
            graph = build_graph(EdgeList(
                np.concatenate([c.from_ids for c in chunks]),
                np.concatenate([c.to_ids for c in chunks]), source_name))
            ranks = pagerank(graph, threads=threads)
            top_pr, converged = top_k_pagerank(ranks, graph, k), ranks.converged
        yield BatchStats(
            batch_index=index,
            cumulative_edges=cumulative_edges,
            cumulative_nodes=tracker.node_id.size,
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
