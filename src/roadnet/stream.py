"""Micro-batch ingestion with live cumulative top-k statistics.

The edge stream is consumed in fixed-size chunks of data lines.  Each batch
is merged into numpy degree state (node slots from one ``NodeIndex``, and
the ``pair_keys`` seen so far as sorted runs), and the top-k by undirected
degree is re-ranked over the previous top-k plus the batch's nodes that can
enter it by ``top_k_order``, the batch pipeline's own cut; optionally the
cumulative graph is rebuilt and ranked by PageRank per batch.  Every
batch's table equals the batch pipeline's on the prefix read, same tie
rules included.  Only the sorted inserts into the node index, once sparse
IDs have moved it to its sorted path, grow with the prefix; the rest of a
batch's work grows with the batch and the log of the prefix.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .graph import (TopKTable, sorted_distinct, split_keys, top_k_order,
                    top_k_table)
from .graph_io import (EdgeList, NodeIndex, build_graph, concat_blocks,
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

    ``nodes`` numbers the nodes batch by batch (see ``NodeIndex``), and the
    columns of ``slots`` (node ID, degree, indegree, outdegree) are indexed
    by those numbers.  ``slots`` has a capacity that doubles when outgrown
    and is zero past the slots in use, so a batch touches only its own
    slots.  ``runs`` hold the ``pair_keys`` over slots so far as sorted,
    disjoint, non-empty runs, each more than twice the size of the next: a
    batch's unseen keys (those no run holds) become a new run, merged with
    the newest runs while they are at most twice its size, as a binary
    counter carries (Bentley and Saxe 1980).  So there are about
    log2(keys / batch) runs, and a key is merged about that many times.

    Each batch ranks the old leaders, and those of the batch's new nodes
    and of the nodes whose degree grew that beat ``floor``: the (degree, ID)
    of the k-th leader at the end of the last batch, kept once k nodes are
    seen.  Degrees only grow, so the k old leaders still rank at or above
    the floor, and a node that does not beat it cannot enter the table.
    Any other node that is no leader ranked below the floor before the
    batch, and still does.
    """

    def __init__(self, k: int):
        self.k = k
        self.nodes = NodeIndex()
        self.runs: list[np.ndarray] = []
        self.top = np.zeros(0, dtype=np.int64)
        self.floor = None
        self.slots = np.zeros((4, 0), dtype=np.int64)

    def add(self, edges: EdgeList) -> TopKTable:
        """Merge one batch of arcs; return the new top-k table."""
        old = self.nodes.n
        fresh, src, dst = self.nodes.add(edges.from_ids, edges.to_ids)
        n = self.nodes.n
        if n > self.slots.shape[1]:
            # np.zeros leaves the unused tail lazily zeroed; np.pad would
            # write it (+19 MB VmHWM on a PA-size stream)
            slots = np.zeros((4, max(n, 2 * self.slots.shape[1])),
                             dtype=np.int64)
            slots[:, :old] = self.slots[:, :old]
            self.slots = slots
        node_id, deg, indeg, outdeg = self.slots
        node_id[old:n] = fresh
        np.add.at(indeg, dst, 1)
        np.add.at(outdeg, src, 1)
        keys = pair_keys(src, dst, n)
        for run in self.runs:
            # a key below run[0] lands on run[-1], which exceeds it
            keys = keys[run[np.searchsorted(run, keys, side="right") - 1]
                        != keys]
        grew = np.concatenate(split_keys(keys))
        np.add.at(deg, grew, 1)
        if keys.size:
            while self.runs and self.runs[-1].size <= 2 * keys.size:
                keys = np.concatenate([self.runs.pop(), keys])
                keys.sort(kind="stable")  # a merge of the two sorted runs
            self.runs.append(keys)
        cand = np.concatenate([grew, np.arange(old, n)])
        if self.floor is not None:
            floor_deg, floor_id = self.floor
            score = deg[cand]
            cand = cand[(score > floor_deg)
                        | ((score == floor_deg) & (node_id[cand] < floor_id))]
        cand = sorted_distinct(np.concatenate([self.top, cand]))
        self.top = cand[top_k_order(deg[cand], node_id[cand], self.k)]
        if self.top.size == self.k:
            self.floor = deg[self.top[-1]], node_id[self.top[-1]]
        return top_k_table(node_id, deg, self.slots[1:], self.top, self.k)


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
            cumulative_nodes=tracker.nodes.n,
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
