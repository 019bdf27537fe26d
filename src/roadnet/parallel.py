"""Deterministic block-parallel execution over index ranges.

Every kernel in this package computes each output element independently of
how the index space is blocked, so results are bit-identical for any worker
count; the pool only changes who computes which block.

Every kernel splits its work into at most ``threads`` blocks, and only into
blocks of at least ``MIN_BLOCK_WORK[kernel]`` units: below that, handing a
block to a second thread costs more than it saves.  The blocks run on one
executor per thread count, kept for the life of the process.  The minimums
were measured with 2 threads on 2 vCPUs on generated road grids.  PageRank
(units: arcs gathered per power step or CG product, each one blocked
``np.bincount``; measured on the power step) ran 2.5-4x slower in 2
blocks at 0.19M arcs, broke even between 1.0M and 1.4M arcs, and was
faster from there up (1.3x at 3.1M; ``np.bincount`` holds the GIL, the
gather does not).  k-means (units: k * t, the distances of a full pass;
with Hamerly's bounds a later pass computes about t, and the centroid sums
of integer points are kept across passes) was measured in fresh processes
with one solve each, as the CLI runs it, k = 3, medians of 5-7 alternated
pairs in each of three sweeps: 2 blocks ran 0.78x as fast at 0.25M,
0.90-1.16x at 0.50-0.88M (the sweeps disagreed), 0.98-1.30x at 1.0M,
1.21-1.41x at 1.25-2.0M and 1.89x at 9.3M, so the split starts at 1.0M.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import cache

_ENV_THREADS = "ROADNET_THREADS"
MIN_BLOCK_WORK = {"pagerank": 1 << 19, "kmeans": 500_000}


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument wins, then ROADNET_THREADS, then CPU count."""
    source = "thread count"
    if threads is None:
        env = os.environ.get(_ENV_THREADS)
        if not env:
            return os.cpu_count() or 1
        source = _ENV_THREADS
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(
                f"{source} must be an integer, got {env!r}") from None
    if threads < 1:
        raise ValueError(f"{source} must be >= 1, got {threads}")
    return threads


def block_ranges(n: int, blocks: int) -> list[tuple[int, int]]:
    """Split range(n) into at most `blocks` contiguous near-even pieces."""
    blocks = max(1, min(blocks, n)) if n else 1
    step, extra = divmod(n, blocks)
    ranges = []
    start = 0
    for i in range(blocks):
        stop = start + step + (1 if i < extra else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges or [(0, 0)]


def block_count(kernel: str, work: int, threads: int) -> int:
    """Blocks to split ``work`` units of ``kernel`` into: at most
    ``threads``, each with at least ``MIN_BLOCK_WORK[kernel]`` units."""
    return max(1, min(threads, work // MIN_BLOCK_WORK[kernel]))


@cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """One executor per thread count, kept for the life of the process:
    a kernel hands off blocks on every PageRank step or Lloyd pass."""
    return ThreadPoolExecutor(max_workers=threads)


def run_blocks(fn, blocks, threads: int) -> list:
    """Run fn(*block) over blocks, where fn writes disjoint output slices;
    returns fn's results in block order."""
    if threads <= 1 or len(blocks) <= 1:
        return [fn(*block) for block in blocks]
    return list(_pool(threads).map(lambda block: fn(*block), blocks))
