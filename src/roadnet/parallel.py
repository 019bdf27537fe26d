"""Deterministic block-parallel execution over index ranges.

Every kernel in this package computes each output element independently of
how the index space is blocked, so results are bit-identical for any worker
count; the pool only changes who computes which block.

Every kernel splits its work into at most ``threads`` blocks, and only into
blocks of at least ``MIN_BLOCK_WORK[kernel]`` units: below that, handing a
block to a second thread costs more than it saves.  The blocks run on one
executor per thread count, kept for the life of the process.  The minimums
were measured with 2 threads on 2 vCPUs on generated road grids.  PageRank
(units: arcs gathered per power step) ran 2.5-4x slower in 2 blocks at
0.19M arcs, broke even between 1.0M and 1.4M arcs, and was faster from
there up (1.3x at 3.1M; ``np.bincount`` holds the GIL, the gather does
not).  k-means (units: point-centroid distances per pass, k * t) was
measured in fresh processes with one solve each, as the CLI runs it: 2
blocks ran 0.52-0.88x as fast at 0.12-0.34M, 0.75-0.90x at 0.49M,
0.99-1.02x at 0.67M, 1.12-1.23x at 0.82-0.98M and 1.08-1.17x at
1.4-2.0M, so the split starts at 0.7M.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import cache

_ENV_THREADS = "ROADNET_THREADS"
MIN_BLOCK_WORK = {"pagerank": 1 << 19, "kmeans": 350_000}


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument wins, then ROADNET_THREADS, then CPU count."""
    if threads is None:
        env = os.environ.get(_ENV_THREADS)
        if env:
            threads = int(env)
        else:
            return os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
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
    a kernel hands off blocks on every power step or Lloyd pass."""
    return ThreadPoolExecutor(max_workers=threads)


def run_blocks(fn, blocks, threads: int) -> None:
    """Run fn(*block) over blocks; fn writes disjoint output slices."""
    if threads <= 1 or len(blocks) <= 1:
        for block in blocks:
            fn(*block)
        return
    for _ in _pool(threads).map(lambda block: fn(*block), blocks):
        pass
