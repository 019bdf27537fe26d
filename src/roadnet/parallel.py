"""Deterministic block-parallel execution over index ranges.

Every kernel in this package computes each output element independently of
how the index space is blocked, so results are bit-identical for any worker
count; the pool only changes who computes which block.

``block_ranges`` makes every kernel's split in one call: at most
``threads`` blocks, and only blocks of at least ``MIN_BLOCK_WORK[kernel]``
units, because below that, handing a block to a second thread costs more
than it saves.  The worker count is the caller's (the CLI's ``--threads``,
all CPUs by default).  The blocks run on one executor per thread count,
kept for the life of the process.  The minimums were measured with 2
threads on 2 vCPUs on generated road grids.  PageRank
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

``concurrent.futures`` is imported when the first executor is made, not
with this module: below those minimums no kernel makes a second block, so
a process that ranks or clusters a small graph never builds a pool and
need not pay for the import (``logging`` and ``queue`` among it).
"""

from __future__ import annotations

from functools import cache

MIN_BLOCK_WORK = {"pagerank": 1 << 19, "kmeans": 500_000}


def block_ranges(n: int, kernel: str, work: int,
                 threads: int) -> list[tuple[int, int]]:
    """Split range(n), which holds ``work`` units of ``kernel``, into
    contiguous near-even pieces: at most ``threads``, n and
    ``work // MIN_BLOCK_WORK[kernel]`` of them, and always at least one."""
    blocks = max(1, min(threads, work // MIN_BLOCK_WORK[kernel], n))
    step, extra = divmod(n, blocks)
    return [(i * step + min(i, extra), (i + 1) * step + min(i + 1, extra))
            for i in range(blocks)]


@cache
def _pool(threads: int):
    """One executor per thread count, kept for the life of the process:
    a kernel hands off blocks on every PageRank step or Lloyd pass."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=threads)


def run_blocks(fn, blocks, threads: int) -> list:
    """Run fn(*block) over blocks, where fn writes disjoint output slices;
    returns fn's results in block order."""
    if threads <= 1 or len(blocks) <= 1:
        return [fn(*block) for block in blocks]
    return list(_pool(threads).map(lambda block: fn(*block), blocks))
