"""Fixed reference job: how fast is the host right now?

    python3 calib.py

A fresh interpreter imports numpy, then does a fixed mix of the kinds of
work roadnet does: parsing tab-separated integer lines in Python, sorting
and counting with numpy, and cache-missing gathers through random
indices (the access pattern of a CSR power step) on two threads, as
roadnet's block-parallel kernels do.  The job never
changes and uses no roadnet code, so the time to run it moves only with the
host.  run.py times it around every command and scales the command's times
by it (see ``Runner.calibrated``).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

LINES = 30_000
GATHER = 2_000_000      # 16 MB per float64 array, well past the cache


def main() -> None:
    rng = np.random.default_rng(20170825)
    pairs = rng.integers(0, 1 << 20, size=(LINES, 2))
    text = "\n".join(map("{}\t{}".format, pairs[:, 0].tolist(),
                         pairs[:, 1].tolist()))
    parsed = [tuple(map(int, line.split("\t"))) for line in text.splitlines()]
    ids = np.array(parsed, dtype=np.int64).ravel()
    counts = np.bincount(np.argsort(ids, kind="stable") % 4096)
    perm = rng.integers(0, GATHER, size=GATHER)
    x = rng.random(GATHER)
    y = np.empty_like(x)
    halves = [(0, GATHER // 2), (GATHER // 2, GATHER)]

    def step(half):
        a, b = half
        np.multiply(x[perm[a:b]], 0.85, out=y[a:b])

    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            list(pool.map(step, halves))
            x, y = y, x
    if counts.sum() != ids.size or not np.isfinite(x.sum()):
        raise SystemExit("calib: wrong result")


if __name__ == "__main__":
    main()
