"""Seeded SNAP-format road grids with ground truth.

An L x L lattice; each undirected lattice edge is kept with probability
``KEEP``; node IDs are a seeded permutation of 0..L*L-1, so neighbouring
nodes have unrelated IDs.  Both arc directions are written, lines sorted by
(from ID, to ID) as in the SNAP files, under a ``#`` header.  Nodes whose
edges were all dropped do not appear in the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

KEEP = 0.71


@dataclass(frozen=True)
class Grid:
    """Ground truth of one generated file.

    ``ids`` holds the node IDs that occur, ascending; ``degree[i]`` is the
    undirected degree of ``ids[i]`` (on a lattice every arc is distinct and
    no self-loops occur, so in-, out- and undirected degree agree).
    ``from_ids``/``to_ids`` are the arcs in file order.
    """

    side: int
    ids: np.ndarray
    degree: np.ndarray
    from_ids: np.ndarray
    to_ids: np.ndarray

    @property
    def node_count(self) -> int:
        return int(self.ids.size)

    @property
    def edge_count(self) -> int:
        return int(self.from_ids.size // 2)

    @property
    def arc_count(self) -> int:
        return int(self.from_ids.size)


def make_grid(side: int, seed: int | list[int]) -> Grid:
    rng = np.random.default_rng(seed)
    cell = np.arange(side * side, dtype=np.int64).reshape(side, side)
    right = np.column_stack([cell[:, :-1].ravel(), cell[:, 1:].ravel()])
    down = np.column_stack([cell[:-1, :].ravel(), cell[1:, :].ravel()])
    lattice = np.concatenate([right, down])
    kept = lattice[rng.random(lattice.shape[0]) < KEEP]
    perm = rng.permutation(side * side).astype(np.int64)
    u, v = perm[kept[:, 0]], perm[kept[:, 1]]
    f = np.concatenate([u, v])
    t = np.concatenate([v, u])
    order = np.lexsort((t, f))
    f, t = f[order], t[order]
    ids, degree = np.unique(f, return_counts=True)
    return Grid(side=side, ids=ids, degree=degree, from_ids=f, to_ids=t)


def write_grid(grid: Grid, path: Path, seed: str) -> Path:
    """Write ``grid`` as a SNAP edge list; ``seed`` is named in the header."""
    header = (f"# Synthetic road grid {grid.side}x{grid.side}, keep={KEEP}, "
              f"seed={seed}\n"
              f"# Nodes: {grid.node_count} Edges: {grid.arc_count}\n"
              "# FromNodeId\tToNodeId\n")
    body = "\n".join(map("{}\t{}".format, grid.from_ids.tolist(),
                         grid.to_ids.tolist()))
    path.write_text(header + body + "\n", encoding="ascii")
    return path
