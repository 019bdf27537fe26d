import os
import sys
from pathlib import Path

import numpy as np
import pytest

# bench/gen.py makes the seeded road grids some tests run on
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

# published node / undirected-edge counts for the SNAP road networks
DATASET_COUNTS = {
    "roadNet-CA.txt": (1_965_206, 2_766_607),
    "roadNet-PA.txt": (1_088_092, 1_541_898),
    "roadNet-TX.txt": (1_379_917, 1_921_660),
}

# global optimum confirmed by the exhaustive-partition oracle
FOUR_POINTS = [(0, 0), (0, 1), (10, 0), (10, 1)]


def dataset_dir() -> Path:
    env = os.environ.get("ROADNET_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


def dataset_path(name: str):
    path = dataset_dir() / name
    return path if path.exists() else None


def random_records(rng: np.random.Generator, max_id: int, m: int):
    """Raw directed records, duplicates and self-loops included."""
    pairs = rng.integers(0, max_id + 1, size=(m, 2))
    return [tuple(map(int, p)) for p in pairs]


@pytest.fixture
def snap_file(tmp_path):
    """Factory writing records as a SNAP edge-list file."""

    def make(records, name="edges.txt", header="# fixture"):
        lines = [header] if header else []
        lines += [f"{u}\t{v}" for u, v in records]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return make
