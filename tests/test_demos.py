"""The walkthrough scripts under demos/ run against the current library.

Each demo is copied into a temporary directory and run there in a fresh
interpreter, so it writes its figures next to the copy and never into the
source tree.  The files it writes must match the ones committed under
demos/out byte for byte.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

WRITES = {
    "01_ingest_and_summarize.py": {"toy.txt"},
    "02_degree_analysis.py": set(),
    "03_pagerank_ranking.py": set(),
    "04_streaming_statistics.py": set(),
    "05_kmeans_communities.py": set(),
    "06_figure_export.py": {"scatter.svg", "clusters.svg", "topk_compare.svg"},
}


def test_every_demo_is_covered():
    assert {p.name for p in DEMOS.glob("0*.py")} == set(WRITES)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_demo_runs_and_writes_committed_files(name, tmp_path):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    written = {p.name for p in out.iterdir()} if out.exists() else set()
    assert written == WRITES[name]
    for file in written:
        assert (out / file).read_bytes() == (DEMOS / "out" / file).read_bytes()
