"""Self-tests of the benchmark: generator ground truth and output checks.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import traced  # noqa: E402
from checks import (CheckError, check_kmeans, check_pagerank,  # noqa: E402
                    check_stream)
from gen import make_grid, write_grid  # noqa: E402
from roadnet import build_graph, load_edge_list, summarize  # noqa: E402
from roadnet.cli import main as roadnet_main  # noqa: E402

SIDE = 14


@pytest.fixture
def grid_file(tmp_path):
    grid = make_grid(SIDE, [5, 0, 0])
    return grid, write_grid(grid, tmp_path / "grid.txt", "5/0/0")


def _cli(*argv):
    assert roadnet_main([str(a) for a in argv]) == 0


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_generator_truth_matches_roadnet(grid_file):
    grid, path = grid_file
    edges = load_edge_list(path)
    summary = summarize(edges)
    assert summary.node_count == grid.node_count
    assert summary.undirected_edge_count == grid.edge_count
    assert summary.directed_edge_count == grid.arc_count
    assert summary.self_loop_count == 0
    graph = build_graph(edges)
    np.testing.assert_array_equal(graph.id_map, grid.ids)
    for degrees in (graph.degrees, graph.indegrees, graph.outdegrees):
        np.testing.assert_array_equal(degrees, grid.degree)


def test_generator_is_seeded_snap_text(grid_file, tmp_path):
    grid, path = grid_file
    text = path.read_text(encoding="ascii")
    assert text.startswith("#")
    froms = [int(line.split("\t")[0]) for line in text.splitlines()
             if not line.startswith("#")]
    assert froms == sorted(froms)
    again = write_grid(make_grid(SIDE, [5, 0, 0]), tmp_path / "b.txt", "5/0/0")
    other = make_grid(SIDE, [6, 0, 0])
    assert again.read_bytes() == path.read_bytes()
    assert not np.array_equal(other.from_ids[:50], grid.from_ids[:50])


def test_pagerank_check_rejects_corruption(grid_file, tmp_path):
    grid, path = grid_file
    out = tmp_path / "out"
    _cli("pagerank", "--input", path, "--out", out, "--threads", 2,
         "--tol", 1e-10, "--max-iter", 1000, "--top", 10)
    check_pagerank(out, grid, 0.85, 1e-10, 10)

    scores = out / "pagerank.csv"
    good = scores.read_text(encoding="utf-8")

    def perturb(lines):
        node, score = lines[5].rstrip("\n").split(",")
        lines[5] = f"{node},{float(score) * (1 + 1e-4)!r}\n"
        return lines

    for edit in (perturb, lambda lines: lines[:-1]):
        _rewrite(scores, edit)
        with pytest.raises(CheckError):
            check_pagerank(out, grid, 0.85, 1e-10, 10)
        scores.write_text(good, encoding="utf-8")

    _rewrite(out / "pagerank_topk.csv",
             lambda lines: [lines[0], lines[2], lines[1], *lines[3:]])
    with pytest.raises(CheckError):
        check_pagerank(out, grid, 0.85, 1e-10, 10)


def test_kmeans_check_rejects_corruption(grid_file, tmp_path):
    grid, path = grid_file
    out = tmp_path / "out"
    _cli("kmeans", "--input", path, "--out", out, "--threads", 2,
         "--k", 3, "--seed", 42)
    check_kmeans(out, grid, 3)

    points = out / "kmeans_points.csv"
    good = points.read_text(encoding="utf-8")

    def swap_labels(lines):
        rows = [line.rstrip("\n").split(",") for line in lines[1:]]
        i = 0
        j = next(n for n, r in enumerate(rows) if r[3] != rows[i][3])
        rows[i][3], rows[j][3] = rows[j][3], rows[i][3]
        return [lines[0], *(",".join(r) + "\n" for r in rows)]

    _rewrite(points, swap_labels)
    with pytest.raises(CheckError):
        check_kmeans(out, grid, 3)
    points.write_text(good, encoding="utf-8")

    summary = out / "kmeans_result.json"
    good = json.loads(summary.read_text(encoding="utf-8"))
    for key, bad in [("objective", good["objective"] * (1 + 1e-6)),
                     ("converged", False),
                     ("distance_evaluations",
                      3 * grid.arc_count * good["iterations_run"] + 1)]:
        summary.write_text(json.dumps({**good, key: bad}), encoding="utf-8")
        with pytest.raises(CheckError):
            check_kmeans(out, grid, 3)


def test_stream_check_rejects_corruption(grid_file, tmp_path):
    grid, path = grid_file
    out = tmp_path / "out"
    _cli("stream", "--input", path, "--out", out, "--threads", 2,
         "--batch-size", 50, "--top", 10)
    ndjson = out / "stream.ndjson"
    assert check_stream(ndjson, grid, 50, 10) == -(-grid.arc_count // 50)
    good = ndjson.read_text(encoding="utf-8")

    def bump_nodes(lines):
        batch = json.loads(lines[3])
        batch["cumulative_nodes"] += 1
        lines[3] = json.dumps(batch) + "\n"
        return lines

    def bad_top(lines):
        batch = json.loads(lines[-1])
        batch["top_degree"][0]["score"] -= 1
        lines[-1] = json.dumps(batch) + "\n"
        return lines

    for edit in (lambda lines: lines[:4] + lines[5:], bump_nodes, bad_top):
        _rewrite(ndjson, edit)
        with pytest.raises(CheckError):
            check_stream(ndjson, grid, 50, 10)
        ndjson.write_text(good, encoding="utf-8")


def test_traced_pass_gives_every_per_layer_metric(tmp_path):
    argv = {}
    for name in run.WORKLOADS:
        grid = make_grid(SIDE, [1, run.WORKLOADS[name].index, 0])
        path = write_grid(grid, tmp_path / f"{name}.txt", "1")
        argv[name] = run.WORKLOADS[name].argv(path, tmp_path / name)
    argv["stream"][argv["stream"].index("--batch-size") + 1] = "40"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"argv": argv}), encoding="utf-8")
    result = tmp_path / "trace.json"
    assert traced.main(str(config), str(result)) == 0
    record = json.loads(result.read_text(encoding="utf-8"))
    metrics = run.layer_metrics("rank", record, run.Sample(0.2, 1.2, 50.0))
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in manifest["per_layer"])
    assert all(value > 0 for value, _ in metrics.values())
    assert metrics["stream.batches"][0] == record["counts"]["stream"]["batches"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibrated_times_are_scaled_by_the_bracketing_calibrations(
        tmp_path, monkeypatch):
    runner = run.Runner(tmp_path)
    calibrations = iter([0.5, 0.3, 1.0])
    monkeypatch.setattr(runner, "calibrate", lambda: next(calibrations))
    monkeypatch.setattr(runner, "launch",
                        lambda mode, argv: run.Sample(0.2, 2.0, 50.0))
    first = runner.calibrated(["summary"])      # between 0.5 and 0.3
    second = runner.calibrated(["summary"])     # between 0.3 and 1.0
    assert first.wall_s == pytest.approx(2.0 * run.CAL_REF_S / 0.4)
    assert first.setup_s == pytest.approx(0.2 * run.CAL_REF_S / 0.4)
    assert second.wall_s == pytest.approx(2.0 * run.CAL_REF_S / 0.65)
    assert second.rss_mb == 50.0
    assert [r["calib_after_s"] for r in runner.launches] == [0.3, 1.0]


def test_child_past_the_time_budget_is_killed(tmp_path, monkeypatch):
    runner = run.Runner(tmp_path)
    monkeypatch.setattr(runner, "remaining", lambda: 0.5)
    script = tmp_path / "sleep.py"
    script.write_text("import time\ntime.sleep(30)\n", encoding="utf-8")
    with pytest.raises(subprocess.TimeoutExpired):
        runner.python(str(script))


def test_calib_job_runs(tmp_path):
    runner = run.Runner(tmp_path)
    assert 0 < runner.calibrate() < 60
