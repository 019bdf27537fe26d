"""Acceptance suite: one check per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The dataset criterion
skips with a warning when the SNAP files are not present (see README for
download instructions); everything else runs on fixtures and seeded random
instances at the stated tolerances.
"""

import io
import json
import warnings
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from roadnet import (EdgeList, build_graph, edges_to_points, kmeans,
                     pagerank, run_stream, top_k_by_degree, write_edge_list)
from roadnet.cli import main as cli_main
from conftest import DATASET_COUNTS, FOUR_POINTS, dataset_path, random_records
from oracles import dense_pagerank, exhaustive_kmeans_optimum


@contextmanager
def criterion(number, label):
    try:
        yield
    except pytest.skip.Exception:
        print(f"ACCEPTANCE {number} ({label}): SKIP")
        raise
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    else:
        print(f"ACCEPTANCE {number} ({label}): PASS")


def graph_of(records):
    return build_graph(EdgeList.from_records(records))


def stream_of(records):
    buf = io.StringIO()
    write_edge_list(EdgeList.from_records(records), buf)
    return io.StringIO(buf.getvalue())


def found_datasets():
    return [(name, dataset_path(name), counts)
            for name, counts in DATASET_COUNTS.items()
            if dataset_path(name) is not None]


def test_criterion_1_dataset_counts(capsys, tmp_path):
    with criterion(1, "dataset node/edge counts, exact"):
        datasets = found_datasets()
        if not datasets:
            warnings.warn("SNAP road-network files not found; place them "
                          "under ./data or $ROADNET_DATA to run this check")
            pytest.skip("datasets not downloaded")
        for name, path, (nodes, edges) in datasets:
            rc = cli_main(["summary", "--input", str(path),
                           "--out", str(tmp_path / "out")])
            assert rc == 0
            stdout = capsys.readouterr().out
            assert f"nodes={nodes} edges={edges}" in stdout, name


def test_criterion_2_pagerank_suite():
    with criterion(2, "pagerank properties and dense oracle"):
        # (a) mass sums to 1 within 1e-9 on every test graph
        fixtures = [
            [(0, 1), (1, 2), (2, 0)],
            [(0, 1)],
            [(0, 1), (0, 2), (0, 3)],
            [(0, 0), (1, 2), (3, 3)],
        ]
        for records in fixtures:
            ranks = pagerank(graph_of(records), tolerance=1e-14,
                             max_iterations=5000)
            assert abs(ranks.scores.sum() - 1.0) < 1e-9

        # (b) symmetric fixtures are exactly uniform within 1e-12
        cycle = pagerank(graph_of([(0, 1), (1, 2), (2, 0)]), tolerance=1e-14,
                         max_iterations=5000)
        assert np.max(np.abs(cycle.scores - 1.0 / 3.0)) < 1e-12
        edge = pagerank(graph_of([(0, 1)]), tolerance=1e-14,
                        max_iterations=5000)
        assert np.max(np.abs(edge.scores - 0.5)) < 1e-12

        # (c) 100 random graphs, n <= 50, within 1e-10 of the dense oracle
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, 4 * n))
            records = random_records(rng, n - 1, m)
            ranks = pagerank(graph_of(records), tolerance=1e-14,
                             max_iterations=20000)
            assert abs(ranks.scores.sum() - 1.0) < 1e-9
            oracle = dense_pagerank(records)
            assert np.max(np.abs(ranks.scores - oracle)) <= 1e-10


def test_criterion_3_kmeans_suite():
    with criterion(3, "k-means objective, optimality, cost shape"):
        # (a) objective non-increasing across Lloyd iterations, 1e-9 relative
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = int(rng.integers(5, 60))
            k = int(rng.integers(1, min(6, t + 1)))
            points = edges_to_points(EdgeList.from_records(
                random_records(rng, 100, t)))
            result = kmeans(points, k, seed=int(rng.integers(1000)))
            trace = result.objective_trace
            for before, after in zip(trace, trace[1:]):
                assert after <= before + 1e-9 * max(1.0, abs(before))
            # (d) distance evaluations within the k*t*s cost shape
            assert result.distance_evaluations <= k * t * result.iterations_run

        # (b) best of 20 restarts matches the exhaustive optimum, 1e-9 rel
        from roadnet import PointSet
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            t = int(rng.integers(k, 9))
            xy = rng.uniform(0, 10, size=(t, 2))
            best = min(kmeans(PointSet(xy.copy()), k, seed=s,
                              tolerance=0.0).objective for s in range(20))
            opt = exhaustive_kmeans_optimum(xy, k)
            assert abs(best - opt) <= 1e-9 * max(1.0, opt)

        # (c) the 4-point fixture converges to the known optimum
        result = kmeans(PointSet(np.array(FOUR_POINTS, dtype=float)), 2,
                        seed=42)
        assert sorted(result.centroids.tolist()) == [[0.0, 0.5], [10.0, 0.5]]
        assert result.objective == pytest.approx(1.0, rel=1e-9)


def test_criterion_4_degree_suite():
    with criterion(4, "handshake lemma and arc totals, exact"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(0, 5 * n))
            g = graph_of(random_records(rng, n - 1, m) if m else [])
            assert g.degrees.sum() == 2 * g.undirected_edge_count
            assert g.indegrees.sum() == g.outdegrees.sum() == g.arc_count
        for name, path, _ in found_datasets():
            from roadnet import load_edge_list
            g = build_graph(load_edge_list(path))
            assert g.degrees.sum() == 2 * g.undirected_edge_count, name
            assert g.indegrees.sum() == g.outdegrees.sum() == g.arc_count


def test_criterion_5_streaming_equivalence():
    with criterion(5, "final-batch top-k equals batch pipeline, exact"):
        rng = np.random.default_rng(17)
        records = random_records(rng, 25, 400)
        for batch_size in (1, 7, 64, 1000):
            final = list(run_stream(stream_of(records), batch_size, k=10))[-1]
            expected = top_k_by_degree(graph_of(records), 10)
            assert final.top_degree == expected
        pa = dataset_path("roadNet-PA.txt")
        if pa is not None:
            from roadnet import load_edge_list
            with open(pa, "rb") as fp:
                stats = list(run_stream(fp, 100_000, k=10))
            edges = load_edge_list(pa)
            # ceil(raw line count / batch size) chunks
            assert len(stats) == -(-edges.line_count // 100_000)
            expected = top_k_by_degree(build_graph(edges), 10)
            assert stats[-1].top_degree == expected


def test_criterion_6_figure_artifacts(snap_file, tmp_path, capsys):
    with criterion(6, "figure-analog SVG artifacts"):
        records = [(i % 19, (i * 11 + 2) % 19) for i in range(60)]
        path = snap_file(records)

        # scatter: min(sample, t) circles, deterministic, well-formed
        for sample, expected in ((25, 25), (100_000, 60)):
            out_a, out_b = tmp_path / f"sa{sample}", tmp_path / f"sb{sample}"
            assert cli_main(["scatter", "--input", str(path), "--out",
                             str(out_a), "--sample", str(sample)]) == 0
            assert cli_main(["scatter", "--input", str(path), "--out",
                             str(out_b), "--sample", str(sample)]) == 0
            svg = (out_a / "scatter.svg").read_text()
            assert svg.count("<circle") == expected
            assert (out_a / "scatter.svg").read_bytes() == \
                (out_b / "scatter.svg").read_bytes()
            ET.parse(out_a / "scatter.svg")

        # cluster plots carry exactly k centroid crosses
        for k in (3, 4):
            out = tmp_path / f"k{k}"
            assert cli_main(["kmeans", "--input", str(path), "--out",
                             str(out), "--k", str(k)]) == 0
            svg = (out / f"clusters_k{k}.svg").read_text()
            assert svg.count('class="centroid"') == k
            ET.parse(out / f"clusters_k{k}.svg")
        capsys.readouterr()


def test_criterion_7_determinism(snap_file, tmp_path, capsys):
    with criterion(7, "rerun and thread-count determinism"):
        records = [(i % 17, (i * 7 + 3) % 17) for i in range(60)]
        path = snap_file(records)

        def artifacts(out_dir):
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                    if p.name != "stream.ndjson"}

        def ndjson_no_ms(out_dir):
            ndjson = out_dir / "stream.ndjson"
            if not ndjson.exists():
                return None
            rows = [json.loads(l) for l in ndjson.read_text().splitlines()]
            for row in rows:
                row.pop("ms")
            return rows

        runs = [
            ["summary"],
            ["degrees", "--top", "5"],
            ["pagerank", "--top", "5"],
            ["topk", "--by", "degree", "--compare", str(path)],
            ["kmeans", "--k", "3", "--sample", "40"],
            ["scatter", "--sample", "40"],
            ["stream", "--batch-size", "13", "--top", "5", "--pagerank"],
        ]
        for i, args in enumerate(runs):
            out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
            cmd = args + ["--input", str(path)]
            assert cli_main(cmd + ["--out", str(out_a)]) == 0
            assert cli_main(cmd + ["--out", str(out_b)]) == 0
            assert artifacts(out_a) == artifacts(out_b), args[0]
            assert ndjson_no_ms(out_a) == ndjson_no_ms(out_b), args[0]

        # worker count does not change results; threads=1 is the reference
        for i, args in enumerate((["pagerank", "--top", "5"],
                                  ["kmeans", "--k", "3", "--sample", "40"],
                                  ["stream", "--batch-size", "13", "--top", "5",
                                   "--pagerank"])):
            out_a, out_b = tmp_path / f"t1_{i}", tmp_path / f"t4_{i}"
            cmd = args + ["--input", str(path)]
            assert cli_main(cmd + ["--out", str(out_a), "--threads", "1"]) == 0
            assert cli_main(cmd + ["--out", str(out_b), "--threads", "4"]) == 0
            assert artifacts(out_a) == artifacts(out_b), args[0]
            assert ndjson_no_ms(out_a) == ndjson_no_ms(out_b), args[0]
        capsys.readouterr()
