import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from roadnet.cli import build_parser, main
from conftest import FOUR_POINTS
from oracles import exhaustive_kmeans_optimum

TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def run_cli(*args):
    return main([str(a) for a in args])


def test_summary_prints_counts(snap_file, tmp_path, capsys):
    path = snap_file([(0, 1), (1, 0), (1, 2)])
    out = tmp_path / "out"
    assert run_cli("summary", "--input", path, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "nodes=3 edges=2" in stdout
    payload = json.loads((out / "summary.json").read_text())
    assert payload["node_count"] == 3
    assert payload["undirected_edge_count"] == 2
    assert payload["directed_edge_count"] == 3


def test_missing_input_is_data_error(tmp_path, capsys):
    rc = run_cli("summary", "--input", tmp_path / "nope.txt",
                 "--out", tmp_path / "o")
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0\t1\noops\n")
    rc = run_cli("summary", "--input", bad, "--out", tmp_path / "o")
    assert rc == 1
    err = capsys.readouterr().err
    assert ":2:" in err and "oops" in err


def test_out_of_range_id_is_data_error(tmp_path, capsys):
    bad = tmp_path / "big.txt"
    bad.write_text("0\t1\n0\t9223372036854775808\n")
    rc = run_cli("summary", "--input", bad, "--out", tmp_path / "o")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"roadnet: {bad}:2: node identifier out of range")
    assert "Traceback" not in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate", "--input", "x")
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag,value", [
    ("pagerank", "--damping", "1.5"),
    ("pagerank", "--tol", "0"),
    ("pagerank", "--tol", "nan"),
    ("kmeans", "--tol", "-1"),
    ("kmeans", "--tol", "nan"),
    ("pagerank", "--threads", "0"),
    ("summary", "--seed", "1"),
    ("degrees", "--threads", "2"),
], ids=["damping-1.5", "pagerank-tol-0", "pagerank-tol-nan", "kmeans-tol-neg",
        "kmeans-tol-nan", "threads-0", "summary-seed", "degrees-threads"])
def test_usage_error_exits_2(snap_file, tmp_path, capsys, command, flag,
                            value):
    path = snap_file(TRIANGLE)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--input", path, "--out", tmp_path / "o", flag, value)
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()
    assert "usage: roadnet" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "abc"])
def test_bad_threads_env_exits_2(snap_file, tmp_path, monkeypatch, capsys,
                                 value):
    monkeypatch.setenv("ROADNET_THREADS", value)
    path = snap_file(TRIANGLE)
    with pytest.raises(SystemExit) as exc:
        run_cli("pagerank", "--input", path, "--out", tmp_path / "o")
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()
    assert "usage: roadnet" in capsys.readouterr().err


COMMAND_DESTS = {
    "summary": set(),
    "degrees": {"top"},
    "pagerank": {"threads", "damping", "tol", "max_iter", "top", "directed"},
    "topk": {"threads", "by", "top", "compare"},
    "kmeans": {"threads", "seed", "k", "init", "max_iter", "tol", "sample"},
    "scatter": {"seed", "sample"},
    "stream": {"threads", "batch_size", "top", "recompute_pagerank"},
}


def test_parser_dests_per_command():
    """Each command takes only the flags its handler reads; the bench
    harness parses with build_parser and reads these names."""
    def dests(command):
        args = build_parser().parse_args([command, "--input", "x"])
        return set(vars(args)) - {"command", "handler"}

    files = {"input", "out"}
    assert {c: dests(c) for c in COMMAND_DESTS} == {
        c: files | extra for c, extra in COMMAND_DESTS.items()}


def test_library_value_error_is_data_error(snap_file, tmp_path, capsys):
    path = snap_file([(0, 1)])  # 2 points, k=5 impossible
    rc = run_cli("kmeans", "--input", path, "--out", tmp_path / "o", "--k", 5)
    assert rc == 1
    assert "exceeds" in capsys.readouterr().err


def test_pagerank_triangle_top(snap_file, tmp_path, capsys):
    path = snap_file(TRIANGLE)
    out = tmp_path / "out"
    assert run_cli("pagerank", "--input", path, "--out", out, "--top", 10) == 0
    stdout = capsys.readouterr().out
    triples = [l for l in stdout.splitlines() if l.startswith("(")]
    assert len(triples) == 3
    assert all("0.3333333333333333" in l for l in triples)
    csv_lines = (out / "pagerank.csv").read_text().splitlines()
    assert csv_lines[0] == "node_id,score"
    assert len(csv_lines) == 4


def test_kmeans_objective_matches_exhaustive_oracle(snap_file, tmp_path):
    path = snap_file(FOUR_POINTS)
    out = tmp_path / "out"
    assert run_cli("kmeans", "--input", path, "--out", out, "--k", 3,
                   "--sample", 10) == 0
    payload = json.loads((out / "kmeans_result.json").read_text())
    optimum = exhaustive_kmeans_optimum(FOUR_POINTS, 3)  # 0.5
    assert payload["objective"] == pytest.approx(optimum, rel=1e-9)
    assert payload["k"] == 3
    assert (out / "clusters_k3.svg").read_text().count('class="centroid"') == 3
    csv_rows = (out / "kmeans_points.csv").read_text().splitlines()
    assert csv_rows[0] == "point_index,x,y,cluster"
    assert len(csv_rows) == 5


def test_degrees_artifacts(snap_file, tmp_path, capsys):
    path = snap_file([(0, 1), (1, 0), (1, 2)])
    out = tmp_path / "out"
    assert run_cli("degrees", "--input", path, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "max_degree: node 1 value 2" in stdout
    rows = (out / "degrees.csv").read_text().splitlines()
    assert rows[0] == "node_id,degree,indegree,outdegree"
    assert rows[1:] == ["0,1,1,1", "1,2,1,2", "2,1,1,0"]
    maxima = json.loads((out / "degree_stats.json").read_text())
    assert maxima["max_degree"] == {"node": 1, "value": 2}


def test_scatter_artifacts(snap_file, tmp_path):
    path = snap_file(TRIANGLE)
    out = tmp_path / "out"
    assert run_cli("scatter", "--input", path, "--out", out,
                   "--sample", 2) == 0
    assert (out / "scatter.svg").read_text().count("<circle") == 2
    assert len((out / "scatter.csv").read_text().splitlines()) == 3


def test_stream_ndjson(snap_file, tmp_path, capsys):
    path = snap_file([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    out = tmp_path / "out"
    assert run_cli("stream", "--input", path, "--out", out,
                   "--batch-size", 2, "--top", 2) == 0
    lines = (out / "stream.ndjson").read_text().splitlines()
    assert len(lines) == 3
    last = json.loads(lines[-1])
    assert last["batch"] == 3
    assert last["cumulative_edges"] == 5
    assert "3 batches" in capsys.readouterr().out


def test_topk_compare_renders_bars(snap_file, tmp_path):
    left = snap_file([(0, 1), (1, 2), (0, 2)], name="left.txt")
    right = snap_file([(5, 6), (6, 7)], name="right.txt")
    out = tmp_path / "out"
    assert run_cli("topk", "--input", left, "--out", out, "--top", 3,
                   "--compare", right) == 0
    svg = (out / "topk_compare.svg").read_text()
    assert svg.count('class="bar"') == 6
    assert (out / "topk_degree.csv").exists()


def test_topk_by_pagerank(snap_file, tmp_path, capsys):
    path = snap_file(TRIANGLE)
    out = tmp_path / "out"
    assert run_cli("topk", "--input", path, "--out", out,
                   "--by", "pagerank") == 0
    assert (out / "topk_pagerank.csv").exists()
    assert capsys.readouterr().out.count("List(") == 3


def artifact_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "stream.ndjson"}


def stripped_ndjson(out_dir):
    lines = (out_dir / "stream.ndjson").read_text().splitlines()
    records = [json.loads(l) for l in lines]
    for r in records:
        r.pop("ms")
    return records


@pytest.mark.parametrize("command,extra", [
    ("summary", []),
    ("degrees", ["--top", "3"]),
    ("pagerank", ["--top", "3"]),
    ("kmeans", ["--k", "2", "--sample", "50"]),
    ("scatter", ["--sample", "50"]),
    ("stream", ["--batch-size", "13", "--top", "3", "--pagerank"]),
])
def test_rerun_is_byte_identical(snap_file, tmp_path, command, extra, capsys):
    records = [(i % 17, (i * 7 + 3) % 17) for i in range(60)]
    path = snap_file(records)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(command, "--input", path, "--out", out_a, *extra) == 0
    assert run_cli(command, "--input", path, "--out", out_b, *extra) == 0
    capsys.readouterr()
    assert artifact_bytes(out_a) == artifact_bytes(out_b)
    if command == "stream":
        assert stripped_ndjson(out_a) == stripped_ndjson(out_b)


@pytest.mark.parametrize("command,extra", [
    ("pagerank", ["--top", "5"]),
    ("kmeans", ["--k", "3", "--sample", "40"]),
])
def test_thread_count_does_not_change_artifacts(snap_file, tmp_path, command,
                                                extra, capsys):
    records = [(i % 23, (i * 5 + 1) % 23) for i in range(80)]
    path = snap_file(records)
    out_a, out_b = tmp_path / "t1", tmp_path / "t4"
    assert run_cli(command, "--input", path, "--out", out_a,
                   "--threads", 1, *extra) == 0
    assert run_cli(command, "--input", path, "--out", out_b,
                   "--threads", 4, *extra) == 0
    capsys.readouterr()
    assert artifact_bytes(out_a) == artifact_bytes(out_b)


def test_pagerank_directed_flag(snap_file, tmp_path, capsys):
    path = snap_file([(0, 1), (0, 2), (3, 0)])
    out_u, out_d = tmp_path / "u", tmp_path / "d"
    assert run_cli("pagerank", "--input", path, "--out", out_u) == 0
    assert run_cli("pagerank", "--input", path, "--out", out_d,
                   "--directed") == 0
    capsys.readouterr()
    assert (out_u / "pagerank.csv").read_text() != \
        (out_d / "pagerank.csv").read_text()


def test_threads_env_override(snap_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ROADNET_THREADS", "2")
    path = snap_file(TRIANGLE)
    assert run_cli("pagerank", "--input", path, "--out", tmp_path / "o") == 0
    capsys.readouterr()


def test_stream_pagerank_honours_threads(snap_file, tmp_path, monkeypatch,
                                         capsys):
    import roadnet.stream
    from roadnet import pagerank
    seen = []

    def spy(graph, **kwargs):
        seen.append(kwargs.get("threads"))
        return pagerank(graph, **kwargs)

    monkeypatch.setattr(roadnet.stream, "pagerank", spy)
    path = snap_file(TRIANGLE)
    assert run_cli("stream", "--input", path, "--out", tmp_path / "o",
                   "--batch-size", 2, "--pagerank", "--threads", 3) == 0
    capsys.readouterr()
    assert seen == [3, 3]


PATH_20 = [(i, i + 1) for i in range(20)]


@pytest.fixture
def slow_cli_pagerank(monkeypatch):
    """CG converges on any graph well inside the CLI's limits at d = 0.85,
    so the limit is reached through the directed power iteration at
    d = 0.95, which needs 146 steps on PATH_20."""
    import roadnet.cli
    from roadnet import pagerank

    def slow(graph, **kwargs):
        return pagerank(graph, **{**kwargs, "directed": True, "damping": 0.95})

    monkeypatch.setattr(roadnet.cli, "pagerank", slow)


@pytest.mark.parametrize("args,limit,artifacts", [
    (("pagerank", "--max-iter", 50), 50, ["pagerank.csv", "pagerank_topk.csv"]),
    (("topk", "--by", "pagerank"), 100, ["topk_pagerank.csv"]),
    (("pagerank", "--directed", "--max-iter", 50), 50,
     ["pagerank.csv", "pagerank_topk.csv"]),
])
def test_unconverged_pagerank_warns(snap_file, tmp_path, capsys,
                                    slow_cli_pagerank, args, limit, artifacts):
    path = snap_file(PATH_20)
    out = tmp_path / "o"
    assert run_cli(*args, "--input", path, "--out", out) == 0
    err = capsys.readouterr().err
    # the label follows the view the command line asked for
    label = "delta" if "--directed" in args else "residual"
    assert err.startswith(f"roadnet: warning: {path}: pagerank stopped at "
                          f"the iteration limit before converging, after "
                          f"{limit} iterations ({label}=")
    assert sorted(p.name for p in out.iterdir()) == artifacts


def test_stream_pagerank_warns_on_unconverged_batches(snap_file, tmp_path,
                                                     monkeypatch, capsys):
    # CG needs 3, 6, 8 and 11 iterations on the four prefixes
    import roadnet.stream
    from roadnet import pagerank

    def capped(graph, **kwargs):
        return pagerank(graph, **kwargs, max_iterations=5)

    monkeypatch.setattr(roadnet.stream, "pagerank", capped)
    path = snap_file(PATH_20)
    out = tmp_path / "o"
    assert run_cli("stream", "--input", path, "--out", out,
                   "--batch-size", 5, "--pagerank") == 0
    assert capsys.readouterr().err == (
        f"roadnet: warning: {path}: pagerank stopped at the iteration limit "
        f"before converging in 3 of 4 batches\n")
    batches = [json.loads(line) for line in
               (out / "stream.ndjson").read_text().splitlines()]
    assert [list(b) for b in batches] == [
        ["batch", "cumulative_edges", "cumulative_nodes", "top_degree",
         "top_pagerank", "ms"]] * 4


def test_grid_pagerank_rankings_converge(tmp_path, capsys):
    """topk --by pagerank and stream --pagerank run at the fixed defaults
    (tol 1e-10, at most 100 iterations), which CG meets on road grids."""
    from gen import make_grid, write_grid
    grid = make_grid(120, 3)
    path = write_grid(grid, tmp_path / "grid.txt", "3")
    out = tmp_path / "o"
    assert run_cli("topk", "--input", path, "--out", out,
                   "--by", "pagerank") == 0
    assert run_cli("stream", "--input", path, "--out", out,
                   "--batch-size", 5000, "--pagerank") == 0
    # either command warns on stderr if any solve stops unconverged
    assert capsys.readouterr().err == ""
    lines = (out / "stream.ndjson").read_text().splitlines()
    assert len(lines) == -(-grid.arc_count // 5000)


@pytest.mark.parametrize("records,args", [
    (PATH_20, ("pagerank", "--max-iter", 200)),
    (TRIANGLE, ("topk", "--by", "pagerank")),
    (TRIANGLE * 2, ("stream", "--batch-size", 3, "--pagerank")),
])
def test_converged_pagerank_is_silent(snap_file, tmp_path, capsys, records,
                                      args):
    assert run_cli(*args, "--input", snap_file(records),
                   "--out", tmp_path / "o") == 0
    assert capsys.readouterr().err == ""


def test_cli_import_loads_no_xml_or_network_modules():
    # xml.sax.saxutils alone pulls in urllib.request, http.client, email
    # and ssl (with OpenSSL), which every command would pay for at start-up
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, roadnet.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "roadnet.cli" in loaded
    assert not loaded & {"xml.sax", "urllib.request", "http.client", "ssl",
                         "email"}
