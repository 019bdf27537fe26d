import argparse
import functools
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from roadnet import build_graph, pagerank
from roadnet import edges_to_points, kmeans, load_edge_list
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


def test_non_utf8_byte_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0\t1\n1\t2\n\xff\t3\n")
    out = tmp_path / "o"
    rc = run_cli("stream", "--input", bad, "--out", out, "--batch-size", "1")
    assert rc == 1
    assert capsys.readouterr().err == (
        f"roadnet: {bad}:3: non-integer node identifier: '\\udcff\\t3'\n")
    batches = (out / "stream.ndjson").read_text(encoding="utf-8").splitlines()
    assert [json.loads(b)["batch"] for b in batches] == [1, 2]


def test_out_of_range_id_is_data_error(tmp_path, capsys):
    bad = tmp_path / "big.txt"
    bad.write_text("0\t1\n0\t9223372036854775808\n")
    rc = run_cli("summary", "--input", bad, "--out", tmp_path / "o")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"roadnet: {bad}:2: node identifier out of range")
    assert "Traceback" not in err


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_naming_a_file_is_data_error(snap_file, tmp_path, capsys, sub):
    path = snap_file([(0, 1)])
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    rc = run_cli("summary", "--input", path, "--out", afile / sub)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("roadnet: ") and str(afile) in err
    assert "Traceback" not in err
    assert afile.read_text() == "kept\n"


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
    ("kmeans", "--seed", "-1"),
    ("scatter", "--seed", "-1"),
    ("pagerank", "--threads", "1_6"),
    ("kmeans", "--k", "+2"),
    ("scatter", "--seed", "\u0663"),
    ("stream", "--batch-size", "1_0"),
    ("kmeans", "--init", "bogus"),
], ids=["damping-1.5", "pagerank-tol-0", "pagerank-tol-nan", "kmeans-tol-neg",
        "kmeans-tol-nan", "threads-0", "summary-seed", "degrees-threads",
        "kmeans-seed-neg", "scatter-seed-neg", "threads-underscore",
        "k-plus", "seed-arabic-indic-digit", "batch-size-underscore",
        "init-unknown"])
def test_usage_error_exits_2(snap_file, tmp_path, capsys, command, flag,
                            value):
    path = snap_file(TRIANGLE)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--input", path, "--out", tmp_path / "o", flag, value)
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert "usage: roadnet" in err
    assert flag in err


def test_threads_default_to_all_cpus(snap_file, tmp_path, monkeypatch,
                                     capsys):
    """``--threads`` is the one input for the worker count: without it a
    command uses every CPU, and the environment is not read."""
    args = build_parser().parse_args(["pagerank", "--input", "x"])
    assert args.threads == (os.cpu_count() or 1)
    monkeypatch.setenv("ROADNET_THREADS", "abc")
    path = snap_file(TRIANGLE)
    assert run_cli("pagerank", "--input", path, "--out", tmp_path / "o") == 0
    capsys.readouterr()


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


def test_kmeans_init_choices_are_the_solvers():
    # the CLI names them itself, so that its parser need not import clustering
    from roadnet.clustering import INIT_METHODS
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    init = next(a for a in commands.choices["kmeans"]._actions
                if a.dest == "init")
    assert init.choices == INIT_METHODS


@pytest.mark.parametrize("init", ["first-k", "uniform-random"])
def test_kmeans_init_choice_reaches_the_solver(snap_file, tmp_path, init):
    rng = np.random.default_rng(11)
    path = snap_file(rng.integers(0, 90, size=(120, 2)).tolist())
    out = tmp_path / "out"
    assert run_cli("kmeans", "--input", path, "--out", out, "--k", 4,
                   "--init", init, "--seed", 5, "--max-iter", 3,
                   "--tol", 1e-9) == 0
    points = edges_to_points(load_edge_list(path))
    solve = functools.partial(kmeans, points, 4, seed=5, max_iterations=3,
                              tolerance=1e-9)
    result = solve(init=init)
    assert (out / "kmeans_result.json").read_text() == result.to_json() + "\n"
    rows = (out / "kmeans_points.csv").read_text().splitlines()[1:]
    assert [int(r.rsplit(",", 1)[1]) for r in rows] \
        == result.assignment.tolist()
    # the default init gives another result here, so the flag is not ignored
    assert solve(init="kmeans++").to_json() != result.to_json()


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


# a float rounds this to 2**63 - 1024, where a widening by 0.5 rounds away;
# the mean of 2 or 4 copies is exact, so k-means' centroid does not widen
# the frame either
HUGE_ID = 9223372036854775000


@pytest.mark.parametrize("records", [
    [(HUGE_ID, HUGE_ID)] * 2,
    [(HUGE_ID, v) for v in range(4)],
], ids=["both-axes", "x-axis"])
@pytest.mark.parametrize("command", [["scatter"], ["kmeans", "--k", "1"]],
                         ids=["scatter", "kmeans"])
def test_plot_frame_of_one_huge_coordinate(snap_file, tmp_path, capsys,
                                           records, command):
    path = snap_file(records)
    out = tmp_path / "out"
    assert run_cli(*command, "--input", path, "--out", out) == 0
    capsys.readouterr()
    svg, = out.glob("*.svg")
    root = ET.parse(svg).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    plot = root.find(f"{ns}rect").attrib
    left, top = float(plot["x"]), float(plot["y"])
    right, bottom = left + float(plot["width"]), top + float(plot["height"])
    circles = root.iter(f"{ns}circle")
    spots = [(float(c.get("cx")), float(c.get("cy"))) for c in circles]
    assert len(spots) == len(records)
    assert all(left <= x <= right and top <= y <= bottom for x, y in spots)


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


def modules_loaded_by(script: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter runs script."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{script}\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_xml_or_network_modules():
    # xml.sax.saxutils alone pulls in urllib.request, http.client, email
    # and ssl (with OpenSSL), which every command would pay for at start-up
    loaded = modules_loaded_by("import roadnet.cli")
    assert "roadnet.cli" in loaded
    assert not loaded & {"xml.sax", "urllib.request", "http.client", "ssl",
                         "email"}


LAZY_MODULES = {"roadnet.clustering", "roadnet.report", "roadnet.stream",
                "concurrent.futures"}


@pytest.mark.parametrize("commands,loaded", [
    ((), set()),
    (("pagerank", "stream"), {"roadnet.stream"}),
    (("kmeans",), {"roadnet.clustering", "roadnet.report"}),
], ids=["import", "pagerank-stream", "kmeans"])
def test_each_command_imports_only_what_it_runs(snap_file, tmp_path,
                                                commands, loaded):
    """Every command runs in a fresh process, so each module one does not
    run is start-up it need not pay; a graph this small makes no second
    block, so no thread pool either."""
    path = snap_file(TRIANGLE)
    runs = "".join(
        f"assert roadnet.cli.main([{c!r}, '--input', {str(path)!r}, "
        f"'--out', {str(tmp_path / c)!r}, '--threads', '2']) == 0\n"
        for c in commands)
    assert modules_loaded_by(f"import roadnet.cli\n{runs}") & LAZY_MODULES \
        == loaded


def test_topk_compare_of_a_missing_file_is_refused_up_front(snap_file,
                                                           tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    out = tmp_path / "out"
    assert run_cli("topk", "--input", snap_file(TRIANGLE), "--out", out,
                   "--compare", missing) == 1
    captured = capsys.readouterr()
    assert captured.err == f"roadnet: input file not found: {missing}\n"
    assert captured.out == ""
    assert not out.exists()


def test_valid_damping_reaches_the_solver(snap_file, tmp_path):
    path = snap_file(PATH_20)
    written = {}
    for damping in ("0.9", "0.85"):
        out = tmp_path / damping
        assert run_cli("pagerank", "--input", path, "--out", out,
                       "--damping", damping, "--threads", 1) == 0
        written[damping] = (out / "pagerank.csv").read_text(encoding="utf-8")
    graph = build_graph(load_edge_list(path))
    expected = io.StringIO()
    pagerank(graph, damping=0.9).to_csv(expected, graph)
    assert written["0.9"] == expected.getvalue()
    assert written["0.9"] != written["0.85"]


def kmeans_run(snap_file, out, *extra):
    """kmeans --k 4 on 120 random edges: the input, its points and the
    result JSON."""
    rng = np.random.default_rng(11)
    path = snap_file(rng.integers(0, 90, size=(120, 2)).tolist())
    assert run_cli("kmeans", "--input", path, "--out", out, "--k", 4,
                   "--sample", 10, "--threads", 1, *extra) == 0
    payload = json.loads((out / "kmeans_result.json").read_text())
    return path, edges_to_points(load_edge_list(path)), payload


def test_unconverged_kmeans_warns(snap_file, tmp_path, capsys):
    path, points, payload = kmeans_run(snap_file, tmp_path, "--max-iter", 1)
    result = kmeans(points, 4, seed=42, max_iterations=1)
    assert not payload["converged"] and not result.converged
    assert capsys.readouterr().err == (
        f"roadnet: warning: {path}: kmeans stopped at the iteration limit "
        f"before converging, after 1 passes "
        f"(objective={result.objective!r})\n")


def test_converged_kmeans_is_silent(snap_file, tmp_path, capsys):
    _, _, payload = kmeans_run(snap_file, tmp_path)
    assert payload["converged"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("first,second,message", [
    ("ties.txt", "bad.txt", "{second}:2: non-integer node identifier: 'x y'"),
    ("comments.txt", "ties.txt", "both top-k tables must be non-empty"),
    ("ties.txt", "comments.txt", "both top-k tables must be non-empty"),
], ids=["malformed-compare", "empty-input", "empty-compare"])
def test_topk_compare_writes_nothing_until_both_inputs_are_ranked(
        tmp_path, capsys, first, second, message):
    for name, text in [("ties.txt", "0 1\n1 2\n2 0\n"),
                       ("bad.txt", "0 1\nx y\n"),
                       ("comments.txt", "# only\n")]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("topk", "--input", tmp_path / first, "--out", out,
                   "--by", "degree", "--compare", tmp_path / second,
                   "--threads", 1) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"roadnet: {message.format(second=tmp_path / second)}\n")
    assert list(out.iterdir()) == []


def test_topk_compare_of_zero_scores_draws_flat_bars(snap_file, tmp_path):
    # self-loops only: every degree is 0, so the shared scale falls back to 1
    left = snap_file([(3, 3), (4, 4)], name="left.txt")
    right = snap_file([(5, 5)], name="right.txt")
    out = tmp_path / "out"
    assert run_cli("topk", "--input", left, "--out", out, "--by", "degree",
                   "--compare", right, "--threads", 1) == 0
    root = ET.parse(out / "topk_compare.svg").getroot()
    bars = [e for e in root.iter() if e.get("class") == "bar"]
    assert [bar.get("height") for bar in bars] == ["0.00"] * 3
