#!/usr/bin/env python3
"""Wall time of each pipeline stage on a PA-scale synthetic road grid.

    python scripts/pa_scale.py [--threads 1]

Builds bench/gen.py's ``make_grid(1044, 0)`` (3,091,946 arcs over 1,082,042
nodes, about the size of SNAP's roadNet-PA) and writes it as a SNAP edge list
in a temporary directory.  It first prints one setup line (the Python and
numpy versions, ``os.cpu_count()``, ``--threads`` and the median wall time
of 5 fresh ``python -c "import roadnet.cli"`` processes), so a quoted table
carries its setup.  The import is timed in plain subprocesses because the
spawned workers below import roadnet for this script's own top-level
imports, so no stage of theirs shows the start-up a command pays.  Then it
prints one line per stage, each run once, with its wall time and the
high-water RSS of its process after it (``load_edge_list`` also gives the
input's size and its rate in MB/s).  The high-water mark only rises, so
the stages run in four fresh spawned processes, and a line shows the peak
of its stage or of an earlier stage in the same process:

    the grid writer;
    load_edge_list, summarize, build_graph, pagerank (tol 1e-10),
    pagerank.csv, pagerank --directed (30 power steps);
    kmeans (k 3, 20 passes), kmeans to convergence (the CLI's defaults;
    88 passes), kmeans (k 12, 40 passes), kmeans_points.csv, clusters svg
    (the CLI's render_clusters: a sample of 100,000 points, seed 42), after
    loading the edge list again;
    run_stream (batch 2,500).

Then it runs four commands through ``roadnet.cli.main``, each in its own
spawned process with the CLI's default flags and ``--threads`` where the
command takes it: ``summary``, ``pagerank``, ``kmeans`` and ``stream
--batch-size 100000``.  Each prints a line of the same format: the wall
time inside ``main`` (stdout dropped), and the high-water RSS of its
process.

After each PageRank stage it prints the solve's iteration count, whether
it converged, and its last relative residual (with ``--directed``, the L1
change of its last power step).  After each k-means stage it prints the
solve's pass count and the distances it computed per point per pass.
After ``run_stream`` it prints the batch count and, over the batches'
``wall_time_ms``, the median, the 90th percentile and the medians of the
first 10 and of the last 10 batches: the quantities of the bench's
``stream.batch_ms_*`` metrics.

Last, the three stage groups run once more, each in a fresh spawned process
with ``tracemalloc`` on, and print one line per stage: the peak of the
traced allocations during the stage, in MiB (``tracemalloc.reset_peak()``
at its start), which includes what earlier stages still hold.  The
high-water RSS is a reading of the whole process: it moves with heap
layout, so only the traced peaks can attribute memory to a code change.

It is not part of the test suite.  Perf changes quote its lines before and
after, run on the same host.
"""

import argparse
import io
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, redirect_stdout
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from gen import make_grid, write_grid  # noqa: E402
from roadnet import (ScatterSpec, build_graph, edges_to_points,  # noqa: E402
                     kmeans, load_edge_list, pagerank, render_clusters,
                     run_stream, summarize)
from roadnet.cli import main as cli_main  # noqa: E402

SIDE = 1044  # grid side whose node count matches roadNet-PA


def write_pa_grid(path: Path) -> None:
    write_grid(make_grid(SIDE, 0), path, "0")


def high_water_mb() -> float:
    """``VmHWM`` of this process, or ``ru_maxrss`` where /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@contextmanager
def stage(name: str, input_mb: float = 0.0):
    """Print the stage's wall time and high-water RSS, and with ``input_mb``
    the size of its input and the rate it was read at; while ``tracemalloc``
    traces, print the stage's traced peak instead."""
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
        yield
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        print(f"{name:<20} {peak:8.1f} MiB traced peak", flush=True)
        return
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    rate = (f"  {input_mb:.1f} MB input, {input_mb / wall:.1f} MB/s"
            if input_mb else "")
    print(f"{name:<20} {wall:8.3f} s  {high_water_mb():8.1f} MB{rate}",
          flush=True)


def detail(text: str) -> None:
    """Print a line under the row of a timed stage; a traced pass drops it."""
    if not tracemalloc.is_tracing():
        print(f"{'':<20} {text}", flush=True)


def cli_import_ms() -> float:
    """Median wall time, in ms, of 5 fresh processes that import roadnet.cli
    from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    times = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import roadnet.cli"], env=env,
                       check=True)
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def in_fresh_process(job, *args) -> None:
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        pool.submit(job, *args).result()


def traced(job, *args) -> None:
    tracemalloc.start()
    job(*args)


def pagerank_stage(name: str, graph, directed: bool = False, **options):
    with stage(name):
        ranks = pagerank(graph, tolerance=1e-10, directed=directed, **options)
    label = "delta" if directed else "residual"
    detail(f"{ranks.iterations_run} iterations, "
           f"converged={ranks.converged}, {label}={ranks.final_delta:.3e}")
    return ranks


def graph_stages(path: Path, threads: int) -> None:
    with stage("load_edge_list", path.stat().st_size / 1e6):
        edges = load_edge_list(path)
    with stage("summarize"):
        summarize(edges)
    with stage("build_graph"):
        graph = build_graph(edges)
    ranks = pagerank_stage("pagerank", graph, max_iterations=1000,
                           threads=threads)
    with stage("pagerank.csv"), \
            open(path.with_name("pagerank.csv"), "w", encoding="utf-8") as fp:
        ranks.to_csv(fp, graph)
    pagerank_stage("pagerank --directed", graph, max_iterations=30,
                   directed=True, threads=threads)


def kmeans_stage(name: str, points, k: int, **options):
    with stage(name):
        result = kmeans(points, k, **options)
    per_point_pass = result.distance_evaluations / (
        points.t * result.iterations_run)
    detail(f"{result.iterations_run} passes, "
           f"{per_point_pass:.3f} distances per point per pass")
    return result


def kmeans_stages(path: Path, threads: int) -> None:
    points = edges_to_points(load_edge_list(path))
    kmeans_stage("kmeans", points, 3, max_iterations=20, threads=threads)
    result = kmeans_stage("kmeans converged", points, 3, threads=threads)
    kmeans_stage("kmeans k 12", points, 12, max_iterations=40,
                 threads=threads)
    with stage("kmeans_points.csv"), open(
            path.with_name("kmeans_points.csv"), "w", encoding="utf-8") as fp:
        result.to_csv(fp, points)
    with stage("clusters svg"):
        spec = ScatterSpec(points=points, sample_size=100_000, seed=42,
                           title="k-means communities (k=3)")
        render_clusters(result, points, spec,
                        path.with_name("clusters_k3.svg"))


def stream_stage(path: Path) -> None:
    with stage("run_stream"), open(path, "rb") as reader:
        ms = [batch.wall_time_ms for batch in
              run_stream(reader, 2500, k=10, source_name=str(path))]
    p50, p90 = np.percentile(ms, [50, 90])
    detail(f"{len(ms)} batches, ms per batch: median {p50:.2f}, "
           f"p90 {p90:.2f}, first 10 {np.median(ms[:10]):.2f}, "
           f"last 10 {np.median(ms[-10:]):.2f}")


def cli_stage(argv: list[str], path: Path) -> None:
    out = path.with_name("cli")
    with stage(f"roadnet {argv[0]}"), redirect_stdout(io.StringIO()):
        code = cli_main([*argv, "--input", str(path), "--out", str(out)])
    if code:
        raise SystemExit(f"roadnet {' '.join(argv)} exited {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs, --threads {args.threads}, "
          f"import roadnet.cli {cli_import_ms():.1f} ms (median of 5 "
          f"processes)", flush=True)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "grid.txt"
        in_fresh_process(write_pa_grid, path)
        groups = [(graph_stages, path, args.threads),
                  (kmeans_stages, path, args.threads), (stream_stage, path)]
        for group in groups:
            in_fresh_process(*group)
        threads = ["--threads", str(args.threads)]
        for argv in (["summary"], ["pagerank", *threads],
                     ["kmeans", *threads],
                     ["stream", "--batch-size", "100000", *threads]):
            in_fresh_process(cli_stage, argv, path)
        for group in groups:
            in_fresh_process(traced, *group)
    return 0


if __name__ == "__main__":
    sys.exit(main())
