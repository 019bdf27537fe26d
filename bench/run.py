"""roadnet benchmark: seeded road grids through `rank`, `cluster`, `stream`.

    python3 bench/run.py --workload rank --seed 1 --seconds 30 --trace 0

Run from the repository root; roadnet is imported from ./src.  Inputs are
generated from --seed outside every timed region.  Each command runs in a
fresh process, one after another (a closed loop with one caller), and its
artifacts are checked against the generator's ground truth.  With --trace 0
the end-to-end metrics are measured; with --trace 1 a separate traced pass
(traced.py) gives the per-layer metrics of all three pipelines.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (CheckError, check_kmeans, check_pagerank,  # noqa: E402
                    check_stream)
from gen import Grid, make_grid, write_grid  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
BUDGET_S = 170          # every run ends well inside 180 s
CAL_REF_S = 0.35        # calib.py's time on the host sized on, when quiet
DAMPING, TOL, TOP, K, BATCH = 0.85, 1e-10, 10, 3, 2500


@dataclass(frozen=True)
class Workload:
    index: int                  # mixed into the input seed
    side: int                   # lattice side of each input
    inputs: int                 # inputs made per run, one command each
    command: tuple[str, ...]    # roadnet subcommand and its options
    check: Callable[[Grid, Path], object]

    def argv(self, path: Path, out: Path) -> list[str]:
        return [self.command[0], "--input", str(path), "--out", str(out),
                "--threads", "2", *self.command[1:]]


# Many short commands per run, each scaled by the host speed measured just
# around it (Runner.calibrated): one long command per run left the
# run-to-run spread near 25%.  Each workload makes about as many inputs as
# a quiet host gets through in 30 s.  rank: 260^2 lattices, ~0.19M arcs
# each.  cluster: 170^2 lattices, ~0.08M arcs each; the k-means pass count
# to convergence differs by ~25% from one input to the next.  stream: 300^2
# lattices, ~0.26M arcs each, ~103 batches of 2500 lines.
WORKLOADS = {
    "rank": Workload(
        0, 260, 16,
        ("pagerank", "--tol", repr(TOL), "--max-iter", "1000",
         "--top", str(TOP)),
        lambda grid, out: check_pagerank(out, grid, DAMPING, TOL, TOP)),
    "cluster": Workload(
        1, 170, 24, ("kmeans", "--k", str(K), "--seed", "42"),
        lambda grid, out: check_kmeans(out, grid, K)),
    "stream": Workload(
        2, 300, 12,
        ("stream", "--batch-size", str(BATCH), "--top", str(TOP)),
        lambda grid, out: check_stream(out / "stream.ndjson", grid, BATCH,
                                       TOP)),
}


@dataclass
class Sample:
    setup_s: float
    wall_s: float
    rss_mb: float
    scale: float = 1.0          # reference host speed / host speed now

    def scaled(self, scale: float) -> "Sample":
        return Sample(self.setup_s * scale, self.wall_s * scale, self.rss_mb,
                      scale)


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.env = env
        self.last_cal: float | None = None
        self.launches: list[dict] = []      # raw times, for diagnosis

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise SystemExit("bench: time budget exhausted")
        return left

    def python(self, *args: str) -> tuple[float, float]:
        """Run one fresh interpreter; returns when it started and ended.

        The wait blocks in waitpid.  `subprocess.run(timeout=...)` would
        poll instead, every 50 ms, which rounds every time up to the next
        poll; the time limit is a timer that kills the child.
        """
        timeout = self.remaining()
        with open(self.work / "child.log", "ab") as log:
            started = time.monotonic()
            proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=log)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
                if proc.returncode is None:     # interrupted: never orphan
                    proc.kill()
                    proc.wait()
            ended = time.monotonic()
        if ended - started >= timeout:
            raise subprocess.TimeoutExpired(args, timeout)
        if proc.returncode != 0:
            raise CheckError(f"{Path(args[0]).name} exited {proc.returncode}; "
                             f"see {self.work / 'child.log'}")
        return started, ended

    def launch(self, mode: str, argv: list[str] = ()) -> Sample:
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        started, ended = self.python(str(HERE / "child.py"), str(result),
                                     mode, *argv)
        rec = json.loads(result.read_text(encoding="utf-8"))
        if not Path(rec["roadnet"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"bench: imported roadnet from {rec['roadnet']}, "
                             f"not from {SRC}")
        return Sample(setup_s=rec["ready"] - started, wall_s=ended - started,
                      rss_mb=rec["peak_rss_kb"] / 1024)

    def calibrate(self) -> float:
        started, ended = self.python(str(HERE / "calib.py"))
        return ended - started

    def calibrated(self, argv: list[str]) -> Sample:
        """`launch` of a command, with its times in seconds of the reference
        host.

        The speed of a shared host drifts by tens of percent within
        minutes, more than a regression bound.  calib.py, a fixed job, runs
        before and after every launch; the launch's times are scaled by
        CAL_REF_S over the mean of those two calibration times.
        """
        before = self.calibrate() if self.last_cal is None else self.last_cal
        sample = self.launch("cli", argv)
        after = self.last_cal = self.calibrate()
        self.launches.append({"setup_s": sample.setup_s,
                              "wall_s": sample.wall_s,
                              "calib_before_s": before,
                              "calib_after_s": after})
        return sample.scaled(CAL_REF_S / ((before + after) / 2))


def inputs(name: str, seed: int, work: Path, count: int | None = None):
    w = WORKLOADS[name]
    made = []
    for i in range(w.inputs if count is None else count):
        grid = make_grid(w.side, [seed, w.index, i])
        made.append((grid, write_grid(grid, work / f"{name}{i}.txt",
                                      f"{seed}/{w.index}/{i}")))
    return made


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        """Run one command-and-check; a failure is counted, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except (CheckError, OSError, ValueError, KeyError,
                subprocess.TimeoutExpired) as exc:
            self.failed += 1
            print(f"bench: FAILED: {exc}", file=sys.stderr)
            return None


def measure(name: str, seed: int, seconds: float, work: Path,
            tally: Tally) -> dict:
    w = WORKLOADS[name]
    made = inputs(name, seed, work)
    runner = Runner(work)
    runner.launch("probe")  # warm the bytecode cache; not counted
    out = work / "out"

    def one(grid, path):
        shutil.rmtree(out, ignore_errors=True)
        sample = runner.calibrated(w.argv(path, out))
        w.check(grid, out)
        print(f"{name:8s} {path.name:24s} wall {sample.wall_s:.3f} s, "
              f"setup {sample.setup_s:.3f} s (x{sample.scale:.3f})")
        return sample

    # Commands over the inputs in order, cycling, until `seconds` have
    # passed; a run's length does not depend on the host's speed.  wall_s is
    # the mean over the inputs that ran of each input's mean, so an input
    # weighs the same however many times it ran.
    started = time.monotonic()
    walls: list[list[float]] = [[] for _ in made]
    samples: list[Sample] = []
    i = 0
    while not tally.failed and (i == 0 or
                                time.monotonic() - started < seconds):
        grid, path = made[i % len(made)]
        sample = tally.attempt(one, grid, path)
        if sample is not None:
            samples.append(sample)
            walls[i % len(made)].append(sample.wall_s)
        i += 1
    (work / "launches.json").write_text(json.dumps(runner.launches, indent=1),
                                        encoding="utf-8")
    if not samples:
        return {}
    setups = [s.setup_s for s in samples]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.fmean(statistics.fmean(x) for x in walls if x),
                   "s", len(samples)),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB", len(samples)),
    }


def trace(name: str, seed: int, work: Path, tally: Tally) -> dict:
    """Per-layer metrics of all three pipelines, plus tracing overhead and
    span coverage of `name` against an untraced run of the same command."""
    runner = Runner(work)
    grids, paths, argv = {}, {}, {}
    for other in [name, *(o for o in WORKLOADS if o != name)]:
        (grids[other], paths[other]), = inputs(other, seed, work, count=1)
        argv[other] = WORKLOADS[other].argv(paths[other],
                                            work / f"trace_{other}")
    w = WORKLOADS[name]
    untraced_out = work / "untraced"

    def untraced():
        sample = runner.launch("cli", w.argv(paths[name], untraced_out))
        w.check(grids[name], untraced_out)
        return sample

    ref = tally.attempt(untraced)
    config, result = work / "trace_config.json", work / "trace.json"
    config.write_text(json.dumps({"argv": argv}), encoding="utf-8")
    if tally.attempt(runner.python, str(HERE / "traced.py"), str(config),
                     str(result)) is None or ref is None:
        return {}
    record = json.loads(result.read_text(encoding="utf-8"))
    for other in argv:
        tally.attempt(WORKLOADS[other].check, grids[other],
                      work / f"trace_{other}")
    return layer_metrics(name, record, ref)


def layer_metrics(name: str, record: dict, ref: Sample) -> dict:
    spans, counts = record["spans"], record["counts"]

    def root_of(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
        return spans[i]["name"]

    def dur(span_name, root=None):
        total = [s["end"] - s["start"] for i, s in enumerate(spans)
                 if s["name"] == span_name
                 and (root is None or root_of(i) == root)]
        if not total:
            raise KeyError(f"no span {span_name!r}")
        return sum(total)

    roots = {s["name"]: i for i, s in enumerate(spans) if s["parent"] is None}
    covered = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] == roots[f"workload.{name}"])
    untraced_s = ref.wall_s - ref.setup_s
    rank, cl, st = counts["rank"], counts["cluster"], counts["stream"]
    solve_pr = dur("pagerank.pagerank", "workload.rank")
    solve_km = dur("clustering.kmeans", "workload.cluster")
    batch_ms = [b * 1e3 for b in st["batch_s"]]
    load_rank = dur("graph_io.load_edge_list", "workload.rank")
    return {
        "graph_io.load_edge_list_s": (load_rank, "s"),
        "graph_io.load_mb_per_s": (rank["input_bytes"] / 1e6 / load_rank,
                                   "MB/s"),
        "graph_io.build_graph_s": (dur("graph_io.build_graph"), "s"),
        "graph_io.build_graph_peak_mb": (rank["build_graph_peak_mb"], "MB"),
        "pagerank.solve_s": (solve_pr, "s"),
        "pagerank.iterations": (rank["iterations"], "count"),
        "pagerank.arc_updates_per_s": (
            rank["arcs"] * rank["iterations"] / solve_pr, "1/s"),
        "pagerank.solve_s_t1": (dur("pagerank.pagerank@t1"), "s"),
        "parallel.pagerank_speedup": (
            dur("pagerank.pagerank@t1") / solve_pr, "ratio"),
        "pagerank.to_csv_s": (dur("pagerank.to_csv"), "s"),
        "graph.top_k_s": (dur("graph.top_k"), "s"),
        "clustering.edges_to_points_s": (dur("clustering.edges_to_points"),
                                         "s"),
        "clustering.kmeans_s": (solve_km, "s"),
        "clustering.iterations": (cl["iterations"], "count"),
        "clustering.distance_evaluations": (cl["distance_evaluations"],
                                            "count"),
        "clustering.evals_per_point_pass": (
            cl["distance_evaluations"] / (cl["points"] * cl["iterations"]),
            "count"),
        "clustering.kmeans_s_t1": (dur("clustering.kmeans@t1"), "s"),
        "parallel.kmeans_speedup": (dur("clustering.kmeans@t1") / solve_km,
                                    "ratio"),
        "clustering.kmeans_peak_mb": (cl["kmeans_peak_mb"], "MB"),
        "clustering.to_csv_s": (dur("clustering.to_csv"), "s"),
        "report.render_clusters_s": (dur("report.render_clusters"), "s"),
        "report.artifact_mb": (cl["artifact_bytes"] / 1e6, "MB"),
        "stream.stream_batches_s": (dur("stream.stream_batches"), "s"),
        "stream.run_stream_s": (dur("stream.run_stream"), "s"),
        "stream.batches": (st["batches"], "count"),
        "stream.batch_ms_p50": (percentile(batch_ms, 50), "ms"),
        "stream.batch_ms_p90": (percentile(batch_ms, 90), "ms"),
        "stream.batch_ms_first10": (statistics.median(batch_ms[:10]), "ms"),
        "stream.batch_ms_last10": (statistics.median(batch_ms[-10:]), "ms"),
        "stream.run_stream_peak_mb": (st["run_stream_peak_mb"], "MB"),
        "cli.parse_args_ms": (dur("cli.parse_args", f"workload.{name}") * 1e3,
                              "ms"),
        "trace.overhead": (dur(f"workload.{name}") / untraced_s, "ratio"),
        "trace.span_coverage": (covered / untraced_s, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "roadnet" / "cli.py").is_file():
        print(f"bench: roadnet sources not found under {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in
              manifest["per_layer" if args.trace else "end_to_end"]]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    if args.trace:
        measured = trace(args.workload, args.seed, work, tally)
    else:
        measured = measure(args.workload, args.seed, args.seconds, work, tally)

    missing = [m for m in wanted if m not in measured]
    if missing:
        print(f"bench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for metric in wanted:
        value, unit, *n = measured[metric]
        count = f"  (n={n[0]})" if n else ""
        print(f"{args.workload:8s} {metric:34s} {value:14.6g} {unit}{count}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": measured[m][0], "unit": measured[m][1]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
