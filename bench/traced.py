"""Traced pass of the benchmark: every workload's pipeline with spans.

    python3 traced.py <config.json> <result.json>

The config names, per workload, the ``roadnet`` arguments of its command.
Each pipeline makes the public calls its CLI command makes, in the same
order, with a span (name, start, end, parent) around each call; spans stay
in memory and are written with the counts when all passes are done.  After
the pipelines come the extra passes: PageRank and k-means at one thread,
the parse-only ``stream_batches`` pass, and the ``tracemalloc`` peaks, each
in its own pass so allocation tracking never runs inside a timed span.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from roadnet.cli import build_parser
from roadnet.clustering import edges_to_points, kmeans
from roadnet.graph_io import build_graph, load_edge_list
from roadnet.pagerank import pagerank, top_k_pagerank
from roadnet.report import ScatterSpec, render_clusters
from roadnet.stream import run_stream, stream_batches, write_ndjson


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _peak_mb(tr: Tracer, name: str, fn) -> float:
    """Peak traced allocation, in MB, of one call of ``fn``; the span only
    shows what the pass cost."""
    with tr.span(f"tracemalloc.{name}"):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def _parse(tr: Tracer, argv: list[str]):
    with tr.span("cli.parse_args"):
        args = build_parser().parse_args(argv)
        args.out.mkdir(parents=True, exist_ok=True)
    return args


def rank(tr: Tracer, argv: list[str]) -> dict:
    with tr.span("workload.rank"):
        args = _parse(tr, argv)
        with tr.span("graph_io.load_edge_list"):
            edges = load_edge_list(args.input)
        with tr.span("graph_io.build_graph"):
            graph = build_graph(edges)

        def solve(threads):
            return pagerank(graph, damping=args.damping,
                            tolerance=args.tol, max_iterations=args.max_iter,
                            directed=args.directed, threads=threads)

        with tr.span("pagerank.pagerank"):
            ranks = solve(args.threads)
        with tr.span("pagerank.to_csv"), \
                open(args.out / "pagerank.csv", "w", encoding="utf-8") as fp:
            ranks.to_csv(fp, graph)
        with tr.span("graph.top_k"):
            table = top_k_pagerank(ranks, graph, args.top)
        with tr.span("graph.to_csv"), \
                open(args.out / "pagerank_topk.csv", "w", encoding="utf-8") as fp:
            table.to_csv(fp)
        with tr.span("graph.format_triples"):
            table.format_triples()
    with tr.span("pagerank.pagerank@t1"):
        solve(1)
    return {
        "input_bytes": args.input.stat().st_size,
        "arcs": int(graph.undirected_neighbors.size),
        "iterations": ranks.iterations_run,
        "converged": ranks.converged,
        "build_graph_peak_mb": _peak_mb(tr, "build_graph", lambda: build_graph(edges)),
    }


def cluster(tr: Tracer, argv: list[str]) -> dict:
    with tr.span("workload.cluster"):
        args = _parse(tr, argv)
        with tr.span("graph_io.load_edge_list"):
            edges = load_edge_list(args.input)
        with tr.span("clustering.edges_to_points"):
            points = edges_to_points(edges)

        def solve(threads):
            return kmeans(points, args.k, init=args.init, seed=args.seed,
                          max_iterations=args.max_iter, tolerance=args.tol,
                          threads=threads)

        with tr.span("clustering.kmeans"):
            result = solve(args.threads)
        with tr.span("clustering.to_json"):
            (args.out / "kmeans_result.json").write_text(
                result.to_json() + "\n", encoding="utf-8")
        with tr.span("clustering.to_csv"), \
                open(args.out / "kmeans_points.csv", "w", encoding="utf-8") as fp:
            result.to_csv(fp, points)
        svg = args.out / f"clusters_k{args.k}.svg"
        with tr.span("report.render_clusters"):
            spec = ScatterSpec(points=points, sample_size=args.sample,
                               seed=args.seed,
                               title=f"k-means communities (k={args.k})")
            render_clusters(result, points, spec, svg)
    with tr.span("clustering.kmeans@t1"):
        solve(1)
    artifacts = ("kmeans_result.json", "kmeans_points.csv", svg.name)
    return {
        "input_bytes": args.input.stat().st_size,
        "points": points.t,
        "k": args.k,
        "iterations": result.iterations_run,
        "converged": result.converged,
        "distance_evaluations": result.distance_evaluations,
        "artifact_bytes": sum((args.out / a).stat().st_size for a in artifacts),
        "kmeans_peak_mb": _peak_mb(tr, "kmeans", lambda: solve(args.threads)),
    }


def _consume_stream(args, stamps: list[float] | None = None) -> None:
    with open(args.input, "rb") as reader, \
            open(args.out / "stream.ndjson", "w", encoding="utf-8") as sink:
        stats = run_stream(reader, args.batch_size, k=args.top,
                           source_name=str(args.input))
        for _ in write_ndjson(stats, sink):
            if stamps is not None:
                stamps.append(time.perf_counter())


def stream(tr: Tracer, argv: list[str]) -> dict:
    stamps: list[float] = []
    with tr.span("workload.stream"):
        args = _parse(tr, argv)
        with tr.span("stream.run_stream") as span:
            _consume_stream(args, stamps)
    batches = [b - a for a, b in zip([span["start"], *stamps], stamps)]
    with tr.span("stream.stream_batches"), open(args.input, "rb") as reader:
        for _ in stream_batches(reader, args.batch_size, str(args.input)):
            pass
    return {
        "batches": len(stamps),
        "batch_s": batches,
        "run_stream_peak_mb": _peak_mb(tr, "run_stream", lambda: _consume_stream(args)),
    }


PIPELINES = {"rank": rank, "cluster": cluster, "stream": stream}


def main(config_path: str, result_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    tr = Tracer()
    counts = {name: PIPELINES[name](tr, argv)
              for name, argv in config["argv"].items()}
    Path(result_path).write_text(
        json.dumps({"spans": tr.spans, "counts": counts}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
