"""Command-line front door: summary, degrees, pagerank, topk, kmeans, scatter, stream.

Artifacts (CSV/JSON/SVG/NDJSON) land under --out; a short human-readable
summary goes to stdout.  Exit codes: 0 success, 1 data error (bad input
file, malformed line), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .clustering import INIT_METHODS, edges_to_points, kmeans
from .graph import degree_stats, top_k_by_degree
from .graph_io import build_graph, load_edge_list, summarize
from .pagerank import pagerank, top_k_pagerank
from .parallel import resolve_threads
from .report import (ScatterSpec, render_clusters, render_scatter,
                     render_topk_bars, reservoir_sample_indices,
                     write_points_csv)
from .stream import run_stream, write_ndjson

COMMANDS = ("summary", "degrees", "pagerank", "topk", "kmeans", "scatter",
            "stream")


@dataclass
class RunConfig:
    command: str
    input_path: Path
    output_dir: Path
    k: int = 3
    damping: float = 0.85
    tolerance: float = 1e-10
    max_iterations: int = 100
    batch_size: int = 100_000
    seed: int = 42
    sample_size: int = 100_000
    threads: int = 1
    top: int = 10
    init: str = "kmeans++"
    by: str = "degree"
    compare: Path | None = None
    directed: bool = False
    recompute_pagerank: bool = False


def _damping(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"damping must be in (0, 1), got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadnet",
        description="Road-network graph analytics on SNAP edge lists.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, type=Path,
                        help="SNAP edge-list file")
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="artifact directory (default: out)")
    common.add_argument("--threads", type=_positive_int, default=None,
                        help="worker count (default: ROADNET_THREADS or all CPUs)")
    common.add_argument("--seed", type=int, default=42)

    sub.add_parser("summary", parents=[common],
                   help="node/edge counts of the dataset")

    p = sub.add_parser("degrees", parents=[common],
                       help="degree/indegree/outdegree analysis")
    p.add_argument("--top", type=_positive_int, default=10)

    p = sub.add_parser("pagerank", parents=[common],
                       help="rank nodes by PageRank")
    p.add_argument("--damping", type=_damping, default=0.85)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--max-iter", type=_positive_int, default=100)
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument("--directed", action="store_true",
                   help="rank over raw directed arcs instead of the undirected view")

    p = sub.add_parser("topk", parents=[common],
                       help="top-k table, optionally compared across datasets")
    p.add_argument("--by", choices=("degree", "pagerank"), default="degree")
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument("--compare", type=Path, default=None,
                   help="second edge-list file for a side-by-side bar chart")

    p = sub.add_parser("kmeans", parents=[common],
                       help="k-means communities over the edge scatter")
    p.add_argument("--k", type=_positive_int, default=3)
    p.add_argument("--init", choices=INIT_METHODS, default="kmeans++")
    p.add_argument("--max-iter", type=_positive_int, default=300)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--sample", type=_nonneg_int, default=100_000)

    p = sub.add_parser("scatter", parents=[common],
                       help="edge scatter plot (SVG + CSV)")
    p.add_argument("--sample", type=_nonneg_int, default=100_000)

    p = sub.add_parser("stream", parents=[common],
                       help="micro-batch streaming statistics")
    p.add_argument("--batch-size", type=_positive_int, default=100_000)
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument("--pagerank", action="store_true", dest="recompute_pagerank",
                   help="recompute PageRank on the cumulative graph per batch")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, input_path=args.input,
                    output_dir=args.out)
    cfg.threads = resolve_threads(args.threads)
    cfg.seed = args.seed
    for attr, name in [("k", "k"), ("damping", "damping"), ("tolerance", "tol"),
                       ("max_iterations", "max_iter"),
                       ("batch_size", "batch_size"), ("sample_size", "sample"),
                       ("top", "top"), ("init", "init"), ("by", "by"),
                       ("compare", "compare"), ("directed", "directed"),
                       ("recompute_pagerank", "recompute_pagerank")]:
        if hasattr(args, name):
            setattr(cfg, attr, getattr(args, name))
    return cfg


def run(config: RunConfig) -> int:
    """Execute one command; writes artifacts under config.output_dir."""
    if not config.input_path.exists():
        print(f"roadnet: input file not found: {config.input_path}",
              file=sys.stderr)
        return 1
    config.output_dir.mkdir(parents=True, exist_ok=True)
    handler = _HANDLERS[config.command]
    try:
        handler(config)
    except (ValueError, OSError) as exc:
        print(f"roadnet: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_summary(cfg: RunConfig) -> None:
    edges = load_edge_list(cfg.input_path)
    s = summarize(edges)
    print(f"nodes={s.node_count} edges={s.undirected_edge_count}")
    print(f"directed_arcs={s.directed_edge_count} self_loops={s.self_loop_count}")
    payload = {
        "source": str(cfg.input_path),
        "node_count": s.node_count,
        "directed_edge_count": s.directed_edge_count,
        "undirected_edge_count": s.undirected_edge_count,
        "self_loop_count": s.self_loop_count,
    }
    (cfg.output_dir / "summary.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _cmd_degrees(cfg: RunConfig) -> None:
    graph = build_graph(load_edge_list(cfg.input_path))
    stats = degree_stats(graph)
    with open(cfg.output_dir / "degrees.csv", "w", encoding="utf-8") as fp:
        fp.write("node_id,degree,indegree,outdegree\n")
        fp.write("".join(map("{},{},{},{}\n".format, graph.id_map.tolist(),
                             stats.degree.tolist(), stats.indegree.tolist(),
                             stats.outdegree.tolist())))
    maxima = {}
    for label, entry in [("max_degree", stats.max_degree_node),
                         ("max_indegree", stats.max_indegree_node),
                         ("max_outdegree", stats.max_outdegree_node)]:
        if entry is None:
            maxima[label] = None
            print(f"{label}: none (empty graph)")
        else:
            _, node_id, value = entry
            maxima[label] = {"node": node_id, "value": value}
            print(f"{label}: node {node_id} value {value}")
    (cfg.output_dir / "degree_stats.json").write_text(
        json.dumps(maxima, indent=2) + "\n", encoding="utf-8")
    table = top_k_by_degree(graph, cfg.top)
    with open(cfg.output_dir / "topk_degree.csv", "w", encoding="utf-8") as fp:
        table.to_csv(fp)


def _cmd_pagerank(cfg: RunConfig) -> None:
    graph = build_graph(load_edge_list(cfg.input_path))
    ranks = pagerank(graph, damping=cfg.damping, tolerance=cfg.tolerance,
                     max_iterations=cfg.max_iterations, directed=cfg.directed,
                     threads=cfg.threads)
    _warn_unconverged(ranks, cfg.input_path)
    with open(cfg.output_dir / "pagerank.csv", "w", encoding="utf-8") as fp:
        ranks.to_csv(fp, graph)
    table = top_k_pagerank(ranks, graph, cfg.top)
    with open(cfg.output_dir / "pagerank_topk.csv", "w", encoding="utf-8") as fp:
        table.to_csv(fp)
    state = "converged" if ranks.converged else "not converged"
    print(f"pagerank: {state} after {ranks.iterations_run} iterations "
          f"(delta={ranks.final_delta:.3e})")
    print(table.format_triples())


def _cmd_topk(cfg: RunConfig) -> None:
    table = _topk_table(cfg.input_path, cfg)
    with open(cfg.output_dir / f"topk_{cfg.by}.csv", "w", encoding="utf-8") as fp:
        table.to_csv(fp)
    print(table.format_triples())
    if cfg.compare is not None:
        other = _topk_table(cfg.compare, cfg)
        out = cfg.output_dir / "topk_compare.svg"
        render_topk_bars(table, other,
                         (cfg.input_path.stem, cfg.compare.stem), out,
                         score_label=cfg.by)
        print(f"wrote {out}")


def _topk_table(path: Path, cfg: RunConfig):
    graph = build_graph(load_edge_list(path))
    if cfg.by == "pagerank":
        ranks = pagerank(graph, threads=cfg.threads)
        _warn_unconverged(ranks, path)
        return top_k_pagerank(ranks, graph, cfg.top)
    return top_k_by_degree(graph, cfg.top)


def _warn_unconverged(ranks, path: Path) -> None:
    if not ranks.converged:
        print(f"roadnet: warning: {path}: pagerank stopped at the iteration "
              f"limit before converging, after {ranks.iterations_run} "
              f"iterations (delta={ranks.final_delta:.3e})", file=sys.stderr)


def _cmd_kmeans(cfg: RunConfig) -> None:
    points = edges_to_points(load_edge_list(cfg.input_path))
    result = kmeans(points, cfg.k, init=cfg.init, seed=cfg.seed,
                    max_iterations=cfg.max_iterations, tolerance=cfg.tolerance,
                    threads=cfg.threads)
    (cfg.output_dir / "kmeans_result.json").write_text(
        result.to_json() + "\n", encoding="utf-8")
    with open(cfg.output_dir / "kmeans_points.csv", "w", encoding="utf-8") as fp:
        result.to_csv(fp, points)
    svg = cfg.output_dir / f"clusters_k{cfg.k}.svg"
    spec = ScatterSpec(points=points, sample_size=cfg.sample_size,
                       seed=cfg.seed, title=f"k-means communities (k={cfg.k})")
    render_clusters(result, points, spec, svg)
    print(f"kmeans: k={cfg.k} objective={result.objective!r} "
          f"iterations={result.iterations_run} converged={result.converged}")
    print(f"centroids={result.centroids.tolist()!r}")
    print(f"wrote {svg}")


def _cmd_scatter(cfg: RunConfig) -> None:
    points = edges_to_points(load_edge_list(cfg.input_path))
    spec = ScatterSpec(points=points, sample_size=cfg.sample_size,
                       seed=cfg.seed, title=cfg.input_path.stem)
    svg = cfg.output_dir / "scatter.svg"
    render_scatter(spec, svg)
    idx = reservoir_sample_indices(points.t, cfg.sample_size, cfg.seed)
    with open(cfg.output_dir / "scatter.csv", "w", encoding="utf-8") as fp:
        write_points_csv(fp, points.xy[idx])
    print(f"scatter: rendered {idx.size} of {points.t} points")
    print(f"wrote {svg}")


def _cmd_stream(cfg: RunConfig) -> None:
    last = None
    count = 0
    with open(cfg.input_path, "rb") as reader, \
            open(cfg.output_dir / "stream.ndjson", "w", encoding="utf-8") as sink:
        stats = run_stream(reader, cfg.batch_size, k=cfg.top,
                           recompute_pagerank=cfg.recompute_pagerank,
                           source_name=str(cfg.input_path), threads=cfg.threads)
        for item in write_ndjson(stats, sink):
            last = item
            count += 1
    if last is None:
        print("stream: no data lines")
    else:
        print(f"stream: {count} batches, {last.cumulative_edges} edges, "
              f"{last.cumulative_nodes} nodes")


_HANDLERS = {
    "summary": _cmd_summary,
    "degrees": _cmd_degrees,
    "pagerank": _cmd_pagerank,
    "topk": _cmd_topk,
    "kmeans": _cmd_kmeans,
    "scatter": _cmd_scatter,
    "stream": _cmd_stream,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
