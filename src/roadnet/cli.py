"""Command-line front door: summary, degrees, pagerank, topk, kmeans, scatter, stream.

Artifacts (CSV/JSON/SVG/NDJSON) land under --out; a short human-readable
summary goes to stdout.  Exit codes: 0 success, 1 data error (bad input
file, malformed line), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from ._text import Ints, write_rows
from .clustering import INIT_METHODS, edges_to_points, kmeans
from .graph import top_k_by_degree
from .graph_io import build_graph, load_edge_list, summarize
from .pagerank import pagerank, top_k_pagerank
from .parallel import resolve_threads
from .report import (ScatterSpec, render_clusters, render_scatter,
                     render_topk_bars, reservoir_sample_indices,
                     write_points_csv)
from .stream import run_stream, write_ndjson


def _damping(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"damping must be in (0, 1), got {text}")
    return value


def _checked(cast, positive: bool):
    """An argparse type: ``cast(text)``, which must be > 0 when ``positive``
    and >= 0 otherwise; both checks refuse nan."""
    wanted = (f"{'positive' if positive else 'non-negative'} "
              f"{'integer' if cast is int else 'number'}")

    def check(text: str):
        value = cast(text)
        if not (value > 0 if positive else value >= 0):
            raise argparse.ArgumentTypeError(f"expected a {wanted}, got {text}")
        return value

    check.__name__ = wanted  # argparse names it when cast(text) fails
    return check


_positive_int, _nonneg_int = _checked(int, True), _checked(int, False)
_positive_float, _nonneg_float = _checked(float, True), _checked(float, False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadnet",
        description="Road-network graph analytics on SNAP edge lists.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--input", required=True, type=Path,
                       help="SNAP edge-list file")
    files.add_argument("--out", type=Path, default=Path("out"),
                       help="artifact directory (default: out)")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_positive_int, default=None,
                         help="worker count (default: ROADNET_THREADS or all CPUs)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=42)

    def command(name, handler, help_text, *parents):
        p = sub.add_parser(name, parents=[files, *parents], help=help_text)
        p.set_defaults(handler=handler)
        return p

    command("summary", _cmd_summary, "node/edge counts of the dataset")

    p = command("degrees", _cmd_degrees, "degree/indegree/outdegree analysis")
    p.add_argument("--top", type=_positive_int, default=10)

    p = command("pagerank", _cmd_pagerank, "rank nodes by PageRank", threads)
    p.add_argument("--damping", type=_damping, default=0.85)
    p.add_argument("--tol", type=_positive_float, default=1e-10,
                   help="stop when the relative residual ||r||/||b|| of the "
                        "conjugate-gradient solve drops below this; with "
                        "--directed, when the L1 change of a power step does "
                        "(default: 1e-10)")
    p.add_argument("--max-iter", type=_positive_int, default=100)
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument("--directed", action="store_true",
                   help="rank over raw directed arcs (power iteration) "
                        "instead of the undirected view")

    p = command("topk", _cmd_topk,
                "top-k table, optionally compared across datasets", threads)
    p.add_argument("--by", choices=("degree", "pagerank"), default="degree")
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument("--compare", type=Path, default=None,
                   help="second edge-list file for a side-by-side bar chart")

    p = command("kmeans", _cmd_kmeans,
                "k-means communities over the edge scatter", threads, seed)
    p.add_argument("--k", type=_positive_int, default=3)
    p.add_argument("--init", choices=INIT_METHODS, default="kmeans++")
    p.add_argument("--max-iter", type=_positive_int, default=300)
    p.add_argument("--tol", type=_nonneg_float, default=1e-6)
    p.add_argument("--sample", type=_nonneg_int, default=100_000)

    p = command("scatter", _cmd_scatter, "edge scatter plot (SVG + CSV)", seed)
    p.add_argument("--sample", type=_nonneg_int, default=100_000)

    p = command("stream", _cmd_stream, "micro-batch streaming statistics",
                threads)
    p.add_argument("--batch-size", type=_positive_int, default=100_000)
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument("--pagerank", action="store_true", dest="recompute_pagerank",
                   help="recompute PageRank on the cumulative graph per batch")

    return parser


def _cmd_summary(args: argparse.Namespace) -> None:
    edges = load_edge_list(args.input)
    s = summarize(edges)
    print(f"nodes={s.node_count} edges={s.undirected_edge_count}")
    print(f"directed_arcs={s.directed_edge_count} self_loops={s.self_loop_count}")
    payload = {
        "source": str(args.input),
        "node_count": s.node_count,
        "directed_edge_count": s.directed_edge_count,
        "undirected_edge_count": s.undirected_edge_count,
        "self_loop_count": s.self_loop_count,
    }
    (args.out / "summary.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _cmd_degrees(args: argparse.Namespace) -> None:
    graph = build_graph(load_edge_list(args.input))
    with open(args.out / "degrees.csv", "w", encoding="utf-8") as fp:
        fp.write("node_id,degree,indegree,outdegree\n")
        write_rows(fp, [Ints(graph.id_map), ",", Ints(graph.degrees), ",",
                        Ints(graph.indegrees), ",", Ints(graph.outdegrees), "\n"])
    maxima = {}
    for label, values in [("max_degree", graph.degrees),
                          ("max_indegree", graph.indegrees),
                          ("max_outdegree", graph.outdegrees)]:
        if graph.n == 0:
            maxima[label] = None
            print(f"{label}: none (empty graph)")
        else:
            # the first maximum wins; id_map ascends, so that is the lowest ID
            i = int(values.argmax())
            node_id, value = int(graph.id_map[i]), int(values[i])
            maxima[label] = {"node": node_id, "value": value}
            print(f"{label}: node {node_id} value {value}")
    (args.out / "degree_stats.json").write_text(
        json.dumps(maxima, indent=2) + "\n", encoding="utf-8")
    table = top_k_by_degree(graph, args.top)
    with open(args.out / "topk_degree.csv", "w", encoding="utf-8") as fp:
        table.to_csv(fp)


def _cmd_pagerank(args: argparse.Namespace) -> None:
    graph = build_graph(load_edge_list(args.input))
    ranks = pagerank(graph, damping=args.damping, tolerance=args.tol,
                     max_iterations=args.max_iter, directed=args.directed,
                     threads=args.threads)
    _warn_unconverged(ranks, args.input, args.directed)
    with open(args.out / "pagerank.csv", "w", encoding="utf-8") as fp:
        ranks.to_csv(fp, graph)
    table = top_k_pagerank(ranks, graph, args.top)
    with open(args.out / "pagerank_topk.csv", "w", encoding="utf-8") as fp:
        table.to_csv(fp)
    state = "converged" if ranks.converged else "not converged"
    print(f"pagerank: {state} after {_solver_end(ranks, args.directed)}")
    print(table.format_triples())


def _cmd_topk(args: argparse.Namespace) -> None:
    table = _topk_table(args.input, args)
    with open(args.out / f"topk_{args.by}.csv", "w", encoding="utf-8") as fp:
        table.to_csv(fp)
    print(table.format_triples())
    if args.compare is not None:
        other = _topk_table(args.compare, args)
        out = args.out / "topk_compare.svg"
        render_topk_bars(table, other,
                         (args.input.stem, args.compare.stem), out,
                         score_label=args.by)
        print(f"wrote {out}")


def _topk_table(path: Path, args: argparse.Namespace):
    graph = build_graph(load_edge_list(path))
    if args.by == "pagerank":
        ranks = pagerank(graph, threads=args.threads)
        _warn_unconverged(ranks, path, directed=False)
        return top_k_pagerank(ranks, graph, args.top)
    return top_k_by_degree(graph, args.top)


def _solver_end(ranks, directed: bool) -> str:
    """The iteration count and the last stopping value: the relative
    residual of the CG solve, or with --directed the L1 change (delta) of
    the last power step."""
    label = "delta" if directed else "residual"
    return (f"{ranks.iterations_run} iterations "
            f"({label}={ranks.final_delta:.3e})")


def _warn_unconverged(ranks, path: Path, directed: bool) -> None:
    if not ranks.converged:
        print(f"roadnet: warning: {path}: pagerank stopped at the iteration "
              f"limit before converging, after "
              f"{_solver_end(ranks, directed)}", file=sys.stderr)


def _cmd_kmeans(args: argparse.Namespace) -> None:
    points = edges_to_points(load_edge_list(args.input))
    result = kmeans(points, args.k, init=args.init, seed=args.seed,
                    max_iterations=args.max_iter, tolerance=args.tol,
                    threads=args.threads)
    (args.out / "kmeans_result.json").write_text(
        result.to_json() + "\n", encoding="utf-8")
    with open(args.out / "kmeans_points.csv", "w", encoding="utf-8") as fp:
        result.to_csv(fp, points)
    svg = args.out / f"clusters_k{args.k}.svg"
    spec = ScatterSpec(points=points, sample_size=args.sample,
                       seed=args.seed, title=f"k-means communities (k={args.k})")
    render_clusters(result, points, spec, svg)
    print(f"kmeans: k={args.k} objective={result.objective!r} "
          f"iterations={result.iterations_run} converged={result.converged}")
    print(f"centroids={result.centroids.tolist()!r}")
    print(f"wrote {svg}")


def _cmd_scatter(args: argparse.Namespace) -> None:
    points = edges_to_points(load_edge_list(args.input))
    spec = ScatterSpec(points=points, sample_size=args.sample,
                       seed=args.seed, title=args.input.stem)
    svg = args.out / "scatter.svg"
    render_scatter(spec, svg)
    idx = reservoir_sample_indices(points.t, args.sample, args.seed)
    with open(args.out / "scatter.csv", "w", encoding="utf-8") as fp:
        write_points_csv(fp, points.xy[idx])
    print(f"scatter: rendered {idx.size} of {points.t} points")
    print(f"wrote {svg}")


def _cmd_stream(args: argparse.Namespace) -> None:
    last = None
    count = unconverged = 0
    with open(args.input, "rb") as reader, \
            open(args.out / "stream.ndjson", "w", encoding="utf-8") as sink:
        stats = run_stream(reader, args.batch_size, k=args.top,
                           recompute_pagerank=args.recompute_pagerank,
                           source_name=str(args.input), threads=args.threads)
        for item in write_ndjson(stats, sink):
            last = item
            count += 1
            unconverged += item.pagerank_converged is False
    if unconverged:
        print(f"roadnet: warning: {args.input}: pagerank stopped at the "
              f"iteration limit before converging in {unconverged} of "
              f"{count} batches", file=sys.stderr)
    if last is None:
        print("stream: no data lines")
    else:
        print(f"stream: {count} batches, {last.cumulative_edges} edges, "
              f"{last.cumulative_nodes} nodes")


def main(argv=None) -> int:
    """Run one command; artifacts go under --out.  Returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if "threads" in args:
        try:
            args.threads = resolve_threads(args.threads)
        except ValueError as exc:
            parser.error(str(exc))
    if not args.input.exists():
        print(f"roadnet: input file not found: {args.input}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"roadnet: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
