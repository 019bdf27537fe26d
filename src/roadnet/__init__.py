"""Single-machine road-network graph analytics.

SNAP edge-list ingestion, degree and PageRank analysis, micro-batch
streaming statistics, k-means communities over the edge scatter, and
deterministic SVG/CSV figure export.

Each CLI command runs in a fresh process and uses only some of these
modules, so the names from ``clustering``, ``report`` and ``stream`` are
imported on first access (PEP 562): a command that never touches them
never pays for them.  ``graph``, ``graph_io`` and ``pagerank`` load with
the package.  ``pagerank`` must: the function shares its submodule's name,
and the import system binds a submodule to its package's attribute when it
first loads it, so a lazily loaded ``roadnet.pagerank`` module would
replace the function.
"""

__version__ = "0.1.0"

from .graph import Graph, TopKRow, TopKTable, top_k_by_degree
from .graph_io import (DatasetSummary, EdgeList, ParseError, build_graph,
                       load_edge_list, parse_edge_list, summarize,
                       write_edge_list)
from .pagerank import PageRankVector, pagerank, top_k_pagerank

_LAZY = {
    "clustering": ("PointSet", "ClusteringResult", "edges_to_points",
                   "objective", "kmeans_init", "kmeans"),
    "stream": ("BatchStats", "stream_batches", "run_stream"),
    "report": ("ScatterSpec", "render_scatter", "render_clusters",
               "render_topk_bars", "reservoir_sample_indices"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    "EdgeList", "DatasetSummary", "ParseError",
    "parse_edge_list", "load_edge_list", "write_edge_list", "summarize",
    "build_graph",
    "Graph", "TopKRow", "TopKTable", "top_k_by_degree",
    "PageRankVector", "pagerank", "top_k_pagerank",
    "PointSet", "ClusteringResult",
    "edges_to_points", "objective", "kmeans_init", "kmeans",
    "BatchStats", "stream_batches", "run_stream",
    "ScatterSpec", "render_scatter", "render_clusters", "render_topk_bars",
    "reservoir_sample_indices",
]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
