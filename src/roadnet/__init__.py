"""Single-machine road-network graph analytics.

SNAP edge-list ingestion, degree and PageRank analysis, micro-batch
streaming statistics, k-means communities over the edge scatter, and
deterministic SVG/CSV figure export.
"""

__version__ = "0.1.0"

from .clustering import (ClusteringResult, PointSet, edges_to_points, kmeans,
                         kmeans_init, objective)
from .graph import Graph, TopKRow, TopKTable, top_k_by_degree
from .graph_io import (DatasetSummary, EdgeList, ParseError, build_graph,
                       load_edge_list, parse_edge_list, summarize,
                       write_edge_list)
from .pagerank import PageRankVector, pagerank, top_k_pagerank
from .report import (ScatterSpec, render_clusters, render_scatter,
                     render_topk_bars, reservoir_sample_indices)
from .stream import BatchStats, run_stream, stream_batches

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
