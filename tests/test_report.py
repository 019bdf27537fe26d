import xml.etree.ElementTree as ET

import numpy as np
import pytest

from roadnet import (PointSet, ScatterSpec, kmeans, render_clusters,
                     render_scatter, render_topk_bars,
                     reservoir_sample_indices, top_k_by_degree, build_graph,
                     EdgeList)
from roadnet.report import write_points_csv
from conftest import FOUR_POINTS
import io


def pset(points):
    return PointSet(np.array(points, dtype=np.float64))


def random_pset(t, seed=0):
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(0, 1000, size=(t, 2)))


def spec_for(points, sample=100, seed=1):
    return ScatterSpec(points=points, sample_size=sample, seed=seed,
                       title="fixture <plot>")


def loop_reservoir(t, sample_size, seed):
    """The reservoir as first written, one Python step per draw: the
    reference the vectorised sampler must match exactly."""
    if sample_size >= t:
        return np.arange(t, dtype=np.int64)
    idx = np.arange(sample_size, dtype=np.int64)
    if sample_size == 0:
        return idx
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, np.arange(sample_size, t, dtype=np.int64) + 1)
    reservoir = idx.tolist()
    for offset, j in enumerate(draws.tolist()):
        if j < sample_size:
            reservoir[j] = sample_size + offset
    return np.array(reservoir, dtype=np.int64)


def test_reservoir_matches_the_loop():
    for t in [*range(41), 1000, 5000]:
        for sample in sorted({0, 1, t // 3, t - 1, t, t + 1} - {-1}):
            for seed in range(5):
                got = reservoir_sample_indices(t, sample, seed)
                assert got.dtype == np.int64
                assert np.array_equal(got, loop_reservoir(t, sample, seed)), \
                    (t, sample, seed)


def test_reservoir_identity_when_sample_covers_all():
    assert reservoir_sample_indices(5, 10, 0).tolist() == [0, 1, 2, 3, 4]


def test_reservoir_sample_properties():
    idx = reservoir_sample_indices(10_000, 250, seed=3)
    assert idx.size == 250
    assert len(set(idx.tolist())) == 250
    assert idx.min() >= 0 and idx.max() < 10_000
    again = reservoir_sample_indices(10_000, 250, seed=3)
    assert np.array_equal(idx, again)
    other = reservoir_sample_indices(10_000, 250, seed=4)
    assert not np.array_equal(idx, other)


def test_scatter_renders_every_point_when_small(tmp_path):
    path = render_scatter(spec_for(pset([(0, 0), (1, 1), (2, 2)]), sample=10),
                          tmp_path / "s.svg")
    svg = path.read_text()
    assert svg.count("<circle") == 3


def test_scatter_sampling_contract(tmp_path):
    path = render_scatter(spec_for(random_pset(1000), sample=100),
                          tmp_path / "s.svg")
    assert path.read_text().count("<circle") == 100


def test_scatter_deterministic_bytes(tmp_path):
    spec = spec_for(random_pset(500), sample=50, seed=9)
    a = render_scatter(spec, tmp_path / "a.svg").read_bytes()
    b = render_scatter(spec, tmp_path / "b.svg").read_bytes()
    assert a == b


def test_svg_outputs_are_wellformed_xml(tmp_path):
    points = pset(FOUR_POINTS)
    result = kmeans(points, 2, seed=42)
    scatter = render_scatter(spec_for(points), tmp_path / "scatter.svg")
    clusters = render_clusters(result, points, spec_for(points),
                               tmp_path / "clusters.svg")
    graph = build_graph(EdgeList.from_records([(0, 1), (1, 2), (2, 3)]))
    table = top_k_by_degree(graph, 3)
    bars = render_topk_bars(table, table, ("left", "right"),
                            tmp_path / "bars.svg")
    for path in (scatter, clusters, bars):
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_cluster_crosses_match_centroids(tmp_path):
    points = pset(FOUR_POINTS)
    result = kmeans(points, 2, seed=42)
    svg = render_clusters(result, points, spec_for(points),
                          tmp_path / "c.svg").read_text()
    assert svg.count('class="centroid"') == 2
    assert svg.count("<circle") == 4
    assert 'data-x="0.0" data-y="0.5"' in svg
    assert 'data-x="10.0" data-y="0.5"' in svg


def test_cluster_svg_has_k_crosses(tmp_path):
    points = random_pset(300, seed=2)
    result = kmeans(points, 4, seed=11)
    svg = render_clusters(result, points, spec_for(points, sample=80),
                          tmp_path / "c4.svg").read_text()
    assert svg.count('class="centroid"') == 4
    assert svg.count("<circle") == 80


def test_cluster_render_rejects_mismatched_points(tmp_path):
    points = pset(FOUR_POINTS)
    result = kmeans(points, 2, seed=42)
    with pytest.raises(ValueError):
        render_clusters(result, random_pset(7), spec_for(points),
                        tmp_path / "x.svg")


def test_bars_counts(tmp_path):
    graph = build_graph(EdgeList.from_records(
        [(i, j) for i in range(12) for j in range(i + 1, 12)]))
    left = top_k_by_degree(graph, 10)
    right = top_k_by_degree(graph, 10)
    svg = render_topk_bars(left, right, ("a", "b"),
                           tmp_path / "bars.svg").read_text()
    assert svg.count('class="bar"') == 20


def test_bars_single_rows(tmp_path):
    graph = build_graph(EdgeList.from_records([(0, 1)]))
    table = top_k_by_degree(graph, 1)
    svg = render_topk_bars(table, table, ("a", "b"),
                           tmp_path / "bars1.svg").read_text()
    assert svg.count('class="bar"') == 2


def test_bars_reject_empty_tables(tmp_path):
    graph = build_graph(EdgeList.from_records([(0, 1)]))
    table = top_k_by_degree(graph, 1)
    empty = type(table)(rows=(), k=1)
    with pytest.raises(ValueError):
        render_topk_bars(table, empty, ("a", "b"), tmp_path / "no.svg")


def test_render_io_error_carries_path(tmp_path):
    with pytest.raises(OSError, match="missing-dir"):
        render_scatter(spec_for(pset(FOUR_POINTS)),
                       tmp_path / "missing-dir" / "s.svg")


def test_points_csv_roundtrip_values():
    buf = io.StringIO()
    write_points_csv(buf, np.array([[0.5, 1.25], [3.0, 4.0]]))
    assert buf.getvalue() == "x,y\n0.5,1.25\n3.0,4.0\n"
