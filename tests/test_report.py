import xml.etree.ElementTree as ET

import numpy as np
import pytest

from roadnet import (ClusteringResult, PointSet, ScatterSpec, kmeans,
                     render_clusters, render_scatter, render_topk_bars,
                     reservoir_sample_indices, top_k_by_degree, build_graph,
                     EdgeList)
from roadnet._text import CHUNK_ROWS, Ints, Pick, cents, write_rows
from roadnet.report import (PALETTE, SCATTER_HEIGHT, SCATTER_WIDTH, _Frame,
                            _fmt, _svg_open, write_points_csv)
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


# The per-point writers as first written, one Python format call per row:
# the references the numpy row kernel must match byte for byte.

def loop_points_csv(xy):
    return "x,y\n" + "".join(map("{!r},{!r}\n".format, xy[:, 0].tolist(),
                                  xy[:, 1].tolist()))


def loop_kmeans_csv(result, points):
    return "point_index,x,y,cluster\n" + "".join(map(
        "{},{!r},{!r},{}\n".format, range(points.t), points.xy[:, 0].tolist(),
        points.xy[:, 1].tolist(), result.assignment.tolist()))


def loop_scatter_svg(spec):
    idx = reservoir_sample_indices(spec.points.t, spec.sample_size, spec.seed)
    xy = spec.points.xy[idx]
    frame = _Frame(xy[:, 0], xy[:, 1])
    lines = [_svg_open(SCATTER_WIDTH, SCATTER_HEIGHT)]
    lines += frame.decor(spec.title)
    lines.append(f'<g fill="{PALETTE[0]}" fill-opacity="0.6">')
    for x, y in xy.tolist():
        lines.append(f'<circle cx="{_fmt(frame.px(x))}" '
                     f'cy="{_fmt(frame.py(y))}" r="1.5"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def loop_clusters_svg(result, points, spec):
    idx = reservoir_sample_indices(points.t, spec.sample_size, spec.seed)
    xy = points.xy[idx]
    labels = result.assignment[idx]
    frame = _Frame(np.concatenate([xy[:, 0], result.centroids[:, 0]]),
                   np.concatenate([xy[:, 1], result.centroids[:, 1]]))
    lines = [_svg_open(SCATTER_WIDTH, SCATTER_HEIGHT)]
    lines += frame.decor(spec.title)
    for (x, y), c in zip(xy.tolist(), labels.tolist()):
        lines.append(
            f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" '
            f'r="1.5" fill="{PALETTE[c % len(PALETTE)]}" fill-opacity="0.6"/>')
    for cx, cy in result.centroids.tolist():
        px, py = frame.px(cx), frame.py(cy)
        lines.append(
            f'<path class="centroid" data-x="{cx!r}" data-y="{cy!r}" '
            f'stroke="#111" stroke-width="2" '
            f'd="M {_fmt(px - 7)} {_fmt(py)} L {_fmt(px + 7)} {_fmt(py)} '
            f'M {_fmt(px)} {_fmt(py - 7)} L {_fmt(px)} {_fmt(py + 7)}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def assert_writers_match_loops(points, k, sample, tmp_path, seed=5):
    """Every per-point writer against its loop reference on one point set."""
    result = kmeans(points, k, init="first-k", max_iterations=3)
    buf = io.StringIO()
    result.to_csv(buf, points)
    assert buf.getvalue() == loop_kmeans_csv(result, points)
    buf = io.StringIO()
    write_points_csv(buf, points.xy)
    assert buf.getvalue() == loop_points_csv(points.xy)
    spec = spec_for(points, sample=sample, seed=seed)
    svg = render_scatter(spec, tmp_path / "s.svg").read_text()
    assert svg == loop_scatter_svg(spec)
    svg = render_clusters(result, points, spec, tmp_path / "c.svg").read_text()
    assert svg == loop_clusters_svg(result, points, spec)


# x0 = y0 = 0 and a span of 5800 = 8 * 725 px put pixel coordinates on exact
# binary ties at the second decimal: x = 1, 3 give 60.125, 60.375 and
# y = 75 gives 745.625
TIES = [(0, 0), (1, 75), (3, 75), (5800, 5800), (1, 5725), (2901, 2899)]


def test_writers_match_loops_on_exact_ties(tmp_path):
    points = pset(TIES)
    assert_writers_match_loops(points, 2, 100, tmp_path)
    frame = _Frame(points.xy[:, 0], points.xy[:, 1])
    assert {_fmt(frame.px(1.0)), _fmt(frame.px(3.0)), _fmt(frame.py(75.0))} \
        == {"60.12", "60.38", "745.62"}


@pytest.mark.parametrize("t", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS,
                               CHUNK_ROWS + 1])
def test_writers_match_loops_at_chunk_edges(t, tmp_path):
    rng = np.random.default_rng(t)
    points = pset(rng.integers(0, 10 ** 7, size=(t, 2)))
    result = ClusteringResult(
        centroids=np.array([[5e6, 5e6]]), assignment=np.zeros(t, np.int64),
        cluster_sizes=np.array([t]), objective=0.0, iterations_run=1,
        converged=True, distance_evaluations=t, objective_trace=(0.0,))
    buf = io.StringIO()
    result.to_csv(buf, points)
    assert buf.getvalue() == loop_kmeans_csv(result, points)
    buf = io.StringIO()
    write_points_csv(buf, points.xy)
    assert buf.getvalue() == loop_points_csv(points.xy)
    spec = spec_for(points, sample=t)
    assert render_scatter(spec, tmp_path / "s.svg").read_text() \
        == loop_scatter_svg(spec)
    assert render_clusters(result, points, spec, tmp_path / "c.svg") \
        .read_text() == loop_clusters_svg(result, points, spec)


def test_csv_keeps_repr_past_exact_integers():
    # one chunk of small IDs, then one holding values where repr switches
    # to an exponent (1e16) or the float spacing passes 1 (2**53)
    big = [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, float(np.nextafter(1e16, 0)),
           1e16, float(np.nextafter(1e16, np.inf)), 2.0 ** 63, 0.5, -0.0, -3.0]
    xy = np.zeros((CHUNK_ROWS + len(big), 2))
    xy[:CHUNK_ROWS] = np.arange(2 * CHUNK_ROWS).reshape(-1, 2)
    xy[CHUNK_ROWS:, 0] = big
    xy[CHUNK_ROWS:, 1] = big[::-1]
    buf = io.StringIO()
    write_points_csv(buf, xy)
    text = buf.getvalue()
    assert text == loop_points_csv(xy)
    assert "\n9007199254740994.0,0.5\n" in text
    assert "\n1e+16,1.0000000000000002e+16\n" in text
    for single in big:  # each value alone in a one-row chunk
        buf = io.StringIO()
        write_points_csv(buf, np.array([[single, 7.0]]))
        assert buf.getvalue() == f"x,y\n{single!r},7.0\n"


def test_cluster_plot_palette_wraps_past_ten(tmp_path):
    rng = np.random.default_rng(12)
    points = pset(rng.integers(0, 500, size=(400, 2)))
    assert_writers_match_loops(points, 12, 400, tmp_path)
    svg = (tmp_path / "c.svg").read_text()
    assert f'fill="{PALETTE[0]}"' in svg and f'fill="{PALETTE[1]}"' in svg


def test_scatter_sample_smaller_than_points(tmp_path):
    rng = np.random.default_rng(13)
    points = pset(rng.integers(0, 3000, size=(2000, 2)))
    assert_writers_match_loops(points, 3, 150, tmp_path, seed=8)
    assert (tmp_path / "s.svg").read_text().count("<circle") == 150


def test_writers_match_loops_on_fractional_points(tmp_path):
    assert_writers_match_loops(random_pset(700, seed=4), 4, 300, tmp_path)


def test_cents_matches_python_formatting():
    v = np.concatenate([np.arange(0, 10 ** 6) / 1000,  # many near-ties
                        np.random.default_rng(0).uniform(0, 1e4, 10 ** 5),
                        [0.0, 0.005, 0.015, 2.675, 1e7 - 1e-3]])
    got = cents(v)
    assert got.dtype == np.int64
    assert got.tolist() == [int(f"{x:.2f}".replace(".", ""))
                            for x in v.tolist()]
    for bad in (-0.01, 1e7, np.nan, np.inf):
        with pytest.raises(ValueError):
            cents(np.array([1.0, bad]))


def test_write_rows_fields():
    buf = io.StringIO()
    write_rows(buf, ["<", Ints(np.array([0, 7, 123, 4567])), "|",
                     Ints(np.array([5, 0, 99, 100]), 2), "|",
                     Pick(np.array([1, 0, 2, 1]), ("ab", "cd", "ef")), ">\n"])
    assert buf.getvalue() == ("<0|05|cd>\n<7|00|ab>\n"
                              "<123|99|ef>\n<4567|100|cd>\n")
    with pytest.raises(ValueError):
        write_rows(io.StringIO(), [Ints(np.arange(3)), Ints(np.arange(4))])
    with pytest.raises(ValueError):
        write_rows(io.StringIO(), [Ints(np.array([1, -1]))])
    with pytest.raises(ValueError):
        write_rows(io.StringIO(), [Pick(np.array([0]), ("a", "bc"))])
