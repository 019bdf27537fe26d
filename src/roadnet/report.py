"""Deterministic SVG export: edge scatters, cluster plots, top-k bar charts.

Every render is a pure function of its inputs: fixed data and seed produce a
byte-identical file.  Marker counts match data counts exactly (one circle
per rendered point, one cross per centroid, one rect per bar), which keeps
the files testable by text inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence
from xml.sax.saxutils import escape

import numpy as np

from ._text import Floats, Ints, Pick, cents, write_rows
from .clustering import ClusteringResult, PointSet
from .graph import TopKTable

# classic 10-color categorical palette
PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
           "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac")

_MARGIN = dict(left=60, right=15, top=30, bottom=45)
SCATTER_WIDTH = SCATTER_HEIGHT = 800  # scatter and cluster plots, pixels
BARS_WIDTH, BARS_HEIGHT = 900, 480  # top-k bar chart, pixels


@dataclass
class ScatterSpec:
    points: PointSet
    sample_size: int = 100_000
    seed: int = 42
    title: str = ""


def reservoir_sample_indices(t: int, sample_size: int, seed: int) -> np.ndarray:
    """Indices of a uniform sample of min(sample_size, t) out of range(t).

    Reservoir replacement with a seeded generator; deterministic per
    (t, sample_size, seed).  Item sample_size + offset draws a slot in
    0..sample_size + offset and replaces it when the slot is in the
    reservoir, so each slot ends up holding the last item that drew it.
    """
    if sample_size >= t:
        return np.arange(t, dtype=np.int64)
    idx = np.arange(sample_size, dtype=np.int64)
    if sample_size == 0:
        return idx
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, np.arange(sample_size, t, dtype=np.int64) + 1)
    hits = np.flatnonzero(draws < sample_size)[::-1]  # latest first
    slots, latest = np.unique(draws[hits], return_index=True)
    idx[slots] = sample_size + hits[latest]
    return idx


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _circles(frame: _Frame, xy: np.ndarray) -> list:
    """Row-template parts of ``<circle cx=".." cy=".." r="1.5"`` per point,
    the coordinates written as ``_fmt`` writes them."""
    parts = ['<circle cx="']
    for v, after in [(frame.px(xy[:, 0]), '" cy="'),
                     (frame.py(xy[:, 1]), '" r="1.5"')]:
        c = cents(v)
        parts += [Ints(c // 100), ".", Ints(c % 100, 2), after]
    return parts


def _tick(v: float) -> str:
    return f"{v:g}"


class _Frame:
    """Maps data coordinates into the pixel plot area, y axis pointing up.

    ``px``/``py`` take a float or a float64 array: the same IEEE operations
    in the same order either way, and every result is at least the margin.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.x0 = float(xs.min()) if xs.size else 0.0
        self.x1 = float(xs.max()) if xs.size else 1.0
        self.y0 = float(ys.min()) if ys.size else 0.0
        self.y1 = float(ys.max()) if ys.size else 1.0
        if self.x1 == self.x0:
            self.x0 -= 0.5
            self.x1 += 0.5
        if self.y1 == self.y0:
            self.y0 -= 0.5
            self.y1 += 0.5
        self.left = _MARGIN["left"]
        self.top = _MARGIN["top"]
        self.inner_w = SCATTER_WIDTH - self.left - _MARGIN["right"]
        self.inner_h = SCATTER_HEIGHT - self.top - _MARGIN["bottom"]

    def px(self, x):
        return self.left + (x - self.x0) / (self.x1 - self.x0) * self.inner_w

    def py(self, y):
        return self.top + (self.y1 - y) / (self.y1 - self.y0) * self.inner_h

    def decor(self, title: str) -> list[str]:
        right = self.left + self.inner_w
        bottom = self.top + self.inner_h
        parts = [
            f'<rect x="{self.left}" y="{self.top}" width="{self.inner_w}" '
            f'height="{self.inner_h}" fill="none" stroke="#333"/>',
            f'<text x="{self.left}" y="{bottom + 16}" font-size="10" '
            f'fill="#333">{_tick(self.x0)}</text>',
            f'<text x="{right}" y="{bottom + 16}" font-size="10" fill="#333" '
            f'text-anchor="end">{_tick(self.x1)}</text>',
            f'<text x="{self.left - 4}" y="{bottom}" font-size="10" fill="#333" '
            f'text-anchor="end">{_tick(self.y0)}</text>',
            f'<text x="{self.left - 4}" y="{self.top + 10}" font-size="10" '
            f'fill="#333" text-anchor="end">{_tick(self.y1)}</text>',
        ]
        if title:
            parts.append(
                f'<text x="{SCATTER_WIDTH // 2}" y="18" font-size="13" '
                f'fill="#111" text-anchor="middle">{escape(title)}</text>')
        return parts


def _svg_open(width: int, height: int) -> str:
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')


def _write_svg(path, lines: list[str], circles: Sequence = (),
               tail: Sequence[str] = ()) -> Path:
    """Write each line, one row per point of the ``circles`` row template,
    then each line of ``tail``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("".join(line + "\n" for line in lines))
        if circles:
            write_rows(fp, circles)
        fp.write("".join(line + "\n" for line in tail))
    return path


def render_scatter(spec: ScatterSpec, path) -> Path:
    """Sampled point scatter; axes linear in original-ID space."""
    idx = reservoir_sample_indices(spec.points.t, spec.sample_size, spec.seed)
    xy = spec.points.xy[idx]
    frame = _Frame(xy[:, 0], xy[:, 1])
    lines = [_svg_open(SCATTER_WIDTH, SCATTER_HEIGHT)]
    lines += frame.decor(spec.title)
    lines.append(f'<g fill="{PALETTE[0]}" fill-opacity="0.6">')
    return _write_svg(path, lines, [*_circles(frame, xy), "/>\n"],
                      ["</g>", "</svg>"])


def render_clusters(result: ClusteringResult, points: PointSet,
                    spec: ScatterSpec, path) -> Path:
    """Cluster scatter with one color class per cluster and a cross per centroid."""
    if result.assignment.shape[0] != points.t:
        raise ValueError(
            f"clustering covers {result.assignment.shape[0]} points, "
            f"point set has {points.t}")
    idx = reservoir_sample_indices(points.t, spec.sample_size, spec.seed)
    xy = points.xy[idx]
    labels = result.assignment[idx]
    both_x = np.concatenate([xy[:, 0], result.centroids[:, 0]])
    both_y = np.concatenate([xy[:, 1], result.centroids[:, 1]])
    frame = _Frame(both_x, both_y)

    lines = [_svg_open(SCATTER_WIDTH, SCATTER_HEIGHT)]
    lines += frame.decor(spec.title)
    circles = [*_circles(frame, xy), ' fill="',
               Pick(labels % len(PALETTE), PALETTE), '" fill-opacity="0.6"/>\n']
    tail = []
    for cx, cy in result.centroids.tolist():
        px, py = frame.px(cx), frame.py(cy)
        tail.append(
            f'<path class="centroid" data-x="{cx!r}" data-y="{cy!r}" '
            f'stroke="#111" stroke-width="2" '
            f'd="M {_fmt(px - 7)} {_fmt(py)} L {_fmt(px + 7)} {_fmt(py)} '
            f'M {_fmt(px)} {_fmt(py - 7)} L {_fmt(px)} {_fmt(py + 7)}"/>')
    tail.append("</svg>")
    return _write_svg(path, lines, circles, tail)


def render_topk_bars(left: TopKTable, right: TopKTable,
                     labels: tuple[str, str], path,
                     score_label: str = "score") -> Path:
    """Two side-by-side bar panels sharing one score scale, rank order kept."""
    if not left.rows or not right.rows:
        raise ValueError("both top-k tables must be non-empty")
    top = _MARGIN["top"]
    bottom = BARS_HEIGHT - _MARGIN["bottom"]
    inner_h = bottom - top
    gap = 40
    panel_w = (BARS_WIDTH - _MARGIN["left"] - _MARGIN["right"] - gap) // 2
    peak = max(max(r.score for r in left.rows), max(r.score for r in right.rows))
    if peak <= 0:
        peak = 1.0

    lines = [_svg_open(BARS_WIDTH, BARS_HEIGHT)]
    lines.append(f'<text x="14" y="{top - 8}" font-size="10" '
                 f'fill="#333">{escape(score_label)}</text>')
    for panel, (table, label, color) in enumerate(
            [(left, labels[0], PALETTE[0]), (right, labels[1], PALETTE[1])]):
        x0 = _MARGIN["left"] + panel * (panel_w + gap)
        lines.append(
            f'<text x="{x0 + panel_w // 2}" y="18" font-size="13" fill="#111" '
            f'text-anchor="middle">{escape(label)}</text>')
        lines.append(f'<line x1="{x0}" y1="{bottom}" x2="{x0 + panel_w}" '
                     f'y2="{bottom}" stroke="#333"/>')
        slot = panel_w / len(table.rows)
        bar_w = slot * 0.7
        for rank, row in enumerate(table.rows):
            h = float(row.score) / float(peak) * inner_h
            bx = x0 + rank * slot + (slot - bar_w) / 2
            lines.append(
                f'<rect class="bar" x="{_fmt(bx)}" y="{_fmt(bottom - h)}" '
                f'width="{_fmt(bar_w)}" height="{_fmt(h)}" fill="{color}"/>')
            lines.append(
                f'<text x="{_fmt(bx + bar_w / 2)}" y="{bottom + 12}" '
                f'font-size="7" fill="#333" text-anchor="middle">'
                f'{row.node_id}</text>')
    lines.append("</svg>")
    return _write_svg(path, lines)


def write_points_csv(fp: IO[str], xy: np.ndarray) -> None:
    fp.write("x,y\n")
    write_rows(fp, [Floats(xy[:, 0]), ",", Floats(xy[:, 1]), "\n"])
