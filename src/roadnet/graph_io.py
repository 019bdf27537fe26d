"""SNAP edge-list ingestion: parsing, dataset summaries, graph construction.

SNAP road-network files are plain text: ``#`` comment lines, then one
``<from><TAB><to>`` pair per line.  Mirrors vary in their whitespace, so any
run of spaces/tabs is accepted as the separator.  Each undirected road
segment is stored as two directed lines; the published node/edge counts for
these datasets refer to the deduplicated undirected view.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .graph import Graph, csr_from_arcs


class EdgeRecord(NamedTuple):
    from_id: int
    to_id: int


class ParseError(ValueError):
    """Malformed data line, with 1-based line number and the offending text."""

    def __init__(self, source_name: str, line_number: int, text: str, reason: str):
        self.source_name = source_name
        self.line_number = line_number
        self.text = text
        self.reason = reason
        super().__init__(
            f"{source_name}:{line_number}: {reason}: {text!r}")


@dataclass
class EdgeList:
    """Raw directed edge records in file order.

    Bulk access goes through the ``from_ids``/``to_ids`` int64 arrays;
    ``records`` materializes EdgeRecord tuples and is meant for small lists.
    """

    from_ids: np.ndarray
    to_ids: np.ndarray
    source_name: str = ""

    @classmethod
    def from_records(cls, records: Iterable[tuple[int, int]],
                     source_name: str = "") -> "EdgeList":
        pairs = list(records)
        f = np.array([p[0] for p in pairs], dtype=np.int64)
        t = np.array([p[1] for p in pairs], dtype=np.int64)
        if pairs and (f.min() < 0 or t.min() < 0):
            raise ValueError("node identifiers must be non-negative")
        return cls(from_ids=f, to_ids=t, source_name=source_name)

    @property
    def line_count(self) -> int:
        return int(self.from_ids.size)

    @property
    def records(self) -> list[EdgeRecord]:
        return list(self)

    def __len__(self) -> int:
        return self.line_count

    def __iter__(self) -> Iterator[EdgeRecord]:
        for u, v in zip(self.from_ids.tolist(), self.to_ids.tolist()):
            yield EdgeRecord(u, v)

    def __getitem__(self, i: int) -> EdgeRecord:
        return EdgeRecord(int(self.from_ids[i]), int(self.to_ids[i]))


@dataclass(frozen=True)
class DatasetSummary:
    node_count: int
    directed_edge_count: int
    undirected_edge_count: int
    self_loop_count: int


def _as_text(reader) -> IO[str]:
    if isinstance(reader, (io.RawIOBase, io.BufferedIOBase)):
        return io.TextIOWrapper(reader, encoding="utf-8")
    if hasattr(reader, "mode") and "b" in getattr(reader, "mode", ""):
        return io.TextIOWrapper(reader, encoding="utf-8")
    return reader


def iter_edge_lines(reader, source_name: str = "<stream>"):
    """Yield (line_number, from_id, to_id) for every data line.

    Comments (leading ``#``) and blank lines are skipped.  Malformed lines
    raise ParseError; I/O failures propagate with the source name attached.
    """
    text = _as_text(reader)
    try:
        for line_number, raw in enumerate(text, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(source_name, line_number, line,
                                 f"expected 2 fields, got {len(parts)}")
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError:
                raise ParseError(source_name, line_number, line,
                                 "non-integer node identifier") from None
            if u < 0 or v < 0:
                raise ParseError(source_name, line_number, line,
                                 "negative node identifier")
            yield line_number, u, v
    except OSError as exc:
        raise OSError(f"while reading {source_name}: {exc}") from exc


def parse_edge_list(reader, source_name: str = "<stream>") -> EdgeList:
    """Parse a SNAP edge-list stream into an EdgeList, file order preserved."""
    froms = array("q")
    tos = array("q")
    for _, u, v in iter_edge_lines(reader, source_name):
        froms.append(u)
        tos.append(v)
    return EdgeList(
        from_ids=np.asarray(froms, dtype=np.int64),
        to_ids=np.asarray(tos, dtype=np.int64),
        source_name=source_name,
    )


def load_edge_list(path) -> EdgeList:
    path = Path(path)
    with open(path, "rb") as fp:
        return parse_edge_list(fp, source_name=str(path))


def write_edge_list(edges: EdgeList, fp: IO[str]) -> None:
    """Write records back in SNAP format; re-parsing yields the same records."""
    for u, v in zip(edges.from_ids.tolist(), edges.to_ids.tolist()):
        fp.write(f"{u}\t{v}\n")


def dense_indices(f: np.ndarray, t: np.ndarray):
    """Sorted distinct IDs of both endpoint arrays, and f, t as indices into them."""
    ids, inverse = np.unique(np.concatenate([f, t]), return_inverse=True)
    return ids, inverse[:f.size], inverse[f.size:]


def pair_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct keys ``lo << 32 | hi`` of the unordered pairs {src, dst},
    src != dst, over int64 indices in 0..n-1."""
    if n > 2**31:
        raise ValueError(f"{n} nodes exceed the 2^31 limit of the pair keys")
    keep = src != dst
    lo, hi = np.minimum(src, dst)[keep], np.maximum(src, dst)[keep]
    return np.unique((lo << 32) | hi)


def split_keys(keys: np.ndarray):
    """Inverse of ``pair_keys``: the (lo, hi) index arrays."""
    return keys >> 32, keys & 0xFFFFFFFF


def summarize(edges: EdgeList) -> DatasetSummary:
    ids, src, dst = dense_indices(edges.from_ids, edges.to_ids)
    return DatasetSummary(
        node_count=ids.size,
        directed_edge_count=src.size,
        undirected_edge_count=pair_keys(src, dst, ids.size).size,
        self_loop_count=int(np.count_nonzero(src == dst)),
    )


def build_graph(edges: EdgeList) -> Graph:
    """Build the immutable two-view graph.

    Directed view: raw arc multiset, duplicates and self-loops preserved.
    Undirected view: symmetrized simple graph (self-loops dropped, parallel
    edges merged).  Original IDs map to dense 0..n-1 in ascending ID order.
    """
    ids, src, dst = dense_indices(edges.from_ids, edges.to_ids)
    n = ids.size
    out_offsets, out_neighbors = csr_from_arcs(n, src, dst)
    in_offsets, in_neighbors = csr_from_arcs(n, dst, src)

    lo, hi = split_keys(pair_keys(src, dst, n))
    undirected_offsets, undirected_neighbors = csr_from_arcs(
        n, np.concatenate([lo, hi]), np.concatenate([hi, lo]))

    return Graph(
        n=n,
        undirected_offsets=undirected_offsets,
        undirected_neighbors=undirected_neighbors,
        out_offsets=out_offsets,
        out_neighbors=out_neighbors,
        in_offsets=in_offsets,
        in_neighbors=in_neighbors,
        id_map=ids,
    )
