"""SNAP edge-list ingestion: parsing, dataset summaries, graph construction.

SNAP road-network files are plain text: ``#`` comment lines, then one
``<from><TAB><to>`` pair per line.  Mirrors vary in their whitespace, so any
run of spaces/tabs is accepted as the separator.  Each undirected road
segment is stored as two directed lines; the published node/edge counts for
these datasets refer to the deduplicated undirected view.

The accepted format is defined by the per-line scanner ``iter_edge_lines``
(``str.strip``/``split`` per line, two tokens of ASCII digits).  Bulk
parsing goes through ``iter_edge_blocks``, which reads ``BLOCK_LINES``
lines at a time from the same line iterator and parses a block in numpy
when every line keeps to a strict grammar: comment lines (first byte other
than space/tab is ``#``), and lines of ASCII digits, spaces and tabs
holding no token or exactly two tokens of at most 18 digits.  Any other
block is rescanned by the scanner from its first line number, so rows,
ParseErrors (line number, text, reason) and the rows yielded before an
error are the scanner's.
"""

from __future__ import annotations

import io
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from ._text import Ints, write_rows
from .graph import (Graph, arc_keys, csr_from_arcs, sorted_distinct,
                    split_keys)

BLOCK_LINES = 4096  # lines per parsed block; larger blocks cost peak RSS
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63, so any such token fits in int64
_ID_LIMIT = 2**63
# IDs below this always take the direct table (see NodeIndex).  Its
# 2^21 int64 entries are 16 MiB.  2^21 exceeds the node count of every SNAP
# road network (roadNet-CA: 1,965,206), whose IDs are near-contiguous from 0,
# and the IDs of bench/gen.py's 1044^2 grid (up to 1,089,935), so these
# streams take the table from their first batch on, when few nodes are seen.
DIRECT_TABLE_FLOOR = 1 << 21
# int() alone would also take "+", "_" and non-ASCII digits
_INTEGER = re.compile(r"-?[0-9]+")
_DATA_BYTES = np.zeros(256, dtype=bool)  # bytes of strict data lines
_DATA_BYTES[list(b"0123456789 \t\n")] = True


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
    ``records`` materializes (from_id, to_id) tuples and is meant for small
    lists.
    """

    from_ids: np.ndarray
    to_ids: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[tuple[int, int]]) -> "EdgeList":
        pairs = list(records)
        f = np.array([p[0] for p in pairs], dtype=np.int64)
        t = np.array([p[1] for p in pairs], dtype=np.int64)
        if pairs and (f.min() < 0 or t.min() < 0):
            raise ValueError("node identifiers must be non-negative")
        return cls(from_ids=f, to_ids=t)

    @property
    def line_count(self) -> int:
        return int(self.from_ids.size)

    @property
    def records(self) -> list[tuple[int, int]]:
        return list(zip(self.from_ids.tolist(), self.to_ids.tolist()))


@dataclass(frozen=True)
class DatasetSummary:
    node_count: int
    directed_edge_count: int
    undirected_edge_count: int
    self_loop_count: int


@contextmanager
def _as_text(reader) -> Iterator[IO[str]]:
    """``reader`` as a text stream.  A wrapper made here for a binary stream
    is detached when reading ends, so the caller's stream stays open."""
    if not (isinstance(reader, (io.RawIOBase, io.BufferedIOBase))
            or "b" in getattr(reader, "mode", "")):
        yield reader
        return
    text = io.TextIOWrapper(reader, encoding="utf-8")
    try:
        yield text
    finally:
        if not reader.closed:  # a closed stream cannot be detached from
            text.detach()


def iter_edge_lines(reader, source_name: str = "<stream>"):
    """Yield (line_number, from_id, to_id) for every data line.

    Comments (leading ``#``) and blank lines are skipped.  A data line is
    two tokens of ASCII digits (a leading ``-`` is reported as negative).
    Malformed lines raise ParseError; I/O failures propagate with the source
    name attached.  This per-line scanner defines the accepted format:
    ``iter_edge_blocks`` falls back to it and is tested against it.
    """
    with _as_text(reader) as text:
        try:
            for line_number, raw in enumerate(text, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ParseError(source_name, line_number, line,
                                     f"expected 2 fields, got {len(parts)}")
                try:  # unpacking fails on a token the pattern refuses
                    u, v = (int(p) for p in parts if _INTEGER.fullmatch(p))
                except ValueError:
                    raise ParseError(source_name, line_number, line,
                                     "non-integer node identifier") from None
                if u < 0 or v < 0:
                    raise ParseError(source_name, line_number, line,
                                     "negative node identifier")
                if u >= _ID_LIMIT or v >= _ID_LIMIT:
                    raise ParseError(source_name, line_number, line,
                                     "node identifier out of range")
                yield line_number, u, v
        except OSError as exc:
            raise OSError(f"while reading {source_name}: {exc}") from exc


def _strict_pairs(lines: list[str]) -> np.ndarray | None:
    """The block's data lines as an (n, 2) int64 array, or None if any line
    is outside the strict grammar (see the module docstring)."""
    text = "".join(lines)
    if "#" in text:
        lines = [s for s in lines if not s.lstrip(" \t").startswith("#")]
        text = "".join(lines)
    if not lines:
        return np.zeros((0, 2), dtype=np.int64)
    if not text.endswith("\n"):  # the last line of the input
        text += "\n"
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if not np.take(_DATA_BYTES, buf).all():
        return None
    newlines = np.flatnonzero(buf == ord("\n"))
    if newlines.size != len(lines):  # a line held a second newline or none
        return None
    # Digits are the only allowed bytes >= "0"; runs alternate start/end.
    bounds = np.flatnonzero(np.diff(buf >= ord("0"), prepend=False))
    starts, ends = bounds[0::2], bounds[1::2]
    widths = ends - starts
    tokens_per_line = np.diff(np.searchsorted(starts, newlines), prepend=0)
    if (np.any((tokens_per_line != 0) & (tokens_per_line != 2))
            or widths.max(initial=0) > _MAX_DIGITS):
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(widths.max(initial=0)):  # k-th digit from the right
        digit = buf[ends - (k + 1)] - np.uint8(ord("0"))
        digit[widths <= k] = 0
        values += digit * np.int64(10**k)
    return values.reshape(-1, 2)


def _block_edges(lines: list[str], first_line: int, source_name: str):
    """Yield the block's rows as one (from_ids, to_ids) pair, if any.

    A block outside the strict grammar is rescanned by ``iter_edge_lines``;
    on a malformed line, the rows before it are yielded and then the
    ParseError is raised, numbered from the block's ``first_line``.
    """
    pairs = _strict_pairs(lines)
    if pairs is None:
        rows: list[tuple[int, int]] = []
        try:  # extend keeps the rows before a raise
            rows.extend((u, v) for _, u, v in iter_edge_lines(lines, source_name))
        except ParseError as err:
            if rows:
                yield _columns(rows)
            raise ParseError(source_name, first_line - 1 + err.line_number,
                             err.text, err.reason) from None
        pairs = rows
    if len(pairs):
        yield _columns(pairs)


def _columns(pairs) -> tuple[np.ndarray, np.ndarray]:
    from_ids, to_ids = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    return from_ids, to_ids


def iter_edge_blocks(reader, source_name: str = "<stream>"
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (from_ids, to_ids) int64 arrays of the data lines, in file order,
    parsed ``BLOCK_LINES`` lines at a time.

    Accepts, rejects and reports exactly as ``iter_edge_lines``: the same
    rows, the same ParseError (line number, text, reason) after the same
    rows, and I/O failures with the source name attached after the rows
    read before them.
    """
    first_line = 1
    with _as_text(reader) as text:
        while True:
            lines: list[str] = []
            failure = None
            try:  # extend keeps the lines read before a failure
                lines.extend(islice(text, BLOCK_LINES))
            except (OSError, ValueError) as exc:  # a read or decode failure
                failure = exc
            yield from _block_edges(lines, first_line, source_name)
            first_line += len(lines)
            if isinstance(failure, OSError):
                raise OSError(f"while reading {source_name}: {failure}"
                              ) from failure
            if failure is not None:
                raise failure
            if len(lines) < BLOCK_LINES:
                return


def concat_blocks(blocks: list) -> EdgeList:
    """One EdgeList of (from_ids, to_ids) blocks, in order."""
    empty = np.zeros(0, dtype=np.int64)
    return EdgeList(from_ids=np.concatenate([empty, *(f for f, _ in blocks)]),
                    to_ids=np.concatenate([empty, *(t for _, t in blocks)]))


def parse_edge_list(reader, source_name: str = "<stream>") -> EdgeList:
    """Parse a SNAP edge-list stream into an EdgeList, file order preserved."""
    return concat_blocks(list(iter_edge_blocks(reader, source_name)))


def load_edge_list(path) -> EdgeList:
    path = Path(path)
    with open(path, "rb") as fp:
        return parse_edge_list(fp, source_name=str(path))


def write_edge_list(edges: EdgeList, fp: IO[str]) -> None:
    """Write records back in SNAP format; re-parsing yields the same records.
    A negative ID, which the parser refuses, raises ValueError."""
    write_rows(fp, [Ints(edges.from_ids), "\t", Ints(edges.to_ids), "\n"])


class NodeIndex:
    """Dense indices 0, 1, ... of node IDs, given out batch by batch and in
    ID order within a batch, so an ID keeps its first index and one batch
    is numbered as ``np.unique`` would number it.  ``ids[:n]`` are the IDs
    of the indices; their capacity doubles when outgrown.

    ``table`` maps IDs to indices (-1 where unseen) while every ID is
    non-negative and below ``max(DIRECT_TABLE_FLOOR, 4 * (n + endpoints))``,
    and grows by doubling to the largest ID seen.  A batch past that bound
    moves the index for good to ``sorted_ids`` and their ``sorted_index``,
    which start with an entry of index -1 and take a sorted insert per
    batch.  On the table, a batch into an empty index marks its IDs in a
    ``bool`` array (a one-batch build), and later batches sort their unseen
    endpoints.
    """

    def __init__(self):
        self.n = 0
        self.ids = self.table = np.zeros(0, dtype=np.int64)
        self.sorted_ids = self.sorted_index = None

    def add(self, f: np.ndarray, t: np.ndarray):
        """Index the endpoints of the arcs f -> t.  Returns the IDs of
        indices 0..n-1, and f and t as indices."""
        lo = min(f.min(initial=0), t.min(initial=0))
        top = int(max(f.max(initial=-1), t.max(initial=-1)))
        limit = max(DIRECT_TABLE_FLOOR, 4 * (self.n + f.size + t.size))
        if self.table is not None and (lo < 0 or top >= limit):
            seen = np.flatnonzero(self.table >= 0)
            self.sorted_ids = np.concatenate([[-1], seen])
            self.sorted_index = np.concatenate([[-1], self.table[seen]])
            self.table = None
        if self.table is None:
            src, dst, fresh = self._add_sorted(f, t)
        else:
            src, dst, fresh = self._add_direct(f, t, top, limit)
        n = self.n + fresh.size
        if self.n == 0:
            self.ids = fresh
        else:
            if n > self.ids.size:
                ids = np.empty(max(n, 2 * self.ids.size), dtype=np.int64)
                ids[:self.n] = self.ids[:self.n]
                self.ids = ids
            self.ids[self.n:n] = fresh
        self.n = n
        return self.ids[:n], src, dst

    def _add_direct(self, f, t, top: int, limit: int):
        if top >= self.table.size:
            size = min(max(top + 1, 2 * self.table.size), limit)
            table = np.full(size, -1, dtype=np.int64)
            table[:self.table.size] = self.table
            self.table = table
        if self.n == 0:
            seen = np.zeros(self.table.size, dtype=bool)
            seen[f] = True
            seen[t] = True
            fresh = np.flatnonzero(seen)
        else:
            ends = np.concatenate([f, t])
            fresh = sorted_distinct(ends[self.table[ends] < 0])
        self.table[fresh] = np.arange(self.n, self.n + fresh.size)
        return self.table[f], self.table[t], fresh

    def _add_sorted(self, f, t):
        batch, inverse = np.unique(np.concatenate([f, t]), return_inverse=True)
        # an unseen ID lands on another ID, or on the entry of index -1
        pos = np.searchsorted(self.sorted_ids, batch, side="right") - 1
        index = self.sorted_index[pos]
        index[self.sorted_ids[pos] != batch] = -1
        new = index < 0
        index[new] = np.arange(self.n, self.n + np.count_nonzero(new))
        self.sorted_ids = np.insert(self.sorted_ids, pos[new] + 1, batch[new])
        self.sorted_index = np.insert(self.sorted_index, pos[new] + 1,
                                      index[new])
        return index[inverse[:f.size]], index[inverse[f.size:]], batch[new]


def pair_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct keys ``lo << 32 | hi`` of the unordered pairs {src, dst},
    src != dst, over int64 indices in 0..n-1; ``split_keys`` decodes them."""
    keep = src != dst
    lo, hi = np.minimum(src, dst)[keep], np.maximum(src, dst)[keep]
    return sorted_distinct(arc_keys(lo, hi, n))


def summarize(edges: EdgeList) -> DatasetSummary:
    ids, src, dst = NodeIndex().add(edges.from_ids, edges.to_ids)
    return DatasetSummary(
        node_count=ids.size,
        directed_edge_count=src.size,
        undirected_edge_count=pair_keys(src, dst, ids.size).size,
        self_loop_count=int(np.count_nonzero(src == dst)),
    )


def build_graph(edges: EdgeList) -> Graph:
    """Build the immutable two-view graph.

    Directed view: raw arc multiset, duplicates and self-loops preserved,
    as the in-arc CSR plus the out-degree counts.
    Undirected view: symmetrized simple graph (self-loops dropped, parallel
    edges merged).  Original IDs map to dense 0..n-1 in ascending ID order.
    """
    ids, src, dst = NodeIndex().add(edges.from_ids, edges.to_ids)
    n = ids.size
    in_offsets, in_neighbors = csr_from_arcs(n, dst, src)

    lo, hi = split_keys(pair_keys(src, dst, n))
    undirected_offsets, undirected_neighbors = csr_from_arcs(
        n, np.concatenate([lo, hi]), np.concatenate([hi, lo]))

    return Graph(
        n=n,
        undirected_offsets=undirected_offsets,
        undirected_neighbors=undirected_neighbors,
        in_offsets=in_offsets,
        in_neighbors=in_neighbors,
        outdegrees=np.bincount(src, minlength=n),
        id_map=ids,
    )
