"""SNAP edge-list ingestion: parsing, dataset summaries, graph construction.

SNAP road-network files are plain text: ``#`` comment lines, then one
``<from><TAB><to>`` pair per line.  Mirrors vary in their whitespace, so any
run of spaces/tabs is accepted as the separator.  Each undirected road
segment is stored as two directed lines; the published node/edge counts for
these datasets refer to the deduplicated undirected view.

The accepted format is defined by the per-line scanner ``iter_edge_lines``
(``str.strip``/``split`` per line, two tokens of ASCII digits).  Bulk
parsing goes through ``iter_edge_blocks``.  It reads a binary stream
``BLOCK_BYTES`` at a time, cut after the last newline, and parses each piece
in numpy if all its lines keep to a strict grammar: ``\\r`` only in
``\\r\\n``, comments (first byte other than space/tab is ``#``), and lines of
ASCII digits, spaces and tabs with no token or two tokens of at most 18
digits.  Else the scanner scans the piece, split as a text stream splits it.
A text stream or a list of lines goes to the scanner whole.  So rows,
ParseErrors (line number, text, reason) and the rows yielded before an
error are the scanner's.
"""

from __future__ import annotations

import io
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from ._text import Ints, write_rows
from .graph import (Graph, arc_keys, csr_from_keys, sorted_distinct,
                    split_keys)

BLOCK_LINES = 4096  # rows per block of scanned lines
BLOCK_BYTES = 3 << 14  # bytes per binary read; larger reads raise peak RSS
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
_DATA_BYTES = b"0123456789 \t\r\n"  # the bytes of strict data lines


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


def _is_binary(reader) -> bool:
    return (isinstance(reader, (io.RawIOBase, io.BufferedIOBase))
            or "b" in getattr(reader, "mode", ""))


@contextmanager
def _as_text(reader) -> Iterator[IO[str]]:
    """``reader`` as a text stream.  A wrapper made here for a binary stream
    decodes bytes that are not UTF-8 to lone surrogates, so the scanner
    reports their line, and is detached when reading ends, so the caller's
    stream stays open."""
    if not _is_binary(reader):
        yield reader
        return
    text = io.TextIOWrapper(reader, encoding="utf-8",
                            errors="surrogateescape")
    try:
        yield text
    finally:
        if not reader.closed:  # a closed stream cannot be detached from
            text.detach()


def iter_edge_lines(reader, source_name: str = "<stream>", first_line=1):
    """Yield (line_number, from_id, to_id) for every data line, the lines
    of ``reader`` numbered from ``first_line``.

    Comments (leading ``#``) and blank lines are skipped.  A data line is
    two tokens of ASCII digits (a leading ``-`` is reported as negative).
    Malformed lines raise ParseError; I/O and decode failures propagate with
    the source name attached.  This per-line scanner defines the accepted
    format: ``iter_edge_blocks`` scans with it all but strict binary pieces,
    and is tested against it.
    """
    with _as_text(reader) as text:
        try:
            for line_number, raw in enumerate(text, start=first_line):
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
                if "-" in (parts[0][0], parts[1][0]):  # also refuses -0
                    raise ParseError(source_name, line_number, line,
                                     "negative node identifier")
                if u >= _ID_LIMIT or v >= _ID_LIMIT:
                    raise ParseError(source_name, line_number, line,
                                     "node identifier out of range")
                yield line_number, u, v
        except (OSError, UnicodeDecodeError) as exc:
            raise _read_failure(exc, source_name) from exc


def _read_failure(exc: Exception, source_name: str) -> Exception:
    """An OSError, or a ValueError for bytes a text stream cannot decode."""
    kind = ValueError if isinstance(exc, UnicodeDecodeError) else OSError
    return kind(f"while reading {source_name}: {exc}")


def _strict_pairs(data: bytes) -> np.ndarray | None:
    """The data lines of ``data`` (whole lines) as an (n, 2) int64 array, or
    None if a line is outside the strict grammar (see the module docstring)."""
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None  # a lone "\r" ends a line
    if b"#" in data:  # split only the lines up to the last "#"
        end = data.find(b"\n", data.rfind(b"#")) + 1 or len(data)
        data = b"".join([s for s in data[:end].splitlines(keepends=True)
                         if not s.lstrip(b" \t").startswith(b"#")]
                        + [data[end:]])
    if not data.endswith(b"\n"):  # the last line of the input
        data += b"\n"
    if data.translate(None, _DATA_BYTES):  # a byte outside them
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    # Digits are the only allowed bytes >= "0"; runs alternate start/end.
    bounds = np.flatnonzero(np.diff(buf >= ord("0"), prepend=False))
    starts, ends = bounds[0::2], bounds[1::2]
    tokens_per_line = np.diff(np.searchsorted(starts, newlines), prepend=0)
    width = (ends - starts).max(initial=0)
    if (np.any((tokens_per_line != 0) & (tokens_per_line != 2))
            or width > _MAX_DIGITS):
        return None
    del newlines, tokens_per_line
    values = np.zeros(starts.size, dtype=np.int64)
    at = ends - width  # each token read right-aligned in `width` digits
    for _ in range(width):
        digit = buf[at] - np.uint8(ord("0"))
        digit[at < starts] = 0  # a leading zero
        values *= 10
        values += digit
        at += 1
    return values.reshape(-1, 2)


def _scanned_blocks(scan):
    """Yield the rows of ``scan``, an ``iter_edge_lines`` generator, as
    (from_ids, to_ids) blocks of up to ``BLOCK_LINES`` rows; on a failure,
    the rows before it, then the scanner's own exception."""
    rows: list[tuple[int, int]] = []
    try:
        for _, u, v in scan:
            rows.append((u, v))
            if len(rows) == BLOCK_LINES:
                yield _columns(rows)
                rows = []
    except (OSError, ValueError):
        if rows:
            yield _columns(rows)
        raise
    if rows:
        yield _columns(rows)


def _columns(pairs) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T)


def _byte_pieces(reader) -> Iterator[bytes]:
    """Yield a piece per ``BLOCK_BYTES`` read (``read1`` gives a pipe's data
    as it arrives): the bytes held and read up to the last ``\\n``."""
    read = getattr(reader, "read1", reader.read)
    held: list[bytes] = []  # the bytes read since the last "\n"
    while data := read(BLOCK_BYTES):
        if cut := data.rfind(b"\n") + 1:
            yield b"".join([*held, memoryview(data)[:cut]])
            held = []
        held.append(data[cut:])
    yield b"".join(held)


def iter_edge_blocks(reader, source_name: str = "<stream>"
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (from_ids, to_ids) int64 arrays of the data lines, in file order:
    a binary stream parsed a piece at a time (see the module docstring), any
    other input in blocks of the rows ``iter_edge_lines`` scans from it.

    Accepts, rejects and reports exactly as ``iter_edge_lines``: the same
    rows, the same ParseError (line number, text, reason) after the same
    rows, and I/O and decode failures with the source name attached after
    the rows of the whole lines read before them.
    """
    if not _is_binary(reader):
        yield from _scanned_blocks(iter_edge_lines(reader, source_name))
        return
    first_line = 1
    try:
        for data in _byte_pieces(reader):
            pairs = _strict_pairs(data)
            if pairs is None:  # scanned as a binary stream (_as_text)
                yield from _scanned_blocks(
                    iter_edge_lines(io.BytesIO(data), source_name, first_line))
            elif len(pairs):
                yield _columns(pairs)
            # bytes.splitlines ends lines where the text reader does
            first_line += (len(data.splitlines()) if pairs is None
                           else data.count(b"\n"))
    except OSError as exc:
        raise _read_failure(exc, source_name) from exc


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
    """Map node IDs to dense indices 0, 1, ... given out batch by batch and
    in ID order within a batch, so an ID keeps its first index and one batch
    is numbered as ``np.unique`` would number it.

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
        self.table = np.zeros(0, dtype=np.int64)
        self.sorted_ids = self.sorted_index = None

    def add(self, f: np.ndarray, t: np.ndarray):
        """Index the endpoints of the arcs f -> t.  Returns the IDs first
        indexed by this batch, in index order, and f and t as indices."""
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
        self.n += fresh.size
        return fresh, src, dst

    def _add_direct(self, f, t, top: int, limit: int):
        if top >= self.table.size:
            size = min(max(top + 1, 2 * self.table.size), limit)
            self.table = np.pad(self.table, (0, size - self.table.size),
                                constant_values=-1)
        if self.n == 0:
            seen = np.zeros(self.table.size, dtype=bool)
            seen[f] = True
            seen[t] = True
            fresh = np.flatnonzero(seen)
            self.table[fresh] = np.arange(fresh.size)
            return self.table[f], self.table[t], fresh
        ends = np.concatenate([f, t])
        index = self.table[ends]
        new = index < 0
        fresh = sorted_distinct(ends[new])
        if fresh.size:
            self.table[fresh] = np.arange(self.n, self.n + fresh.size)
            index[new] = self.table[ends[new]]
        return index[:f.size], index[f.size:], fresh

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
    keys = arc_keys(np.minimum(src, dst), 0, n)
    keys |= np.maximum(src, dst)
    keys = keys[src != dst]
    return sorted_distinct(keys)


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
    as the dense endpoints of each arc in file order.
    Undirected view: symmetrized simple graph (self-loops dropped, parallel
    edges merged).  Original IDs map to dense 0..n-1 in ascending ID order.
    """
    ids, src, dst = NodeIndex().add(edges.from_ids, edges.to_ids)
    n = ids.size
    keys = pair_keys(src, dst, n)
    # the reverse arc hi -> lo of every pair; holding the decoded halves past
    # arc_keys would add 20% to the peak of build_graph
    keys = np.concatenate([keys, arc_keys(*split_keys(keys)[::-1], n)])
    return Graph(n, *csr_from_keys(n, keys), sources=src, targets=dst,
                 id_map=ids)
