"""Text rows built in numpy: bulk CSVs, SVG circles and SNAP edge lists.

A row template is a sequence of parts, each one field of every row:

- ``str``: literal text, the same in every row;
- ``Ints``: non-negative integers in decimal, zero-padded to ``width``;
- ``Floats``: floats as ``repr`` writes them;
- ``Pick``: per row, one string of a table of equal-width strings.

``write_rows`` writes ``CHUNK_ROWS`` rows at a time.  Each part fills a
fixed range of columns in one ``uint8`` matrix per chunk, with 0 bytes in
front of a number shorter than its column; dropping every 0 byte leaves
the chunk's text.  So no text may contain a NUL, and memory is bounded by
the chunk, not the row count.
"""

from __future__ import annotations

from typing import IO, NamedTuple, Sequence

import numpy as np

CHUNK_ROWS = 1 << 14
_DOT0 = np.frombuffer(b".0", dtype=np.uint8)


class Ints(NamedTuple):
    values: np.ndarray
    width: int = 1


class Floats(NamedTuple):
    values: np.ndarray


class Pick(NamedTuple):
    index: np.ndarray
    table: tuple[str, ...]


def write_rows(fp: IO[str], parts: Sequence[str | Ints | Floats | Pick]) -> None:
    """Write one row per element of the template's columns, which must all
    have the same length."""
    sizes = {len(p[0]) for p in parts if not isinstance(p, str)}
    if len(sizes) != 1:
        raise ValueError(f"row template columns differ in length: {sorted(sizes)}")
    t = sizes.pop()
    for a in range(0, t, CHUNK_ROWS):
        b = min(a + CHUNK_ROWS, t)
        mat = np.concatenate([np.broadcast_to(f, (b - a, f.shape[-1]))
                              for p in parts for f in _fields(p, a, b)], axis=1)
        fp.write(mat[mat != 0].tobytes().decode())


def _fields(part, a: int, b: int) -> list[np.ndarray]:
    """Byte columns of one part over rows a..b: (n, w) or, for literal
    text, (w,) broadcast to every row."""
    if isinstance(part, str):
        return [np.frombuffer(part.encode(), dtype=np.uint8)]
    if isinstance(part, Ints):
        return [_digits(np.asarray(part.values[a:b], dtype=np.int64), part.width)]
    if isinstance(part, Pick):
        table = [s.encode() for s in part.table]
        if len({len(s) for s in table}) != 1:
            raise ValueError("pick table strings differ in width")
        rows = np.frombuffer(b"".join(table), dtype=np.uint8).reshape(len(table), -1)
        return [rows[part.index[a:b]]]
    v = part.values[a:b]
    # repr writes an integer-valued float below 1e16 as "<int>.0"; at 1e16
    # and above it switches to an exponent
    if ((v >= 0) & (v < 1e16) & (v == np.floor(v))).all() \
            and not np.signbit(v).any():
        return [_digits(v.astype(np.int64), 1), _DOT0]
    text = np.array(list(map(repr, v.tolist())), dtype=np.bytes_)
    return [text.view(np.uint8).reshape(v.size, -1)]


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """ASCII decimal digits of each v, right-aligned in an (n, d) matrix,
    zero-padded to ``width`` digits and 0 bytes in front of that."""
    if v.min() < 0:
        raise ValueError("text columns take non-negative integers only")
    d = max(width, len(str(int(v.max()))))
    out = np.empty((v.size, d), dtype=np.uint8)
    rest = v
    for j in range(d - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        out[:, j] = digit
    out += ord("0")
    for j in range(d - width):  # place d-1-j holds no digit where v < 10**place
        np.copyto(out[:, j], 0, where=v < 10 ** (d - 1 - j))
    return out


def cents(v: np.ndarray) -> np.ndarray:
    """Integer hundredths of ``f"{x:.2f}"`` for each x in v, 0 <= x < 1e7.

    ``rint(x * 100)`` agrees with Python's formatting except where x * 100
    lies within rounding error of a half; those values take their digits
    from ``f"{x:.2f}"`` itself, which rounds the exact binary value half to
    even.
    """
    v = np.asarray(v, dtype=np.float64)
    if not ((v >= 0) & (v < 1e7)).all():
        raise ValueError("fixed-point text takes values in [0, 1e7) only")
    scaled = v * 100
    out = np.rint(scaled).astype(np.int64)
    ties = np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6)
    out[ties] = [int(f"{x:.2f}".replace(".", "")) for x in v[ties].tolist()]
    return out
