"""Text rows built in numpy: bulk CSVs, SVG circles and SNAP edge lists.

A row template is a sequence of parts, each one field of every row:

- ``str``: literal text, the same in every row;
- ``Ints``: non-negative integers in decimal;
- ``Floats``: floats as ``repr`` writes them;
- ``Fixed2``: floats in [0, 1e7) as ``f"{v:.2f}"`` writes them (see
  ``cents``), as SVG pixel coordinates are;
- ``Pick``: per row, one string of a table of equal-width strings.

``write_rows`` writes ``CHUNK_ROWS`` rows at a time.  Each part fills a
fixed range of columns in one ``uint8`` matrix per chunk, with 0 bytes in
front of a number shorter than its column; dropping every 0 byte leaves
the chunk's text.  So no text may contain a NUL, and beyond the columns
passed in, memory is bounded by the chunk, not the row count.

``Floats`` takes one of three paths per chunk, all giving ``repr``'s bytes:

1. every value integer-valued in [0, 1e16): its integer digits and ".0";
2. every value a positive normal double (2**-1022 <= v < inf), as
   PageRank scores are: the shortest round-trip digits by Schubfach
   (R. Giulietti, "The Schubfach way to render doubles", 2020, the
   algorithm of Java's ``Double.toString``), laid out as ``repr`` does,
   in fixed notation for decimal exponents -4..15 and scientific
   notation otherwise;
3. any other chunk, one holding 0.0, -0.0, a negative, a subnormal, inf
   or nan: ``repr`` itself.
"""

from __future__ import annotations

from typing import IO, NamedTuple, Sequence

import numpy as np

CHUNK_ROWS = 1 << 14
_DOT0 = np.frombuffer(b".0", dtype=np.uint8)
_DOT = np.frombuffer(b".", dtype=np.uint8)
_POW10 = 10 ** np.arange(19, dtype=np.int64)


class Ints(NamedTuple):
    values: np.ndarray


class Floats(NamedTuple):
    values: np.ndarray


class Fixed2(NamedTuple):
    values: np.ndarray


class Pick(NamedTuple):
    index: np.ndarray
    table: tuple[str, ...]


def write_rows(fp: IO[str],
               parts: Sequence[str | Ints | Floats | Fixed2 | Pick]) -> None:
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
        return [_digits(np.asarray(part.values[a:b], dtype=np.int64), 1)]
    if isinstance(part, Fixed2):
        c = cents(part.values[a:b])
        return [_digits(c // 100, 1), _DOT, _digits(c % 100, 2)]
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
    if ((v >= _TINY) & (v < np.inf)).all():
        return _repr_layout(*_shortest(v))
    text = np.array(list(map(repr, v.tolist())), dtype=np.bytes_)
    return [text.view(np.uint8).reshape(v.size, -1)]


def _digits(v: np.ndarray, width) -> np.ndarray:
    """ASCII decimal digits of each v, right-aligned in an (n, d) matrix,
    zero-padded to ``width`` digits and 0 bytes in front of that.  ``width``
    is one int or one per row; a 0 padded to 0 digits is empty."""
    if v.min() < 0:
        raise ValueError("text columns take non-negative integers only")
    d = max(int(np.max(width)), len(str(int(v.max()))))
    out = np.empty((d, v.size), dtype=np.uint8)  # contiguous per place
    rest = v
    for j in range(d - 1, -1, -1):
        q = rest // 10
        np.subtract(rest, q * 10, out=out[j], casting="unsafe")
        rest = q
    out += ord("0")
    for p in range(int(np.min(width)), d):
        shown = width > p
        if p < 19:  # every int64 is below 10**19
            shown = shown | (v >= 10 ** p)
        out[d - 1 - p] *= shown
    return out.T


# Schubfach, after its Java implementation (names as there): v = c 2**q
# reads back from every decimal in the rounding interval Rv with ends
# (4c - 2) 2**(q-2), or (4c - 1) 2**(q-2) at irregular spacing, and
# (4c + 2) 2**(q-2).  Every 128-bit step runs in uint64 with np.uint64
# scalars, since mixing uint64 and int64 arrays promotes to float64.
_U = np.uint64
_TINY = np.finfo(np.float64).tiny  # 2**-1022, the least positive normal
_C_MIN = 1 << 52
_LOW32, _LOW63 = _U(2**32 - 1), _U(2**63 - 1)


def _mulhi(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]):
    """High 64 bits of the 128-bit products of two uint64 arrays given as
    (low, high) 32-bit halves."""
    a0, a1 = a
    b0, b1 = b
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) 32-bit halves of a uint64 array."""
    return x & _LOW32, x >> _U(32)


def _rop(g1, g0, g1x: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """g cp / 2**127 rounded to odd, g = g1x 2**63 + g0, with g1 and g0 in
    32-bit halves."""
    cph = _halves(cp)
    z = ((g1x * cp) >> _U(1)) + _mulhi(g0, cph)
    return (_mulhi(g1, cph) + (z >> _U(63))) \
        | (((z & _LOW63) + _LOW63) >> _U(63))


def _g(k0: int, k1: int) -> np.ndarray:
    """g = floor(10**-k 2**-r) + 1 for k0 <= k <= k1, with r chosen so that
    2**125 <= g < 2**126, as uint64 rows g >> 63 and g mod 2**63."""
    gs = []
    for k in range(k0, k1 + 1):
        r = ((-k * 913124641741) >> 38) - 125  # floor(log2(10**-k)) - 125
        num = 10 ** max(-k, 0) << max(-r, 0)
        gs.append(num // (10 ** max(k, 0) << max(r, 0)) + 1)
    return np.array([[g >> 63 for g in gs], [g & (2**63 - 1) for g in gs]],
                    dtype=_U)


def _shortest(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with f 10**e the shortest decimal that reads back as v, the
    nearest such with ties to even f, and no trailing zero in f."""
    bits = v.view(_U)
    c = (bits & _U(_C_MIN - 1)) | _U(_C_MIN)
    q = (bits >> _U(52)).astype(np.int64) - 1075
    # at c = 2**52 the next double down is half as near as the next one up;
    # the least normal is no exception here, as its digits come out the same
    regular = c != _U(_C_MIN)
    # k = floor(log10(2**q)), or floor(log10(3/4 2**q)) at irregular spacing,
    # and h = q + floor(log2(10**-k)) + 2, in 1..4, by fixed-point logarithms
    k = (q * 661971961083 - np.where(regular, 0, 274743187321)) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U)
    k0 = int(k.min())
    g1x, g0 = _g(k0, int(k.max()))[:, k - k0]
    g1, g0 = _halves(g1x), _halves(g0)
    cb = c << _U(2)
    vb = _rop(g1, g0, g1x, cb << h)
    vbl = _rop(g1, g0, g1x, (cb - np.where(regular, _U(2), _U(1))) << h)
    vbr = _rop(g1, g0, g1x, (cb + _U(2)) << h)
    out = c & _U(1)  # Rv is closed when c is even
    lo, hi = vbl + out, vbr - out
    s = vb >> _U(2)
    # one digit fewer: sp10 or tp10 if exactly one lies in Rv
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin, wpin = lo <= sp10 << _U(2), tp10 << _U(2) <= hi
    t = s + _U(1)
    uin, win = lo <= s << _U(2), t << _U(2) <= hi
    st = (s + t) << _U(1)
    nearer = np.where((vb < st) | ((vb == st) & (s & _U(1) == _U(0))), s, t)
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, t), nearer))
    f = f.astype(np.int64)
    e = k
    rows = np.flatnonzero(f // 10 * 10 == f)
    while rows.size:
        f[rows] //= 10
        e[rows] += 1
        rows = rows[f[rows] // 10 * 10 == f[rows]]
    return f, e


def _repr_layout(f: np.ndarray, e: np.ndarray) -> list[np.ndarray]:
    """repr's text of each f 10**e: integer part, point, fraction and
    exponent columns."""
    n = np.searchsorted(_POW10, f, side="right")  # digits in f
    x = e + n - 1  # exponent of the leading digit
    sci = (x < -4) | (x >= 16)
    # digits after the point; below 0, an integral value's zeros before ".0"
    after = np.where(sci, n - 1, -e)
    div = _POW10[np.clip(after, 0, 18)]
    whole = f // div
    frac = f - whole * div
    whole *= _POW10[np.maximum(-after, 0)]
    point = np.where(sci & (n == 1), 0, ord(".")).astype(np.uint8)
    cols = [_digits(whole, 1), point[:, None],
            _digits(frac, np.where(sci, after, np.maximum(after, 1)))]
    if sci.any():
        lo, hi = int(x[sci].min()), int(x[sci].max())
        table = b"\0" * 5 + b"".join((b"e%+03d" % i).ljust(5, b"\0")
                                     for i in range(lo, hi + 1))
        exps = np.frombuffer(table, dtype=np.uint8).reshape(-1, 5)
        cols.append(exps[np.where(sci, x - lo + 1, 0)])
    return cols


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
