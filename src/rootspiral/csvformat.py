"""Text formatted in numpy, byte-equal to CPython's "%d", "%.17e" and "%.4f".

Two formatters share the layout: CSV rows of the spiral table (csv_text)
and the fixed 4-decimal coordinates of the SVG figures (fixed4_strings).
The values are laid out in a uint8 byte matrix, one row of cells each, with
NUL in unused bytes; dropping the NULs gives the text. Each number is
printed from an exactly rounded integer, and the rare value that cannot be
printed exactly this way goes to CPython's formatter, one at a time.
"""

from __future__ import annotations

import numpy as np

#: One CSV row by CPython's formatter: the fallback of csv_text.
_CSV_ROW = "%d,%.17e,%.17e,%d,%.17e,%.17e\n".__mod__

#: 10**s as an unevaluated sum hi + lo of doubles, for s = 0 .. 119: hi is
#: 10**s rounded, lo the rounded remainder. lo is 0 for s <= 22, where 10**s
#: is a double, and exact up to s = 45, where the remainder fits 53 bits.
_POW10_HI = np.array([float(10**s) for s in range(120)])
_POW10_LO = np.array([float(10**s - int(h)) for s, h in enumerate(_POW10_HI.tolist())])

#: Fallback margin around a rounding tie, by s. The scaled value's fraction
#: has no error where lo is 0; elsewhere its error is below 2**-44.
_TIE_MARGIN = np.where(_POW10_LO == 0.0, 0.0, 2.0**-30)

_FLOAT_CELL = 24  # "-d.ddddddddddddddddde+XX"
_DIGIT_COLS = [1, *range(3, 20)]  # the 18 digits of a float cell


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split x = hi + lo, each half with at most 26 significant bits."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _scale(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**s as p + t: p the rounded product, t the rest (Dekker 1971)."""
    h, l = _POW10_HI[s], _POW10_LO[s]
    p = a * h
    ah, al = _split(a)
    hh, hl = _split(h)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # exactly a * h - p
    return p, err + a * l


def _float_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`"%.17e" % v` for each value of a 1-D float64 array, as byte cells.

    Returns a (len(v), 24) uint8 matrix, one value a row, with a NUL byte in
    place of the sign of a positive value, and a mask of the values left to
    the caller's fallback. A value with k = floor(log10|v|) prints the 18
    digits of N = round(|v| * 10**(17 - k)), 10**17 <= N < 10**18, ties to
    even. _scale gives N + frac as p + t; p exceeds 2**53, so it is a whole
    number and N = p + floor(t) before rounding.

    Precondition of the fast path: 1e-99 <= |v| < 1e15, so v is finite and
    nonzero and k a two-digit exponent (the double 1e-99 is above 10**-99).
    Error bound: for s = 17 - k <= 22, 10**s is a double and the Dekker
    product is exact, so frac and its rounding are exact. For s > 22,
    10**s = hi + lo + r with |lo| <= 10**s * 2**-53 and |r| <= 10**s * 2**-106
    (r is 0 up to s = 45). As p < 2**60, |err| <= 2**6 and |a * lo| < 2**7,
    so |t| < 2**8; a * r and the roundings of a * lo and of err + a * lo put
    frac within 2**-46 + 2**-46 + 2**-45 < 2**-44 of the exact fraction.
    The fallback takes every value outside the range, every value whose
    frac is within _TIE_MARGIN = 2**-30 of 1/2 where s > 22, any value whose
    k is still off after one correction of floor(log10), and any that would
    round up to N = 10**18.
    """
    a = np.abs(v)
    ok = (a >= 1e-99) & (a < 1e15)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scale(a, 17 - k)
    # log10 is off by at most one near a power of ten: move k to the decade
    # where 10**17 <= p + t < 10**18 (both bounds are doubles)
    step = ((p > 1e18) | ((p == 1e18) & (t >= 0))).astype(np.int64)
    step -= (p < 1e17) | ((p == 1e17) & (t < 0))
    moved = np.flatnonzero(step)
    if len(moved):
        k[moved] += step[moved]
        p[moved], t[moved] = _scale(a[moved], 17 - k[moved])
        ok[moved] &= (p[moved] < 1e18) & (p[moved] >= 1e17)
    whole = np.floor(t)
    frac = t - whole
    n = np.where(ok, p, 1e17).astype(np.int64) + whole.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & (n % 2 == 1))
    # N = 10**18 would print as 1.00..0e+(k+1); no double in the range rounds so
    ok &= (np.abs(frac - 0.5) >= _TIE_MARGIN[17 - k]) & (n < 10**18)

    cells = np.empty((len(v), _FLOAT_CELL), dtype=np.uint8)
    cells[:, 0] = np.where(v < 0, ord("-"), 0)
    cells[:, 2] = ord(".")
    cells[:, 20] = ord("e")
    cells[:, 21] = np.where(k < 0, ord("-"), ord("+"))
    e = np.abs(k)
    cells[:, 22] = e // 10 + 48
    cells[:, 23] = e % 10 + 48
    head = n // 10**9
    # 9 digits from each half: uint32 division is much faster than int64's
    for half, cols in ((n - head * 10**9, _DIGIT_COLS[9:]), (head, _DIGIT_COLS[:9])):
        rest = half.astype(np.uint32)
        for col in reversed(cols):
            q = rest // np.uint32(10)
            cells[:, col] = rest - q * np.uint32(10) + 48
            rest = q
    return cells, ~ok


def _int_cells(v: np.ndarray) -> np.ndarray:
    """Non-negative integers as right-aligned digit cells, leading zeros NUL."""
    width = len(str(int(v.max())))
    cells = np.empty((len(v), width), dtype=np.uint8)
    rest = v
    for col in range(width - 1, -1, -1):
        q = rest // 10
        cells[:, col] = rest - q * 10 + 48
        rest = q
    for col in range(width - 1):
        cells[v < 10 ** (width - 1 - col), col] = 0
    return cells


def _text(cells: np.ndarray) -> str:
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def csv_text(n, radius, theta, winding, x, y) -> str:
    """CSV rows of the given column arrays, byte-equal to _CSV_ROW on each row.

    n and winding hold non-negative integers. The rows are laid out in a
    uint8 matrix, one row of cells per CSV row, with NUL in unused bytes;
    dropping the NULs gives the text. A row with a value that _float_cells
    leaves to the fallback is formatted by _CSV_ROW alone and spliced in at
    its place.
    """
    floats = np.stack([radius, theta, x, y], axis=1)
    cells, fallback = _float_cells(floats.ravel())
    cells = cells.reshape(len(n), 4, _FLOAT_CELL)
    comma = np.broadcast_to(np.uint8(ord(",")), (len(n), 1))
    out = np.concatenate([
        _int_cells(n), comma, cells[:, 0], comma, cells[:, 1], comma,
        _int_cells(winding), comma, cells[:, 2], comma, cells[:, 3],
        np.broadcast_to(np.uint8(ord("\n")), (len(n), 1)),
    ], axis=1)
    columns = (n, radius, theta, winding, x, y)
    parts, start = [], 0
    for i in np.flatnonzero(fallback.reshape(len(n), 4).any(axis=1)).tolist():
        parts += [_text(out[start:i]), _CSV_ROW(tuple(col[i].item() for col in columns))]
        start = i + 1
    parts.append(_text(out[start:]))
    return "".join(parts)


def _fmt(value: float) -> str:
    """Fixed 4-decimal coordinate formatting; avoids '-0.0000'."""
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _fixed4_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_fmt of each value of a 1-D float64 array, as byte cells.

    Returns a uint8 matrix, one value a row: a sign cell, the integer digits
    right-aligned with leading zeros NUL, ".", and 4 decimals; and a mask of
    the values left to the caller's fallback. A value prints the digits of
    N = round(|v| * 10**4), ties to even, and a "-" only where v < 0 and
    N > 0, so -0.00004 prints "0.0000" as _fmt does.

    _scale gives |v| * 10**4 exactly as p + t: 10**4 is a double, so the
    Dekker product is exact. Where |v| * 10**4 < 2**52, ulp(p) <= 1/2, so
    p's fraction f is exact and |t| <= ulp(p) / 2: f < 1/2 rounds down,
    f > 1/2 up, and at f = 1/2 the sign of t decides, with t = 0 a true
    tie. NaN, +-inf and |v| >= 2**52 / 10**4 (12 integer digits) are left
    to the fallback.
    """
    a = np.abs(v)
    # False for NaN. The double 2**52 / 1e4 is rounded up, but no double lies
    # between it and the exact bound, so every a below it is below 2**52 / 10**4.
    ok = a < 2.0**52 / 1e4
    a = np.where(ok, a, 0.0)  # the fallback's rows print 0.0000
    p, t = _scale(a, 4)
    whole = np.floor(p)
    frac = p - whole
    n = whole.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & ((t > 0) | ((t == 0) & (n % 2 == 1))))
    return np.concatenate([
        np.where((v < 0) & (n > 0), ord("-"), 0).astype(np.uint8)[:, None],
        _int_cells(n // 10**4),
        np.broadcast_to(np.uint8(ord(".")), (len(v), 1)),
        _int_cells(n % 10**4 + 10**4)[:, 1:],  # 4 decimals, zeros kept
    ], axis=1), ~ok


def fixed4_strings(v: np.ndarray) -> list[str]:
    """[_fmt(x) for x in v] for a 1-D float64 array, formatted by _fixed4_cells.

    A value that _fixed4_cells leaves to the fallback is formatted by _fmt.
    """
    cells, fallback = _fixed4_cells(v)
    newline = np.broadcast_to(np.uint8(ord("\n")), (len(v), 1))
    out = _text(np.concatenate([cells, newline], axis=1)).split("\n")[:-1]
    for i in np.flatnonzero(fallback).tolist():
        out[i] = _fmt(v[i].item())
    return out
