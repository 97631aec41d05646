"""CSV rows of the spiral table formatted in numpy, byte-equal to CPython's "%d" and "%.17e".

The rows are laid out in a uint8 byte matrix, one row of cells each, with
NUL in unused bytes; dropping the NULs gives the text. Each number is
printed from an exactly rounded integer, and the rare value that cannot be
printed exactly this way goes to CPython's formatter, one row at a time.

A "%.17e" cell is 24 bytes, written as six little-endian uint32 words
looked up in three tables built at import: the sign, first digit, "." and
second digit (_HEAD), four groups of four digits (_DIGITS4), and "e+XX"
(_EXPONENT).
"""

from __future__ import annotations

import numpy as np

#: One CSV row by CPython's formatter: the fallback of csv_text.
_CSV_ROW = "%d,%.17e,%.17e,%d,%.17e,%.17e\n".__mod__


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split x = hi + lo, each half with at most 26 significant bits."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


#: 10**s as an unevaluated sum hi + lo of doubles, for s = 0 .. 119: hi is
#: 10**s rounded, lo the rounded remainder. lo is 0 for s <= 22, where 10**s
#: is a double, and exact up to s = 45, where the remainder fits 53 bits.
_POW10_HI = np.array([float(10**s) for s in range(120)])
_POW10_LO = np.array([float(10**s - int(h)) for s, h in enumerate(_POW10_HI.tolist())])
#: The Veltkamp split of _POW10_HI, for _scale.
_POW10_HH, _POW10_HL = _split(_POW10_HI)

#: Largest |t - rint(t)| that _decimal rounds itself, by s: 1/2, ties
#: included, where lo is 0 and t is exact; elsewhere t's error is below
#: 2**-44, and a value within 2**-30 of a tie goes to the fallback.
_ROUND_LIMIT = np.where(_POW10_LO == 0.0, 0.5, 0.5 - 2.0**-30)

_FLOAT_CELL = 24  # "-d.ddddddddddddddddde+XX"
_WORD = np.dtype("<u4")  # four bytes of text, first byte lowest, on any host

#: The ASCII digits of 00 .. 99: _TENS[i] and _UNITS[i] print i.
_TENS = np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), 10)
_UNITS = np.tile(_TENS[::10], 10)

#: "dddd" for 0 .. 9999, leading zeros kept.
_DIGITS4 = np.empty((100, 100, 4), np.uint8)
_DIGITS4[..., 0], _DIGITS4[..., 1] = _TENS[:, None], _UNITS[:, None]
_DIGITS4[..., 2], _DIGITS4[..., 3] = _TENS, _UNITS
_DIGITS4 = _DIGITS4.view(_WORD).ravel()

#: Sign (NUL for +), first digit, ".", second digit, keyed by
#: (v < 0) * 128 + the top two digits (10 .. 99).
_HEAD = np.zeros((2, 128, 4), np.uint8)
_HEAD[1, :, 0] = ord("-")
_HEAD[:, :100, 1], _HEAD[:, :100, 2], _HEAD[:, :100, 3] = _TENS, ord("."), _UNITS
_HEAD = _HEAD.view(_WORD).ravel()

#: "e+XX" or "e-XX", keyed by exponent + 128 (exponents -99 .. 99).
_EXPONENT = np.zeros((256, 4), np.uint8)
_EXPONENT[29:228, :2] = ord("e"), ord("-")
_EXPONENT[128:228, 1] = ord("+")
_EXPONENT[128:228, 2], _EXPONENT[128:228, 3] = _TENS, _UNITS  # 0 .. 99
_EXPONENT[29:128, 2], _EXPONENT[29:128, 3] = _TENS[:0:-1], _UNITS[:0:-1]  # -99 .. -1
_EXPONENT = _EXPONENT.view(_WORD).ravel()


def _scale(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**s as p + t: p the rounded product, t the rest (Dekker 1971).

    The partial products are formed in place, in the halves of the split,
    and added to t in Dekker's order.
    """
    p = a * _POW10_HI.take(s)
    ah, al = _split(a)
    hh, hl = _POW10_HH.take(s), _POW10_HL.take(s)
    t = ah * hh
    t -= p
    ah *= hl
    t += ah
    hh *= al
    t += hh
    hl *= al
    t += hl  # exactly a * hi - p
    lo = _POW10_LO.take(s)
    lo *= a
    t += lo
    return p, t


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N and k of `"%.17e" % v` for each value of a 1-D float64 array.

    Returns the int64 arrays N and k and a mask of the values left to the
    caller's fallback, whose N is set to 10**17. A value with
    k = floor(log10|v|) prints the 18 digits of N = round(|v| * 10**(17 - k)),
    10**17 <= N < 10**18, ties to even. _scale gives |v| * 10**(17 - k) as
    p + t. p exceeds 2**53, so it is an even whole number, and
    N = p + rint(t): rint rounds ties to even, and N has the parity of rint(t).

    Precondition of the fast path: 1e-99 <= |v| < 1e15, so v is finite and
    nonzero and k a two-digit exponent (the double 1e-99 is above 10**-99).
    Error bound: for s = 17 - k <= 22, 10**s is a double and the Dekker
    product is exact, so t and its rounding are exact. For s > 22,
    10**s = hi + lo + r with |lo| <= 10**s * 2**-53 and |r| <= 10**s * 2**-106
    (r is 0 up to s = 45). As p < 2**60, |a * hi - p| <= 2**6 and
    |a * lo| < 2**7, so |t| < 2**8; a * r and the roundings of a * lo and of
    its addition put t within 2**-46 + 2**-46 + 2**-45 < 2**-44 of the exact
    rest. The fallback takes every value outside the range, every value
    whose |t - rint(t)| exceeds _ROUND_LIMIT[s] = 1/2 - 2**-30 (within 2**-30
    of a tie) where s > 22, any value whose k is still off after one
    correction of floor(log10), and any whose N falls outside
    [10**17, 10**18).
    """
    a = np.abs(v)
    ok = (a >= 1e-99) & (a < 1e15)
    a[~ok] = 1.0  # p = 1e17 and t = 0: N is in range
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
        off = moved[(p[moved] >= 1e18) | (p[moved] < 1e17)]
        ok[off], p[off], t[off] = False, 1e17, 0.0
    whole = np.rint(t)
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    t -= whole  # exact, as |t| < 2**8
    # N = 10**18 would print as 1.00..0e+(k+1); no double in the range rounds so
    ok &= (np.abs(t) <= _ROUND_LIMIT.take(17 - k)) & (n >= 10**17) & (n < 10**18)
    n[~ok] = 10**17
    return n, k, ~ok


def _float_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`"%.17e" % v` for each value of a 1-D float64 array, as byte cells.

    Returns a (len(v), 24) uint8 matrix, one value a row, with a NUL byte in
    place of the sign of a positive value, and _decimal's fallback mask.
    Each cell is six words: _HEAD of the sign and the top two digits of N,
    _DIGITS4 of its four groups of four digits, and _EXPONENT of k. Every
    index is in range: 10**17 <= N < 10**18, and k + 128 is in 0 .. 255, as
    log10 of the range and one correction give -100 <= k <= 16.
    """
    n, k, fallback = _decimal(v)
    words = np.empty((len(v), 6), _WORD)
    k += 128
    words[:, 5] = _EXPONENT.take(k)
    high = n // 10**8
    n -= high * 10**8  # the low 8 digits
    top = high // 10**8
    high -= top * 10**8  # digits 3 .. 10
    top += (v < 0) * 128
    words[:, 0] = _HEAD.take(top)
    for col, half in ((1, high), (3, n)):
        half = half.astype(np.uint32)  # uint32 division is much faster than int64's
        q = half // np.uint32(10**4)
        words[:, col] = _DIGITS4.take(q)
        half -= q * np.uint32(10**4)
        words[:, col + 1] = _DIGITS4.take(half)
    return words.view(np.uint8), fallback


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


def _csv_cells(n, radius, theta, winding, x, y) -> tuple[np.ndarray, list[int]]:
    """csv_text's byte matrix, and the rows with a value left to the fallback.

    A column of float cells whose sign is NUL in every row (no value is
    negative) goes in without its sign byte, so that fewer NULs are left to
    drop.
    """
    floats = np.stack([radius, theta, x, y], axis=1)
    cells, fallback = _float_cells(floats.ravel())
    cells = cells.reshape(len(n), 4, _FLOAT_CELL)
    c0, c1, c2, c3 = (c if c[:, 0].any() else c[:, 1:] for c in cells.transpose(1, 0, 2))
    comma = np.broadcast_to(np.uint8(ord(",")), (len(n), 1))
    return np.concatenate([
        _int_cells(n), comma, c0, comma, c1, comma, _int_cells(winding), comma, c2, comma, c3,
        np.broadcast_to(np.uint8(ord("\n")), (len(n), 1)),
    ], axis=1), np.unique(np.flatnonzero(fallback) // 4).tolist()


def csv_text(n, radius, theta, winding, x, y) -> bytes:
    """The CSV rows of the given column arrays: _CSV_ROW of each row, as ASCII bytes.

    n and winding hold non-negative integers. The rows are laid out in a
    uint8 matrix, one row of cells per CSV row, with NUL in unused bytes;
    dropping the NULs gives the bytes. A row with a value that _float_cells
    leaves to the fallback is formatted by _CSV_ROW alone and spliced in at
    its place.
    """
    cells, fallback_rows = _csv_cells(n, radius, theta, winding, x, y)
    width, raw = cells.shape[1], cells.tobytes()
    del cells  # so that at most two copies of the rows are held at a time
    columns = (n, radius, theta, winding, x, y)
    parts, start = [], 0
    for i in fallback_rows:
        row = _CSV_ROW(tuple(col[i].item() for col in columns))
        parts += [raw[start * width:i * width].replace(b"\0", b""), row.encode("ascii")]
        start = i + 1
    parts.append(raw[start * width:].replace(b"\0", b""))
    return b"".join(parts)
