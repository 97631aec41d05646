"""Square Root Spiral construction.

The spiral is built from unit-leg right triangles: the n-th ray has length
sqrt(n) and the cumulative angle of that ray is

    theta(n) = sum_{k=1}^{n-1} arctan(1 / sqrt(k)),   theta(1) = 0.

Angles are kept unwrapped; reduction mod 2*pi happens only at presentation.
The terms are summed in blocks of 4096. Inside a block the prefix is a plain
cumsum; each whole block's sum is computed exactly and rounded once, and the
block sums are carried with Kahan compensation, so the absolute angle error
stays below 1e-8 even for tables of 10^7 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .csvformat import csv_text
from .errors import RangeExhausted

TWO_PI = 2.0 * math.pi

_BLOCK = 4096

#: Terms computed per step of a table build. A multiple of _BLOCK, so every
#: step but the last ends on a block boundary and hands on its whole sum.
_GROW_TERMS = 1 << 16

#: Rows formatted per write by SpiralTable.write_csv. Bounds its temporaries:
#: a chunk's byte matrix is ~110 bytes a row, ~0.45 MB at 2**12 rows, and
#: each array over its four float columns takes 128 KB.
_CSV_ROWS = 1 << 12


@dataclass(frozen=True)
class SpiralPoint:
    """One vertex of the spiral: the natural number n with its polar data."""

    n: int
    radius: float
    theta: float
    winding: int
    vertex: tuple[float, float]


def _angle_terms(k: np.ndarray) -> np.ndarray:
    """arctan(1/sqrt(k)) of each float64 k, computed in place: returns k overwritten."""
    np.sqrt(k, out=k)
    np.divide(1.0, k, out=k)
    return np.arctan(k, out=k)


def _block_sums(rows: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Correctly rounded sum of each row, bit-equal to math.fsum(row).

    Each term t of a row is split exactly as t = h + l, with h = (t + c) - c
    and c = 1.5 * 2**(E + 11), where every term of the row is < 2**E. That
    rounds h to the grid 2**(E - 41), so h is at most 2**41 grid steps, and
    leaves |l| <= 2**(E - 42) on the grid of the row's smallest ulp. Over
    2**12 terms every partial sum of either part then fits in 53 bits, so
    h.sum() and l.sum() are exact in any order. One IEEE addition rounds
    their total to nearest, ties to even, as math.fsum does.

    The split is exact when the terms are positive and finite (below
    2**1012, so neither c nor a row sum overflows), each row holds exactly
    4096 = 2**12 terms, and the binary exponents of a row's largest and
    smallest terms differ by at most 29. Blocks of arctan(1/sqrt(k)) meet
    this with room to spare: the widest spread is block 1 (k = 1..4096),
    whose terms span a ratio of about 50 (6 bits).

    The parts are held in `scratch`, an array of the shape of `rows`, or in
    a new one when it is None.
    """
    _, e = np.frexp(rows.max(axis=1))
    c = np.ldexp(1.5, e + 11)[:, None]
    part = np.add(rows, c, out=scratch)
    part -= c  # the high parts h
    high = part.sum(axis=1)
    np.subtract(rows, part, out=part)  # the low parts l = t - h
    return high + part.sum(axis=1)


def _compensated_prefix(
    terms: np.ndarray, out: np.ndarray, carry: tuple[float, float], scratch: np.ndarray
) -> tuple[float, float]:
    """Write running prefix sums of `terms` into `out`.

    Block-wise: the prefix inside a block comes from a plain cumsum (short,
    so its rounding is negligible), taken over all blocks at once as the
    rows of one matrix. Each whole block's exact sum, correctly rounded by
    _block_sums (its parts held in `scratch`, at least as long as `terms`),
    advances a Kahan-compensated (sum, correction) pair that carries the
    running total; each block is offset by the pair's sum before it. Only
    whole blocks advance the returned carry, so only the last step of a
    build may end in a partial block.
    """
    total, comp = carry
    whole = len(terms) - len(terms) % _BLOCK
    rows = terms[:whole].reshape(-1, _BLOCK)
    offsets = []
    for block_sum in _block_sums(rows, scratch[:whole].reshape(-1, _BLOCK)).tolist():
        offsets.append(total + comp)
        # compensated update of the running block total
        x = block_sum + comp
        t = total + x
        comp = x - (t - total)
        total = t
    prefix = out[:whole].reshape(-1, _BLOCK)
    np.cumsum(rows, axis=1, out=prefix)
    prefix += np.array(offsets)[:, None]
    np.cumsum(terms[whole:], out=out[whole:])
    out[whole:] += total + comp
    return total, comp


class SpiralTable:
    """Prefix-sum table of spiral angles, built in one pass and then read-only.

    theta[n] (1-based) is the unwrapped angle of ray sqrt(n) for n up to
    n_max; index 0 is unused. All accessors are O(1) after construction.
    """

    def __init__(self, n_max: int):
        if n_max < 2:
            raise ValueError("n_max must be at least 2")
        self._build(n_max)

    def _build(self, n_max: int) -> None:
        theta = np.empty(n_max + 1, dtype=np.float64)
        theta[0] = np.nan
        theta[1] = 0.0
        # k = lo + steps. One term buffer and one split buffer serve every
        # step, so no step allocates an array of its length.
        size = min(_GROW_TERMS, n_max - 1)
        steps = np.arange(size, dtype=np.float64)
        terms, scratch = np.empty(size), np.empty(size)
        carry = (0.0, 0.0)
        for lo in range(1, n_max, _GROW_TERMS):
            m = min(_GROW_TERMS, n_max - lo)
            k = np.add(steps[:m], lo, out=terms[:m])
            carry = _compensated_prefix(_angle_terms(k), theta[lo + 1:lo + 1 + m], carry, scratch)
        self._theta = theta
        self._n_max = n_max

    @property
    def n_max(self) -> int:
        return self._n_max

    @property
    def theta_array(self) -> np.ndarray:
        """The raw unwrapped-angle array (index n holds theta(n)); read-only."""
        view = self._theta.view()
        view.flags.writeable = False
        return view

    def ensure(self, n_max: int) -> "SpiralTable":
        """Rebuild the table in place, in one pass, if it does not cover n_max."""
        if n_max > self._n_max:
            self._build(n_max)
        return self

    def _check(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"spiral index must be >= 1, got {n}")
        if n > self._n_max:
            raise RangeExhausted(f"n={n} exceeds built table (n_max={self._n_max})")

    def angle(self, n: int) -> float:
        """Unwrapped cumulative angle of ray sqrt(n)."""
        self._check(n)
        return float(self._theta[n])

    def vertex(self, n: int) -> tuple[float, float]:
        """Cartesian position of ray sqrt(n), counterclockwise winding."""
        self._check(n)
        r = math.sqrt(n)
        t = self._theta[n]
        return (r * math.cos(t), r * math.sin(t))

    def vertices(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Radius, x and y of rays lo .. hi-1, each bit-equal to vertex(n).

        x and y use libm's cos and sin, as vertex does, not numpy's, whose
        SIMD results may differ in the last bit.
        """
        self._check(lo)
        self._check(hi - 1)
        radius = np.sqrt(np.arange(lo, hi, dtype=np.float64))
        angles = self._theta[lo:hi].tolist()
        x = radius * np.fromiter(map(math.cos, angles), np.float64, len(angles))
        y = radius * np.fromiter(map(math.sin, angles), np.float64, len(angles))
        return radius, x, y

    def winding_of(self, n: int) -> int:
        """Index of the full turn containing ray n: floor(theta / 2*pi)."""
        self._check(n)
        return int(self._theta[n] // TWO_PI)

    def reduced_angle(self, n: int) -> float:
        """theta(n) mod 2*pi, in [0, 2*pi)."""
        self._check(n)
        return float(self._theta[n] % TWO_PI)

    def point(self, n: int) -> SpiralPoint:
        self._check(n)
        t = float(self._theta[n])
        r = math.sqrt(n)
        return SpiralPoint(
            n=n,
            radius=r,
            theta=t,
            winding=int(t // TWO_PI),
            vertex=(r * math.cos(t), r * math.sin(t)),
        )

    def next_turn_index(self, n: int) -> int:
        """Smallest m with theta(m) >= theta(n) + 2*pi."""
        self._check(n)
        target = self._theta[n] + TWO_PI
        m = int(np.searchsorted(self._theta[1:], target, side="left")) + 1
        if m > self._n_max:
            raise RangeExhausted(
                f"no ray with angle >= theta({n}) + 2*pi inside the table (n_max={self._n_max})"
            )
        return m

    def winding_gap(self, n: int) -> float:
        """Radial gap sqrt(m) - sqrt(n) to the next turn; tends to pi."""
        m = self.next_turn_index(n)
        return math.sqrt(m) - math.sqrt(n)

    def theodorus_constant(self, n_terms: int) -> float:
        """Partial estimate theta(N) - 2*sqrt(N) of the Theodorus-type limit."""
        if n_terms < 2:
            raise ValueError("n_terms must be >= 2")
        self._check(n_terms)
        return float(self._theta[n_terms]) - 2.0 * math.sqrt(n_terms)

    def write_csv(self, stream: IO[bytes], n_max: int) -> None:
        """Bulk export: n, radius, theta_rad, winding, x, y at 18 significant digits.

        `stream` is a binary stream: it is handed only bytes, ASCII text. Rows
        1 .. n_max go out in chunks of _CSV_ROWS, one write per chunk, after
        one write of the header. Each value is the one point(n) gives; x and
        y come from vertices. The text is that of "%.17e" byte for byte:
        csvformat.csv_text formats it in numpy with exact rounding, and hands
        the rare value it cannot print exactly (zero, non-finite, out of
        range, or within 2**-30 of a rounding tie) to the "%.17e" row
        formatter, one row at a time.
        """
        self._check(n_max)
        stream.write(b"n,radius,theta_rad,winding,x,y\n")
        for lo in range(1, n_max + 1, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, n_max + 1)
            theta = self._theta[lo:hi]
            radius, x, y = self.vertices(lo, hi)
            winding = np.floor_divide(theta, TWO_PI).astype(np.int64)
            stream.write(csv_text(np.arange(lo, hi), radius, theta, winding, x, y))


_shared: SpiralTable | None = None


def shared_table(n_max: int) -> SpiralTable:
    """Process-wide table, shared read-only; rebuilt when asked to cover more."""
    global _shared
    if _shared is None:
        _shared = SpiralTable(n_max)
    else:
        _shared.ensure(n_max)
    return _shared
