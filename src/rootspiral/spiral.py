"""Square Root Spiral construction.

The spiral is built from unit-leg right triangles: the n-th ray has length
sqrt(n) and the cumulative angle of that ray is

    theta(n) = sum_{k=1}^{n-1} arctan(1 / sqrt(k)),   theta(1) = 0.

Angles are kept unwrapped; reduction mod 2*pi happens only at presentation.
The sum is accumulated with compensated block summation so the absolute
angle error stays below 1e-8 even for tables of 10^7 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import RangeExhausted

TWO_PI = 2.0 * math.pi

_BLOCK = 4096

#: Terms computed per step of a table build. A multiple of _BLOCK, so the
#: summation blocks, and with them every angle, are those of a one-shot build.
_GROW_TERMS = 1 << 16

#: Rows formatted per write by SpiralTable.write_csv; bounds its temporaries.
_CSV_ROWS = 1 << 14

_CSV_ROW = "%d,%.17e,%.17e,%d,%.17e,%.17e\n".__mod__


@dataclass(frozen=True)
class SpiralPoint:
    """One vertex of the spiral: the natural number n with its polar data."""

    n: int
    radius: float
    theta: float
    winding: int
    vertex: tuple[float, float]


def _angle_terms(lo: int, hi: int) -> np.ndarray:
    """arctan(1/sqrt(k)) for k = lo .. hi-1."""
    k = np.arange(lo, hi, dtype=np.float64)
    return np.arctan(1.0 / np.sqrt(k))


def _compensated_prefix(terms: np.ndarray, out: np.ndarray, carry: tuple[float, float]) -> tuple[float, float]:
    """Write running prefix sums of `terms` into `out`.

    Block-wise: the prefix inside a block comes from a plain cumsum (short,
    so its rounding is negligible), while the running block total is carried
    with a Kahan-compensated (sum, correction) pair. Only whole blocks
    advance the returned carry, so a partial last block can be summed again
    once it has grown.
    """
    total, comp = carry
    n = len(terms)
    for start in range(0, n, _BLOCK):
        block = terms[start:start + _BLOCK]
        np.cumsum(block, out=out[start:start + len(block)])
        out[start:start + len(block)] += total + comp
        if len(block) < _BLOCK:
            break
        # compensated update of the running block total
        x = math.fsum(block.tolist()) + comp
        t = total + x
        comp = x - (t - total)
        total = t
    return total, comp


class SpiralTable:
    """Prefix-sum table of spiral angles, built once and then read-only.

    theta[n] (1-based) is the unwrapped angle of ray sqrt(n); index 0 is
    unused. All accessors are O(1) after construction.
    """

    def __init__(self, n_max: int):
        if n_max < 2:
            raise ValueError("n_max must be at least 2")
        self._theta = np.empty(n_max + 1, dtype=np.float64)
        self._theta[0] = np.nan
        self._theta[1] = 0.0
        self._open_block = 1  # first term of the open (partial) summation block
        self._carry = (0.0, 0.0)  # compensated sum of the terms before it
        self._n_max = 1
        self._grow(n_max)

    def _grow(self, n_max: int) -> None:
        # Resuming at the open block keeps every block where a one-shot build
        # puts it; the angles rewritten there come out bit-identical.
        for lo in range(self._open_block, n_max, _GROW_TERMS):
            hi = min(lo + _GROW_TERMS, n_max)
            terms = _angle_terms(lo, hi)
            self._carry = _compensated_prefix(terms, self._theta[lo + 1:hi + 1], self._carry)
        self._open_block = n_max - (n_max - 1) % _BLOCK
        self._n_max = n_max

    @property
    def n_max(self) -> int:
        return self._n_max

    @property
    def theta_array(self) -> np.ndarray:
        """The raw unwrapped-angle array (index n holds theta(n)); read-only."""
        view = self._theta[:self._n_max + 1]
        view.flags.writeable = False
        return view

    def ensure(self, n_max: int) -> "SpiralTable":
        """Extend the table in place if it does not yet cover n_max."""
        if n_max > self._n_max:
            grown = np.empty(n_max + 1, dtype=np.float64)
            grown[:self._n_max + 1] = self._theta[:self._n_max + 1]
            self._theta = grown
            self._grow(n_max)
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

    def radius(self, n: int) -> float:
        self._check(n)
        return math.sqrt(n)

    def vertex(self, n: int) -> tuple[float, float]:
        """Cartesian position of ray sqrt(n), counterclockwise winding."""
        self._check(n)
        r = math.sqrt(n)
        t = self._theta[n]
        return (r * math.cos(t), r * math.sin(t))

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
        m = int(np.searchsorted(self._theta[1:self._n_max + 1], target, side="left")) + 1
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

    def write_csv(self, stream: IO[str], n_max: int | None = None) -> None:
        """Bulk export: n, radius, theta_rad, winding, x, y at 18 significant digits.

        Rows go out in chunks of _CSV_ROWS, one write per chunk. Each value is
        the one point(n) gives: x and y use libm's cos and sin, not numpy's,
        whose SIMD results may differ in the last bit.
        """
        limit = self._n_max if n_max is None else n_max
        self._check(limit)
        stream.write("n,radius,theta_rad,winding,x,y\n")
        for lo in range(1, limit + 1, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, limit + 1)
            theta = self._theta[lo:hi].tolist()
            radius = np.sqrt(np.arange(lo, hi, dtype=np.float64)).tolist()
            winding = [int(t // TWO_PI) for t in theta]
            x = [r * math.cos(t) for r, t in zip(radius, theta)]
            y = [r * math.sin(t) for r, t in zip(radius, theta)]
            stream.write("".join(map(_CSV_ROW, zip(range(lo, hi), radius, theta, winding, x, y))))


_shared: SpiralTable | None = None


def shared_table(n_max: int) -> SpiralTable:
    """Process-wide table, grown on demand and shared read-only."""
    global _shared
    if _shared is None:
        _shared = SpiralTable(n_max)
    else:
        _shared.ensure(n_max)
    return _shared
