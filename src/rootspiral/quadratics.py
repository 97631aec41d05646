"""Exact calculus of spiral-graph polynomials.

A spiral-graph is modeled as a half-integer quadratic

    f(x) = (A*x^2 + B*x + C) / 2        A, B, C integers

which takes integer values at every integer x exactly when A + B is even
and C is even. The constant second difference of the values f(0), f(1), ...
equals A, so the doubled leading coefficient is stored verbatim.
All arithmetic is exact integer / rational arithmetic; nothing is rounded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Iterable, Sequence

from .errors import Inconsistent, NotHalfInteger, NotQuadratic, TooShort
from .spiral import TWO_PI, SpiralTable


class Rotation(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDETERMINATE = "indeterminate"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _half_str(v: int, suffix: str = "") -> str:
    half = v / 2
    coeff = str(v // 2) if v % 2 == 0 else f"{half:g}"
    return coeff + suffix


@dataclass(frozen=True, order=True)
class HalfIntQuadratic:
    """f(x) = (A*x^2 + B*x + C) / 2 with integer-valued outputs."""

    A: int
    B: int
    C: int

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError(f"leading coefficient must be positive, got A={self.A}")
        if (self.A + self.B) % 2 != 0 or self.C % 2 != 0:
            raise ValueError(
                f"(A={self.A}, B={self.B}, C={self.C}) does not take integer values on the integers"
            )

    @classmethod
    def from_coeffs(cls, a, b, c) -> "HalfIntQuadratic":
        """Build from ordinary coefficients a*x^2 + b*x + c (halves allowed)."""
        doubled = []
        for v in (a, b, c):
            fv = Fraction(v).limit_denominator(10**9) if isinstance(v, float) else Fraction(v)
            dv = 2 * fv
            if dv.denominator != 1:
                raise NotHalfInteger(f"coefficient {v} is not a half-integer")
            doubled.append(int(dv))
        return cls(*doubled)

    def eval(self, x: int) -> int:
        num = self.A * x * x + self.B * x + self.C
        return num // 2

    def __call__(self, x: int) -> int:
        return self.eval(x)

    @property
    def second_differential(self) -> int:
        """Constant second difference of successive values; equals A."""
        return self.A

    def shifted(self, s: int) -> "HalfIntQuadratic":
        """The polynomial g(x) = f(x + s); second differential is unchanged."""
        return HalfIntQuadratic(
            self.A,
            2 * self.A * s + self.B,
            self.A * s * s + self.B * s + self.C,
        )

    def __str__(self) -> str:
        parts = [_half_str(self.A, "x^2")]
        if self.B:
            parts.append(_half_str(self.B, "x"))
        if self.C:
            parts.append(_half_str(self.C))
        return " + ".join(parts)

    @classmethod
    def from_json(cls, obj: dict) -> "HalfIntQuadratic":
        return cls(int(obj["A"]), int(obj["B"]), int(obj["C"]))


@dataclass(frozen=True)
class DifferenceTable:
    values: tuple[int, ...]
    first_differences: tuple[int, ...]
    second_differences: tuple[int, ...]

    @property
    def constant_second(self) -> bool:
        s = self.second_differences
        return all(v == s[0] for v in s)


def difference_table(values: Sequence[int]) -> DifferenceTable:
    """Two levels of pairwise differences of an integer sequence."""
    if len(values) < 3:
        raise TooShort(f"need at least 3 values, got {len(values)}")
    vals = tuple(int(v) for v in values)
    first = tuple(b - a for a, b in zip(vals, vals[1:]))
    second = tuple(b - a for a, b in zip(first, first[1:]))
    return DifferenceTable(vals, first, second)


def fit_quadratic(points: Sequence[tuple[int, int]]) -> HalfIntQuadratic:
    """Exact quadratic through the first three points, verified on the rest.

    Raises NotQuadratic if the leading coefficient is zero (or negative),
    NotHalfInteger if the doubled coefficients are not integers, and
    Inconsistent if any later point deviates from the interpolant.
    """
    if len(points) < 3:
        raise TooShort(f"need at least 3 points, got {len(points)}")
    (x0, y0), (x1, y1), (x2, y2) = points[:3]
    if len({x0, x1, x2}) != 3:
        raise ValueError("interpolation abscissae must be distinct")
    # Newton divided differences, exact
    d01 = Fraction(y1 - y0, x1 - x0)
    d12 = Fraction(y2 - y1, x2 - x1)
    a = (d12 - d01) / (x2 - x0)
    b = d01 - a * (x0 + x1)
    c = y0 - (a * x0 + b) * x0
    if a == 0:
        raise NotQuadratic("second differences vanish (a = 0)")
    if a < 0:
        raise NotQuadratic(f"leading coefficient a={a} is negative; arms open outward")
    doubled = [2 * a, 2 * b, 2 * c]
    if any(v.denominator != 1 for v in doubled):
        raise NotHalfInteger(f"coefficients ({a}, {b}, {c}) are not half-integers")
    A, B, C = (int(v) for v in doubled)
    if (A + B) % 2 != 0 or C % 2 != 0:
        raise NotHalfInteger(
            f"(A={A}, B={B}, C={C}) does not take integer values on all integers"
        )
    q = HalfIntQuadratic(A, B, C)
    for x, y in points[3:]:
        if q.eval(x) != y:
            raise Inconsistent(f"point ({x}, {y}) deviates from {q} = {q.eval(x)}")
    return q


def family_residue(A: int, d: int) -> tuple[int, int] | None:
    """The (B mod 2d, C mod 2d) class of the multiples of d in the family A.

    In the Newton basis f(x) = C/2 + ((A + B)/2)*x + A*x*(x-1)/2, and an
    integer-valued polynomial is a multiple of d at every integer iff each
    Newton coefficient is (Polya, 1915). So d divides f on the integers iff
    d | A, A + B = 0 (mod 2d) and C = 0 (mod 2d): one class when d | A,
    None otherwise.
    """
    if d < 2:
        raise ValueError(f"divisor must be >= 2, got {d}")
    return (-A % (2 * d), 0) if A % d == 0 else None


def divisible_by(q: HalfIntQuadratic, d: int) -> bool:
    """True iff d divides f(x) for every integer x, decided in closed form.

    (B, C) must lie in the single residue class of family_residue(A, d).
    """
    return family_residue(q.A, d) == (q.B % (2 * d), q.C % (2 * d))


def drift(q: HalfIntQuadratic, x: int, table: SpiralTable) -> float:
    """Per-step angular slip of the arm: theta(f(x+1)) - theta(f(x)) - 2*pi.

    Asymptotically approaches 2*sqrt(A/2) - 2*pi in the counterclockwise
    canonical orientation.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    n0, n1 = q.eval(x), q.eval(x + 1)
    return table.angle(n1) - table.angle(n0) - TWO_PI


def asymptotic_drift(A: int) -> float:
    return 2.0 * math.sqrt(A / 2.0) - TWO_PI


#: Fewest drift steps a rotation window may ask for.
MIN_DRIFT_STEPS = 5


def rotation_of(
    q: HalfIntQuadratic,
    x_range: Iterable[int],
    table: SpiralTable,
    epsilon: float = 0.005,
    *,
    n_max: int | None = None,
) -> Rotation:
    """Rotation direction of the arm from its mean drift over x_range.

    The window is read up to n_max (default: the table's end, and never
    past it): it stops before the first step whose far value f(x+1) lies
    past that limit, and a window with no step left has mean drift 0.

    Negative mean drift means the arm falls behind the counterclockwise
    spiral, i.e. it curls clockwise relative to the rays -- those arms carry
    the P label (the convention is anchored on the A=18 arms of the
    divisor-2 family, which are labelled positive in the claims table).
    """
    xs = list(x_range)
    if len(xs) < MIN_DRIFT_STEPS:
        raise ValueError(f"x_range must contain at least {MIN_DRIFT_STEPS} steps")
    limit = table.n_max if n_max is None else min(n_max, table.n_max)
    steps = list(takewhile(lambda x: q.eval(x + 1) <= limit, xs))
    m = sum(drift(q, x, table) for x in steps) / max(len(steps), 1)
    if abs(m) < epsilon:
        return Rotation.INDETERMINATE
    return Rotation.POSITIVE if m < 0 else Rotation.NEGATIVE
