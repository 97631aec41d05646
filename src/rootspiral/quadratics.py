"""Exact calculus of spiral-graph polynomials.

A spiral-graph is modeled as a half-integer quadratic

    f(x) = (A*x^2 + B*x + C) / 2        A, B, C integers

which takes integer values at every integer x exactly when A + B is even
and C is even. The constant second difference of the values f(0), f(1), ...
equals A, so the doubled leading coefficient is stored verbatim.
Polynomial arithmetic is exact integer / rational arithmetic; only the
drift readers (asymptotic_drift, rotation_of) work in floats.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import Inconsistent, NotHalfInteger, NotQuadratic, TooShort
from .spiral import TWO_PI, SpiralTable


class Rotation(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDETERMINATE = "indeterminate"


@lru_cache(maxsize=4096)
def _half_str(v: int, suffix: str = "") -> str:
    """v / 2 printed exactly: a whole number, or one with the decimal .5."""
    whole, odd = divmod(abs(v), 2)
    return ("-" if v < 0 else "") + str(whole) + (".5" if odd else "") + suffix


class HalfIntQuadratic(namedtuple("HalfIntQuadratic", "A B C")):
    """f(x) = (A*x^2 + B*x + C) / 2 with integer-valued outputs.

    A tuple (A, B, C): records compare, sort and hash as that tuple.
    `_make` builds one without the checks, for coefficients that are
    valid by construction.
    """

    __slots__ = ()

    def __new__(cls, A: int, B: int, C: int):
        if A <= 0:
            raise ValueError(f"leading coefficient must be positive, got A={A}")
        if (A + B) % 2 != 0 or C % 2 != 0:
            raise ValueError(f"(A={A}, B={B}, C={C}) does not take integer values on the integers")
        return super().__new__(cls, A, B, C)

    def eval(self, x: int) -> int:
        num = self.A * x * x + self.B * x + self.C
        return num // 2

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


def asymptotic_drift(A: int) -> float:
    """The per-step drift the arms of family A approach: 2*sqrt(A/2) - 2*pi."""
    return 2.0 * math.sqrt(A / 2.0) - TWO_PI


def rotation_of(numbers: Sequence[int], table: SpiralTable, epsilon: float) -> Rotation:
    """Rotation direction of an arm from the mean drift of its consecutive numbers.

    A step from a to b drifts theta(b) - theta(a) - 2*pi, read from the
    table's theta array; fewer than two numbers have mean drift 0. A number
    outside 1 .. table.n_max raises as SpiralTable.angle does.

    Negative mean drift means the arm falls behind the counterclockwise
    spiral, i.e. it curls clockwise relative to the rays -- those arms carry
    the P label (the convention is anchored on the A=18 arms of the
    divisor-2 family, which are labelled positive in the claims table).
    """
    if numbers:
        table._check(min(numbers))
        table._check(max(numbers))
    theta = table.theta_array[list(numbers)].tolist()
    m = sum(b - a - TWO_PI for a, b in zip(theta, theta[1:])) / max(len(theta) - 1, 1)
    if abs(m) < epsilon:
        return Rotation.INDETERMINATE
    return Rotation.POSITIVE if m < 0 else Rotation.NEGATIVE
