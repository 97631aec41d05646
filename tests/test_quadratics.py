"""Arm polynomial calculus: evaluation, second differences, divisibility, drift."""

from __future__ import annotations

import math
import random
from itertools import takewhile

import pytest

from rootspiral.claims import all_claims
from rootspiral.errors import RangeExhausted
from rootspiral.quadratics import (
    HalfIntQuadratic,
    Rotation,
    asymptotic_drift,
    divisible_by,
    rotation_of,
)
from rootspiral.spiral import TWO_PI, SpiralTable

P1_D2 = HalfIntQuadratic(18, 42, 16)  # 9x^2 + 21x + 8


class TestHalfIntQuadratic:
    def test_eval_examples(self):
        assert P1_D2.eval(0) == 8
        assert P1_D2.eval(1) == 38
        assert str(P1_D2) == "9x^2 + 21x + 8"
        assert HalfIntQuadratic(21, 69, 48).eval(2) == 135  # 10.5x^2 + 34.5x + 24

    def test_eval_is_exact_for_huge_x(self):
        q = HalfIntQuadratic(26, 104, 78)
        x = 10**12
        assert q.eval(x) == (26 * x * x + 104 * x + 78) // 2

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError, match=r"^leading coefficient must be positive, got A=0$"):
            HalfIntQuadratic(0, 2, 2)
        with pytest.raises(ValueError, match=r"^leading coefficient must be positive, got A=-2$"):
            HalfIntQuadratic(-2, 2, 2)
        with pytest.raises(ValueError, match=r"^\(A=18, B=43, C=16\) does not take integer values on the integers$"):
            HalfIntQuadratic(18, 43, 16)  # A + B odd
        with pytest.raises(ValueError, match=r"^\(A=18, B=42, C=17\) does not take integer values on the integers$"):
            HalfIntQuadratic(18, 42, 17)  # C odd

    def test_record_is_the_tuple_a_b_c(self):
        """Records compare, sort and hash as (A, B, C), print as before and cannot be changed."""
        q = HalfIntQuadratic(18, 42, 16)
        assert tuple(q) == (q.A, q.B, q.C) == (18, 42, 16)
        assert HalfIntQuadratic(*q) == q and hash(q) == hash((18, 42, 16))
        assert q != HalfIntQuadratic(18, 40, 16) and len({q, HalfIntQuadratic(18, 42, 16)}) == 1
        polys = [HalfIntQuadratic(18, 2, 2), HalfIntQuadratic(2, 4, 2), HalfIntQuadratic(18, 0, 4)]
        assert sorted(polys) == [HalfIntQuadratic(2, 4, 2), HalfIntQuadratic(18, 0, 4), HalfIntQuadratic(18, 2, 2)]
        assert repr(q) == "HalfIntQuadratic(A=18, B=42, C=16)"
        with pytest.raises(AttributeError):
            q.A = 20
        assert not hasattr(q, "__dict__")

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((1, 200001, 0), "0.5x^2 + 100000.5x"),
            ((1, 2000001, 0), "0.5x^2 + 1000000.5x"),
            ((1, -2000001, 0), "0.5x^2 + -1000000.5x"),
            ((3, -1, -2), "1.5x^2 + -0.5x + -1"),
            ((2 * 10**20 + 1, 1, 2 * 10**20), "100000000000000000000.5x^2 + 0.5x + 100000000000000000000"),
            ((21, 69, 48), "10.5x^2 + 34.5x + 24"),
        ],
    )
    def test_str_prints_every_coefficient_exactly(self, coeffs, text):
        assert str(HalfIntQuadratic(*coeffs)) == text

    def test_shift_preserves_second_differential(self):
        q = HalfIntQuadratic(21, 69, 48)
        s = q.shifted(3)
        assert s.A == q.A
        assert s.eval(0) == q.eval(3)

    def test_json_round_trip(self):
        q = HalfIntQuadratic(17, 17, 68)
        blob = {"A": 17, "B": 17, "C": 68, "divisor": 17, "label": "P1"}
        assert HalfIntQuadratic.from_json(blob) == q


def _second_differences(values):
    return [a - 2 * b + c for a, b, c in zip(values, values[1:], values[2:])]


class TestDifferences:
    """The paper's "second differential": the values' second difference equals A."""

    def test_fig_style_example(self):
        values = [P1_D2.eval(x) for x in range(3)]
        assert values == [8, 38, 86]
        assert [b - a for a, b in zip(values, values[1:])] == [30, 48]
        assert _second_differences(values) == [18]

    def test_second_differential_equals_table(self):
        for q in (P1_D2, HalfIntQuadratic(20, 28, 4), HalfIntQuadratic(13, 13, 52)):
            values = [q.eval(x) for x in range(51)]
            assert set(_second_differences(values)) == {q.second_differential}

    def test_second_differential_values(self):
        assert P1_D2.second_differential == 18
        assert HalfIntQuadratic(20, 28, 4).second_differential == 20
        assert HalfIntQuadratic(13, 13, 52).second_differential == 13

    def test_eval_brute_constant_second(self):
        q = HalfIntQuadratic(22, 88, 44)  # 11x^2 + 44x + 22
        assert _second_differences([q.eval(x) for x in range(6)]) == [22] * 4


class TestDivisibility:
    def test_examples(self):
        assert divisible_by(HalfIntQuadratic(22, 66, 22), 11)
        assert divisible_by(P1_D2, 2)
        assert not divisible_by(P1_D2, 3)

    def test_all_published_polynomials_brute_force(self, published_polynomials):
        for cp in published_polynomials:
            assert divisible_by(cp.poly, cp.divisor)
            assert all(
                cp.poly.eval(x) % cp.divisor == 0 for x in range(-1000, 1001)
            ), f"{cp.label} d={cp.divisor}"

    def test_residue_method_matches_brute_force_on_random_polys(self):
        """Multiples d*g, near-misses one Newton coefficient off, and random polys."""
        rng = random.Random(20260823)

        def random_poly(a_max):
            A = rng.randrange(1, a_max)
            B = rng.randrange(-60, 60)
            if (A + B) % 2:
                B += 1
            return HalfIntQuadratic(A, B, 2 * rng.randrange(0, 60))

        divisible = 0
        for i in range(500):
            d = rng.randrange(2, 41)
            if i % 4 == 3:
                q = random_poly(40)
            else:
                g = random_poly(10)
                # Newton coefficients of d*g: f(x) = c0 + c1*x + c2*x*(x-1)/2
                c0, c1, c2 = d * g.C // 2, d * (g.A + g.B) // 2, d * g.A
                if i % 4 == 2:  # a near-miss: one coefficient off by one
                    which, step = rng.randrange(3), rng.choice((-1, 1))
                    c0 += step * (which == 0)
                    c1 += step * (which == 1)
                    c2 += step * (which == 2)
                q = HalfIntQuadratic(c2, 2 * c1 - c2, 2 * c0)
            brute = all(q.eval(x) % d == 0 for x in range(-1000, 1001))
            assert divisible_by(q, d) == brute, (q, d)
            divisible += brute
        assert divisible >= 200

    def test_rejects_small_divisor(self):
        with pytest.raises(ValueError):
            divisible_by(P1_D2, 1)


def _drift(q, x, table):
    """Per-step drift of the arm q at x: theta(f(x+1)) - theta(f(x)) - 2*pi."""
    theta = table.theta_array
    return float(theta[q.eval(x + 1)] - theta[q.eval(x)]) - TWO_PI


def _window(q, n_max, lo=5, hi=40):
    """f(lo), f(lo + 1), ... f(hi), up to the first value past n_max."""
    return list(takewhile(lambda n: n <= n_max, map(q.eval, range(lo, hi + 1))))


class TestDrift:
    def test_asymptotes(self):
        assert asymptotic_drift(18) == pytest.approx(6 - 2 * math.pi)
        assert asymptotic_drift(26) == pytest.approx(2 * math.sqrt(13) - 2 * math.pi)

    def test_drift_converges_for_all_published_polynomials(self, table, published_polynomials):
        # (17,153,102) sits furthest from its family vertex and first enters
        # the 0.02 band one step later, at x = 41; all others make it by 40.
        slow = HalfIntQuadratic(17, 153, 102)
        for cp in published_polynomials:
            q = cp.poly
            x = 41 if q == slow else 40
            assert q.eval(x + 1) <= table.n_max
            assert abs(_drift(q, x, table) - asymptotic_drift(q.A)) < 0.02, str(q)
        assert abs(_drift(slow, 40, table) - asymptotic_drift(17)) < 0.021

    def test_rotation_examples(self, table):
        n = table.n_max
        assert rotation_of(_window(P1_D2, n), table, 0.005) is Rotation.POSITIVE
        assert rotation_of(_window(HalfIntQuadratic(20, 28, 4), n), table, 0.005) is Rotation.NEGATIVE
        assert rotation_of(_window(HalfIntQuadratic(26, 104, 78), n), table, 0.005) is Rotation.NEGATIVE

    def test_rotation_window_stops_at_table_end(self):
        small = SpiralTable(1000)
        numbers = _window(P1_D2, small.n_max)
        assert numbers == [P1_D2.eval(x) for x in range(5, 10)]  # f(10) = 1118 is past the table
        m = sum(_drift(P1_D2, x, small) for x in range(5, 9)) / 4  # steps 5..8
        assert m < -0.005
        assert rotation_of(numbers, small, 0.005) is Rotation.POSITIVE

    def test_rotation_window_past_table_end_is_zero_drift(self):
        """A window with fewer than two numbers has mean drift 0."""
        small = SpiralTable(300)
        assert P1_D2.eval(10) > small.n_max
        assert _window(P1_D2, small.n_max, lo=10) == []
        assert rotation_of([], small, 0.005) is Rotation.INDETERMINATE
        assert rotation_of([P1_D2.eval(0)], small, 0.005) is Rotation.INDETERMINATE

    def test_rotation_window_past_table_raises(self):
        q = HalfIntQuadratic(18, -6, 4)
        with pytest.raises(RangeExhausted):
            rotation_of(_window(q, 2000), SpiralTable(1000), 0.005)

    def test_rotation_number_zero_raises(self, table):
        """theta[0] is NaN: a 0 raises as SpiralTable.angle(0) does, not read."""
        with pytest.raises(ValueError):
            rotation_of([0, 18, 42], table, 0.005)
        with pytest.raises(ValueError):
            rotation_of([18, 42, -4], table, 0.005)


def test_count_times_divisor_equals_second_differential():
    """count x d = A, for every published (divisor, direction) row."""
    instances = set()
    for d, claims in all_claims().items():
        for direction, count in claims.system_counts.items():
            A = claims.second_differentials[direction]
            assert count * d == A
            instances.add((count, d, A))
    assert len(instances) == 9
