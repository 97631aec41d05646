"""Arm polynomial calculus: evaluation, differences, fitting, divisibility, drift."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootspiral.claims import all_claims, all_polynomials
from rootspiral.errors import Inconsistent, NotHalfInteger, NotQuadratic, TooShort
from rootspiral.quadratics import (
    MIN_DRIFT_STEPS,
    DifferenceTable,
    HalfIntQuadratic,
    Rotation,
    asymptotic_drift,
    difference_table,
    divisible_by,
    drift,
    fit_quadratic,
    rotation_of,
)
from rootspiral.spiral import SpiralTable

P1_D2 = HalfIntQuadratic(18, 42, 16)  # 9x^2 + 21x + 8


class TestHalfIntQuadratic:
    def test_eval_examples(self):
        assert P1_D2.eval(0) == 8
        assert P1_D2.eval(1) == 38
        assert HalfIntQuadratic(21, 69, 48).eval(2) == 135  # 10.5x^2 + 34.5x + 24

    def test_eval_is_exact_for_huge_x(self):
        q = HalfIntQuadratic(26, 104, 78)
        x = 10**12
        assert q.eval(x) == (26 * x * x + 104 * x + 78) // 2

    def test_invalid_coefficients(self):
        with pytest.raises(Exception):
            HalfIntQuadratic(0, 2, 2)  # A must be positive
        with pytest.raises(Exception):
            HalfIntQuadratic(-2, 2, 2)
        with pytest.raises(Exception):
            HalfIntQuadratic(18, 43, 16)  # A + B odd
        with pytest.raises(Exception):
            HalfIntQuadratic(18, 42, 17)  # C odd

    def test_from_coeffs_and_str(self):
        q = HalfIntQuadratic.from_coeffs(10.5, 34.5, 24)
        assert (q.A, q.B, q.C) == (21, 69, 48)
        assert str(q) == "10.5x^2 + 34.5x + 24"
        assert str(P1_D2) == "9x^2 + 21x + 8"

    def test_shift_preserves_second_differential(self):
        q = HalfIntQuadratic(21, 69, 48)
        s = q.shifted(3)
        assert s.A == q.A
        assert s.eval(0) == q.eval(3)

    def test_json_round_trip(self):
        q = HalfIntQuadratic(17, 17, 68)
        blob = {"A": 17, "B": 17, "C": 68, "divisor": 17, "label": "P1"}
        assert HalfIntQuadratic.from_json(blob) == q


class TestDifferences:
    def test_fig_style_example(self):
        dt = difference_table([8, 38, 86])
        assert dt.first_differences == (30, 48)
        assert dt.second_differences == (18,)
        assert dt.constant_second

    def test_constant_sequence(self):
        dt = difference_table([7, 7, 7, 7])
        assert dt.first_differences == (0, 0, 0)
        assert dt.second_differences == (0, 0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            difference_table([1, 2])

    def test_second_differential_equals_table(self):
        for q in (P1_D2, HalfIntQuadratic(20, 28, 4), HalfIntQuadratic(13, 13, 52)):
            values = [q.eval(x) for x in range(51)]
            dt = difference_table(values)
            assert dt.constant_second
            assert set(dt.second_differences) == {q.second_differential}

    def test_second_differential_values(self):
        assert P1_D2.second_differential == 18
        assert HalfIntQuadratic(20, 28, 4).second_differential == 20
        assert HalfIntQuadratic(13, 13, 52).second_differential == 13

    def test_eval_brute_constant_second(self):
        q = HalfIntQuadratic(22, 88, 44)  # 11x^2 + 44x + 22
        vals = [q.eval(x) for x in range(6)]
        dt = difference_table(vals)
        assert set(dt.second_differences) == {22}


class TestFit:
    def test_fit_example(self):
        q = fit_quadratic([(0, 8), (1, 38), (2, 86)])
        assert q == P1_D2

    def test_fit_constant_raises(self):
        with pytest.raises(NotQuadratic):
            fit_quadratic([(0, 5), (1, 5), (2, 5)])

    def test_fit_linear_raises(self):
        with pytest.raises(NotQuadratic):
            fit_quadratic([(0, 1), (1, 3), (2, 5)])

    def test_fit_round_trip_with_offset_abscissae(self):
        q = HalfIntQuadratic(26, 104, 78)  # 13x^2 + 52x + 39
        pts = [(x, q.eval(x)) for x in range(5)]
        assert fit_quadratic(pts) == q

    def test_fit_inconsistent(self):
        q = HalfIntQuadratic(26, 104, 78)
        pts = [(x, q.eval(x)) for x in range(5)]
        pts[4] = (4, pts[4][1] + 1)
        with pytest.raises(Inconsistent):
            fit_quadratic(pts)

    def test_fit_not_half_integer(self):
        with pytest.raises(NotHalfInteger):
            fit_quadratic([(0, 0), (3, 1), (6, 3)])

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=1, max_value=60),
        b=st.integers(min_value=-200, max_value=200),
        c=st.integers(min_value=0, max_value=200),
        x0=st.integers(min_value=-20, max_value=20),
    )
    def test_fit_round_trip_property(self, a, b, c, x0):
        if (a + b) % 2:
            b += 1
        q = HalfIntQuadratic(a, b, 2 * c)
        pts = [(x, q.eval(x)) for x in range(x0, x0 + 6)]
        assert fit_quadratic(pts) == q


class TestDivisibility:
    def test_examples(self):
        assert divisible_by(HalfIntQuadratic(22, 66, 22), 11)
        assert divisible_by(P1_D2, 2)
        assert not divisible_by(P1_D2, 3)

    def test_all_published_polynomials_brute_force(self):
        for cp in all_polynomials():
            assert divisible_by(cp.poly, cp.divisor)
            assert all(
                cp.poly.eval(x) % cp.divisor == 0 for x in range(-1000, 1001)
            ), f"{cp.label} d={cp.divisor}"

    def test_residue_method_matches_brute_force_on_random_polys(self):
        rng = random.Random(20260823)
        checked = 0
        while checked < 500:
            A = rng.randrange(1, 40)
            B = rng.randrange(-60, 60)
            if (A + B) % 2:
                B += 1
            C = 2 * rng.randrange(0, 60)
            d = rng.randrange(2, 41)
            q = HalfIntQuadratic(A, B, C)
            brute = all(q.eval(x) % d == 0 for x in range(-1000, 1001))
            assert divisible_by(q, d) == brute
            checked += 1

    def test_rejects_small_divisor(self):
        with pytest.raises(ValueError):
            divisible_by(P1_D2, 1)


class TestDrift:
    def test_asymptotes(self):
        assert asymptotic_drift(18) == pytest.approx(6 - 2 * math.pi)
        assert asymptotic_drift(26) == pytest.approx(2 * math.sqrt(13) - 2 * math.pi)

    def test_drift_converges_for_all_published_polynomials(self, table):
        # (17,153,102) sits furthest from its family vertex and first enters
        # the 0.02 band one step later, at x = 41; all others make it by 40.
        slow = HalfIntQuadratic(17, 153, 102)
        for cp in all_polynomials():
            q = cp.poly
            x = 41 if q == slow else 40
            assert q.eval(x + 1) <= table.n_max
            assert abs(drift(q, x, table) - asymptotic_drift(q.A)) < 0.02, str(q)
        assert abs(drift(slow, 40, table) - asymptotic_drift(17)) < 0.021

    def test_rotation_examples(self, table):
        xr = range(5, 40)
        assert rotation_of(P1_D2, xr, table) is Rotation.POSITIVE
        assert rotation_of(HalfIntQuadratic(20, 28, 4), xr, table) is Rotation.NEGATIVE
        assert rotation_of(HalfIntQuadratic(26, 104, 78), xr, table) is Rotation.NEGATIVE

    def test_rotation_window_stops_at_table_end(self):
        small = SpiralTable(1000)
        steps = [x for x in range(5, 40) if P1_D2.eval(x + 1) <= small.n_max]
        assert steps == [5, 6, 7, 8]  # f(10) = 1118 is past the table
        m = sum(drift(P1_D2, x, small) for x in steps) / len(steps)
        assert m < -0.005
        assert rotation_of(P1_D2, range(5, 40), small) is Rotation.POSITIVE

    def test_rotation_window_past_table_end_is_zero_drift(self):
        small = SpiralTable(300)
        assert P1_D2.eval(11) > small.n_max
        assert rotation_of(P1_D2, range(10, 40), small) is Rotation.INDETERMINATE

    def test_rotation_needs_enough_steps(self, table):
        with pytest.raises(ValueError):
            rotation_of(P1_D2, range(5, 8), table)
        assert rotation_of(P1_D2, range(5, 5 + MIN_DRIFT_STEPS), table) is Rotation.POSITIVE


def test_count_times_divisor_equals_second_differential():
    """count x d = A, for every published (divisor, direction) row."""
    instances = set()
    for d, claims in all_claims().items():
        for direction, count in claims.system_counts.items():
            A = claims.second_differentials[direction]
            assert count * d == A
            instances.add((count, d, A))
    assert len(instances) == 9
