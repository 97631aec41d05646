"""Spiral construction: angles, vertices, windings, asymptotics."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from rootspiral.errors import RangeExhausted
from rootspiral.spiral import _CSV_ROWS, _GROW_TERMS, TWO_PI, SpiralTable, shared_table

PI = math.pi


def test_angle_base_cases(table):
    assert table.angle(1) == 0.0
    assert table.angle(2) == pytest.approx(math.pi / 4, abs=1e-15)
    assert table.angle(3) == pytest.approx(math.pi / 4 + math.atan(1 / math.sqrt(2)), abs=1e-14)


def test_first_winding_closes_between_17_and_18(table):
    assert table.angle(17) < TWO_PI < table.angle(18)
    assert table.winding_of(17) == 0
    assert table.winding_of(18) == 1
    assert table.winding_of(1) == 0


def test_vertex_base_cases(table):
    assert table.vertex(1) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert table.vertex(2) == pytest.approx((1.0, 1.0), abs=1e-14)
    x5, y5 = table.vertex(5)
    assert x5 * x5 + y5 * y5 == pytest.approx(5.0, rel=1e-12)
    x4, y4 = table.vertex(4)
    assert math.hypot(x5 - x4, y5 - y4) == pytest.approx(1.0, abs=1e-12)


def test_geometry_invariants_vectorized():
    """Norm, unit leg, orthogonality, and monotone theta for n <= 10^5."""
    t = SpiralTable(100000)
    n = np.arange(1, 100001)
    theta = t.theta_array[1:100001]
    r = np.sqrt(n)
    x, y = r * np.cos(theta), r * np.sin(theta)
    assert np.max(np.abs(x * x + y * y - n) / n) < 1e-9
    dx, dy = np.diff(x), np.diff(y)
    assert np.max(np.abs(np.hypot(dx, dy) - 1.0)) < 1e-9
    assert np.max(np.abs(x[:-1] * dx + y[:-1] * dy)) < 1e-9
    assert np.all(np.diff(theta) > 0)
    winds = (theta // TWO_PI).astype(int)
    steps = np.diff(winds)
    assert np.all((steps == 0) | (steps == 1))


def test_point_consistency(table):
    p = table.point(100)
    assert p.n == 100
    assert p.radius == pytest.approx(10.0)
    assert p.winding == int(p.theta // TWO_PI)
    assert p.vertex[0] == pytest.approx(p.radius * math.cos(p.theta))
    assert table.reduced_angle(100) == pytest.approx(p.theta % TWO_PI)


def test_winding_of_matches_angle(table):
    for n in (2, 17, 18, 100, 1000, 20000):
        assert table.winding_of(n) == math.floor(table.angle(n) / TWO_PI)


def test_next_turn_index(table):
    m = table.next_turn_index(100)
    assert table.angle(m) >= table.angle(100) + TWO_PI
    assert table.angle(m - 1) < table.angle(100) + TWO_PI


def test_winding_gap_values(table):
    assert abs(table.winding_gap(100) - PI) < 0.2
    assert abs(table.winding_gap(10000) - PI) < 0.05


def test_winding_gap_discretization_bound():
    t = SpiralTable(110000)
    for n in (100, 1000, 10000, 100000):
        bound = 5.0 / math.sqrt(n) + 1.0 / (2.0 * math.sqrt(n))
        assert abs(t.winding_gap(n) - PI) <= bound


def test_winding_gap_monotone_trend():
    t = SpiralTable(1010000)
    assert abs(t.winding_gap(1000000) - PI) < abs(t.winding_gap(100) - PI)


def test_theodorus_constant_cauchy():
    t = SpiralTable(10000000)
    est = {k: t.theodorus_constant(k) for k in (10, 100, 10**4, 10**6, 10**7)}
    # successive estimate gaps shrink like 1/sqrt(N): a Cauchy sequence
    gaps = [
        abs(est[100] - est[10]),
        abs(est[10**4] - est[100]),
        abs(est[10**6] - est[10**4]),
        abs(est[10**7] - est[10**6]),
    ]
    assert gaps == sorted(gaps, reverse=True)
    assert abs(est[10**7] - est[10**6]) < 1e-3


def test_angle_against_extended_precision_oracle():
    """Compensated 64-bit sum vs one-shot 80-bit cumulative sum, n <= 10^6."""
    t = SpiralTable(1000000)
    k = np.arange(1, 1000000, dtype=np.longdouble)
    oracle = np.cumsum(np.arctan(1.0 / np.sqrt(k)))
    got = t.theta_array[2 : 1000001].astype(np.longdouble)
    assert float(np.max(np.abs(got - oracle))) < 1e-8


def test_range_errors(table):
    with pytest.raises(ValueError):
        table.angle(0)
    with pytest.raises(RangeExhausted):
        table.angle(table.n_max + 1)
    with pytest.raises(RangeExhausted):
        table.next_turn_index(table.n_max)


def test_ensure_grows_and_preserves(table):
    small = SpiralTable(1000)
    a = small.angle(900)
    small.ensure(2000)
    assert small.n_max >= 2000
    assert small.angle(900) == a


def test_shared_table_is_cached():
    a = shared_table(500)
    b = shared_table(400)
    assert b.n_max >= 500
    assert a is b


def test_csv_export():
    t = SpiralTable(500)
    buf = io.StringIO()
    t.write_csv(buf, 10)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "n,radius,theta_rad,winding,x,y"
    assert len(lines) == 11
    fields = lines[2].split(",")
    assert int(fields[0]) == 2
    assert float(fields[1]) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert float(fields[2]) == pytest.approx(math.pi / 4, rel=1e-15)
    # 18 significant digits survive the round trip
    assert float(fields[2]) == t.angle(2)


def _write_csv_oracle(table, stream, n_max=None):
    """The row-at-a-time CSV export, one point() per row."""
    limit = table.n_max if n_max is None else n_max
    stream.write("n,radius,theta_rad,winding,x,y\n")
    for n in range(1, limit + 1):
        p = table.point(n)
        stream.write(
            f"{p.n},{p.radius:.17e},{p.theta:.17e},{p.winding},"
            f"{p.vertex[0]:.17e},{p.vertex[1]:.17e}\n"
        )


def _csv(write, table, n_max=None):
    buf = io.StringIO()
    write(table, buf, n_max)
    return buf.getvalue()


class TestChunkedCsv:
    LIMITS = (2, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 3 * _CSV_ROWS + 7)

    @pytest.fixture(scope="class")
    def exact(self):
        return SpiralTable(self.LIMITS[-1])

    @pytest.mark.parametrize("limit", LIMITS)
    def test_matches_row_oracle(self, exact, limit):
        assert _csv(SpiralTable.write_csv, exact, limit) == _csv(_write_csv_oracle, exact, limit)

    def test_whole_table(self, exact):
        assert _csv(SpiralTable.write_csv, exact) == _csv(_write_csv_oracle, exact)

    def test_table_larger_than_limit(self):
        big = SpiralTable(2 * _CSV_ROWS + 100)
        limit = _CSV_ROWS + 3
        assert _csv(SpiralTable.write_csv, big, limit) == _csv(_write_csv_oracle, big, limit)

    def test_one_write_per_chunk(self, exact):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        exact.write_csv(Recorder(), 3 * _CSV_ROWS + 7)
        assert [w.count("\n") for w in writes] == [1, _CSV_ROWS, _CSV_ROWS, _CSV_ROWS, 7]

    def test_limit_past_table_end(self, exact):
        with pytest.raises(RangeExhausted):
            exact.write_csv(io.StringIO(), exact.n_max + 1)


def _theta_oracle(n):
    """The table build in one piece: all terms, then one prefix pass."""
    theta = np.empty(n + 1)
    theta[0], theta[1] = np.nan, 0.0
    terms = np.arctan(1.0 / np.sqrt(np.arange(1, n, dtype=np.float64)))
    out = theta[2:]
    total, comp = 0.0, 0.0
    for start in range(0, len(terms), 4096):
        block = terms[start:start + 4096]
        np.cumsum(block, out=out[start:start + len(block)])
        out[start:start + len(block)] += total + comp
        x = math.fsum(block) + comp
        t = total + x
        comp = x - (t - total)
        total = t
    return theta


class TestChunkedBuild:
    SIZES = (_GROW_TERMS - 1, _GROW_TERMS, _GROW_TERMS + 1, _GROW_TERMS + 2, 3 * _GROW_TERMS + 5)

    @pytest.mark.parametrize("n", SIZES)
    def test_build_is_bitwise_one_shot(self, n):
        got = SpiralTable(n).theta_array
        assert np.array_equal(got.view(np.uint64), _theta_oracle(n).view(np.uint64))

    @pytest.mark.parametrize("n", SIZES)
    def test_ensure_is_bitwise_one_shot(self, n):
        got = SpiralTable(1000).ensure(n).theta_array
        assert np.array_equal(got.view(np.uint64), _theta_oracle(n).view(np.uint64))

    @pytest.mark.parametrize(
        "steps", [(2,), (4096,), (4097,), (8193,), (19999,), (1000, 5000), (4097, 12289)]
    )
    def test_theta_does_not_depend_on_growth(self, steps):
        table = SpiralTable(steps[0])
        for n in steps[1:] + (20000,):
            table.ensure(n)
        want = SpiralTable(20000).theta_array
        assert np.array_equal(table.theta_array.view(np.uint64), want.view(np.uint64))
