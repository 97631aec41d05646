"""Spiral construction: angles, vertices, windings, asymptotics."""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import resource
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import mpmath
import numpy as np
import pytest

from rootspiral import spiral
from rootspiral.csvformat import (
    _CSV_ROW,
    _DIGITS4,
    _EXPONENT,
    _HEAD,
    _float_cells,
    csv_text,
)
from rootspiral.errors import RangeExhausted
from rootspiral.spiral import (
    _BLOCK,
    _CSV_ROWS,
    _GROW_TERMS,
    _PAIR,
    TWO_PI,
    SpiralTable,
    _angle_terms,
    _pair_sums,
    shared_table,
)

PI = math.pi

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def table_1e7():
    return SpiralTable(10**7)


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


def test_vertices_are_bit_equal_to_vertex(table):
    radius, x, y = table.vertices(1, table.n_max + 1)
    assert radius.tolist() == [math.sqrt(n) for n in range(1, table.n_max + 1)]
    assert list(zip(x.tolist(), y.tolist())) == [table.vertex(n) for n in range(1, table.n_max + 1)]
    _, x, _ = table.vertices(17, 18)
    assert x.tolist() == [table.vertex(17)[0]]
    with pytest.raises(RangeExhausted):
        table.vertices(1, table.n_max + 2)
    with pytest.raises(ValueError):
        table.vertices(0, 5)


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


def test_next_turn_index_matches_np_searchsorted(table_1e7):
    """The ndarray method finds the index np.searchsorted does, also for a target equal to a theta value."""
    theta = table_1e7._theta

    def want(n):
        return int(np.searchsorted(theta[1:], theta[n] + TWO_PI, side="left")) + 1

    rng = random.Random(28)
    ns = [rng.randrange(1, 10**7 - 40_000) for _ in range(2000)]
    assert [table_1e7.next_turn_index(n) for n in ns] == [want(n) for n in ns]
    for n in ns[:100]:
        m = want(n)
        kept = theta[m]
        theta[m] = theta[n] + TWO_PI  # still above theta[m - 1]: theta stays increasing
        try:
            assert table_1e7.next_turn_index(n) == want(n) == m
        finally:
            theta[m] = kept


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


def test_theodorus_constant_cauchy(table_1e7):
    t = table_1e7
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


def test_theta_1e7_matches_pinned_digest(table_1e7):
    want = (GOLDEN / "theta_1e7.sha256").read_text().split()[0]
    assert hashlib.sha256(table_1e7.theta_array.tobytes()).hexdigest() == want


def _avx512_targets() -> list[str]:
    """numpy's dispatch targets at the AVX-512 level that this CPU has."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [
        f for f in __cpu_dispatch__
        if (f.startswith("AVX512") or f == "X86_V4") and __cpu_features__.get(f)
    ]


#: Run with numpy's AVX-512 targets switched off: write the 20 000-row CSV
#: and the 10^7 arctan terms, and print the digest of theta(10^7).
_OTHER_ARCTAN_PATH = """
import hashlib, os, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from rootspiral.cli import run
from rootspiral.spiral import SpiralTable, _angle_terms
off = os.environ["NPY_DISABLE_CPU_FEATURES"].split()
assert not any(__cpu_features__[f] for f in off), off
csv_path, terms_path = sys.argv[1:]
assert run(["spiral", "--n-max", "20000", "--out", csv_path]) == 0
with open(terms_path, "wb") as out:
    for lo in range(1, 10**7, 1 << 20):
        _angle_terms(np.arange(lo, min(lo + (1 << 20), 10**7), dtype=np.float64)).tofile(out)
print(hashlib.sha256(SpiralTable(10**7).theta_array.tobytes()).hexdigest())
"""


def test_digests_hold_on_the_other_arctan_path(tmp_path):
    """theta(10^7) and the 20 000-row CSV keep their digests without numpy's AVX-512 arctan.

    np.arctan's last bit depends on the SIMD path numpy dispatches to; the
    digests hold only while no 1-ulp change of a term flips a rounding.
    """
    off = _avx512_targets()
    if not off:
        pytest.skip("numpy dispatches no AVX-512 target on this CPU: one arctan path only")
    csv, terms = tmp_path / "spiral.csv", tmp_path / "terms.f8"
    proc = subprocess.run(
        [sys.executable, "-c", _OTHER_ARCTAN_PATH, str(csv), str(terms)],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    other, n, step = np.memmap(terms, dtype=np.float64, mode="r"), 10**7, 1 << 20
    differ = sum(
        int(np.count_nonzero(
            other[lo - 1:lo - 1 + step] != _angle_terms(np.arange(lo, min(lo + step, n), dtype=np.float64))
        ))
        for lo in range(1, n, step)
    )
    note = f"{differ} of {n - 1} arctan terms differ with {' '.join(off)} switched off"
    print(note)
    theta = (GOLDEN / "theta_1e7.sha256").read_text().split()[0]
    rows = (GOLDEN / "spiral_20000.csv.sha256").read_text().split()[0]
    assert proc.stdout.split()[-1] == theta, note
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == rows, note


def test_angle_against_extended_precision_oracle():
    """Compensated 64-bit sum vs one-shot 80-bit cumulative sum, n <= 10^6."""
    t = SpiralTable(1000000)
    k = np.arange(1, 1000000, dtype=np.longdouble)
    oracle = np.cumsum(np.arctan(1.0 / np.sqrt(k)))
    got = t.theta_array[2 : 1000001].astype(np.longdouble)
    assert float(np.max(np.abs(got - oracle))) < 1e-8


def _theodorus_series():
    """theta(n) ~ 2 sqrt(n) + K + 1/(6 sqrt(n)) - 1/(120 n^(3/2)), from mpmath alone.

    With f(x) = arctan(1/sqrt(x)) and its antiderivative
    F(x) = x f(x) + sqrt(x) - arctan(sqrt(x)) = 2 sqrt(x) - pi/2 + O(x^-1/2),
    Euler-Maclaurin from a = 1000 gives
    K = sum_{k<a} f(k) - F(a) - pi/2 + f(a)/2 - sum_j B_2j/(2j)! f^(2j-1)(a).
    The same expansion at n gives the two inverse-power terms; the next one
    is about n^(-5/2) / 840, below 4e-16 for n >= 10^5.
    """
    mp = mpmath.mp.clone()
    mp.dps = 30

    def f(x):
        return mp.atan(1 / mp.sqrt(x))

    a = 1000
    F = a * f(a) + mp.sqrt(a) - mp.atan(mp.sqrt(a))
    em = mp.fsum(mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(f, a, 2 * j - 1) for j in (1, 2, 3))
    K = mp.fsum(f(k) for k in range(1, a)) - F - mp.pi / 2 + f(a) / 2 - em

    def theta(n):
        r = mp.sqrt(n)
        return float(2 * r + K + 1 / (6 * r) - 1 / (120 * r**3))

    return float(K), theta


def test_theta_matches_theodorus_series_up_to_1e7(table_1e7):
    """The README's "error < 1e-8 up to n = 10^7", against an independent series."""
    K, series = _theodorus_series()
    assert K == pytest.approx(-2.157782996659446, abs=1e-14)  # Davis (1993); Gautschi (2010)
    rng = np.random.default_rng(20261018)
    ns = sorted(set(rng.integers(10**5, 10**7, endpoint=True, size=200).tolist()) | {10**5, 10**7})
    err = max(abs(table_1e7.angle(n) - series(n)) for n in ns)
    assert err < 1e-8


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
    buf = io.BytesIO()
    t.write_csv(buf, 10)
    lines = buf.getvalue().decode("ascii").strip().split("\n")
    assert lines[0] == "n,radius,theta_rad,winding,x,y"
    assert len(lines) == 11
    fields = lines[2].split(",")
    assert int(fields[0]) == 2
    assert float(fields[1]) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert float(fields[2]) == pytest.approx(math.pi / 4, rel=1e-15)
    # 18 significant digits survive the round trip
    assert float(fields[2]) == t.angle(2)


def _write_csv_oracle(table, stream, n_max):
    """The row-at-a-time CSV export, one point() per row, encoded."""
    stream.write(b"n,radius,theta_rad,winding,x,y\n")
    for n in range(1, n_max + 1):
        p = table.point(n)
        stream.write(
            f"{p.n},{p.radius:.17e},{p.theta:.17e},{p.winding},"
            f"{p.vertex[0]:.17e},{p.vertex[1]:.17e}\n".encode("ascii")
        )


def _csv(write, table, n_max):
    buf = io.BytesIO()
    write(table, buf, n_max)
    return buf.getvalue()


def _first_difference(table, n_max):
    """(line index, export line, oracle line) of the first line where write_csv
    and the row oracle differ, or None. Keeps a failure's report to one line."""
    lines = zip_longest(
        _csv(SpiralTable.write_csv, table, n_max).splitlines(),
        _csv(_write_csv_oracle, table, n_max).splitlines(),
    )
    return next(((i, got, want) for i, (got, want) in enumerate(lines) if got != want), None)


class TestChunkedCsv:
    LIMITS = (2, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 3 * _CSV_ROWS + 7)

    @pytest.fixture(scope="class")
    def exact(self):
        return SpiralTable(self.LIMITS[-1])

    @pytest.mark.parametrize("limit", LIMITS)
    def test_matches_row_oracle(self, exact, limit):
        assert _first_difference(exact, limit) is None

    def test_whole_table(self, exact):
        assert _first_difference(exact, exact.n_max) is None

    def test_table_larger_than_limit(self):
        big = SpiralTable(2 * _CSV_ROWS + 100)
        limit = _CSV_ROWS + 3
        assert _first_difference(big, limit) is None

    def test_one_write_per_chunk(self, exact):
        writes = []

        class Recorder:
            def write(self, data):
                writes.append(data)

        exact.write_csv(Recorder(), 3 * _CSV_ROWS + 7)
        assert [w.count(b"\n") for w in writes] == [1, _CSV_ROWS, _CSV_ROWS, _CSV_ROWS, 7]
        # bytes and nothing else: a binary stream takes them as they are
        assert {type(w) for w in writes} == {bytes}

    def test_limit_past_table_end(self, exact):
        with pytest.raises(RangeExhausted):
            exact.write_csv(io.BytesIO(), exact.n_max + 1)


def _formatted(values):
    """The values _float_cells prints unlike "%.17e" (at most 10), and its fallback flags.

    A flagged value is not compared: its caller formats it with "%.17e".
    """
    v = np.array(values, dtype=np.float64)
    cells, fallback = _float_cells(v)
    newline = np.full((len(v), 1), ord("\n"), dtype=np.uint8)
    text = np.concatenate([cells, newline], axis=1).tobytes().replace(b"\0", b"").decode("ascii")
    fast = text.split("\n")[:-1]
    wrong = [(x, t) for x, t, f in zip(v.tolist(), fast, fallback) if not f and t != "%.17e" % x]
    return wrong[:10], fallback


def _exact_ties(rng, exponents):
    """Doubles q / 2**(s + 1), q odd: v * 10**s is a whole number plus exactly 1/2.

    q * 5**s < 2**53 * 5**s must reach 2 * 10**17, so there are none past s = 25.
    """
    ties = []
    for s in exponents:
        lo, hi = -(-2 * 10**17 // 5**s), min(2 * 10**18 // 5**s, 2**53)
        ties += [math.ldexp(q, -(s + 1)) for q in (rng.randrange(lo, hi) | 1 for _ in range(50)) if q < hi]
    return ties


def _near_ties(exponents, offsets):
    """Doubles v = q / 2**(j + s) whose v * 10**s is N + 1/2 + r / 2**j, 0 < |r| <= offsets.

    q * 5**s = 2**(j-1) + r (mod 2**j) fixes q mod 2**j, and 10**17 <= N < 10**18
    with q < 2**53 bounds it; every j > 50 puts them within 2**-50 of a tie.
    """
    near = []
    for s in exponents:
        for j in range(51, 140):
            lo, hi = -(-(10**17 << j) // 5**s), min((10**18 << j) // 5**s, 2**53)
            if lo < hi:
                inv = pow(5**s, -1, 2**j)
                for r in range(1, offsets + 1):
                    for q in (((2**(j - 1) + r) * inv) % 2**j, ((2**(j - 1) - r) * inv) % 2**j):
                        if lo <= q < hi:
                            near.append(math.ldexp(q, -(j + s)))
    return near


class TestCsvFormatter:
    """_float_cells and csv_text print what "%.17e" and _CSV_ROW print."""

    def test_word_tables_decode_to_their_text(self):
        def words(table):
            data = table.tobytes()
            return [data[i:i + 4] for i in range(0, len(data), 4)]

        assert words(_DIGITS4) == [f"{i:04d}".encode() for i in range(10_000)]
        head = words(_HEAD)
        for top in range(10, 100):
            digits = f"{top // 10}.{top % 10}".encode()
            assert (head[top], head[128 + top]) == (b"\0" + digits, b"-" + digits)
        exponent = words(_EXPONENT)
        assert [exponent[k + 128] for k in range(-99, 100)] == [b"e%+03d" % k for k in range(-99, 100)]

    def test_every_value_of_a_300000_row_export(self):
        t = SpiralTable(300_000)
        theta = t.theta_array[1:]
        radius = np.sqrt(np.arange(1, t.n_max + 1, dtype=np.float64))
        x = [r * math.cos(a) for r, a in zip(radius.tolist(), theta.tolist())]
        y = [r * math.sin(a) for r, a in zip(radius.tolist(), theta.tolist())]
        values = np.concatenate([radius, theta, x, y]).tolist()
        wrong, fallback = _formatted(values)
        assert wrong == []
        assert fallback.sum() == 2  # theta(1) = 0 and y(1) = 0

    def test_seeded_random_doubles(self):
        rng = np.random.default_rng(20261018)
        size = 200_000
        v = rng.choice([-1.0, 1.0], size) * (1 + 9 * rng.random(size)) * 10.0 ** rng.integers(-15, 16, size)
        wrong, fallback = _formatted(v)
        assert wrong == []
        assert np.array_equal(fallback, np.abs(v) >= 1e15)

    def test_exact_ties(self):
        """Exact below 10**23 (ties to even in the fast path), the fallback above."""
        rng = random.Random(5)
        fast, slow = _exact_ties(rng, range(3, 23)), _exact_ties(rng, range(23, 26))
        wrong, fallback = _formatted(fast + slow)
        assert wrong == []
        assert not fallback[:len(fast)].any() and fallback[len(fast):].all()
        assert len(fast) > 500 and len(slow) > 100

    def test_near_ties_fall_back(self):
        near = _near_ties(range(23, 60), 40)
        wrong, fallback = _formatted(near)
        assert wrong == []
        assert fallback.all() and len(near) > 200

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for k in range(-100, 17):
            p = float(Fraction(10) ** k)
            below = math.nextafter(p, 0)
            values += [p, below, math.nextafter(below, 0), math.nextafter(p, math.inf)]
        wrong, _ = _formatted(values + [-v for v in values])
        assert wrong == []

    def test_values_outside_the_fast_path(self):
        # the one double just below a power of ten that prints as 1.00..0e+(k+1)
        assert Fraction(1e153) < 10**153 and "%.17e" % 1e153 == "1.00000000000000000e+153"
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-100, 9.9e-100, 1e153,
                  math.inf, -math.inf, math.nan, 1e15, -1e15, 1.5e15, 1e300]
        wrong, fallback = _formatted(values)
        assert wrong == []
        assert fallback.all()

    @pytest.mark.parametrize("first", [1, 95, 99_990, 9_999_990])
    def test_rows_across_integer_widths(self, first):
        """n and winding widen inside a chunk; zero and non-finite rows splice in."""
        n = np.arange(first, first + 20)
        winding = n[::-1] // 3
        rng = np.random.default_rng(first)
        floats = [rng.standard_normal(20) * 10.0 ** rng.integers(-20, 14, 20) for _ in range(4)]
        floats[1][[0, 7, 19]] = 0.0, math.inf, math.nan
        columns = (n, floats[0], floats[1], winding, floats[2], floats[3])
        expected = "".join(map(_CSV_ROW, zip(*(c.tolist() for c in columns))))
        assert csv_text(*columns) == expected.encode("ascii")


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

    def test_build_allocates_no_buffer_per_step(self):
        """A build faults in theta and its buffers once, not fresh temporaries per step.

        Measured in a fresh process, around the first build: a build that
        allocated its term and split arrays anew for each of its 32 steps
        faulted ~12 000 times, against theta's 4 097 pages.
        """
        faults, nbytes = _build_faults(2**21)
        assert nbytes == (2**21 + 1) * 8
        assert faults < nbytes / resource.getpagesize() + 1000

    def test_workers_share_out_one_buffer_budget(self):
        """Four workers fault no more than one: their buffers share one _GROW_TERMS budget.

        Giving each worker buffers of _GROW_TERMS terms took this build from
        ~900 to ~2 150 faults.
        """
        faults, nbytes = _build_faults(2**21, workers=4)
        assert nbytes == (2**21 + 1) * 8
        assert faults < nbytes / resource.getpagesize() + 1000

    # -- builds split among workers ---------------------------------------

    #: SIZES; one whose 41 pairs split unevenly among 2 to 5 workers; and
    #: the edges of the padding to whole pairs: terms that end on a pair (3
    #: pairs); on an odd whole block, so that a block is padding alone (5
    #: and 3 blocks); and in a partial block after one block, and after 19
    #: blocks, which at two workers split 5 pairs and 5.
    WORKER_SIZES = SIZES + (
        5 * _GROW_TERMS + 7, 3 * _PAIR + 1, 5 * _BLOCK + 1, 3 * _BLOCK + 1, _BLOCK + 2, _GROW_TERMS + 3 * _BLOCK + 2
    )

    @pytest.fixture
    def threads_used(self, monkeypatch):
        """Set up to record the thread of each build step; yields the set of threads.

        The interpreter switches threads every microsecond meanwhile, so that
        the workers' Python code interleaves as finely as it can.
        """
        used = set()
        angle_terms = spiral._angle_terms

        def recorded(k):
            used.add(threading.current_thread())  # held, so never reused as an id can be
            return angle_terms(k)

        monkeypatch.setattr(spiral, "_angle_terms", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield used
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", WORKER_SIZES)
    def test_build_is_bitwise_at_each_worker_count(self, n, workers, threads_used, monkeypatch):
        monkeypatch.setattr(spiral, "_workers", lambda: workers)
        got = SpiralTable(n).theta_array
        assert got.shape == (n + 1,)  # the padding to whole pairs stays out
        assert np.array_equal(got.view(np.uint64), _theta_oracle(n).view(np.uint64))
        # one thread per worker, capped at the build's steps of _GROW_TERMS terms
        assert len(threads_used) == min(workers, -(-(n - 1) // _GROW_TERMS))

    @pytest.mark.parametrize("workers", [9, 17])
    def test_build_is_bitwise_a_pair_a_step(self, workers, threads_used, monkeypatch):
        """Past 8 workers each step is one pair: 137 pairs, 15 or 16 a worker at 9 workers, 8 or 9 at 17."""
        monkeypatch.setattr(spiral, "_workers", lambda: workers)
        n = 17 * _GROW_TERMS + 5
        got = SpiralTable(n).theta_array
        assert got.shape == (n + 1,)
        assert np.array_equal(got.view(np.uint64), _theta_oracle(n).view(np.uint64))
        assert len(threads_used) == workers

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_ensure_grows_a_threaded_table(self, workers, threads_used, monkeypatch):
        monkeypatch.setattr(spiral, "_workers", lambda: workers)
        small, large = 3 * _GROW_TERMS + 5, 5 * _GROW_TERMS + 7
        table = SpiralTable(small)
        assert np.array_equal(table.theta_array.view(np.uint64), _theta_oracle(small).view(np.uint64))
        assert len(threads_used) == workers
        threads_used.clear()
        table.ensure(large)
        assert table.n_max == large
        assert np.array_equal(table.theta_array.view(np.uint64), _theta_oracle(large).view(np.uint64))
        assert len(threads_used) == workers

    @pytest.mark.parametrize(
        "failing_step",
        [
            pytest.param(lambda k0: k0 == _GROW_TERMS // 4 + 1, id="second-step-of-the-calling-thread"),
            pytest.param(lambda k0: k0 > 4 * _GROW_TERMS, id="late-steps-of-the-last-worker"),
        ],
    )
    def test_a_failing_step_fails_the_build(self, failing_step, monkeypatch):
        """The exception of a step past the first reaches the caller after every worker ends.

        At four workers each step is _GROW_TERMS // 4 terms, and the last of
        the four runs of a 5 * _GROW_TERMS + 7 build starts at term 245 760.
        """
        n = 5 * _GROW_TERMS + 7

        class StepFailed(Exception):
            pass

        angle_terms = spiral._angle_terms

        def failing(k):
            if failing_step(k[0]):
                raise StepFailed(k[0])
            return angle_terms(k)

        monkeypatch.setattr(spiral, "_workers", lambda: 4)
        monkeypatch.setattr(spiral, "_angle_terms", failing)
        before = threading.active_count()
        with pytest.raises(StepFailed):
            SpiralTable(n)
        assert threading.active_count() == before
        table = SpiralTable(_GROW_TERMS)  # its one step is the build's first
        kept = table.theta_array
        with pytest.raises(StepFailed):
            table.ensure(n)
        assert threading.active_count() == before
        assert table.n_max == _GROW_TERMS
        assert table.theta_array.base is kept.base
        assert np.array_equal(kept.view(np.uint64), _theta_oracle(_GROW_TERMS).view(np.uint64))


def _build_faults(n, workers=None):
    """The minor page faults of one SpiralTable(n) build in a fresh process, and theta's bytes."""
    src = Path(spiral.__file__).resolve().parents[1]
    args = [str(n)] if workers is None else [str(n), str(workers)]
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_FAULTS, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    faults, nbytes = map(int, proc.stdout.split())
    return faults, nbytes


#: Print the minor page faults of one SpiralTable(argv[1]) build, and theta's
#: bytes; argv[2], if given, sets the build's worker count.
_BUILD_FAULTS = """
import resource, sys
from rootspiral import spiral
if len(sys.argv) > 2:
    spiral._workers = lambda: int(sys.argv[2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
table = spiral.SpiralTable(int(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, table.theta_array.nbytes)
"""


def _fsum_rows(rows):
    return np.array([math.fsum(row.tolist()) for row in rows])


def _exponent_spread(rows):
    e = np.frexp(rows)[1]
    return e.max(axis=1) - e.min(axis=1)


def _row_summing_to(rng, target_of):
    """Integers m_0 .. m_4095 that sum exactly to target_of(S).

    S is the sum of a random start row with m_i in [2**23, 2**51); target_of
    must return an integer in [S, 2*S]. The difference is spread evenly over
    the row, so every m_i stays in [2**23, 2**52): as doubles their binary
    exponents span at most 28, so with its largest term moved first the row
    meets the precondition of _pair_sums.
    """
    m = rng.integers(2**23, 2**51, size=_BLOCK).tolist()
    start = sum(m)
    target = target_of(start)
    assert start <= target <= 2 * start
    share, rest = divmod(target - start, _BLOCK)
    m = [v + share for v in m]
    m[-1] += rest
    assert sum(m) == target and max(m) < 2**52
    return np.array(m, dtype=np.float64), target


def _ulp(total):
    """Spacing of the doubles in the binade of the positive integer total."""
    return 2 ** (total.bit_length() - 53)


def _tie_rounding_down(total):
    """The next integer >= total halfway between a double with even mantissa and the one above."""
    u = _ulp(total)
    t = total // (2 * u) * 2 * u + u // 2
    return t if t >= total else t + 2 * u


def _tie_rounding_up(total):
    """The next integer >= total halfway between a double with odd mantissa and the one above."""
    u = _ulp(total)
    t = total // (2 * u) * 2 * u + 3 * u // 2
    return t if t >= total else t + 2 * u


def _near_power(ulps):
    """The power of two P above total, moved by `ulps` times the spacing of the doubles below P."""

    def target(total):
        p = 1 << total.bit_length()
        return p + int(ulps * _ulp(p - 1))

    return target


#: Each row target of the rounding-edge tests, and how the row's exact sum rounds to a double.
_ROUNDING_EDGES = {
    _tie_rounding_down: "tie down",
    _tie_rounding_up: "tie up",
    _near_power(0): "exact",  # lands on the power of two
    _near_power(-1): "exact",  # the double just below it
    _near_power(-0.5): "tie up",  # rounds up into the next binade
    _near_power(-0.25): "up",
    _near_power(1): "tie down",  # the spacing above P is twice as wide
    _near_power(3): "tie up",
}


def _as_pairs(lane0, lane1):
    """Rows of two blocks each, laid out as pairs: row p interleaves lane0[p] and lane1[p]."""
    pairs = np.empty(lane0.shape, dtype=np.complex128)
    pairs.real, pairs.imag = lane0, lane1
    return pairs


def _sums_as_pairs(rows):
    """_pair_sums of an even number of rows, rows 2p and 2p + 1 laid out as pair p."""
    pairs = _as_pairs(rows[0::2], rows[1::2])
    return _pair_sums(pairs, np.empty_like(pairs))


def _block_sums(rows):
    """_pair_sums of each row alone, in both lanes of a pair: row r of the result is row r's two lane sums."""
    pairs = _as_pairs(rows, rows)
    return _pair_sums(pairs, np.empty_like(pairs)).reshape(-1, 2)


def _in_both_lanes(got, want):
    """Whether each row of _block_sums' result holds the bits of want's entry in both lanes."""
    return np.array_equal(got.view(np.uint64), np.repeat(want.view(np.uint64)[:, None], 2, axis=1))


def _meets_pair_precondition(rows):
    """No term above its row's first term's binade and the next, none more than 28 binades below the first."""
    e = np.frexp(rows)[1]
    return bool(np.all(e.max(axis=1) <= e[:, 0] + 1) and np.all(e[:, 0] - e.min(axis=1) <= 28))


def _led_from_below_the_top(x):
    """x with, in each row, a term of the binade just below the row's largest moved first.

    The row's sum is unchanged, and a row whose exponents span 29 binades
    then meets the precondition of _pair_sums.
    """
    e = np.frexp(x)[1]
    below_top = e.max(axis=1) - 1
    lead = np.argmax(e == below_top[:, None], axis=1)
    r = np.arange(len(x))
    assert np.all(e[r, lead] == below_top)
    x = x.copy()
    x[r, 0], x[r, lead] = x[r, lead], x[r, 0]
    return x


#: The binary scales of the rounding-edge rows.
_EDGE_SCALES = (-900, -113, -70, -63, 0, 40, 900)


def _rounding_edge_rows(target_of):
    """_row_summing_to's rows scaled by each of _EDGE_SCALES, each with its largest term moved first,
    and the integer each row sums to before its scaling."""
    rng = np.random.default_rng(7)
    rows, targets = [], []
    for scale in _EDGE_SCALES:
        m, target = _row_summing_to(rng, target_of)
        top = int(m.argmax())
        m[0], m[top] = m[top], m[0]
        rows.append(np.ldexp(m, scale))
        targets.append(target)
    return np.array(rows), targets


def _low_part_rows(low, off_tie):
    """Four rows whose low parts all share one sign, next to one term at the full spread of 29
    binades, and their exact sums rounded to nearest.

    In units of 2**-82: the first term is 2**80 + low - 2**29, in [0.25, 0.5), so E = 0 and
    the split grid is 2**41 units; 4094 terms in [0.5, 1) are 2**81 + j * 2**44 + low - 2**29.
    Their low parts sum to ~4094 * low, which with low = 2**40 fills 52 bits, and on a grid
    four times coarser (low = 2**42) would need 54. One term in [2**-30, 2**-29), 28 binades
    below the first, puts the exact sum one unit off a tie, so any rounding of the low parts
    shows in the result.
    """
    rng = np.random.default_rng(11)
    rows, sums = [], []
    for _ in range(4):
        m = [2**80 + low - 2**29]
        m += [2**81 + j * 2**44 + low - 2**29 for j in rng.integers(0, 2**36, size=_BLOCK - 2).tolist()]
        rest = sum(m)
        u = _ulp(rest)
        m.append(2**52 + (u // 2 + off_tie - rest - 2**52) % u)
        total = sum(m)
        assert total % u == u // 2 + off_tie and 2**52 <= m[-1] < 2**53
        rows.append(np.ldexp(np.array(m, dtype=np.float64), -82))
        sums.append(math.ldexp(float(total), -82))
    x = np.array(rows)
    assert _meets_pair_precondition(x) and np.all(_exponent_spread(x) == 29)
    return x, np.array(sums)


def _real_rows():
    """The terms of a 1e7 build, and its 2441 whole blocks as rows."""
    terms = _angle_terms(np.arange(1, 10**7, dtype=np.float64))
    rows = terms[: len(terms) // _BLOCK * _BLOCK].reshape(-1, _BLOCK)
    assert len(rows) == 2441 and _meets_pair_precondition(rows)
    return terms, rows


class TestBlockSums:
    """A block's sum by _pair_sums, in either lane, is its exact sum rounded to nearest, ties to even, as math.fsum."""

    def test_random_rows_at_widest_spread(self):
        rng = np.random.default_rng(20261018)
        rows, spread = 64, 29
        base = rng.integers(-1000, 960, size=(rows, 1))
        e = base + rng.integers(0, spread, endpoint=True, size=(rows, _BLOCK))
        e[:, 0], e[:, 1] = base[:, 0], base[:, 0] + spread  # every row at the full spread
        mantissa = rng.integers(2**52, 2**53, size=(rows, _BLOCK)).astype(np.float64)
        x = np.ldexp(mantissa, e - 53)  # full 53-bit mantissas, frexp exponent e
        assert np.all(x > 0) and np.all(_exponent_spread(x) == spread)
        x = _led_from_below_the_top(x)
        assert _meets_pair_precondition(x)
        assert _in_both_lanes(_block_sums(x), _fsum_rows(x))

    @pytest.mark.parametrize("target_of, rounds", list(_ROUNDING_EDGES.items()))
    def test_exact_sums_on_rounding_edges(self, target_of, rounds):
        rows, targets = _rounding_edge_rows(target_of)
        sums = []
        for scale, target in zip(_EDGE_SCALES, targets):
            nearest = float(target)  # int -> float rounds to nearest, ties to even
            toward = math.nextafter(nearest, math.inf if target > int(nearest) else -math.inf)
            if rounds == "exact":
                assert int(nearest) == target
            elif rounds.startswith("tie"):
                assert int(nearest) + int(toward) == 2 * target
            assert (int(nearest) > target) == rounds.endswith("up")
            sums.append(math.ldexp(nearest, scale))
        sums = np.array(sums)
        assert _meets_pair_precondition(rows) and np.array_equal(_fsum_rows(rows), sums)
        assert _in_both_lanes(_block_sums(rows), sums)

    @pytest.mark.parametrize("low", [2**40, 2**42])
    @pytest.mark.parametrize("off_tie", [-1, 1])
    def test_low_parts_at_their_bound(self, low, off_tie):
        x, sums = _low_part_rows(low, off_tie)
        assert np.array_equal(_fsum_rows(x), sums)
        assert _in_both_lanes(_block_sums(x), sums)

    def test_real_blocks_of_a_1e7_build(self):
        terms, rows = _real_rows()
        spread = _exponent_spread(rows)
        assert spread[0] == spread.max() == 6  # block 1 is the widest, far inside 29
        assert _block_sums(rows[:1])[0, 0] == math.fsum(terms[:_BLOCK])
        got = np.concatenate([_block_sums(rows[a:a + 128]) for a in range(0, len(rows), 128)])
        assert _in_both_lanes(got, _fsum_rows(rows))


class TestPairSums:
    """_pair_sums sums the two blocks of a pair apart, bit-equal to math.fsum, in block order."""

    def test_real_blocks_of_a_1e7_build(self):
        _, rows = _real_rows()
        want = _fsum_rows(rows)
        for lo in (0, 1):  # paired from block 0 and from block 1, so every block is summed
            blocks = rows[lo:lo + 2440]
            got = np.concatenate([_sums_as_pairs(blocks[a:a + 128]) for a in range(0, len(blocks), 128)])
            assert np.array_equal(got.view(np.uint64), want[lo:lo + 2440].view(np.uint64))

    @pytest.mark.parametrize("target_of", list(_ROUNDING_EDGES))
    def test_exact_sums_on_rounding_edges(self, target_of):
        """TestBlockSums' rows on rounding edges, each paired with the row of the next scale."""
        rows, _ = _rounding_edge_rows(target_of)
        nxt = np.roll(rows, -1, axis=0)  # every row in either lane
        pairs = _as_pairs(rows, nxt)
        want = np.stack([_fsum_rows(rows), _fsum_rows(nxt)], axis=1).ravel()
        got = _pair_sums(pairs, np.empty_like(pairs))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_random_rows_at_widest_spread(self):
        """Full 53-bit mantissas one binade above the first term and 28 below it: 29 binades."""
        rng = np.random.default_rng(20261021)
        rows, spread = 64, 29
        base = rng.integers(-1000, 960, size=(rows, 1))
        e = base + rng.integers(0, spread, endpoint=True, size=(rows, _BLOCK))
        e[:, 0], e[:, 1], e[:, 2] = base[:, 0] + spread - 1, base[:, 0], base[:, 0] + spread
        mantissa = rng.integers(2**52, 2**53, size=(rows, _BLOCK)).astype(np.float64)
        x = np.ldexp(mantissa, e - 53)  # full 53-bit mantissas, frexp exponent e
        assert np.all(x > 0) and np.all(_exponent_spread(x) == spread) and _meets_pair_precondition(x)
        assert np.array_equal(_sums_as_pairs(x).view(np.uint64), _fsum_rows(x).view(np.uint64))

    @pytest.mark.parametrize("scale", [-900, -1, 0, 900])
    def test_later_terms_above_the_first(self, scale):
        """The first term is the double just below a power of two P, the next is P, one ulp above it,
        and the others fill [P, 2P). Split on the grid of the first term's own binade, their high
        parts would sum to ~1.5 * 2**53 grid steps and round: the margin of one binade keeps them exact.
        """
        rng = np.random.default_rng(scale + 1000)
        p = math.ldexp(1.0, scale)
        x = p * (1.0 + np.ldexp(rng.integers(0, 2**52, size=(8, _BLOCK)).astype(np.float64), -52))
        x[:, 0], x[:, 1] = math.nextafter(p, 0.0), p
        assert _meets_pair_precondition(x) and np.all(np.frexp(x[:, 1:])[1] == np.frexp(x[:, :1])[1] + 1)
        assert np.array_equal(_sums_as_pairs(x).view(np.uint64), _fsum_rows(x).view(np.uint64))

    @pytest.mark.parametrize("low", [2**40, 2**42])
    @pytest.mark.parametrize("off_tie", [-1, 1])
    def test_low_parts_at_their_bound(self, low, off_tie):
        """TestBlockSums' rows with low parts at their bound, two to a pair."""
        x, sums = _low_part_rows(low, off_tie)
        assert np.array_equal(_sums_as_pairs(x).view(np.uint64), sums.view(np.uint64))
