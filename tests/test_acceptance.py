"""Acceptance suite: the eleven headline criteria, one test each.

Each test prints a `[acceptance] ... PASS/FAIL` line via the conftest hook.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rootspiral.claims import all_claims, claimed_divisors
from rootspiral.discovery import (
    axis_symmetry,
    canonical_shift,
    point_symmetry_pairs,
    square_number_arms,
)
from rootspiral.quadratics import divisible_by, rotation_of
from rootspiral.spiral import SpiralTable

GOLDEN = Path(__file__).parent / "golden"


def test_criterion_01_divisibility(table, published_polynomials):
    """All 28 published polynomials divisible by their divisor, two methods."""
    assert len(published_polynomials) == 28
    for cp in published_polynomials:
        assert divisible_by(cp.poly, cp.divisor), cp.label
        assert all(cp.poly.eval(x) % cp.divisor == 0 for x in range(0, 1001))


def test_criterion_02_second_differentials(published_polynomials):
    """Computed second differential equals the published value, exactly."""
    want = {2: {18, 20}, 3: {18, 21}, 5: {20}, 11: {22}, 13: {13, 26}, 17: {17}}
    seen: dict[int, set[int]] = {}
    for cp in published_polynomials:
        assert cp.poly.second_differential == cp.second_differential, cp.label
        seen.setdefault(cp.divisor, set()).add(cp.poly.second_differential)
    assert seen == want


def test_criterion_03_rotation_concordance(table, published_polynomials):
    """Drift-sign rotation matches published labels except the known
    equal-A discordances, which are flagged rather than failed."""
    discordant = []
    for cp in published_polynomials:
        hi = 40
        while cp.poly.eval(hi + 1) > table.n_max:
            hi -= 1
        got = rotation_of([cp.poly.eval(x) for x in range(5, hi + 1)], table, 0.005)
        if got is not cp.rotation_label:
            discordant.append((cp.divisor, cp.label))
    assert sorted(discordant) == [(5, "P1"), (11, "P1"), (17, "N1")]
    assert len(published_polynomials) - len(discordant) == 25


def test_criterion_04_count_identity():
    """(system count) x divisor = second differential for all nine rows."""
    instances = set()
    for d, claims in all_claims().items():
        for direction, count in claims.system_counts.items():
            A = claims.second_differentials[direction]
            assert count * d == A, f"d={d} {direction}"
            instances.add((count, d, A))
    assert len(instances) == 9


def test_criterion_05_discovery_reproduction(reports, table, published_polynomials):
    """Discovery reproduces published system counts and contains every
    published polynomial (as a member sequence, up to index shift)."""
    want = {
        2: {"negative": 10, "positive": 9},
        3: {"negative": 7, "positive": 6},
        5: {"negative": 4, "positive": 4},
        11: {"negative": 2, "positive": 2},
        13: {"negative": 2, "positive": 1},
        17: {"negative": 1, "positive": 1},
    }
    for d, expected in want.items():
        assert reports[d].counts == expected, f"d={d}"
    for cp in published_polynomials:
        target = canonical_shift(cp.poly)
        found = any(
            arm.poly == target
            for system in reports[cp.divisor].systems
            for arm in system.arms
        )
        assert found, f"d={cp.divisor} {cp.label} {cp.poly}"


def test_criterion_06_spacing(reports):
    """Measured system spacings within 10% of the published angles."""
    want = {
        (2, "negative"): 36.0,
        (2, "positive"): 40.0,
        (3, "negative"): 51.43,
        (3, "positive"): 60.0,
        (5, "negative"): 90.0,
        (5, "positive"): 90.0,
    }
    for (d, direction), expected in want.items():
        got = reports[d].spacing_deg[direction]
        assert got == pytest.approx(expected, rel=0.10), f"d={d} {direction}"


def test_criterion_07_symmetry(reports, table):
    """Point-symmetric pairs at 8 degrees; d=13 mirror axis near the
    vertex(116)-vertex(152) chord."""
    neg2 = [s for s in reports[2].systems if s.rotation.value == "negative"]
    assert len(point_symmetry_pairs(neg2, 8.0)) == 5
    pos3 = [s for s in reports[3].systems if s.rotation.value == "positive"]
    assert len(point_symmetry_pairs(pos3, 8.0)) == 3
    n1, n2 = [s for s in reports[13].systems if s.rotation.value == "negative"]
    result = axis_symmetry(n1, n2, table)
    assert result.symmetric
    x1, y1 = table.vertex(116)
    x2, y2 = table.vertex(152)
    chord = math.atan2(y2 - y1, x2 - x1) % math.pi
    err = abs((result.axis_angle - chord + math.pi / 2) % math.pi - math.pi / 2)
    assert math.degrees(err) < 10.0


def test_criterion_08_pi_limit():
    """Winding gap approaches pi monotonically across decades of n."""
    t = SpiralTable(110000)
    gaps = [abs(t.winding_gap(10**k) - math.pi) for k in (2, 3, 4, 5)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[2] < 0.05  # n = 10^4


def test_criterion_09_square_three_symmetry(table):
    """Square-number arms: second differential 18, separations 114.6 +- 5."""
    polys, seps = square_number_arms(table)
    assert all(q.second_differential == 18 for q in polys)
    assert len(seps) == 3
    for s in seps:
        assert abs(s - 114.6) <= 5.0


def test_criterion_10_geometry_invariants():
    """Exact-construction invariants to 1e-9; angle kernel vs extended-
    precision oracle to 1e-8 up to 10^6."""
    t = SpiralTable(1000000)
    n = np.arange(1, 100001)
    theta = t.theta_array[1:100001]
    r = np.sqrt(n)
    x, y = r * np.cos(theta), r * np.sin(theta)
    assert np.max(np.abs(x * x + y * y - n) / n) < 1e-9
    dx, dy = np.diff(x), np.diff(y)
    assert np.max(np.abs(np.hypot(dx, dy) - 1.0)) < 1e-9
    assert np.max(np.abs(x[:-1] * dx + y[:-1] * dy)) < 1e-9
    k = np.arange(1, 1000000, dtype=np.longdouble)
    oracle = np.cumsum(np.arctan(1.0 / np.sqrt(k)))
    got = t.theta_array[2:1000001].astype(np.longdouble)
    assert float(np.max(np.abs(got - oracle))) < 1e-8


def test_criterion_11_determinism(tmp_path):
    """`report --all` is byte-deterministic; its outputs match the goldens."""
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rootspiral.cli", "report", "--all",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(out)
    files = sorted(p.name for p in runs[0].iterdir())
    assert files == sorted(p.name for p in runs[1].iterdir())
    assert len(files) == 18  # 3 files x 6 divisors
    for name in files:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    goldens = [GOLDEN / f"report_d{d}.{ext}" for d in claimed_divisors() for ext in ("json", "txt")]
    goldens.append(GOLDEN / "figure_d17.svg")  # the other figures are pinned by digest
    assert len(goldens) == 13
    for golden in goldens:
        assert (runs[0] / golden.name).read_bytes() == golden.read_bytes(), golden.name
