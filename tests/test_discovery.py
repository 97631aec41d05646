"""Arm discovery: enumeration, direction, grouping, spacing, symmetry."""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootspiral import discovery
from rootspiral.claims import all_claims, claims_for
from rootspiral.config import Config
from rootspiral.discovery import (
    Arm,
    canonical_shift,
    canonical_start,
    discover,
    discover_arms,
    enumerate_family_arms,
    families_for,
    group_into_systems,
    point_symmetry_pairs,
    axis_symmetry,
    square_number_arms,
    system_spacing,
    verify_paper_table,
)
from rootspiral.errors import RangeExhausted, TooFew
from rootspiral.quadratics import (
    HalfIntQuadratic,
    Rotation,
    asymptotic_drift,
    divisible_by,
    family_residue,
)
from rootspiral.render import export_report
from rootspiral.spiral import TWO_PI, SpiralTable

GOLDEN = Path(__file__).parent / "golden"


def _circ_diff(a, b):
    return (a - b + math.pi) % TWO_PI - math.pi


def _link_chains(numbers, table, angular_tol=0.35, settle_winding=2):
    """Greedy winding-by-winding linkage of spiral numbers into chains.

    An independent route to arms: for each number on winding w, the
    candidate successor is the number on winding w + 1 with the nearest
    reduced angle. The link is kept if the angular distance is within
    angular_tol and no closer predecessor claims the same successor (ties
    break toward smaller n). Linking starts at settle_winding because the
    innermost windings are too crowded for a greedy nearest-angle rule.
    """
    by_winding = {}
    for n in numbers:
        by_winding.setdefault(table.winding_of(n), []).append(n)
    reduced = {n: table.angle(n) % TWO_PI for n in numbers}
    links = {}  # predecessor -> successor
    claimed = {}  # successor -> (distance, predecessor)
    for w in sorted(by_winding):
        nxt = by_winding.get(w + 1, [])
        if w < settle_winding or not nxt:
            continue
        for n in sorted(by_winding[w]):
            best = min(nxt, key=lambda m: (abs(_circ_diff(reduced[m], reduced[n])), m))
            dist = abs(_circ_diff(reduced[best], reduced[n]))
            if dist > angular_tol:
                continue
            prev = claimed.get(best)
            if prev is not None and prev <= (dist, n):
                continue
            if prev is not None:
                del links[prev[1]]
            claimed[best] = (dist, n)
            links[n] = best
    chains, chained = [], set()
    for w in sorted(by_winding):
        if w < settle_winding:
            continue
        for n in sorted(by_winding[w]):
            if n in claimed or n in chained:
                continue
            chain = [n]
            while chain[-1] in links:
                chain.append(links[chain[-1]])
            chained.update(chain)
            chains.append(chain)
    return chains


def _fit_chain(values):
    """The quadratic f with f(x) = values[x] for every x, or None if none has A > 0.

    It is fitted at x = 0, 1, 2: A is the second difference, B = 2*(y1 - y0) - A
    and C = 2*y0. On consecutive integers A + B and C are always even, so
    every integer chain fits a half-integer quadratic or none.
    """
    y0, y1, y2 = values[:3]
    a = y2 - 2 * y1 + y0
    if a <= 0:
        return None
    q = HalfIntQuadratic(a, 2 * (y1 - y0) - a, 2 * y0)
    return q if all(q.eval(x) == y for x, y in enumerate(values)) else None


def _chains_to_polys(chains, d, min_len=5):
    """Canonical polynomials of the chains that fit a quadratic divisible by d."""
    polys = []
    for chain in chains:
        q = _fit_chain(chain) if len(chain) >= min_len else None
        if q is not None and divisible_by(q, d):
            polys.append(canonical_shift(q))
    return polys


class TestLinkChains:
    def test_single_synthetic_arm_relinks(self, table):
        q = HalfIntQuadratic(18, 42, 16)
        numbers = [q.eval(x) for x in range(3, 13)]
        assert _link_chains(numbers, table) == [numbers]

    def test_two_far_arms_stay_separate(self, table):
        a = HalfIntQuadratic(18, 42, 16)
        b = HalfIntQuadratic(18, 26, 12)  # same family, distant rung
        # sample windows where neither arm's reduced angle crosses the 2*pi
        # seam (a seam crossing puts two members on one winding and splits
        # the chain by design)
        sample_a = [a.eval(x) for x in range(3, 13)]
        sample_b = [b.eval(x) for x in range(8, 18)]
        chains = _link_chains(sorted(sample_a + sample_b), table)
        assert sorted(chains) == sorted([sample_a, sample_b])

    def test_single_point_and_empty(self, table):
        assert _link_chains([], table) == []
        assert _link_chains([100], table) == [[100]]


class TestChainsToArms:
    def test_published_member_lists_recover_their_polynomials(self):
        for d in (2, 3, 5, 11, 13, 17):
            for cp in claims_for(d).polynomials:
                chain = [cp.poly.eval(x) for x in range(8)]
                assert _chains_to_polys([chain], d) == [canonical_shift(cp.poly)], cp.label

    def test_corrupted_chain_rejected(self):
        q = HalfIntQuadratic(18, 42, 16)
        numbers = [q.eval(x) for x in range(8)]
        numbers[5] += 2
        assert _chains_to_polys([numbers], 2) == []

    def test_arithmetic_chain_rejected(self):
        assert _chains_to_polys([list(range(100, 160, 10))], 2) == []

    def test_short_chain_discarded(self):
        q = HalfIntQuadratic(18, 42, 16)
        assert _chains_to_polys([[q.eval(x) for x in range(4)]], 2) == []

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=1, max_value=60),
        b=st.integers(min_value=-200, max_value=200),
        c=st.integers(min_value=0, max_value=200),
    )
    def test_fit_round_trip_property(self, a, b, c):
        if (a + b) % 2:
            b += 1
        q = HalfIntQuadratic(a, b, 2 * c)
        assert _fit_chain([q.eval(x) for x in range(6)]) == q

    def test_arm_invariants(self, table):
        """A discovered arm is its polynomial's values, one winding apart once settled."""
        (arm,) = [a for a in discover_arms(2, table=table, config=Config()) if a.poly == HalfIntQuadratic(20, 28, 4)]
        numbers = arm.members
        assert all(n % 2 == 0 for n in numbers)
        assert all(arm.poly.eval(x) == n for x, n in enumerate(numbers))
        winds = [table.winding_of(n) for n in numbers]
        settled = winds[2:]
        assert all(b - a == 1 for a, b in zip(settled, settled[1:]))


class TestRediscoveryClosure:
    def test_discovered_arms_relink_to_themselves(self, table):
        """Feeding an arm's members back through the linker recovers it.

        Holds for families whose per-winding drift stays within the linking
        tolerance; steeper families (|asymptotic drift| > 0.35 rad) step
        across the tolerance by design and are found by family enumeration
        instead.
        """
        checked = 0
        for d in (2, 3, 5):
            for system in discover(d, table=table).systems:
                for arm in system.arms[:2]:
                    if abs(asymptotic_drift(arm.poly.A)) > 0.35:
                        continue
                    polys = _chains_to_polys(_link_chains(arm.members, table), d)
                    assert arm.poly in polys, str(arm.poly)
                    checked += 1
        assert checked > 0


def _scalar_member_numbers(q, n_max):
    """Values f(0), f(1), ... while <= n_max; None if any dips below 1."""
    out, x = [], 0
    while True:
        v = q.eval(x)
        if v > n_max:
            return out
        if v < 1:
            return None
        out.append(v)
        x += 1


def _scalar_settled_run_start(q, numbers, theta, tol):
    """First index from which every step drift stays within tol of the asymptote."""
    target = asymptotic_drift(q.A)
    start = None
    for i in range(len(numbers) - 1):
        dr = theta[numbers[i + 1]] - theta[numbers[i]] - TWO_PI
        if abs(dr - target) <= tol:
            if start is None:
                start = i
        else:
            start = None
    return start


def _scan_family_residues(A, d):
    """Valid (B mod 2d, C mod 2d) residue classes of the family (A, d), by scanning.

    A residue pair is valid when (Ax^2 + Bx + C)/2 is an integer multiple
    of d, i.e. Ax^2 + Bx + C = 0 (mod 2d), for every x in one full period
    0 .. 2d-1 (an exact decision). Each x drops the pairs it rules out.
    """
    pairs = [(br, cr) for br in range(2 * d) for cr in range(0, 2 * d, 2)]
    for x in range(2 * d):
        pairs = [(br, cr) for br, cr in pairs if (A * x * x + br * x + cr) % (2 * d) == 0]
    return pairs


#: The scalar oracle's top of B, a fixed box; the tests that run it assert
#: that it covers discovery._b_max for their config.
_ORACLE_B_TOP = 1500


def _scalar_family_arms(A, d, table, cfg):
    """Family enumeration one candidate and one angle read at a time."""
    theta = table.theta_array.tolist()
    found = []
    for br, cr in _scan_family_residues(A, d):
        c_lo = cr if cr >= 2 else cr + 2 * d
        for C in range(c_lo, 2 * cfg.centre_cap + 1, 2 * d):
            b_values = list(range(br, _ORACLE_B_TOP, 2 * d)) + list(
                range(br - 2 * d, -A - 1, -2 * d)
            )
            for B in b_values:
                fm1 = A - B + C
                if not (fm1 <= 0 or fm1 > C):
                    continue
                q = HalfIntQuadratic(A, B, C)
                numbers = _scalar_member_numbers(q, cfg.n_max)
                if numbers is None or len(numbers) < cfg.min_chain_len:
                    continue
                start = _scalar_settled_run_start(q, numbers, theta, cfg.angular_tol_rad)
                if start is None or start > cfg.run_start_max:
                    continue
                if len(numbers) - start < cfg.min_chain_len:
                    continue
                found.append((q, numbers))
    found.sort(key=lambda item: (item[0].B % (2 * A), item[0].B, item[0].C))
    return found


def test_canonical_shift_fixes_exactly_the_canonical_starts():
    """canonical_shift(q) == q exactly where canonical_start holds, for C >= 2,
    and that is where f(-1) <= 0 or f(-1) > f(0); the predicate gives the
    same answers on numpy arrays."""
    box = [
        (A, B, C)
        for A in range(1, 13)
        for B in range(-40, 41)
        if (A + B) % 2 == 0
        for C in range(2, 41, 2)
    ]
    want = [canonical_start(A, B, C) for A, B, C in box]
    for (A, B, C), w in zip(box, want):
        q = HalfIntQuadratic(A, B, C)
        assert w is (q.eval(-1) <= 0 or q.eval(-1) > q.eval(0)), (A, B, C)
        assert (canonical_shift(q) == q) is w, (A, B, C)
    A, B, C = (np.array(col) for col in zip(*box))
    assert canonical_start(A, B, C).tolist() == want
    assert 0 < sum(want) < len(want)


@pytest.fixture(scope="module")
def table_2e5():
    return SpiralTable(200000)


class TestFamilyEnumeration:
    def test_family_residue_matches_scan(self):
        for d in range(2, 41):
            for A in range(1, 4 * d + 1):
                got = family_residue(A, d)
                assert ([] if got is None else [got]) == _scan_family_residues(A, d), (A, d)

    @pytest.mark.parametrize(
        "cfg",
        [
            Config(),
            Config(n_max=10000),
            Config(n_max=60000),
            Config(angular_tol_rad=0.25),
            Config(centre_cap=40, run_start_max=5),
            Config(min_chain_len=30),  # the settled-tail gate binds here
            Config(run_start_max=0),  # the derived box reads step 0 alone
            Config(run_start_max=40),  # the derived box widens about fourfold
            Config(n_max=300),  # x = run_start_max + 1 lies past most families' grid width
        ],
        ids=[
            "default", "n_max=10000", "n_max=60000", "tol=0.25", "cap=40,start=5", "len=30",
            "start=0", "start=40", "n_max=300",
        ],
    )
    def test_matches_scalar_oracle(self, table, cfg):
        # The shared `table` fixture runs past n_max = 20000 and 10000; a table of
        # exactly n_max = 60000 entries has nothing to read past its end.
        if cfg.n_max > table.n_max:
            table = SpiralTable(cfg.n_max)
        for d in (2, 3, 4, 5, 6, 7, 11, 13, 17):
            for A in sorted(set(families_for(d).values())):
                # unclamped, run_start_max gives the widest box the grid can use
                assert discovery._b_max(A, cfg.run_start_max, cfg) <= _ORACLE_B_TOP, (d, A)
                got = enumerate_family_arms(A, d, table=table, config=cfg)
                assert got == _scalar_family_arms(A, d, table, cfg), (d, A)

    def test_finds_the_arm_past_the_old_fixed_box(self, table_2e5):
        """21x^2 + 609x + 42 (B = 1218) settles by step 40; a box of B < 1200 missed it."""
        cfg = Config(n_max=200000, run_start_max=40)
        assert discovery._b_max(42, cfg.run_start_max, cfg) <= _ORACLE_B_TOP
        got = enumerate_family_arms(42, 42, table=table_2e5, config=cfg)
        arm = dict(got).get(HalfIntQuadratic(42, 1218, 84))
        assert arm is not None and len(arm) == 85
        assert got == _scalar_family_arms(42, 42, table_2e5, cfg)

    @pytest.mark.parametrize("run_start_max", [7, 40])
    def test_no_candidate_past_the_derived_box_passes_a_step(self, table_2e5, run_start_max):
        """Every in-arm step x <= run_start_max of every canonical candidate
        with _b_max <= B < 6000 fails the drift gate, read against the table."""
        cfg = Config(n_max=200000, run_start_max=run_start_max)
        theta = table_2e5.theta_array
        checked = 0
        for d in range(2, 60):
            for A in sorted(set(families_for(d).values())):
                residue = family_residue(A, d)
                if residue is None:
                    continue
                s = min(run_start_max, math.isqrt(2 * cfg.n_max // A) + 1)
                b_max = discovery._b_max(A, s, cfg)
                first = b_max + (residue[0] - b_max) % (2 * d)
                B, C = np.meshgrid(
                    np.arange(first, 6000, 2 * d), np.arange(2 * d, 2 * cfg.centre_cap + 1, 2 * d)
                )
                keep = canonical_start(A, B, C)
                B, C = B[keep], C[keep]
                target = asymptotic_drift(A)
                for x in range(s + 1):
                    lo, hi = (A * x * x + B * x + C) // 2, (A * (x + 1) ** 2 + B * (x + 1) + C) // 2
                    inside = hi <= cfg.n_max
                    th0, th1 = theta[lo[inside]], theta[hi[inside]]
                    passes = np.abs(th1 - th0 - TWO_PI - target) <= cfg.angular_tol_rad
                    assert not passes.any(), (d, A, x)
                    checked += int(inside.sum())
        assert checked > 100000

    @pytest.mark.parametrize("d", [2, 5, 17])
    def test_discover_arms_enumerates_each_family_once(self, table, monkeypatch, d):
        calls = []

        def counted(A, d, **kwargs):
            calls.append(A)
            return enumerate_family_arms(A, d, **kwargs)

        monkeypatch.setattr(discovery, "enumerate_family_arms", counted)
        discovery.discover_arms(d, table=table, config=Config())
        assert sorted(calls) == sorted(set(families_for(d).values()))


def _early_drift(q, table, cfg):
    """Mean per-step drift over the near-centre window, up to the table's end."""
    tot, cnt = 0.0, 0
    for x in range(cfg.early_drift_lo, cfg.early_drift_hi):
        n1 = q.eval(x + 1)
        if n1 > table.n_max:
            break
        tot += table.angle(n1) - table.angle(q.eval(x)) - TWO_PI
        cnt += 1
    return tot / max(cnt, 1)


class TestDirectionSplit:
    """Where one family serves both directions, early drift splits its arms."""

    @pytest.mark.parametrize("n_max", [300, 1000, 20000])
    @pytest.mark.parametrize("d", [5, 11, 17])
    def test_matches_early_drift_oracle(self, d, n_max):
        assert len(set(families_for(d).values())) == 1
        cfg = Config(n_max=n_max)
        table = SpiralTable(n_max)  # nothing to read past n_max
        arms = discover_arms(d, table=table, config=cfg)
        assert arms
        for arm in arms:
            drift = _early_drift(arm.poly, table, cfg)
            want = Rotation.POSITIVE if drift < 0 else Rotation.NEGATIVE
            assert arm.rotation is want, str(arm.poly)

    def test_table_smaller_than_n_max_is_not_grown(self):
        table = SpiralTable(1000)
        with pytest.raises(RangeExhausted):
            discover(5, table=table, config=Config(n_max=2000))
        assert table.n_max == 1000

    def test_window_reaches_past_small_table(self):
        cfg = Config(n_max=300)
        table = SpiralTable(300)
        arms = discover_arms(17, table=table, config=cfg)
        assert any(a.poly.eval(cfg.early_drift_hi) > table.n_max for a in arms)

    def test_report_d23(self, table):
        """d >= 20: the one family A = d serves both directions, split into 1 P and 1 N system."""
        rep = discover(23, table=table)
        assert rep.counts == {"positive": 1, "negative": 1}
        assert sum(len(s.arms) for s in rep.systems) == 7
        assert export_report(rep, "json") == (GOLDEN / "report_d23.json").read_bytes()

    def test_arms_digest_d2_to_200(self, table):
        """One line (d, A, B, C, rotation, member count) per arm of discover_arms, pinned by digest."""
        lines = "".join(
            f"{d} {a.poly.A} {a.poly.B} {a.poly.C} {a.rotation.value} {len(a.members)}\n"
            for d in range(2, 201)
            for a in discover_arms(d, table=table, config=Config())
        )
        want = (GOLDEN / "arms_d2_200.sha256").read_text().split()[0]
        assert hashlib.sha256(lines.encode("ascii")).hexdigest() == want


class TestSystems:
    def test_counts_match_published_values(self, reports):
        want = {
            2: {"positive": 9, "negative": 10},
            3: {"positive": 6, "negative": 7},
            5: {"positive": 4, "negative": 4},
            11: {"positive": 2, "negative": 2},
            13: {"positive": 1, "negative": 2},
            17: {"positive": 1, "negative": 1},
        }
        for d, expected in want.items():
            assert reports[d].counts == expected, f"d={d}"

    def test_report_all_arms_are_checked_records(self, reports):
        """Enumeration builds its records unchecked; each is one the checks accept."""
        arms = [a for rep in reports.values() for s in rep.systems for a in s.arms]
        assert len(arms) == 2596
        for arm in arms:
            assert type(arm) is Arm and type(arm.poly) is HalfIntQuadratic, arm
            assert HalfIntQuadratic(*arm.poly) == arm.poly

    def test_arm_is_a_record(self):
        """An arm is the tuple (poly, divisor, members, rotation) and prints as before."""
        q = HalfIntQuadratic(18, 42, 16)
        arm = Arm(q, 2, (8, 38), Rotation.POSITIVE)
        assert arm == Arm(poly=q, divisor=2, members=(8, 38), rotation=Rotation.POSITIVE)
        assert tuple(arm) == (arm.poly, arm.divisor, arm.members, arm.rotation)
        assert hash(arm) == hash((q, 2, (8, 38), Rotation.POSITIVE))
        assert repr(arm) == (
            "Arm(poly=HalfIntQuadratic(A=18, B=42, C=16), divisor=2, members=(8, 38), "
            "rotation=<Rotation.POSITIVE: 'positive'>)"
        )
        with pytest.raises(AttributeError):
            arm.members = ()

    def test_single_arm_single_system(self, table):
        q = canonical_shift(HalfIntQuadratic(18, 42, 16))
        members = tuple(q.eval(x) for x in range(8))
        arm = Arm(poly=q, divisor=2, members=members, rotation=Rotation.POSITIVE)
        (system,) = group_into_systems([arm], table)
        assert system.label == "P1"
        assert system.arms == (arm,)
        assert system.anchor_angle == arm.angle_at_radius(math.sqrt(members[-1]), table)

    def test_anchor_at_any_radius_matches_the_scan(self, reports, table):
        """angle_at_radius is bit-equal to a linear scan of the members, at any radius.

        Radii: each member's own, the midpoints between neighbours, below
        the first member and past the last, on every arm of the claimed
        divisors and d = 23, plateau arms (f(0) = f(1)) included.
        """

        def scan(members, r_ref):
            if r_ref <= math.sqrt(members[0]):
                return table.angle(members[0]) % TWO_PI
            for p, q in zip(members, members[1:]):
                r_q = math.sqrt(q)
                if r_ref <= r_q:
                    r_p = math.sqrt(p)
                    t = (r_ref - r_p) / (r_q - r_p)
                    ra_p = table.angle(p) % TWO_PI
                    return (ra_p + t * _circ_diff(table.angle(q) % TWO_PI, ra_p)) % TWO_PI
            return table.angle(members[-1]) % TWO_PI

        d23 = discover(23, table=table)
        arms = [a for rep in (*reports.values(), d23) for s in rep.systems for a in s.arms]
        assert any(a.members[0] == a.members[1] for a in arms)
        for arm in arms:
            own = [math.sqrt(n) for n in arm.members]
            radii = own + [(lo + hi) / 2 for lo, hi in zip(own, own[1:])] + [own[0] / 2, own[-1] + 1.0]
            got = [arm.angle_at_radius(r, table) for r in radii]
            assert got == [scan(arm.members, r) for r in radii], str(arm.poly)

    def test_residue_classes_are_far_apart_in_phase(self):
        """Grouping by residue class reproduces the goldens' phase clustering.

        The goldens were made by single-linkage clustering, per direction, of
        the asymptotic phases (B mod 2A) / sqrt(2A) mod 2*pi at a 12-degree
        gap. A phase is a function of the class (A, B mod 2A), and each
        direction takes its arms from one family. For d < 20, every class of
        every family of families_for(d), whether or not it holds an arm, lies
        more than 12 degrees from the other classes of its family. The
        closest two are 33.87 degrees apart (d = 2, A = 20). So the
        clustering never joined two classes. For d >= 20 the one family
        A = d has the single class B = d (mod 2d).
        """
        gaps = []
        for d in range(2, 20):
            for A in set(families_for(d).values()):
                br, _ = family_residue(A, d)
                phases = [(b / math.sqrt(2 * A)) % TWO_PI for b in range(br, 2 * A, 2 * d)]
                gaps += [abs(_circ_diff(p, q)) for i, p in enumerate(phases) for q in phases[:i]]
        assert math.degrees(min(gaps)) > 12.0
        assert round(math.degrees(min(gaps)), 2) == 33.87
        for d in range(20, 201):
            assert set(families_for(d).values()) == {d}
            assert family_residue(d, d) == (d, 0)  # and 2A = 2d: B mod 2A is d

    def test_labels_unique_and_ordered(self, reports):
        for rep in reports.values():
            labels = [s.label for s in rep.systems]
            assert len(labels) == len(set(labels))
            for rot in ("P", "N"):
                group = [s for s in rep.systems if s.label.startswith(rot)]
                assert [s.label for s in group] == [
                    f"{rot}{i}" for i in range(1, len(group) + 1)
                ]
                anchors = [s.anchor_angle for s in group]
                assert anchors == sorted(anchors)

    def test_spacing_values(self, reports):
        assert reports[2].spacing_deg["negative"] == pytest.approx(36.0, abs=4)
        assert reports[2].spacing_deg["positive"] == pytest.approx(40.0, abs=4)
        assert reports[3].spacing_deg["negative"] == pytest.approx(51.43, abs=4)
        assert reports[3].spacing_deg["positive"] == pytest.approx(60.0, abs=4)
        assert reports[5].spacing_deg["negative"] == pytest.approx(90.0, abs=5)
        assert reports[5].spacing_deg["positive"] == pytest.approx(90.0, abs=5)

    def test_spacing_identity(self, reports):
        """Measured spacing within 10% of 360 * d / A degrees."""
        for d, rep in reports.items():
            for rot, spacing in rep.spacing_deg.items():
                group = [s for s in rep.systems if s.rotation.value == rot]
                A = group[0].arms[0].poly.A
                assert spacing == pytest.approx(360.0 * d / A, rel=0.10)

    def test_spacing_needs_two_systems(self, reports):
        lone = [s for s in reports[13].systems if s.rotation.value == "positive"]
        with pytest.raises(TooFew):
            system_spacing(lone)


class TestSymmetry:
    def test_point_pairs_d2_negative(self, reports):
        group = [s for s in reports[2].systems if s.rotation.value == "negative"]
        pairs = point_symmetry_pairs(group, 8.0)
        labels = sorted((a.label, b.label) for a, b in pairs)
        assert labels == [
            ("N1", "N6"), ("N2", "N7"), ("N3", "N8"), ("N4", "N9"), ("N5", "N10"),
        ]

    def test_point_pairs_d3_positive(self, reports):
        group = [s for s in reports[3].systems if s.rotation.value == "positive"]
        pairs = point_symmetry_pairs(group, 8.0)
        labels = sorted((a.label, b.label) for a, b in pairs)
        assert labels == [("P1", "P4"), ("P2", "P5"), ("P3", "P6")]

    def test_systems_90_degrees_apart_do_not_pair(self, reports):
        group = [s for s in reports[2].systems if s.rotation.value == "positive"][:2]
        assert point_symmetry_pairs(group, 8.0) == []

    def test_axis_symmetry_d13(self, table, reports):
        neg = [s for s in reports[13].systems if s.rotation.value == "negative"]
        result = axis_symmetry(neg[0], neg[1], table)
        assert result.symmetric
        x1, y1 = table.vertex(116)
        x2, y2 = table.vertex(152)
        chord = math.atan2(y2 - y1, x2 - x1) % math.pi
        err = abs((result.axis_angle - chord + math.pi / 2) % math.pi - math.pi / 2)
        assert math.degrees(err) < 10.0

    def test_axis_symmetry_self(self, table, reports):
        system = reports[13].systems[0]
        result = axis_symmetry(system, system, table)
        assert result.symmetric

    def test_axis_symmetry_within_family_rungs(self, table, reports):
        # Rungs of one family carry mirrored member ladders, so adjacent
        # same-direction systems also register as axis-symmetric; the
        # informative quantity is the fitted axis angle itself.
        neg = [s for s in reports[2].systems if s.rotation.value == "negative"][:2]
        result = axis_symmetry(neg[0], neg[1], table)
        assert result.max_error_deg < 8.0

    def test_axis_symmetry_rejects_mixed_divisors(self, table, reports):
        with pytest.raises(ValueError):
            axis_symmetry(reports[2].systems[0], reports[3].systems[0], table)


class TestSquareArms:
    def test_polynomials_and_members(self, table):
        polys, seps = square_number_arms(table)
        assert [(q.A, q.B, q.C) for q in polys] == [(18, 0, 0), (18, 12, 2), (18, 24, 8)]
        assert all(q.second_differential == 18 for q in polys)
        assert [q.eval(1) for q in polys] == [9, 16, 25]
        assert [q.eval(2) for q in polys] == [36, 49, 64]

    def test_three_symmetry_separations(self, table):
        _, seps = square_number_arms(table)
        assert len(seps) == 3
        for s in seps:
            assert s == pytest.approx(114.59, abs=5.0)


class TestVerify:
    def test_d17_both_polynomials_matched(self, reports):
        rep = reports[17]
        rows = {c.claim: c.status for c in rep.paper_match}
        assert rows["P1: 8.5x^2 + 8.5x + 34 divisible by 17"] == "matched"
        assert rows["N1: 8.5x^2 + 76.5x + 51 divisible by 17"] == "matched"
        assert rows["P1: second differential = 17"] == "matched"
        assert rows["N1: second differential = 17"] == "matched"

    def test_d2_second_differentials(self, reports):
        for check in reports[2].paper_match:
            if "second differential" in check.claim:
                assert check.status == "matched", check.claim

    def test_d7_is_discovery_only(self, table):
        (rep,) = verify_paper_table(7, table=table)
        assert [c.status for c in rep.paper_match] == ["no-paper-data"]
        assert rep.counts["positive"] + rep.counts["negative"] > 0

    def test_every_divisor_up_to_200_gets_a_report(self, table, json_oracle):
        """d >= 20 has no multiple below 2*pi^2; past centre_cap no arm starts near the centre."""
        cfg, claims = Config(), all_claims()
        started = time.perf_counter()
        for d in range(2, 201):
            rep = discover(d, table=table)
            assert rep.divisor == d
            assert sum(rep.counts.values()) == len(rep.systems)
            # one residue class (A, B mod 2A) per system, and a class in one system per direction
            classes = [
                (s.rotation, {(a.poly.A, a.poly.B % (2 * a.poly.A)) for a in s.arms})
                for s in rep.systems
            ]
            assert all(len(c) == 1 for _, c in classes), d
            assert len({(rot, *c) for rot, c in classes}) == len(classes), d
            for s in rep.systems:
                assert s.label[0] == ("P" if s.rotation is Rotation.POSITIVE else "N")
                assert all(n % d == 0 for arm in s.arms for n in arm.members), (d, s.label)
                # render_svg cuts members with bisect. Only f(0) = f(1) may tie (B = -A).
                for arm in s.arms:
                    assert type(arm.poly) is HalfIntQuadratic and HalfIntQuadratic(*arm.poly) == arm.poly
                    m = arm.members
                    assert m[0] <= m[1] and all(p < q for p, q in zip(m[1:], m[2:])), str(arm.poly)
            if d in claims:
                assert rep.all_matched, d
            else:
                assert [c.status for c in rep.paper_match] == ["no-paper-data"], d
            if d in (20, 23):
                assert rep.counts == {"positive": 1, "negative": 1}
            if d > cfg.centre_cap:
                assert rep.systems == (), d
            assert export_report(rep, "json") == json_oracle(rep), d
        assert time.perf_counter() - started < 10.0

    @pytest.mark.parametrize(
        "override, lost",
        [
            ({"centre_cap": 40}, [(5, "N3"), (17, "N1")]),
            ({"run_start_max": 5}, [(17, "N1"), (17, "P1")]),
            ({"angular_tol_rad": 0.25}, [(17, "N1")]),
        ],
        ids=["centre_cap=40", "run_start_max=5", "angular_tol_rad=0.25"],
    )
    def test_calibration_margins(self, table, override, lost):
        """How far the calibrated defaults sit from losing a published arm."""
        rows = [
            (rep.divisor, c.claim, c.status)
            for rep in verify_paper_table(table=table, config=Config(**override))
            for c in rep.paper_match
        ]
        assert [(d, claim) for d, claim, status in rows if status == "mismatched"] == [
            (d, f"{label}: recovered by discovery") for d, label in lost
        ]

    def test_rotation_claim_without_five_steps_is_mismatched(self, table):
        (rep,) = verify_paper_table(17, table=table, config=Config(n_max=1000))
        rows = {c.claim: c for c in rep.paper_match}
        short = rows["N1: rotation negative"]  # f(10) = 1666
        assert short.status == "mismatched"
        assert short.detail == "5 drift steps from x = 5 need n_max >= 1666"
        assert rows["P1: rotation positive"].status == "matched"  # f(10) = 969

    def test_outcome_does_not_depend_on_table_size(self):
        """A run reads the table only up to cfg.n_max, however far it is built."""
        cfg = Config(n_max=2000)
        big = discover(5, table=SpiralTable(25000), config=cfg)
        exact = discover(5, table=SpiralTable(2000), config=cfg)
        assert [(c.claim, c.status, c.detail) for c in big.paper_match] == [
            (c.claim, c.status, c.detail) for c in exact.paper_match
        ]
        assert [(a.poly, a.rotation) for s in big.systems for a in s.arms] == [
            (a.poly, a.rotation) for s in exact.systems for a in s.arms
        ]
        rows = {c.claim: c.detail for c in exact.paper_match}
        assert rows["P1: rotation positive"].startswith("drift-sign rotation indeterminate")

    def test_no_mismatches_anywhere(self, reports):
        for d, rep in reports.items():
            bad = [c for c in rep.paper_match if c.status == "mismatched"]
            assert bad == [], f"d={d}: {[c.claim for c in bad]}"

    def test_flagged_rotations_are_the_known_discordances(self, reports):
        flagged = sorted(
            (d, c.claim.split(":")[0])
            for d, rep in reports.items()
            for c in rep.paper_match
            if c.status == "flagged"
        )
        assert flagged == [(5, "P1"), (11, "P1"), (17, "N1")]

    def test_determinism(self, table):
        from rootspiral.render import export_report

        a = export_report(discover(3, table=table), "json")
        b = export_report(discover(3, table=table), "json")
        assert a == b

    def test_report_records_parameters(self, reports):
        defaults = Config().to_dict()
        for rep in reports.values():
            assert rep.parameters == defaults
