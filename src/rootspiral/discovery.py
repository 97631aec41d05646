"""Empirical discovery of spiral-graphs and their systems.

A spiral-graph (arm) is a sequence of natural numbers, one per winding,
modeled exactly by a half-integer quadratic f(x) = (Ax^2 + Bx + C)/2.
For a divisor d the family constant A must be a multiple of d, and then
d divides f everywhere exactly when B = -A and C = 0 (mod 2d): one
residue class per family (quadratics.family_residue).

Discovery enumerates canonical near-centre arms of the relevant families,
validates each arm geometrically (its per-step angular drift must settle
onto the family asymptote 2*sqrt(A/2) - 2*pi early), assigns a rotation
direction, and groups the arms of each direction into systems by their
residue class (A, B mod 2A): arms that differ by whole wraps B -> B + 2A
or by the C-ladder step C -> C + 2d belong to one system.

Direction convention (calibrated): an arm whose angular drift is negative
in the canonical counterclockwise orientation curls clockwise relative to
the rays and carries the published P label. When a divisor's two
directions come from two different family constants, every arm of a
family inherits the family's asymptotic direction; when a single family
serves both directions (asymptote near 2*pi^2, or A = d when d >= 20
leaves no multiple of d below 2*pi^2), the sign of the drift averaged
over the first few near-centre steps splits the arms.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import takewhile
from typing import Iterator, Sequence

import numpy as np

from .claims import ClaimedPolynomial, DivisorClaims, all_claims, claimed_divisors
from .config import Config
from .errors import RangeExhausted, TooFew
from .quadratics import (
    HalfIntQuadratic,
    Rotation,
    asymptotic_drift,
    divisible_by,
    rotation_of,
)
from .spiral import TWO_PI, SpiralTable, shared_table


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class Arm(namedtuple("Arm", "poly divisor members rotation")):
    """A validated spiral-graph: polynomial, member numbers, rotation direction.

    A tuple (poly, divisor, members, rotation). The members are the numbers
    f(0), f(1), ... up to n_max; their radii and angles are read from the
    spiral table when needed.
    """

    __slots__ = ()

    def angle_at_radius(self, r_ref: float, table: SpiralTable) -> float:
        """Reduced angle where the arm crosses the circle of radius r_ref.

        Members are one winding apart, so the nearest-member anchor is
        quantized by the per-step drift; interpolating the angle linearly
        in radius between the two straddling members removes that
        quantization. Outside the member range the end angle is returned.
        """
        ms = self.members
        if r_ref <= math.sqrt(ms[0]):
            return table.angle(ms[0]) % TWO_PI
        for p, q in zip(ms, ms[1:]):
            r_q = math.sqrt(q)
            if r_ref <= r_q:
                r_p = math.sqrt(p)
                t = (r_ref - r_p) / (r_q - r_p)
                ra_p = table.angle(p) % TWO_PI
                step = _circ_diff(table.angle(q) % TWO_PI, ra_p)  # the arm's local slip
                return (ra_p + t * step) % TWO_PI
        return table.angle(ms[-1]) % TWO_PI

    @property
    def vertex_value(self) -> float:
        """Minimum of the continuous polynomial; near-zero for arms that
        hug the family asymptote from the start (core arms)."""
        q = self.poly
        return q.C / 2.0 - q.B * q.B / (8.0 * q.A)


@dataclass(frozen=True)
class ArmSystem:
    """The arms of one rotation direction and one residue class (A, B mod 2A)."""

    label: str
    rotation: Rotation
    arms: tuple[Arm, ...]
    anchor_angle: float

    @property
    def divisor(self) -> int:
        return self.arms[0].divisor


@dataclass(frozen=True)
class AxisSymmetry:
    symmetric: bool
    axis_angle: float
    max_error_deg: float


@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of one published-claim comparison."""

    claim: str
    status: str  # "matched" | "mismatched" | "flagged" | "no-paper-data"
    detail: str
    source: str


@dataclass(frozen=True)
class DivisorReport:
    """Full analysis result for one divisor."""

    divisor: int
    systems: tuple[ArmSystem, ...]
    spacing_deg: dict[str, float]
    symmetry: dict[str, object]
    paper_match: tuple[ClaimCheck, ...]
    parameters: dict[str, object] = field(default_factory=dict)

    @property
    def counts(self) -> dict[str, int]:
        out = {"positive": 0, "negative": 0}
        for s in self.systems:
            out[s.rotation.value] = out.get(s.rotation.value, 0) + 1
        return out

    @property
    def all_matched(self) -> bool:
        return all(c.status in ("matched", "flagged", "no-paper-data") for c in self.paper_match)


# ---------------------------------------------------------------------------
# Family enumeration (the discovery core)
# ---------------------------------------------------------------------------


def canonical_start(A, B, C):
    """Whether an arm with f(0) >= 1 starts at x = 0; ints or numpy arrays.

    True where the previous value f(-1) leaves the positive range
    (f(-1) <= 0) or strictly ascends (f(-1) > f(0), that is B < A). The
    strict comparison makes the representative unique for plateau arms
    with f(-1) == f(0) (doubled B == A), which otherwise have two valid
    starting points one step apart.
    """
    return (A - B + C <= 0) | (B < A)


def canonical_shift(q: HalfIntQuadratic) -> HalfIntQuadratic:
    """Shift x so the arm starts at its innermost valid member.

    Canonical form: f(0) >= 1 and canonical_start holds.
    """
    while True:
        if q.C >= 2 and canonical_start(q.A, q.B, q.C):
            return q
        fm1 = q.A - q.B + q.C  # doubled f(-1)
        q = q.shifted(-1) if 2 <= fm1 <= q.C else q.shifted(1)


def families_for(d: int) -> dict[Rotation, int]:
    """Family constant A per rotation direction for divisor d.

    For divisors with published data the constants come from the embedded
    claims table. Otherwise the nearest multiples of d bracketing the
    zero-drift boundary 2*pi^2 are used: the largest A with negative
    asymptotic drift serves the positive direction and the smallest A with
    positive drift serves the negative direction. When no multiple of d lies
    below 2*pi^2 (d >= 20), the one family A = d serves both directions and
    discover_arms splits its arms by early drift, as for d = 17. Both
    directions are always keys of the result.
    """
    if d < 2:
        raise ValueError(f"divisor must be >= 2, got {d}")
    claims = all_claims()
    if d in claims:
        out: dict[Rotation, int] = {}
        for cp in claims[d].polynomials:
            out[cp.rotation_label] = cp.poly.A
        return out
    below = max((a for a in range(d, 60 * d, d) if asymptotic_drift(a) < 0), default=None)
    if below is None:
        return {Rotation.POSITIVE: d, Rotation.NEGATIVE: d}
    return {Rotation.POSITIVE: below, Rotation.NEGATIVE: below + d}


#: Most grid cells (candidates x members) evaluated at once. `report --all`
#: peaks at 36.7 MB RSS with 2^13, 36.8 MB with 2^15 and 37.9 MB with one chunk
#: per family (CPython 3.11, numpy 2.4, x86-64 Linux).
_GRID_CELLS = 1 << 13


def _b_max(A: int, s: int, config: Config) -> int:
    """Least B >= 0 from which every candidate of family A fails the drift
    gate at every step x <= s; an arm passes it at its run's start x <= s.

    For a = f(x) >= 1 and b = f(x + 1), arctan y >= y - y^3/3 and integrals
    give theta(b) - theta(a) >= 2(sqrt b - sqrt a) - (a^-1.5 + 2 a^-0.5)/3.
    Over C in [2, 2*centre_cap] take the main term at C = 2*centre_cap (it
    falls as C grows, as b >= a) and the correction at C = 2, f exact. For
    B >= 0 neither falls as B grows: (x+1)^2 f(x) - x^2 f(x+1) = (Bx(x+1) +
    C(2x+1))/2 >= 0. 1e-6 rad covers theta's error (< 1e-8) and rounding.
    """
    bound = TWO_PI + asymptotic_drift(A) + config.angular_tol_rad + 1e-6
    cap = config.centre_cap

    def fails(B: int) -> bool:  # the lower bound clears the gate at every step x <= s
        for x in range(s + 1):
            a, b = ((A * y * y + B * y) / 2 for y in (x, x + 1))  # f(x) - C/2, f(x + 1) - C/2
            main = 2 * (math.sqrt(b + cap) - math.sqrt(a + cap))
            if main - ((a + 1) ** -1.5 + 2 * (a + 1) ** -0.5) / 3 <= bound:
                return False
        return True

    hi = 1
    while not fails(hi):
        hi *= 2
    return bisect.bisect_left(range(hi), True, key=fails)


def enumerate_family_arms(
    A: int,
    d: int,
    *,
    table: SpiralTable,
    config: Config,
) -> list[tuple[HalfIntQuadratic, list[int]]]:
    """All canonical near-centre arms of the family (A, d), with members.

    An arm qualifies when it starts near the centre (f(0) <= centre_cap),
    at least min_chain_len members fit under n_max, and its drift settles
    onto the family asymptote within angular_tol no later than step
    run_start_max, leaving at least min_chain_len settled members.

    The family's one residue class (B = -A, C = 0 mod 2d) is one int64
    grid: a row per canonical candidate (B, C) with B < _b_max, a column
    per x, holding f(x); a family with d not dividing A has no arms. Every
    candidate has B >= -A and C >= 2, so 2f(x+1) - 2f(x) = A(2x+1) + B >=
    2Ax: from f(0) >= 1 the members never descend on x >= 0 (f(1) = f(0)
    when B = -A). And 2f(x) > A*x*(x-1), so every row passes n_max once
    x*(x-1) >= 2*n_max/A, which bounds the grid width. The step drifts, read
    from the theta array, are tested in chunks of at most _GRID_CELLS cells;
    the settled run starts one past the last failing step.
    """
    if config.n_max > table.n_max:
        raise RangeExhausted(f"arms need n_max={config.n_max}, table holds {table.n_max}")
    if A % d:  # no residue class (quadratics.family_residue)
        return []
    theta = table.theta_array
    target = asymptotic_drift(A)
    width = math.isqrt(2 * config.n_max // A) + 3
    s = min(config.run_start_max, width - 2)  # no step past width - 2 lies inside an arm
    B, C = np.meshgrid(
        np.arange(-A, _b_max(A, s, config), 2 * d),  # B = -A (mod 2d) and B >= -A
        np.arange(2 * d, 2 * config.centre_cap + 1, 2 * d),  # C = 0 (mod 2d) and C >= 2
    )
    canonical = canonical_start(A, B, C)  # otherwise the arm starts further in
    B, C = B[canonical].astype(np.int64), C[canonical].astype(np.int64)
    order = np.lexsort((C, B, B % (2 * A)))
    B, C = B[order], C[order]

    x = np.arange(width, dtype=np.int64)
    step = np.arange(width - 1)
    rows = max(1, _GRID_CELLS // width)
    found: list[tuple[HalfIntQuadratic, list[int]]] = []
    for lo in range(0, len(B), rows):
        b, c = B[lo:lo + rows], C[lo:lo + rows]
        values = (A * x * x + b[:, None] * x + c[:, None]) // 2
        count = (values > config.n_max).argmax(axis=1)  # members before the first past n_max
        th = theta[np.minimum(values, config.n_max)]
        drift = th[:, 1:] - th[:, :-1] - TWO_PI
        fails = ~(np.abs(drift - target) <= config.angular_tol_rad) & (step < count[:, None] - 1)
        # A run whose last step fails starts at count - 1; the tail gate drops it.
        start = np.where(fails.any(axis=1), width - 1 - fails[:, ::-1].argmax(axis=1), 0)
        keep = (
            (count >= config.min_chain_len)
            & (start <= config.run_start_max)
            & (count - start >= config.min_chain_len)
        )
        kept = zip(b[keep].tolist(), c[keep].tolist(), count[keep].tolist(), values[keep].tolist())
        # d | A, B = -A and C = 0 (mod 2d) make A + B and C even: valid records.
        found.extend((HalfIntQuadratic._make((A, bi, ci)), row[:k]) for bi, ci, k, row in kept)
    return found


def discover_arms(
    d: int,
    *,
    table: SpiralTable,
    config: Config,
) -> list[Arm]:
    """All validated arms for divisor d across its family constants.

    Each distinct family constant is enumerated once. When one family
    serves both directions, the sign of each arm's mean drift over the
    near-centre window early_drift_lo .. early_drift_hi - 1 picks its
    direction.
    """
    fams = families_for(d)
    directions: dict[int, Rotation] = {}  # family constant -> its first direction
    for direction in (Rotation.POSITIVE, Rotation.NEGATIVE):
        directions.setdefault(fams[direction], direction)
    arms: list[Arm] = []
    for A, direction in directions.items():
        for q, numbers in enumerate_family_arms(A, d, table=table, config=config):
            if len(directions) == 1:
                early = numbers[Config.early_drift_lo : Config.early_drift_hi + 1]
                rot = rotation_of(early, table, epsilon=0.0)
            else:
                rot = direction
            arms.append(Arm(q, d, tuple(numbers), rot))
    return arms


# ---------------------------------------------------------------------------
# Systems: grouping, spacing, symmetry
# ---------------------------------------------------------------------------


def _circ_diff(a: float, b: float) -> float:
    """Signed circular difference a - b folded into (-pi, pi]."""
    return (a - b + math.pi) % TWO_PI - math.pi


def _core_arm(arms: Sequence[Arm]) -> Arm:
    """The arm hugging the family asymptote most closely: smallest
    |vertex value|, ties broken by the smaller constant term."""
    return min(arms, key=lambda a: (abs(a.vertex_value), a.poly.C))


def reference_radius(arms: Sequence[Arm]) -> float:
    """Radius of a circle crossed by every arm of the group."""
    return min(math.sqrt(arm.members[-1]) for arm in arms)


def group_into_systems(arms: Sequence[Arm], table: SpiralTable) -> list[ArmSystem]:
    """Partition arms by rotation, then by residue class (A, B mod 2A).

    Within one direction, the arms of one class differ by whole wraps
    B -> B + 2A and by their constant terms, and form one system, its arms
    in polynomial order. Systems are labeled P1..Pk / N1..Nk ordered by
    anchor angle from the positive x-axis; the anchor is the angle where
    the system's core arm (_core_arm) crosses the group's reference circle.
    """
    systems: list[ArmSystem] = []
    for rot, prefix in ((Rotation.POSITIVE, "P"), (Rotation.NEGATIVE, "N")):
        group = [a for a in arms if a.rotation is rot]
        if not group:
            continue
        r_ref = reference_radius(group)
        classes: dict[tuple[int, int], list[Arm]] = {}
        for arm in sorted(group, key=lambda a: a.poly):
            classes.setdefault((arm.poly.A, arm.poly.B % (2 * arm.poly.A)), []).append(arm)
        built = sorted(
            ((_core_arm(c).angle_at_radius(r_ref, table), tuple(c)) for c in classes.values()),
            key=lambda t: t[0],
        )
        for i, (anchor, members) in enumerate(built, start=1):
            systems.append(
                ArmSystem(
                    label=f"{prefix}{i}",
                    rotation=rot,
                    arms=members,
                    anchor_angle=anchor,
                )
            )
    return systems


def system_spacing(systems: Sequence[ArmSystem]) -> float:
    """Mean circular gap in degrees between consecutive system anchors."""
    if len(systems) < 2:
        raise TooFew(f"need at least 2 systems, got {len(systems)}")
    rotations = {s.rotation for s in systems}
    if len(rotations) != 1:
        raise ValueError("spacing is defined per rotation direction")
    angles = sorted(s.anchor_angle for s in systems)
    gaps = [
        (angles[(i + 1) % len(angles)] - angles[i]) % TWO_PI
        for i in range(len(angles))
    ]
    return math.degrees(sum(gaps) / len(gaps))


def point_symmetry_pairs(
    systems: Sequence[ArmSystem], tol_deg: float
) -> list[tuple[ArmSystem, ArmSystem]]:
    """Same-rotation system pairs whose anchors are 180 degrees apart."""
    tol = math.radians(tol_deg)
    pairs: list[tuple[ArmSystem, ArmSystem]] = []
    used: set[str] = set()
    ordered = sorted(systems, key=lambda s: s.anchor_angle)
    for i, s in enumerate(ordered):
        if s.label in used:
            continue
        best = None
        for t in ordered[i + 1:]:
            if t.label in used or t.rotation is not s.rotation:
                continue
            err = abs(abs(_circ_diff(t.anchor_angle, s.anchor_angle)) - math.pi)
            if err <= tol and (best is None or err < best[0]):
                best = (err, t)
        if best is not None:
            used.add(s.label)
            used.add(best[1].label)
            pairs.append((s, best[1]))
    return pairs


def axis_symmetry(sys_a: ArmSystem, sys_b: ArmSystem, table: SpiralTable) -> AxisSymmetry:
    """Mirror axis mapping one system's core arms onto the other's.

    The axis is the bisector of the two systems' core anchors (the arms
    hugging the family asymptote). The systems are symmetric when every
    reflected core-arm angle of one system lands within Config.pair_tol_deg
    of some arm of the other system, both ways. Far-from-asymptote arms are
    left out of the test: their angular offsets grow with the vertex value
    and the published symmetry is a statement about the visible core bands.
    """
    if sys_a.divisor != sys_b.divisor:
        raise ValueError("axis symmetry is defined within one divisor")
    d = sys_a.divisor
    r_ref = min(reference_radius(sys_a.arms), reference_radius(sys_b.arms))

    def core(system: ArmSystem) -> list[Arm]:
        band = [a for a in system.arms if abs(a.vertex_value) <= 2 * d]
        return band or [_core_arm(system.arms)]

    anchor_a, anchor_b = (_core_arm(s.arms).angle_at_radius(r_ref, table) for s in (sys_a, sys_b))
    # bisectors live mod pi: halve the doubled angle folded into [0, 2*pi)
    s = anchor_a + anchor_b
    axis = 0.5 * (math.atan2(math.sin(s), math.cos(s)) % TWO_PI)
    worst = 0.0
    for one, other in ((sys_a, sys_b), (sys_b, sys_a)):
        targets = [b.angle_at_radius(r_ref, table) for b in other.arms]
        for arm in core(one):
            reflected = (2 * axis - arm.angle_at_radius(r_ref, table)) % TWO_PI
            err = min(abs(_circ_diff(reflected, t)) for t in targets)
            worst = max(worst, err)
    return AxisSymmetry(
        symmetric=worst <= math.radians(Config.pair_tol_deg),
        axis_angle=axis % math.pi,
        max_error_deg=math.degrees(worst),
    )


#: The square-number graphs (3x)^2, (3x+1)^2 and (3x+2)^2, second differential 18.
SQUARE_POLYS = (
    HalfIntQuadratic(18, 0, 0),
    HalfIntQuadratic(18, 12, 2),
    HalfIntQuadratic(18, 24, 8),
)


def square_members(n_max: int) -> list[list[int]]:
    """The numbers 1..n_max on each graph of SQUARE_POLYS, one evaluation per x."""
    xs = range(math.isqrt(n_max) + 1)
    return [[n for n in map(q.eval, xs) if 1 <= n <= n_max] for q in SQUARE_POLYS]


#: The winding at which square_number_arms reads the three separations.
SQUARE_REFERENCE_WINDING = 20


def square_number_arms(table: SpiralTable) -> tuple[tuple[HalfIntQuadratic, ...], list[float]]:
    """The three square-number reference graphs and their separations.

    The squares fall on (3x)^2, (3x+1)^2 and (3x+2)^2 -- all with second
    differential 18. Their pairwise angular separations at the reference
    winding approach 2 radians (about 114.59 degrees), an almost exact
    three-symmetry, because theta(n^2) ~ 2n + const.
    """
    # members nearest the reference winding: three consecutive squares
    reps = [
        min(numbers, key=lambda n: abs(table.winding_of(n) - SQUARE_REFERENCE_WINDING))
        for numbers in square_members(table.n_max)
    ]
    reps.sort()
    # close the triple with the next member of the innermost arm, so the
    # three separations are successive unwrapped angular steps
    closing = (math.isqrt(reps[0]) + 3) ** 2
    chain = reps + [closing]
    seps_deg = [
        math.degrees(table.angle(chain[i + 1]) - table.angle(chain[i])) for i in range(3)
    ]
    return SQUARE_POLYS, seps_deg


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def discover(
    d: int,
    *,
    table: SpiralTable | None = None,
    config: Config | None = None,
) -> DivisorReport:
    """Run the full discovery pipeline for one divisor."""
    cfg = config or Config()
    table = table or shared_table(cfg.n_max)
    arms = discover_arms(d, table=table, config=cfg)
    systems = tuple(group_into_systems(arms, table))
    spacing: dict[str, float] = {}
    symmetry: dict[str, object] = {}
    for rot in (Rotation.POSITIVE, Rotation.NEGATIVE):
        group = [s for s in systems if s.rotation is rot]
        if len(group) >= 2:
            spacing[rot.value] = system_spacing(group)
        pairs = point_symmetry_pairs(group, Config.pair_tol_deg)
        symmetry[f"point_pairs_{rot.value}"] = [[a.label, b.label] for a, b in pairs]
        if len(group) == 2:
            mirror = axis_symmetry(group[0], group[1], table)
            symmetry[f"axis_{rot.value}"] = {
                "systems": [group[0].label, group[1].label],
                "symmetric": mirror.symmetric,
                "axis_deg": math.degrees(mirror.axis_angle),
                "max_error_deg": mirror.max_error_deg,
            }
    report = DivisorReport(
        divisor=d,
        systems=systems,
        spacing_deg=spacing,
        symmetry=symmetry,
        paper_match=(),
        parameters=cfg.to_dict(),
    )
    return replace(report, paper_match=_claim_checks(report, arms, table, cfg))


#: Claim-row outcome -> status; None marks a known discrepancy, not a failure.
_STATUS = {True: "matched", False: "mismatched", None: "flagged"}


def _claim_checks(
    report: DivisorReport, arms: Sequence[Arm], table: SpiralTable, cfg: Config
) -> tuple[ClaimCheck, ...]:
    """One row per published claim about the report's divisor."""
    dc = all_claims().get(report.divisor)
    if dc is None:
        return (
            ClaimCheck(
                claim=f"divisor {report.divisor}",
                status="no-paper-data",
                detail="no published table for this divisor; discovery-only report",
                source="none",
            ),
        )
    return tuple(
        ClaimCheck(claim=claim, status=_STATUS[outcome], detail=detail, source=dc.source)
        for claim, outcome, detail in _claim_rows(dc, report, arms, table, cfg)
    )


def _claim_rows(
    dc: DivisorClaims,
    report: DivisorReport,
    arms: Sequence[Arm],
    table: SpiralTable,
    cfg: Config,
) -> Iterator[tuple[str, bool | None, str]]:
    """(claim, outcome, detail) per rule: per polynomial its divisibility,
    second differential, rotation and recovery; then the system counts,
    spacings, point pairs and mirror axis."""
    d = dc.divisor
    by_poly = {arm.poly: arm for arm in arms}
    for cp in dc.polynomials:
        ok = divisible_by(cp.poly, d)
        yield (
            f"{cp.label}: {cp.poly} divisible by {d}",
            ok,
            "residue-period check" if ok else "divisibility fails",
        )
        yield (
            f"{cp.label}: second differential = {cp.second_differential}",
            cp.poly.second_differential == cp.second_differential,
            f"computed {cp.poly.second_differential}",
        )
        rotation = _rotation_outcome(cp, table, cfg)
        yield (f"{cp.label}: rotation {cp.rotation_label.value}", *rotation)
        found = by_poly.get(canonical_shift(cp.poly))
        yield (
            f"{cp.label}: recovered by discovery",
            found is not None,
            f"discovered as {found.poly} (members match up to index shift)"
            if found is not None
            else "no discovered arm has this member sequence",
        )
    for key, want in dc.system_counts.items():
        got = report.counts.get(key, 0)
        yield f"{key} system count = {want}", got == want, f"discovered {got}"
    for key, want in (dc.spacings_deg or {}).items():
        got = report.spacing_deg.get(key)
        yield (
            f"{key} spacing = {want:g} deg",
            got is not None and abs(got - want) <= 0.1 * want,
            f"measured {got:.2f} deg" if got is not None else "fewer than 2 systems",
        )
    for key, want_pairs in dc.point_symmetric_pairs.items():
        if not want_pairs:
            continue
        # The published pairings are visual judgments; they are verified at
        # the dedicated (wider) claim tolerance, not the report's pair_tol_deg.
        group = [s for s in report.systems if s.rotation.value == key]
        got_pairs = [
            [a.label, b.label] for a, b in point_symmetry_pairs(group, Config.pair_claim_tol_deg)
        ]
        yield (
            f"{key} point-symmetric pairs = {len(want_pairs)}",
            len(got_pairs) == len(want_pairs),
            f"found {len(got_pairs)}: {got_pairs}",
        )
    if dc.axis_symmetry:
        labels = dc.axis_symmetry["systems"]
        claim = f"axis symmetry of {labels[0]}/{labels[1]}"
        by_label = {s.label: s for s in report.systems}
        if not all(lbl in by_label for lbl in labels):
            yield claim, False, "claimed systems not found"
            return
        result = axis_symmetry(by_label[labels[0]], by_label[labels[1]], table)
        chord = _chord_direction(*dc.axis_symmetry["chord"], table)
        axis_err = math.degrees(abs(_half_circ_diff(result.axis_angle, chord)))
        detail = (
            f"axis {math.degrees(result.axis_angle):.1f} deg, chord "
            f"{math.degrees(chord):.1f} deg, error {axis_err:.1f} deg"
        )
        if not result.symmetric:
            detail += (
                f"; not symmetric: core arms mirror to {result.max_error_deg:.1f} deg"
                f" > {Config.pair_tol_deg:g} deg"
            )
        yield claim, result.symmetric and axis_err <= 10.0, detail


#: Fewest drift steps a claimed polynomial's rotation window must fit under n_max.
MIN_DRIFT_STEPS = 5


def _rotation_outcome(
    cp: ClaimedPolynomial, table: SpiralTable, cfg: Config
) -> tuple[bool | None, str]:
    """Drift-sign rotation of a claimed polynomial over f(5) .. f(40).

    The window stops before the first number past n_max. A window with fewer
    than MIN_DRIFT_STEPS steps under n_max fails; a computed direction other
    than the published one is flagged, not failed.
    """
    need = max(map(cp.poly.eval, range(6, 6 + MIN_DRIFT_STEPS)))
    if need > cfg.n_max:
        return False, f"{MIN_DRIFT_STEPS} drift steps from x = 5 need n_max >= {need}"
    numbers = takewhile(lambda n: n <= cfg.n_max, map(cp.poly.eval, range(5, 41)))
    computed = rotation_of(list(numbers), table, epsilon=Config.drift_epsilon_rad)
    if computed is cp.rotation_label:
        return True, f"drift-sign rotation {computed.value}"
    return None, f"drift-sign rotation {computed.value} (known equal-A discordance, not a failure)"


def _half_circ_diff(a: float, b: float) -> float:
    """Signed difference of two axis directions (angles mod pi)."""
    return (a - b + math.pi / 2) % math.pi - math.pi / 2


def _chord_direction(n1: int, n2: int, table: SpiralTable) -> float:
    """Direction (mod pi) of the chord between two spiral vertices."""
    x1, y1 = table.vertex(n1)
    x2, y2 = table.vertex(n2)
    return math.atan2(y2 - y1, x2 - x1) % math.pi


def verify_paper_table(
    d: int | None = None,
    *,
    table: SpiralTable | None = None,
    config: Config | None = None,
) -> list[DivisorReport]:
    """Check every published claim for one divisor, or all of them.

    A divisor without published data still runs discovery; its report
    carries a single no-paper-data row instead of claim comparisons.
    """
    cfg = config or Config()
    table = table or shared_table(cfg.n_max)
    divisors = claimed_divisors() if d is None else [d]
    return [discover(dd, table=table, config=cfg) for dd in divisors]
