"""Empirical discovery of spiral-graphs and their systems.

A spiral-graph (arm) is a sequence of natural numbers, one per winding,
modeled exactly by a half-integer quadratic f(x) = (Ax^2 + Bx + C)/2.
For a divisor d the family constant A must be a multiple of d, and then
d divides f everywhere exactly when B = -A and C = 0 (mod 2d): one
residue class per family (quadratics.family_residue).

Discovery enumerates canonical near-centre arms of the relevant families,
validates each arm geometrically (its per-step angular drift must settle
onto the family asymptote 2*sqrt(A/2) - 2*pi early), assigns a rotation
direction, and groups arms into systems by their asymptotic phase
(B mod 2A) / sqrt(2A) -- arms that differ by whole wraps B -> B + 2A or
by the C-ladder step C -> C + 2d belong to one system.

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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .claims import DivisorClaims, all_claims
from .config import Config
from .errors import TooFew
from .quadratics import (
    MIN_DRIFT_STEPS,
    HalfIntQuadratic,
    Rotation,
    asymptotic_drift,
    divisible_by,
    family_residue,
    rotation_of,
)
from .spiral import TWO_PI, SpiralTable, shared_table


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arm:
    """A validated spiral-graph: polynomial, member numbers, rotation direction.

    The members are the numbers f(0), f(1), ... up to n_max; their radii
    and angles are read from the spiral table when needed.
    """

    poly: HalfIntQuadratic
    divisor: int
    members: tuple[int, ...]
    rotation: Rotation

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

    @property
    def phase(self) -> float:
        """Asymptotic angular phase of the arm's system, in [0, 2*pi).

        Two arms of one family whose doubled linear coefficients agree
        mod 2A stay within a bounded angular band of each other forever;
        this canonical representative angle is what systems cluster on.
        """
        return ((self.poly.B % (2 * self.poly.A)) / math.sqrt(2 * self.poly.A)) % TWO_PI


@dataclass(frozen=True)
class ArmSystem:
    """A group of arms sharing rotation direction and angular band."""

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


def canonical_shift(q: HalfIntQuadratic) -> HalfIntQuadratic:
    """Shift x so the arm starts at its innermost valid member.

    Canonical form: f(0) >= 1 and the previous value f(-1) either leaves
    the positive range (f(-1) <= 0) or strictly ascends (f(-1) > f(0)).
    The strict comparison makes the representative unique for plateau arms
    with f(-1) == f(0) (doubled B == A), which otherwise have two valid
    starting points one step apart.
    """
    while True:
        fm1 = q.A - q.B + q.C  # doubled f(-1)
        if q.C >= 2 and (fm1 <= 0 or fm1 > q.C):
            return q
        q = q.shifted(-1) if 2 <= fm1 <= q.C else q.shifted(1)


def families_for(d: int, claims: dict[int, DivisorClaims] | None = None) -> dict[Rotation, int]:
    """Family constant A per rotation direction for divisor d.

    For divisors with published data the constants come from the embedded
    claims table. Otherwise the nearest multiples of d bracketing the
    zero-drift boundary 2*pi^2 are used: the largest A with negative
    asymptotic drift serves the positive direction and the smallest A with
    positive drift serves the negative direction. When no multiple of d lies
    below 2*pi^2 (d >= 20), the one family A = d serves both directions and
    discover_arms splits its arms by early drift, as for d = 17.
    """
    if d < 2:
        raise ValueError(f"divisor must be >= 2, got {d}")
    claims = all_claims() if claims is None else claims
    if d in claims:
        out: dict[Rotation, int] = {}
        for cp in claims[d].polynomials:
            out[cp.rotation_label] = cp.poly.A
        return out
    below = max((a for a in range(d, 60 * d, d) if asymptotic_drift(a) < 0), default=None)
    if below is None:
        return {Rotation.POSITIVE: d, Rotation.NEGATIVE: d}
    return {Rotation.POSITIVE: below, Rotation.NEGATIVE: below + d}


#: Most grid cells (candidates x members) that family enumeration evaluates
#: at once. The grid temporaries raise the peak RSS of `report --all` by
#: about 0.7 MB at 2^13 and 2 MB at 2^15, which is no faster.
_GRID_CELLS = 1 << 13


def enumerate_family_arms(
    A: int,
    d: int,
    *,
    table: SpiralTable | None = None,
    config: Config | None = None,
) -> list[tuple[HalfIntQuadratic, list[int]]]:
    """All canonical near-centre arms of the family (A, d), with members.

    An arm qualifies when it starts near the centre (f(0) <= centre_cap),
    all members are positive, at least min_chain_len members fit under
    n_max, and its drift settles onto the family asymptote within
    angular_tol no later than step run_start_max, leaving at least
    min_chain_len settled members.

    The family's one residue class (B = -A, C = 0 mod 2d) is one int64
    grid: a row per canonical candidate (B, C), a column per x, holding
    f(x); a family with d not dividing A has no arms. Since
    B >= -A and C >= 2, 2f(x) > A*x*(x-1), so every row passes n_max once
    x*(x-1) >= 2*n_max/A, which bounds the grid width. The angles of the
    members are gathered from the table's theta array and their step
    drifts tested as whole rows; the settled run starts one past the last
    failing step. Rows are taken in chunks of at most _GRID_CELLS cells.
    """
    residue = family_residue(A, d)
    if residue is None:
        return []
    br, _ = residue
    cfg = config or Config()
    table = table or shared_table(cfg.n_max)
    table.ensure(cfg.n_max)
    theta = table.theta_array
    target = asymptotic_drift(A)
    width = math.isqrt(2 * cfg.n_max // A) + 3
    x = np.arange(width, dtype=np.int64)
    step = np.arange(width - 1)
    rows = max(1, _GRID_CELLS // width)
    found: list[tuple[HalfIntQuadratic, list[int]]] = []
    B, C = np.meshgrid(
        np.concatenate(
            (np.arange(br, cfg.b_hard_max, 2 * d), np.arange(br - 2 * d, -A - 1, -2 * d))
        ),
        np.arange(2 * d, 2 * cfg.centre_cap + 1, 2 * d),  # C = 0 (mod 2d) and C >= 2
    )
    fm1 = A - B + C  # doubled f(-1)
    canonical = (fm1 <= 0) | (fm1 > C)  # otherwise the arm starts further in
    B, C = B[canonical].astype(np.int64), C[canonical].astype(np.int64)
    for lo in range(0, len(B), rows):
        b, c = B[lo:lo + rows], C[lo:lo + rows]
        values = (A * x * x + b[:, None] * x + c[:, None]) // 2
        count = (values > cfg.n_max).argmax(axis=1)  # members before the first past n_max
        dips = ((values < 1) & (x < count[:, None])).any(axis=1)
        th = theta[np.minimum(values, cfg.n_max)]
        drift = th[:, 1:] - th[:, :-1] - TWO_PI
        fails = ~(np.abs(drift - target) <= cfg.angular_tol_rad) & (step < count[:, None] - 1)
        # A run whose last step fails starts at count - 1; the tail gate drops it.
        start = np.where(fails.any(axis=1), width - 1 - fails[:, ::-1].argmax(axis=1), 0)
        keep = (
            ~dips
            & (count >= cfg.min_chain_len)
            & (start <= cfg.run_start_max)
            & (count - start >= cfg.min_chain_len)
        )
        for i in np.flatnonzero(keep):
            q = HalfIntQuadratic(A, int(b[i]), int(c[i]))
            found.append((q, values[i, :count[i]].tolist()))
    found.sort(key=lambda item: (item[0].B % (2 * A), item[0].B, item[0].C))
    return found


def discover_arms(
    d: int,
    *,
    table: SpiralTable | None = None,
    config: Config | None = None,
) -> list[Arm]:
    """All validated arms for divisor d across its family constants.

    Each distinct family constant is enumerated once. When one family
    serves both directions, the sign of each arm's mean drift over the
    near-centre window early_drift_lo .. early_drift_hi - 1 picks its
    direction.
    """
    cfg = config or Config()
    table = table or shared_table(cfg.n_max)
    fams = families_for(d)
    directions: dict[int, Rotation] = {}  # family constant -> its first direction
    for direction in (Rotation.POSITIVE, Rotation.NEGATIVE):
        if direction in fams:
            directions.setdefault(fams[direction], direction)
    early = range(cfg.early_drift_lo, cfg.early_drift_hi)
    arms: list[Arm] = []
    for A, direction in directions.items():
        for q, numbers in enumerate_family_arms(A, d, table=table, config=cfg):
            if len(directions) == 1:
                rot = rotation_of(q, early, table, epsilon=0.0, n_max=cfg.n_max)
            else:
                rot = direction
            arms.append(Arm(poly=q, divisor=d, members=tuple(numbers), rotation=rot))
    return arms


# ---------------------------------------------------------------------------
# Systems: grouping, spacing, symmetry
# ---------------------------------------------------------------------------


def _circ_diff(a: float, b: float) -> float:
    """Signed circular difference a - b folded into (-pi, pi]."""
    return (a - b + math.pi) % TWO_PI - math.pi


def _circular_clusters(angles: Sequence[float], gap_rad: float) -> list[list[int]]:
    """Single-linkage clustering on the circle: split at gaps > gap_rad."""
    if not angles:
        return []
    order = sorted(range(len(angles)), key=lambda i: angles[i])
    k = len(order)
    if k == 1:
        return [order]
    breaks = [
        i
        for i in range(k)
        if (angles[order[(i + 1) % k]] - angles[order[i]]) % TWO_PI > gap_rad
    ]
    if not breaks:
        return [order]
    clusters = []
    for j, b in enumerate(breaks):
        a = breaks[j - 1]
        idx = []
        i = (a + 1) % k
        while True:
            idx.append(order[i])
            if i == b:
                break
            i = (i + 1) % k
        clusters.append(idx)
    return clusters


def _circular_mean(angles: Sequence[float]) -> float:
    s = sum(math.sin(a) for a in angles)
    c = sum(math.cos(a) for a in angles)
    return math.atan2(s, c) % TWO_PI


def reference_radius(arms: Sequence[Arm]) -> float:
    """Radius of a circle crossed by every arm of the group."""
    return min(math.sqrt(arm.members[-1]) for arm in arms)


def group_into_systems(
    arms: Sequence[Arm], table: SpiralTable, gap_deg: float = 12.0
) -> list[ArmSystem]:
    """Partition arms by rotation, then cluster asymptotic phases.

    Within one direction, arms whose phase angles (B mod 2A scaled to the
    circle) fall within gap_deg of each other under single linkage form
    one system. Systems are labeled P1..Pk / N1..Nk ordered by anchor
    angle from the positive x-axis; the anchor is the angle where the
    system's core arm (smallest |vertex value|, i.e. the arm hugging the
    family asymptote most closely) crosses the group's reference circle.
    """
    gap_rad = math.radians(gap_deg)
    systems: list[ArmSystem] = []
    for rot, prefix in ((Rotation.POSITIVE, "P"), (Rotation.NEGATIVE, "N")):
        group = [a for a in arms if a.rotation is rot]
        if not group:
            continue
        r_ref = reference_radius(group)
        clusters = _circular_clusters([a.phase for a in group], gap_rad)
        built = []
        for idx in clusters:
            members = tuple(sorted((group[i] for i in idx), key=lambda a: a.poly))
            core = min(members, key=lambda a: (abs(a.vertex_value), a.poly.C))
            anchor = core.angle_at_radius(r_ref, table)
            built.append((anchor, members))
        built.sort(key=lambda t: t[0])
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
    systems: Sequence[ArmSystem], tol_deg: float = 8.0
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


def axis_symmetry(
    sys_a: ArmSystem, sys_b: ArmSystem, table: SpiralTable, tol_deg: float = 8.0
) -> AxisSymmetry:
    """Mirror axis mapping one system's core arms onto the other's.

    The axis is the bisector of the two systems' core anchors (the arms
    hugging the family asymptote). The systems are symmetric when every
    reflected core-arm angle of one system lands within tol_deg of some
    arm of the other system, both ways. Far-from-asymptote arms are left
    out of the test: their angular offsets grow with the vertex value and
    the published symmetry is a statement about the visible core bands.
    """
    if sys_a.divisor != sys_b.divisor:
        raise ValueError("axis symmetry is defined within one divisor")
    d = sys_a.divisor
    r_ref = min(reference_radius(sys_a.arms), reference_radius(sys_b.arms))

    def core(system: ArmSystem) -> list[Arm]:
        band = [a for a in system.arms if abs(a.vertex_value) <= 2 * d]
        if not band:
            band = [min(system.arms, key=lambda a: abs(a.vertex_value))]
        return band

    def core_anchor(system: ArmSystem) -> float:
        best = min(system.arms, key=lambda a: (abs(a.vertex_value), a.poly.C))
        return best.angle_at_radius(r_ref, table)

    anchor_a, anchor_b = core_anchor(sys_a), core_anchor(sys_b)
    # bisectors live mod pi; averaging happens on the doubled circle
    axis = 0.5 * _circular_mean([anchor_a + anchor_b])
    worst = 0.0
    for one, other in ((sys_a, sys_b), (sys_b, sys_a)):
        targets = [b.angle_at_radius(r_ref, table) for b in other.arms]
        for arm in core(one):
            reflected = (2 * axis - arm.angle_at_radius(r_ref, table)) % TWO_PI
            err = min(abs(_circ_diff(reflected, t)) for t in targets)
            worst = max(worst, err)
    return AxisSymmetry(
        symmetric=worst <= math.radians(tol_deg),
        axis_angle=axis % math.pi,
        max_error_deg=math.degrees(worst),
    )


def square_number_arms(
    table: SpiralTable | None = None,
    reference_winding_index: int = 20,
) -> tuple[tuple[HalfIntQuadratic, ...], list[float]]:
    """The three square-number reference graphs and their separations.

    The squares fall on (3x)^2, (3x+1)^2 and (3x+2)^2 -- all with second
    differential 18. Their pairwise angular separations at the reference
    winding approach 2 radians (about 114.59 degrees), an almost exact
    three-symmetry, because theta(n^2) ~ 2n + const.
    """
    polys = (
        HalfIntQuadratic(18, 0, 0),
        HalfIntQuadratic(18, 12, 2),
        HalfIntQuadratic(18, 24, 8),
    )
    table = table or shared_table(Config().n_max)
    # members nearest the reference winding: three consecutive squares
    reps = []
    for q in polys:
        numbers = [q.eval(x) for x in range(math.isqrt(table.n_max) + 1) if 1 <= q.eval(x) <= table.n_max]
        reps.append(min(numbers, key=lambda n: abs(table.winding_of(n) - reference_winding_index)))
    reps.sort()
    # close the triple with the next member of the innermost arm, so the
    # three separations are successive unwrapped angular steps
    closing = (math.isqrt(reps[0]) + 3) ** 2
    chain = reps + [closing]
    seps_deg = [
        math.degrees(table.angle(chain[i + 1]) - table.angle(chain[i])) for i in range(3)
    ]
    return polys, seps_deg


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _sequence_matches(q: HalfIntQuadratic, arms: Sequence[Arm]) -> Arm | None:
    """The discovered arm equal to q as a member-number set, up to x shift."""
    target = canonical_shift(q)
    for arm in arms:
        if arm.poly == target:
            return arm
    return None


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
    systems = tuple(group_into_systems(arms, table, cfg.gap_deg))
    spacing: dict[str, float] = {}
    for rot in (Rotation.POSITIVE, Rotation.NEGATIVE):
        group = [s for s in systems if s.rotation is rot]
        if len(group) >= 2:
            spacing[rot.value] = system_spacing(group)
    symmetry: dict[str, object] = {}
    for rot in (Rotation.POSITIVE, Rotation.NEGATIVE):
        group = [s for s in systems if s.rotation is rot]
        pairs = point_symmetry_pairs(group, cfg.pair_tol_deg)
        symmetry[f"point_pairs_{rot.value}"] = [
            [p[0].label, p[1].label] for p in pairs
        ]
        if len(group) == 2:
            mirror = axis_symmetry(group[0], group[1], table, cfg.pair_tol_deg)
            symmetry[f"axis_{rot.value}"] = {
                "systems": [group[0].label, group[1].label],
                "symmetric": mirror.symmetric,
                "axis_deg": math.degrees(mirror.axis_angle),
                "max_error_deg": mirror.max_error_deg,
            }
    checks = _claim_checks(d, arms, systems, spacing, symmetry, table, cfg)
    return DivisorReport(
        divisor=d,
        systems=systems,
        spacing_deg=spacing,
        symmetry=symmetry,
        paper_match=tuple(checks),
        parameters=cfg.to_dict(),
    )


def _claim_checks(
    d: int,
    arms: Sequence[Arm],
    systems: Sequence[ArmSystem],
    spacing: dict[str, float],
    symmetry: dict[str, object],
    table: SpiralTable,
    cfg: Config,
) -> list[ClaimCheck]:
    claims = all_claims()
    if d not in claims:
        return [
            ClaimCheck(
                claim=f"divisor {d}",
                status="no-paper-data",
                detail="no published table for this divisor; discovery-only report",
                source="none",
            )
        ]
    dc = claims[d]
    checks: list[ClaimCheck] = []
    for cp in dc.polynomials:
        ok = divisible_by(cp.poly, d)
        checks.append(
            ClaimCheck(
                claim=f"{cp.label}: {cp.poly} divisible by {d}",
                status="matched" if ok else "mismatched",
                detail="residue-period check" if ok else "divisibility fails",
                source=dc.source,
            )
        )
        ok = cp.poly.second_differential == cp.second_differential
        checks.append(
            ClaimCheck(
                claim=f"{cp.label}: second differential = {cp.second_differential}",
                status="matched" if ok else "mismatched",
                detail=f"computed {cp.poly.second_differential}",
                source=dc.source,
            )
        )
        window = range(5, 40)
        need = max(cp.poly.eval(x + 1) for x in window[:MIN_DRIFT_STEPS])
        if need > cfg.n_max:
            status = "mismatched"
            detail = f"{MIN_DRIFT_STEPS} drift steps from x = {window.start} need n_max >= {need}"
        else:
            computed = rotation_of(
                cp.poly, window, table, epsilon=cfg.drift_epsilon_rad, n_max=cfg.n_max
            )
            concordant = computed is cp.rotation_label
            status = "matched" if concordant else "flagged"
            detail = f"drift-sign rotation {computed.value}" + (
                "" if concordant else " (known equal-A discordance, not a failure)"
            )
        checks.append(
            ClaimCheck(
                claim=f"{cp.label}: rotation {cp.rotation_label.value}",
                status=status,
                detail=detail,
                source=dc.source,
            )
        )
        found = _sequence_matches(cp.poly, arms)
        checks.append(
            ClaimCheck(
                claim=f"{cp.label}: recovered by discovery",
                status="matched" if found else "mismatched",
                detail=(
                    f"discovered as {found.poly} (members match up to index shift)"
                    if found
                    else "no discovered arm has this member sequence"
                ),
                source=dc.source,
            )
        )
    counts = {"positive": 0, "negative": 0}
    for s in systems:
        counts[s.rotation.value] += 1
    for key, want in dc.system_counts.items():
        got = counts.get(key, 0)
        checks.append(
            ClaimCheck(
                claim=f"{key} system count = {want}",
                status="matched" if got == want else "mismatched",
                detail=f"discovered {got}",
                source=dc.source,
            )
        )
    if dc.spacings_deg:
        for key, want in dc.spacings_deg.items():
            got = spacing.get(key)
            ok = got is not None and abs(got - want) <= 0.1 * want
            checks.append(
                ClaimCheck(
                    claim=f"{key} spacing = {want:g} deg",
                    status="matched" if ok else "mismatched",
                    detail=f"measured {got:.2f} deg" if got is not None else "fewer than 2 systems",
                    source=dc.source,
                )
            )
    for key, want_pairs in dc.point_symmetric_pairs.items():
        if not want_pairs:
            continue
        # The published pairings are visual judgments; they are verified at
        # the dedicated (wider) claim tolerance, not the strict API default.
        group = [s for s in systems if s.rotation.value == key]
        got_pairs = [
            [p[0].label, p[1].label]
            for p in point_symmetry_pairs(group, cfg.pair_claim_tol_deg)
        ]
        ok = len(got_pairs) == len(want_pairs)
        checks.append(
            ClaimCheck(
                claim=f"{key} point-symmetric pairs = {len(want_pairs)}",
                status="matched" if ok else "mismatched",
                detail=f"found {len(got_pairs)}: {got_pairs}",
                source=dc.source,
            )
        )
    if dc.axis_symmetry:
        labels = dc.axis_symmetry["systems"]
        n1, n2 = dc.axis_symmetry["chord"]
        by_label = {s.label: s for s in systems}
        if all(lbl in by_label for lbl in labels):
            result = axis_symmetry(
                by_label[labels[0]], by_label[labels[1]], table, cfg.pair_tol_deg
            )
            chord = _chord_direction(n1, n2, table)
            axis_err = abs(_half_circ_diff(result.axis_angle, chord))
            ok = result.symmetric and math.degrees(axis_err) <= 10.0
            detail = (
                f"axis {math.degrees(result.axis_angle):.1f} deg, chord "
                f"{math.degrees(chord):.1f} deg, error {math.degrees(axis_err):.1f} deg"
            )
        else:
            ok, detail = False, "claimed systems not found"
        checks.append(
            ClaimCheck(
                claim=f"axis symmetry of {labels[0]}/{labels[1]}",
                status="matched" if ok else "mismatched",
                detail=detail,
                source=dc.source,
            )
        )
    return checks


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
    from .claims import claimed_divisors

    cfg = config or Config()
    table = table or shared_table(cfg.n_max)
    if d is None:
        divisors = claimed_divisors()
    else:
        divisors = [d]
    return [discover(dd, table=table, config=cfg) for dd in divisors]
