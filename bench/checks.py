"""Output checks for the benchmark workloads, computed apart from the program.

Nothing here calls into rootspiral: angles come from math.fsum of
math.atan(1/sqrt(k)) or from the asymptotic series of the spiral of
Theodorus, and the published findings are written out below. Every check
raises CheckError with a reason on the first violation it finds.

numpy and ElementTree are imported where they are used, so that a set-up
probe, which imports this module, pays only for what the program imports.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

TWO_PI = 2.0 * math.pi

#: Theodorus constant (Davis 1993): theta(n) = 2 sqrt(n) + K + 1/(6 sqrt(n)) + O(n^-3/2).
THEODORUS_K = -2.1577829966594
#: Below this index angles are checked against math.fsum; above it against the series,
#: whose truncation error is under 3e-10 there.
SERIES_FROM = 100_000
ANGLE_TOL = 1e-8

#: Default Config().n_max, the spiral size every discovery workload runs at.
N_MAX = 20_000
#: Figure extent and scene geometry of `report` figures (cli.FIGURE_N_MAX, Scene defaults).
FIGURE_N_MAX = 2000
FIGURE_MARGIN = 20.0
#: Half a unit in the last printed place of the SVG's 4-decimal coordinates.
PRINT_TOL = 0.5e-4 + 1e-9

#: Published system counts per divisor (negative, positive).
PUBLISHED_COUNTS = {
    2: {"negative": 10, "positive": 9},
    3: {"negative": 7, "positive": 6},
    5: {"negative": 4, "positive": 4},
    11: {"negative": 2, "positive": 2},
    13: {"negative": 2, "positive": 1},
    17: {"negative": 1, "positive": 1},
}
#: Published angular spacings in degrees; they must hold within 10 %.
PUBLISHED_SPACINGS = {
    2: {"negative": 36.0, "positive": 40.0},
    3: {"negative": 51.43, "positive": 60.0},
    5: {"negative": 90.0, "positive": 90.0},
}
#: The 28 published polynomials (A, B, C) of f(x) = (Ax^2 + Bx + C)/2, per divisor.
PUBLISHED_POLYS = {
    2: [(18, 42, 16), (18, 10, 4), (18, 14, 12), (18, 18, 8), (18, 22, 4),
        (18, 26, 12), (18, 30, 12), (18, 34, 28), (18, 38, 24), (20, 28, 4)],
    3: [(21, 69, 48), (21, 75, 54), (18, 0, 24), (18, 42, 24), (18, 12, 18)],
    5: [(20, 90, 50), (20, 60, 10), (20, 110, 90), (20, 80, 30), (20, 30, 30)],
    11: [(22, 88, 44), (22, 66, 22), (22, 44, 88)],
    13: [(26, 104, 78), (26, 78, 26), (13, 13, 52)],
    17: [(17, 153, 102), (17, 17, 68)],
}
DIVISORS = tuple(sorted(PUBLISHED_COUNTS))


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Independent angles
# ---------------------------------------------------------------------------


def theta_fsum(ns) -> dict[int, float]:
    """theta(n) = fsum of atan(1/sqrt(k)) for k < n, for every n in ns.

    The running total is kept as a list of exactly rounded segment sums
    and re-summed with fsum, so every value is within a few ulps of the
    correctly rounded prefix sum.
    """
    out: dict[int, float] = {}
    parts: list[float] = []
    k = 1
    for n in sorted(set(ns)):
        if n < 1:
            raise ValueError(f"spiral index must be >= 1, got {n}")
        parts.append(math.fsum(math.atan(1.0 / math.sqrt(j)) for j in range(k, n)))
        k = n
        out[n] = math.fsum(parts)
    return out


def theta_series(n: int) -> float:
    """Asymptotic theta(n), accurate to 3e-10 for n >= SERIES_FROM."""
    s = math.sqrt(n)
    return 2.0 * s + THEODORUS_K + 1.0 / (6.0 * s)


def _svg_xy(theta: float, n: int, cx: float, cy: float, scale: float) -> tuple[float, float]:
    r = math.sqrt(n)
    return cx + scale * r * math.cos(theta), cy - scale * r * math.sin(theta)


# ---------------------------------------------------------------------------
# Arms
# ---------------------------------------------------------------------------


def half_quadratic(A: int, B: int, C: int, x: int) -> int:
    num = A * x * x + B * x + C
    require(num % 2 == 0, f"(A={A}, B={B}, C={C}) is not integer-valued at x={x}")
    return num // 2


def check_members(d: int, A: int, B: int, C: int, members, full_count: int | None) -> None:
    """Members of one arm: divisible by d, f(x) at x = 0, 1, ..., second differences A.

    members may be a prefix of the arm; full_count is the arm's member
    count, which must equal the number of values f(0), f(1), ... up to N_MAX.
    """
    where = f"arm ({A}, {B}, {C}) of divisor {d}"
    require(len(members) >= 3, f"{where}: fewer than 3 members")
    for x, n in enumerate(members):
        require(n >= 1, f"{where}: member {n} below 1")
        require(n % d == 0, f"{where}: member {n} not divisible by {d}")
        want = half_quadratic(A, B, C, x)
        require(n == want, f"{where}: member {x} is {n}, polynomial gives {want}")
    for a, b, c in zip(members, members[1:], members[2:]):
        require(c - 2 * b + a == A, f"{where}: second difference {c - 2 * b + a} != {A}")
    if full_count is not None:
        want = 0
        while half_quadratic(A, B, C, want) <= N_MAX:
            want += 1
        require(full_count == want, f"{where}: {full_count} members, expected {want} up to {N_MAX}")


def _same_sequence(poly: tuple[int, int, int], members: tuple[int, ...]) -> bool:
    """members are the published polynomial's whole increasing run in [1, N_MAX]."""
    A, B, C = poly

    def f(x: int) -> int:
        return (A * x * x + B * x + C) // 2

    for s in range(-64, 65):
        if f(s) != members[0]:
            continue
        before = f(s - 1)
        if not (before < 1 or before >= f(s)):
            continue  # the published run starts further in
        if all(f(s + i) == n for i, n in enumerate(members)) and f(s + len(members)) > N_MAX:
            return True
    return False


# ---------------------------------------------------------------------------
# report_all
# ---------------------------------------------------------------------------


def report_file_names() -> list[str]:
    return sorted(f"{kind}_d{d}.{ext}" for d in DIVISORS
                  for kind, ext in (("report", "json"), ("report", "txt"), ("figure", "svg")))


def digest_files(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


_POINT = re.compile(r"(-?\d+\.\d{4}),(-?\d+\.\d{4})")


def _check_svg(path: Path, d: int, labels: list[str], theta: dict[int, float]) -> None:
    import xml.etree.ElementTree as ET

    where = path.name
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckError(f"{where}: not well-formed XML ({exc})") from exc
    ns = "{http://www.w3.org/2000/svg}"
    require(root.tag == f"{ns}svg", f"{where}: root element {root.tag}")
    width, height = float(root.get("width")), float(root.get("height"))
    cx, cy = width / 2.0, height / 2.0
    scale = (min(width, height) / 2.0 - FIGURE_MARGIN) / math.sqrt(FIGURE_N_MAX)
    groups = {g.get("id"): g for g in root.iter(f"{ns}g")}

    spiral = groups.get("spiral")
    require(spiral is not None, f"{where}: no spiral group")
    lines = spiral.findall(f"{ns}polyline")
    require(len(lines) == 1, f"{where}: {len(lines)} spiral polylines")
    points = _POINT.findall(lines[0].get("points", ""))
    require(len(points) == FIGURE_N_MAX, f"{where}: {len(points)} spiral vertices, expected {FIGURE_N_MAX}")
    for n, (px, py) in enumerate(points, start=1):
        ex, ey = _svg_xy(theta[n], n, cx, cy, scale)
        require(abs(float(px) - ex) <= PRINT_TOL and abs(float(py) - ey) <= PRINT_TOL,
                f"{where}: spiral vertex {n} at ({px}, {py}), expected ({ex:.6f}, {ey:.6f})")

    multiples = groups.get("multiples")
    require(multiples is not None, f"{where}: no multiples group")
    circles = multiples.findall(f"{ns}circle")
    want = FIGURE_N_MAX // d
    require(len(circles) == want, f"{where}: {len(circles)} multiple circles, expected {want}")
    for j, circle in enumerate(circles, start=1):
        n = d * j
        ex, ey = _svg_xy(theta[n], n, cx, cy, scale)
        require(abs(float(circle.get("cx")) - ex) <= PRINT_TOL and abs(float(circle.get("cy")) - ey) <= PRINT_TOL,
                f"{where}: circle {j} is not at vertex {n}")

    require("square-reference" in groups, f"{where}: no square-reference group")
    systems = sorted(k[len("system-"):] for k in groups if k and k.startswith("system-"))
    require(systems == sorted(labels), f"{where}: system groups {systems}, report has {sorted(labels)}")


def check_report_dir(directory: Path, theta: dict[int, float]) -> None:
    """The 18 files of `report --all`; theta is theta_fsum(range(1, FIGURE_N_MAX + 1))."""
    names = sorted(p.name for p in directory.iterdir())
    require(names == report_file_names(), f"output files {names}, expected {report_file_names()}")
    for d in DIVISORS:
        data = json.loads((directory / f"report_d{d}.json").read_text(encoding="utf-8"))
        require(data["divisor"] == d, f"report_d{d}.json: divisor {data['divisor']}")
        require(data["parameters"]["n_max"] == N_MAX, f"report_d{d}.json: n_max {data['parameters']['n_max']}")
        require(data["counts"] == PUBLISHED_COUNTS[d], f"report_d{d}.json: counts {data['counts']}")
        labels, arms = [], []
        for system in data["systems"]:
            labels.append(system["label"])
            for arm in system["arms"]:
                A, B, C = arm["A"], arm["B"], arm["C"]
                check_members(d, A, B, C, arm["members"], arm["member_count"])
                # the listed members and the count pin the whole sequence to the polynomial
                arms.append((A, tuple(half_quadratic(A, B, C, x) for x in range(arm["member_count"]))))
        for poly in PUBLISHED_POLYS[d]:
            require(any(A == poly[0] and _same_sequence(poly, members) for A, members in arms),
                    f"report_d{d}.json: no arm has the member sequence of published {poly}")
        for key, want in PUBLISHED_SPACINGS.get(d, {}).items():
            got = data["spacing_deg"].get(key)
            require(got is not None and abs(got - want) <= 0.1 * want,
                    f"report_d{d}.json: {key} spacing {got}, published {want}")
        for claim in data["claims"]:
            require(claim["status"] in ("matched", "mismatched", "flagged"),
                    f"report_d{d}.json: claim status {claim['status']!r}")
        text = (directory / f"report_d{d}.txt").read_text(encoding="ascii")
        require(text.startswith(f"divisor {d}: "), f"report_d{d}.txt: unexpected header")
        _check_svg(directory / f"figure_d{d}.svg", d, labels, theta)


# ---------------------------------------------------------------------------
# spiral_csv
# ---------------------------------------------------------------------------

CSV_HEADER = "n,radius,theta_rad,winding,x,y"
#: Absolute bound on theta(n) - theta(n-1) - atan(1/sqrt(n-1)) and on the x, y round trip.
STEP_TOL = 1e-9


def digest_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_csv(path: Path, n_rows: int, theta: dict[int, float]) -> None:
    """The CSV of `spiral --n-max n_rows`; theta holds fsum angles at the seeded rows.

    Every row is checked against its own identities and against the
    previous row (one angle step is atan(1/sqrt(n-1))); the seeded rows are
    also checked against math.fsum.
    """
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        require(header == CSV_HEADER, f"CSV header {header!r}")
        prev = None
        count = 0
        for count, line in enumerate(handle, start=1):
            fields = line.rstrip("\n").split(",")
            require(len(fields) == 6, f"CSV row {count}: {len(fields)} fields")
            n = int(fields[0])
            r, t, w, x, y = float(fields[1]), float(fields[2]), int(fields[3]), float(fields[4]), float(fields[5])
            require(n == count, f"CSV row {count}: n = {n}")
            require(r == math.sqrt(n), f"CSV row {n}: radius {r} != sqrt(n)")
            require(w == math.floor(t / TWO_PI), f"CSV row {n}: winding {w} for theta {t}")
            require(abs(x * x + y * y - n) <= 1e-12 * n, f"CSV row {n}: x^2 + y^2 = {x * x + y * y}")
            require(abs((math.atan2(y, x) - t + math.pi) % TWO_PI - math.pi) <= STEP_TOL,
                    f"CSV row {n}: (x, y) is not at angle theta")
            if prev is None:
                require(t == 0.0, f"CSV row 1: theta {t}")
            else:
                step = math.atan(1.0 / math.sqrt(n - 1))
                require(abs(t - prev - step) <= STEP_TOL, f"CSV row {n}: angle step {t - prev}, expected {step}")
            if n in theta:
                require(abs(t - theta[n]) <= ANGLE_TOL, f"CSV row {n}: theta {t}, fsum gives {theta[n]}")
            prev = t
    require(count == n_rows, f"CSV has {count} rows, expected {n_rows}")


# ---------------------------------------------------------------------------
# table_1e7
# ---------------------------------------------------------------------------

#: Rows per chunk of the whole-table check; keeps its temporaries at ~32 MB.
_CHUNK = 1 << 20


def _expected_theta(n: int, small: dict[int, float]) -> float:
    return small[n] if n < SERIES_FROM else theta_series(n)


def check_table(theta_array, n_max: int, queries: dict, results: dict, small: dict[int, float]) -> None:
    """A SpiralTable(n_max) theta array and the seeded query results.

    small holds theta_fsum of the seeded indices below SERIES_FROM.
    """
    import numpy as np

    require(len(theta_array) == n_max + 1, f"table has {len(theta_array) - 1} entries, expected {n_max}")
    require(theta_array[1] == 0.0, f"theta(1) = {theta_array[1]}")
    for lo in range(1, n_max, _CHUNK):
        hi = min(lo + _CHUNK, n_max)
        k = np.arange(lo, hi, dtype=np.float64)
        step = np.diff(theta_array[lo:hi + 1])
        require(bool(np.all(step > 0.0)), f"theta is not strictly increasing in [{lo}, {hi}]")
        err = np.abs(step - np.arctan(1.0 / np.sqrt(k)))
        worst = int(np.argmax(err))
        require(err[worst] <= STEP_TOL, f"table step at n = {lo + worst + 1} is off by {err[worst]:.3g}")

    for n, got in zip(queries["angle"], results["angle"]):
        want = _expected_theta(n, small)
        require(abs(got - want) <= ANGLE_TOL, f"angle({n}) = {got!r}, expected {want!r}")
    for n, m in zip(queries["next_turn_index"], results["next_turn_index"]):
        _check_next_turn(n, m)
    for n, gap in zip(queries["winding_gap"], results["winding_gap"]):
        m = round((gap + math.sqrt(n)) ** 2)
        require(abs(gap - (math.sqrt(m) - math.sqrt(n))) <= 1e-9, f"winding_gap({n}) = {gap} is not sqrt(m) - sqrt(n)")
        _check_next_turn(n, m)
        # sqrt(m*) - sqrt(n) lies in [pi, pi + 1/(12 sqrt n)] and rounding m* up adds < 1/(2 sqrt n)
        require(math.pi - 1e-9 <= gap <= math.pi + 1.0 / math.sqrt(n),
                f"winding_gap({n}) = {gap} outside its discretization bound of pi")
    for n, got in zip(queries["theodorus_constant"], results["theodorus_constant"]):
        want = THEODORUS_K + 1.0 / (6.0 * math.sqrt(n))
        require(abs(got - want) <= ANGLE_TOL, f"theodorus_constant({n}) = {got!r}, expected {want!r}")


def _check_next_turn(n: int, m: int) -> None:
    """m is the first index at least a full turn past n (ties within ANGLE_TOL pass)."""
    target = theta_series(n) + TWO_PI
    require(theta_series(m) >= target - ANGLE_TOL and theta_series(m - 1) < target + ANGLE_TOL,
            f"next turn after {n} is not {m}")
