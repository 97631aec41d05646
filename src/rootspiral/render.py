"""Deterministic figure and report generation.

A figure is a pure function of its report and its Canvas (the table,
n_max and mirror flag) and the module's fixed figure constants: 4-decimal
coordinate formatting, no timestamps, no randomness, so figures can be
golden-tested byte for byte.
Reports serialize a DivisorReport as sorted-key JSON or as a column-aligned
ASCII table.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from json.encoder import encode_basestring_ascii

import numpy as np

from .discovery import Arm, ArmSystem, DivisorReport, square_members
from .errors import RangeExhausted
from .spiral import SpiralTable

#: Fixed palette (explicit RGB): yellow highlights, green reference arms,
#: grey spiral, and a cycle of saturated arm colors.
SPIRAL_COLOR = "#b8b8b8"
HIGHLIGHT_COLOR = "#f5c400"
SQUARE_REFERENCE_COLOR = "#2f9e44"
ARM_PALETTE = (
    "#e64980",  # pink
    "#f76707",  # orange
    "#1971c2",  # blue
    "#d4b106",  # dark yellow
    "#7048e8",  # violet
    "#0ca678",  # teal
    "#c92a2a",  # red
    "#5f3dc4",  # indigo
    "#862e9c",  # purple
    "#364fc7",  # navy
)


def _fmt(value: float) -> str:
    """Fixed 4-decimal coordinate formatting; avoids '-0.0000'."""
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


#: Figure extent: large enough to show every system's inner windings.
FIGURE_N_MAX = 2000
#: Every figure is a square canvas of CANVAS units; its last ray ends MARGIN inside its edge.
CANVAS = 800.0
MARGIN = 20.0
#: Spiral and arm stroke widths, highlight radius and label size, as printed.
SPIRAL_STROKE, ARM_STROKE, POINT_RADIUS, LABEL_SIZE = map(_fmt, (0.75, 2.0, 2.0, 11.0))
_SVG_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" '
    f'viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">\n'
    f'<rect width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" fill="#ffffff"/>'
)


class Canvas:
    """The part of a figure that does not depend on the divisor.

    It holds the coordinate strings of rays 1..n_max of the table, with
    n_max capped at FIGURE_N_MAX, the spiral polyline and the three
    square-reference polylines; `mirror` flips the y axis. One canvas is
    built per command and drawn under each of its figures by render_svg.
    """

    def __init__(self, table: SpiralTable, n_max: int, mirror: bool = False):
        if n_max < 2:
            raise ValueError("n_max must be at least 2")
        n_max = min(FIGURE_N_MAX, n_max)
        if n_max > table.n_max:
            raise RangeExhausted(f"figure needs n_max={n_max}, table holds {table.n_max}")

        scale = (CANVAS / 2.0 - MARGIN) / math.sqrt(n_max)
        centre = CANVAS / 2.0
        y_sign = 1.0 if mirror else -1.0

        # Every point of a figure is a ray n <= n_max: format each ray once.
        # px[n], py[n] and point[n] are the coordinates of ray n (index 0 unused).
        _, x, y = table.vertices(1, n_max + 1)
        coords = np.concatenate([centre + scale * x, centre + y_sign * scale * y])
        coords = list(map(_fmt, coords.tolist()))
        self.n_max = n_max
        self.px, self.py = ["", *coords[:n_max]], ["", *coords[n_max:]]
        self.point = list(map(",".join, zip(self.px, self.py)))
        self.spiral = self.polyline(range(1, n_max + 1), SPIRAL_COLOR, SPIRAL_STROKE)
        self.squares = [
            self.polyline(numbers, SQUARE_REFERENCE_COLOR, ARM_STROKE)
            for numbers in square_members(n_max)
            if len(numbers) >= 2
        ]

    def polyline(self, numbers, color: str, width: str) -> str:
        pts = " ".join([self.point[n] for n in numbers])
        return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>'


def render_svg(report: DivisorReport, canvas: Canvas) -> bytes:
    """The report's figure on `canvas` as a standalone SVG 1.1 document (bytes).

    It draws the canvas's rays, highlights the multiples of the report's
    divisor and colours its systems in label order from ARM_PALETTE.
    """
    n_max, px, py = canvas.n_max, canvas.px, canvas.py
    parts: list[str] = [_SVG_HEAD, '<g id="spiral">', canvas.spiral, "</g>", '<g id="multiples">']
    for n in range(report.divisor, n_max + 1, report.divisor):
        parts.append(
            f'<circle cx="{px[n]}" cy="{py[n]}" r="{POINT_RADIUS}" fill="{HIGHLIGHT_COLOR}"/>'
        )
    parts += ["</g>", '<g id="square-reference">', *canvas.squares, "</g>"]

    for i, system in enumerate(report.systems):
        color = ARM_PALETTE[i % len(ARM_PALETTE)]
        parts.append(f'<g id="system-{system.label}">')
        for arm in system.arms:
            numbers = arm.members[:bisect_right(arm.members, n_max)]  # members never descend
            if len(numbers) >= 2:
                parts.append(canvas.polyline(numbers, color, ARM_STROKE))
        anchor = system.arms[0].members[0] if system.arms else None
        if anchor is not None and anchor <= n_max:
            parts.append(
                f'<text x="{px[anchor]}" y="{py[anchor]}" '
                f'font-family="monospace" font-size="{LABEL_SIZE}" '
                f'fill="{color}">{system.label}</text>'
            )
        parts.append("</g>")

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _block(items: list[str], pad: str) -> str:
    """A list at indent `pad` whose items are already laid out one level deeper."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


#: Indents of an arm dict and of its keys in the JSON report.
_ARM_PAD, _ARM_KEY_PAD = " " * 8, " " * 10
#: One arm dict of the JSON report; its six keys are in sorted order. Its
#: members list is never empty: an arm has at least min_chain_len >= 4 members.
_ARM_JSON = (
    f'{{\n{_ARM_KEY_PAD}"A": %s,\n{_ARM_KEY_PAD}"B": %s,\n{_ARM_KEY_PAD}"C": %s,\n'
    f'{_ARM_KEY_PAD}"member_count": %s,\n{_ARM_KEY_PAD}"members": [\n{_ARM_KEY_PAD}  %s\n{_ARM_KEY_PAD}],\n'
    f'{_ARM_KEY_PAD}"polynomial": %s\n{_ARM_PAD}}}'
)
_MEMBER_SEP = f",\n{_ARM_KEY_PAD}  "


def _arm_json(arm: Arm) -> str:
    """One arm dict of the JSON report, through _ARM_JSON."""
    q, members = arm.poly, arm.members
    return _ARM_JSON % (
        q.A, q.B, q.C, len(members), _MEMBER_SEP.join(map(str, members[:8])), encode_basestring_ascii(str(q))
    )


def _system_json(system: ArmSystem) -> str:
    """One system dict of the JSON report; "arms" sorts between its other keys."""
    pad = " " * 6
    return (
        f'{{\n{pad}"anchor_deg": {json.dumps(round(math.degrees(system.anchor_angle), 6))},\n'
        f'{pad}"arms": {_block(list(map(_arm_json, system.arms)), pad)},\n'
        f'{pad}"label": {json.dumps(system.label)},\n'
        f'{pad}"rotation": {json.dumps(system.rotation.value)}\n    }}'
    )


def _report_json(report: DivisorReport) -> str:
    """The text of json.dumps(view, indent=2, sort_keys=True) of the report's JSON view."""
    view = {
        "claims": [
            {"claim": c.claim, "detail": c.detail, "source": c.source, "status": c.status}
            for c in report.paper_match
        ],
        "counts": report.counts,
        "divisor": report.divisor,
        "parameters": report.parameters,
        "spacing_deg": {k: round(v, 6) for k, v in report.spacing_deg.items()},
        "symmetry": report.symmetry,
    }
    # One dumps per report: with an indent, each call leaves a cycle of encoder
    # closures for the garbage collector. "systems" sorts after the other keys,
    # so it takes the place of the closing "\n}".
    text = json.dumps(view, indent=2, sort_keys=True)
    systems = _block(list(map(_system_json, report.systems)), "  ")
    return text[:-2] + ',\n  "systems": ' + systems + "\n}"


def export_report(report: DivisorReport, format: str = "json") -> bytes:
    """Serialize a DivisorReport: 'json' (sorted keys) or 'text' (table).

    The text table prints the JSON view's rounded angles to 2 decimals,
    round(v, 6) first, so both formats show the same value.
    """
    if format == "json":
        return (_report_json(report) + "\n").encode("ascii")
    if format != "text":
        raise ValueError(f"unknown format: {format!r}")

    counts = report.counts
    lines = [
        f"divisor {report.divisor}: "
        f"{counts['positive']} positive / "
        f"{counts['negative']} negative systems",
        "",
    ]
    rows = [("system", "rotation", "anchor_deg", "arms", "leading polynomial")]
    for s in report.systems:
        rows.append(
            (
                s.label,
                s.rotation.value,
                f"{round(math.degrees(s.anchor_angle), 6):.2f}",
                str(len(s.arms)),
                str(s.arms[0].poly) if s.arms else "-",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    lines.append("")
    for key, value in sorted(report.spacing_deg.items()):
        lines.append(f"spacing ({key}): {round(value, 6):.2f} deg")
    lines.append("")
    crows = [("status", "claim", "detail")]
    for c in report.paper_match:
        crows.append((c.status, c.claim, c.detail))
    cw = [max(len(r[i]) for r in crows) for i in range(2)]
    for r in crows:
        lines.append(
            "  ".join([r[0].ljust(cw[0]), r[1].ljust(cw[1]), r[2]]).rstrip()
        )
    return ("\n".join(lines) + "\n").encode("ascii", "replace")
