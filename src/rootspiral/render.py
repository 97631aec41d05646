"""Deterministic figure and report generation.

SVG output is a pure function of the Scene: fixed 4-decimal coordinate
formatting, no timestamps, no randomness, so figures can be golden-tested
byte for byte. Reports serialize a DivisorReport as sorted-key JSON or as
a column-aligned ASCII table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import Config
from .csvformat import _fmt, fixed4_strings
from .discovery import ArmSystem, DivisorReport, square_number_arms
from .errors import RangeExhausted
from .spiral import SpiralTable, shared_table

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


@dataclass(frozen=True)
class Scene:
    """Complete description of one figure; fully determines output bytes."""

    n_max: int
    highlight_divisor: int | None = None
    arm_layers: tuple[tuple[ArmSystem, str], ...] = ()
    show_square_reference: bool = False
    mirror: bool = False
    width: float = 800.0
    height: float = 800.0
    margin: float = 20.0
    spiral_stroke: float = 0.75
    arm_stroke: float = 2.0
    point_radius: float = 2.0
    label_size: float = 11.0

    def __post_init__(self) -> None:
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")


def default_layers(report: DivisorReport) -> tuple[tuple[ArmSystem, str], ...]:
    """Assign palette colors to a report's systems in label order."""
    return tuple(
        (system, ARM_PALETTE[i % len(ARM_PALETTE)])
        for i, system in enumerate(report.systems)
    )


def render_svg(scene: Scene, table: SpiralTable | None = None) -> bytes:
    """Render a Scene as a standalone SVG 1.1 document (bytes)."""
    table = table or shared_table(max(scene.n_max, Config().n_max))
    if scene.n_max > table.n_max:
        raise RangeExhausted(
            f"scene needs n_max={scene.n_max}, table holds {table.n_max}"
        )

    scale = (min(scene.width, scene.height) / 2.0 - scene.margin) / math.sqrt(
        scene.n_max
    )
    cx, cy = scene.width / 2.0, scene.height / 2.0
    y_sign = 1.0 if scene.mirror else -1.0

    # Every point of the figure is a ray n <= n_max: format each ray once.
    # px[n], py[n] and point[n] are the coordinates of ray n (index 0 unused).
    _, x, y = table.vertices(1, scene.n_max + 1)
    coords = fixed4_strings(np.concatenate([cx + scale * x, cy + y_sign * scale * y]))
    px, py = ["", *coords[:scene.n_max]], ["", *coords[scene.n_max:]]
    point = list(map(",".join, zip(px, py)))

    def polyline(numbers, color: str, width: float) -> str:
        pts = " ".join([point[n] for n in numbers])
        return (
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" points="{pts}"/>'
        )

    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(scene.width)}" height="{_fmt(scene.height)}" '
        f'viewBox="0 0 {_fmt(scene.width)} {_fmt(scene.height)}">',
        f'<rect width="{_fmt(scene.width)}" height="{_fmt(scene.height)}" '
        f'fill="#ffffff"/>',
        '<g id="spiral">',
        polyline(range(1, scene.n_max + 1), SPIRAL_COLOR, scene.spiral_stroke),
        "</g>",
    ]

    if scene.highlight_divisor:
        d = scene.highlight_divisor
        parts.append('<g id="multiples">')
        for n in range(d, scene.n_max + 1, d):
            parts.append(
                f'<circle cx="{px[n]}" cy="{py[n]}" '
                f'r="{_fmt(scene.point_radius)}" fill="{HIGHLIGHT_COLOR}"/>'
            )
        parts.append("</g>")

    if scene.show_square_reference:
        parts.append('<g id="square-reference">')
        for q in square_number_arms(table)[0]:
            numbers = [
                q.eval(x)
                for x in range(math.isqrt(scene.n_max) + 1)
                if 1 <= q.eval(x) <= scene.n_max
            ]
            if len(numbers) >= 2:
                parts.append(
                    polyline(numbers, SQUARE_REFERENCE_COLOR, scene.arm_stroke)
                )
        parts.append("</g>")

    for system, color in scene.arm_layers:
        parts.append(f'<g id="system-{system.label}">')
        for arm in system.arms:
            numbers = [n for n in arm.members if n <= scene.n_max]
            if len(numbers) >= 2:
                parts.append(polyline(numbers, color, scene.arm_stroke))
        anchor = system.arms[0].members[0] if system.arms else None
        if anchor is not None and anchor <= scene.n_max:
            parts.append(
                f'<text x="{px[anchor]}" y="{py[anchor]}" '
                f'font-family="monospace" font-size="{_fmt(scene.label_size)}" '
                f'fill="{color}">{system.label}</text>'
            )
        parts.append("</g>")

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def report_to_dict(report: DivisorReport) -> dict:
    """Stable, JSON-ready view of a DivisorReport."""
    return {
        "divisor": report.divisor,
        "counts": report.counts,
        "spacing_deg": {k: round(v, 6) for k, v in report.spacing_deg.items()},
        "symmetry": report.symmetry,
        "systems": [
            {
                "label": s.label,
                "rotation": s.rotation.value,
                "anchor_deg": round(math.degrees(s.anchor_angle), 6),
                "arms": [
                    {
                        "A": a.poly.A,
                        "B": a.poly.B,
                        "C": a.poly.C,
                        "polynomial": str(a.poly),
                        "members": list(a.members[:8]),
                        "member_count": len(a.members),
                    }
                    for a in s.arms
                ],
            }
            for s in report.systems
        ],
        "claims": [
            {
                "claim": c.claim,
                "status": c.status,
                "detail": c.detail,
                "source": c.source,
            }
            for c in report.paper_match
        ],
        "parameters": report.parameters,
    }


def export_report(report: DivisorReport, format: str = "json") -> bytes:
    """Serialize a DivisorReport: 'json' (sorted keys) or 'text' (table).

    The text table prints the JSON view's rounded angles to 2 decimals,
    round(v, 6) first, so both formats show the same value.
    """
    if format == "json":
        return (
            json.dumps(report_to_dict(report), indent=2, sort_keys=True, ensure_ascii=True)
            + "\n"
        ).encode("utf-8")
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
