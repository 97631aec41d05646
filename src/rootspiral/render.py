"""Deterministic figure and report generation.

SVG output is a pure function of the Scene: fixed 4-decimal coordinate
formatting, no timestamps, no randomness, so figures can be golden-tested
byte for byte. Reports serialize a DivisorReport as sorted-key JSON or as
a column-aligned ASCII table.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .config import Config
from .csvformat import _fmt, fixed4_strings
from .discovery import Arm, ArmSystem, DivisorReport, square_members
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
        for numbers in square_members(scene.n_max):
            if len(numbers) >= 2:
                parts.append(
                    polyline(numbers, SQUARE_REFERENCE_COLOR, scene.arm_stroke)
                )
        parts.append("</g>")

    for system, color in scene.arm_layers:
        parts.append(f'<g id="system-{system.label}">')
        for arm in system.arms:
            numbers = arm.members[:bisect_right(arm.members, scene.n_max)]  # members never descend
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


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A container at indent `pad` whose items are already laid out one level deeper."""
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _json(value: object, pad: str = "") -> str:
    """`value` as json.dumps(indent=2, sort_keys=True) prints it, nested at `pad`.

    The checks follow json's own order (bool before int), and dict keys
    must be strings.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        return _block([_json(v, inner) for v in value], pad)
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return _block(items, pad, "{}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


#: Indents of an arm dict and of its keys in the JSON report.
_ARM_PAD, _ARM_KEY_PAD = " " * 8, " " * 10


def _arm_json(arm: Arm) -> str:
    """One arm dict of the JSON report; its six keys are in sorted order."""
    q, k = arm.poly, _ARM_KEY_PAD
    members = _block(list(map(int.__repr__, arm.members[:8])), k)
    return (
        f'{{\n{k}"A": {q.A},\n{k}"B": {q.B},\n{k}"C": {q.C},\n'
        f'{k}"member_count": {len(arm.members)},\n{k}"members": {members},\n'
        f'{k}"polynomial": {encode_basestring_ascii(str(q))}\n{_ARM_PAD}}}'
    )


def _system_json(system: ArmSystem) -> str:
    """One system dict of the JSON report; "arms" sorts between its other keys."""
    pad = " " * 6
    return (
        f'{{\n{pad}"anchor_deg": {_json(round(math.degrees(system.anchor_angle), 6))},\n'
        f'{pad}"arms": {_block(list(map(_arm_json, system.arms)), pad)},\n'
        f'{pad}"label": {_json(system.label)},\n'
        f'{pad}"rotation": {_json(system.rotation.value)}\n    }}'
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
    items = [f'"{key}": {_json(value, "  ")}' for key, value in sorted(view.items())]
    # "systems" sorts after the other keys
    items.append(f'"systems": {_block(list(map(_system_json, report.systems)), "  ")}')
    return _block(items, "", "{}")


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
