"""Figure and report generation: determinism, golden files, geometry fidelity."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rootspiral.claims import claimed_divisors
from rootspiral.config import Config
from rootspiral.discovery import discover
from rootspiral.errors import RangeExhausted
from rootspiral.render import CANVAS, MARGIN, Canvas, _fmt, export_report, render_svg
from rootspiral.spiral import SpiralTable

GOLDEN = Path(__file__).parent / "golden"


def test_minimal_scene_single_segment(table, reports):
    svg = render_svg(reports[17], Canvas(table, 2)).decode()
    polylines = re.findall(r'<polyline[^>]*points="([^"]*)"', svg)
    assert len(polylines) == 1
    assert len(polylines[0].split()) == 2  # one segment: two vertices


def test_scene_validation(table):
    with pytest.raises(ValueError):
        Canvas(table, 1)


def test_scene_exceeding_table_raises():
    small = SpiralTable(100)
    with pytest.raises(RangeExhausted):
        Canvas(small, 200)


def test_determinism_byte_identical(table):
    rep = discover(17, table=table)
    assert render_svg(rep, Canvas(table, 2000)) == render_svg(rep, Canvas(table, 2000))


def test_mirror_flips_y(table, reports):
    plain = render_svg(reports[17], Canvas(table, 50)).decode()
    flipped = render_svg(reports[17], Canvas(table, 50, mirror=True)).decode()
    assert plain != flipped
    pts = re.search(r'points="([^"]*)"', plain).group(1).split()
    fpts = re.search(r'points="([^"]*)"', flipped).group(1).split()
    h = 800.0
    for p, f in zip(pts, fpts):
        px, py = map(float, p.split(","))
        fx, fy = map(float, f.split(","))
        assert px == fx
        assert fy == pytest.approx(h - py, abs=2e-4)


def test_plotted_vertices_match_spiral(table, reports):
    svg = render_svg(reports[17], Canvas(table, 300)).decode()
    pts = re.search(r'points="([^"]*)"', svg).group(1).split()
    assert len(pts) == 300
    scale = (CANVAS / 2 - MARGIN) / math.sqrt(300)
    for n, p in enumerate(pts, start=1):
        px, py = map(float, p.split(","))
        x, y = table.vertex(n)
        assert px == pytest.approx(CANVAS / 2 + scale * x, abs=1e-4)
        assert py == pytest.approx(CANVAS / 2 - scale * y, abs=1e-4)


@pytest.mark.parametrize(
    "value, text",
    [(-4e-5, "0.0000"), (-5e-5, "-0.0001"), (-0.0, "0.0000"), (0.03125, "0.0312"), (0.09375, "0.0938")],
)
def test_fmt_drops_negative_zero_and_rounds_ties_to_even(value, text):
    assert _fmt(value) == text


def test_highlight_multiples(table, reports):
    svg = render_svg(reports[17], Canvas(table, 100)).decode()
    assert svg.count("<circle") == 5  # 17, 34, 51, 68, 85


def test_square_reference_layer(table, reports):
    svg = render_svg(reports[17], Canvas(table, 500)).decode()
    assert 'id="square-reference"' in svg


def test_export_report_json_round_trip(table, json_oracle):
    rep = discover(17, table=table)
    parsed = json.loads(export_report(rep, "json"))
    assert export_report(rep, "json") == json_oracle(rep)
    assert parsed["divisor"] == 17
    assert parsed["counts"] == {"positive": 1, "negative": 1}
    labels = [s["label"] for s in parsed["systems"]]
    assert sorted(labels) == ["N1", "P1"]
    assert len(parsed["claims"]) == 10


def test_export_report_text_alignment(table):
    rep = discover(17, table=table)
    text = export_report(rep, "text").decode()
    lines = text.split("\n")
    assert lines[0].startswith("divisor 17:")
    header = next(l for l in lines if l.startswith("system"))
    assert "rotation" in header and "anchor_deg" in header


def test_export_report_text_rounds_angles_as_the_json_view(reports):
    """round(v, 6) before :.2f: 0.1349999996 prints 0.14, as its JSON value 0.135 does."""
    rep = reports[17]
    first = dataclasses.replace(rep.systems[0], anchor_angle=math.radians(0.1349999996))
    rep = dataclasses.replace(
        rep,
        systems=(first, *rep.systems[1:]),
        spacing_deg={k: 0.1349999996 for k in rep.spacing_deg},
    )
    data = json.loads(export_report(rep, "json"))
    assert data["systems"][0]["anchor_deg"] == 0.135
    lines = export_report(rep, "text").decode().split("\n")
    assert re.match(rf"{first.label}\s+\S+\s+0\.14\s", next(l for l in lines if l.startswith(first.label)))
    spacing = [l for l in lines if l.startswith("spacing")]
    assert len(spacing) == len(rep.spacing_deg) and all(l.endswith(": 0.14 deg") for l in spacing)


@pytest.mark.parametrize(
    "override",
    [{"n_max": 300}, {"n_max": 1000}, {"n_max": 5000}, {"mirror": True}],
    ids=["n_max=300", "n_max=1000", "n_max=5000", "mirror"],
)
def test_report_json_matches_oracle_off_the_defaults(table, json_oracle, override):
    """Reports of other runs: mismatched and flagged rows, arms of fewer than 8 members."""
    reports = [discover(d, table=table, config=Config(**override)) for d in claimed_divisors()]
    for rep in reports:
        assert export_report(rep, "json") == json_oracle(rep), rep.divisor
    if override == {"n_max": 300}:
        assert any(len(a.members) < 8 for rep in reports for s in rep.systems for a in s.arms)


def test_export_report_unknown_format(table):
    with pytest.raises(ValueError):
        export_report(discover(17, table=table), "pdf")


class TestGolden:
    """`report --all` output, pinned byte for byte for every claimed divisor."""

    @pytest.mark.parametrize("d", claimed_divisors())
    def test_report_json(self, reports, d):
        golden = (GOLDEN / f"report_d{d}.json").read_bytes()
        assert export_report(reports[d], "json") == golden

    @pytest.mark.parametrize("d", claimed_divisors())
    def test_report_text(self, reports, d):
        golden = (GOLDEN / f"report_d{d}.txt").read_bytes()
        assert export_report(reports[d], "text") == golden

    def test_figure_d17(self, table):
        rep = discover(17, table=table)
        golden = (GOLDEN / "figure_d17.svg").read_bytes()
        assert render_svg(rep, Canvas(table, Config().n_max)) == golden

    @pytest.mark.parametrize(
        "d, mirror", [(2, False), (3, False), (5, False), (11, False), (13, False), (13, True)]
    )
    def test_figure_digest(self, table, reports, d, mirror):
        """The other figures of `report --all`, and `render --divisor 13 --mirror`."""
        digests = dict(
            line.split()[::-1] for line in (GOLDEN / "figures.sha256").read_text().splitlines()
        )
        name = f"figure_d{d}{'_mirror' if mirror else ''}.svg"
        svg = render_svg(reports[d], Canvas(table, Config().n_max, mirror))
        assert hashlib.sha256(svg).hexdigest() == digests[name]
