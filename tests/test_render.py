"""Figure and report generation: determinism, golden files, geometry fidelity."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from rootspiral.claims import claimed_divisors
from rootspiral.discovery import discover
from rootspiral.errors import RangeExhausted
from rootspiral.render import (
    Scene,
    default_layers,
    export_report,
    render_svg,
    report_to_dict,
)
from rootspiral.spiral import SpiralTable

GOLDEN = Path(__file__).parent / "golden"


def test_minimal_scene_single_segment(table):
    svg = render_svg(Scene(n_max=2), table).decode()
    polylines = re.findall(r'<polyline[^>]*points="([^"]*)"', svg)
    assert len(polylines) == 1
    assert len(polylines[0].split()) == 2  # one segment: two vertices


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(n_max=1)
    with pytest.raises(ValueError):
        Scene(n_max=10, width=0)


def test_scene_exceeding_table_raises():
    small = SpiralTable(100)
    with pytest.raises(RangeExhausted):
        render_svg(Scene(n_max=200), small)


def test_determinism_byte_identical(table):
    rep = discover(17, table=table)
    scene = Scene(
        n_max=2000,
        highlight_divisor=17,
        arm_layers=default_layers(rep),
        show_square_reference=True,
    )
    assert render_svg(scene, table) == render_svg(scene, table)


def test_mirror_flips_y(table):
    plain = render_svg(Scene(n_max=50), table).decode()
    flipped = render_svg(Scene(n_max=50, mirror=True), table).decode()
    assert plain != flipped
    pts = re.search(r'points="([^"]*)"', plain).group(1).split()
    fpts = re.search(r'points="([^"]*)"', flipped).group(1).split()
    h = 800.0
    for p, f in zip(pts, fpts):
        px, py = map(float, p.split(","))
        fx, fy = map(float, f.split(","))
        assert px == fx
        assert fy == pytest.approx(h - py, abs=2e-4)


def test_plotted_vertices_match_spiral(table):
    scene = Scene(n_max=300)
    svg = render_svg(scene, table).decode()
    pts = re.search(r'points="([^"]*)"', svg).group(1).split()
    assert len(pts) == 300
    scale = (min(scene.width, scene.height) / 2 - scene.margin) / math.sqrt(300)
    for n, p in enumerate(pts, start=1):
        px, py = map(float, p.split(","))
        x, y = table.vertex(n)
        assert px == pytest.approx(scene.width / 2 + scale * x, abs=1e-4)
        assert py == pytest.approx(scene.height / 2 - scale * y, abs=1e-4)


def test_highlight_multiples(table):
    svg = render_svg(Scene(n_max=100, highlight_divisor=17), table).decode()
    assert svg.count("<circle") == 5  # 17, 34, 51, 68, 85


def test_square_reference_layer(table):
    with_ref = render_svg(Scene(n_max=500, show_square_reference=True), table).decode()
    without = render_svg(Scene(n_max=500), table).decode()
    assert 'id="square-reference"' in with_ref
    assert 'id="square-reference"' not in without


def test_export_report_json_round_trip(table):
    rep = discover(17, table=table)
    parsed = json.loads(export_report(rep, "json"))
    assert parsed == json.loads(json.dumps(report_to_dict(rep)))
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
        from rootspiral.cli import FIGURE_N_MAX, _figure
        from rootspiral.config import Config

        rep = discover(17, table=table)
        golden = (GOLDEN / "figure_d17.svg").read_bytes()
        assert _figure(rep, Config(), FIGURE_N_MAX) == golden
