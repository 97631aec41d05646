"""Shared fixtures: one spiral table and one discovery run per session, the published polynomials, and the JSON oracle."""

from __future__ import annotations

import json
import math

import pytest

from rootspiral.claims import all_claims, claimed_divisors
from rootspiral.discovery import discover
from rootspiral.spiral import shared_table

#: Large enough for every drift window over the published polynomials.
TABLE_N_MAX = 25000


@pytest.fixture(scope="session")
def table():
    return shared_table(TABLE_N_MAX)


@pytest.fixture(scope="session")
def published_polynomials():
    """Every published ClaimedPolynomial, divisor by divisor."""
    return [cp for dc in all_claims().values() for cp in dc.polynomials]


@pytest.fixture(scope="session")
def reports(table):
    """DivisorReports for every divisor with published data (default config)."""
    return {d: discover(d, table=table) for d in claimed_divisors()}


def report_to_dict(report) -> dict:
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


@pytest.fixture(scope="session")
def json_oracle():
    """report -> the bytes `export_report(report, "json")` must equal: json's own text."""

    def oracle(report) -> bytes:
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True, ensure_ascii=True)
        return (text + "\n").encode("utf-8")

    return oracle


def pytest_runtest_logreport(report):
    """Print one line per acceptance criterion so results read at a glance."""
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}", flush=True)
