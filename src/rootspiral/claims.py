"""Embedded claims table: the published polynomials and per-divisor findings.

Loaded once from data/paper_claims.json; every verification row in a
DivisorReport cites an entry of this table (or is marked no-data).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import UnknownDivisor
from .quadratics import HalfIntQuadratic, Rotation


@dataclass(frozen=True)
class ClaimedPolynomial:
    poly: HalfIntQuadratic
    divisor: int
    label: str
    second_differential: int
    source: str

    @property
    def rotation_label(self) -> Rotation:
        return Rotation.NEGATIVE if self.label.startswith("N") else Rotation.POSITIVE


@dataclass(frozen=True)
class DivisorClaims:
    divisor: int
    source: str
    polynomials: tuple[ClaimedPolynomial, ...]
    system_counts: dict[str, int]
    second_differentials: dict[str, int]
    spacings_deg: dict[str, float] | None
    point_symmetric_pairs: dict[str, list[list[str]]]
    axis_symmetry: dict | None


def _load() -> dict[int, DivisorClaims]:
    raw = json.loads(
        resources.files("rootspiral").joinpath("data/paper_claims.json").read_text()
    )
    out: dict[int, DivisorClaims] = {}
    for key, entry in raw["divisors"].items():
        d = int(key)
        polys = tuple(
            ClaimedPolynomial(
                poly=HalfIntQuadratic.from_json(p),
                divisor=d,
                label=p["label"],
                second_differential=p["second_differential"],
                source=entry["source"],
            )
            for p in entry["polynomials"]
        )
        out[d] = DivisorClaims(
            divisor=d,
            source=entry["source"],
            polynomials=polys,
            system_counts=entry["system_counts"],
            second_differentials=entry["second_differentials"],
            spacings_deg=entry["spacings_deg"],
            point_symmetric_pairs=entry["point_symmetric_pairs"],
            axis_symmetry=entry["axis_symmetry"],
        )
    return out


_CLAIMS: dict[int, DivisorClaims] | None = None


def all_claims() -> dict[int, DivisorClaims]:
    global _CLAIMS
    if _CLAIMS is None:
        _CLAIMS = _load()
    return _CLAIMS


def claims_for(divisor: int) -> DivisorClaims:
    table = all_claims()
    if divisor not in table:
        raise UnknownDivisor(f"no published data for divisor {divisor}; use `discover` instead")
    return table[divisor]


def claimed_divisors() -> list[int]:
    return sorted(all_claims())
