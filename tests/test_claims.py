"""Embedded claims table: shape and internal consistency."""

from __future__ import annotations

import pytest

from rootspiral.claims import all_claims, claimed_divisors, claims_for
from rootspiral.errors import UnknownDivisor


def test_divisors_and_polynomial_count(published_polynomials):
    assert claimed_divisors() == [2, 3, 5, 11, 13, 17]
    assert len(published_polynomials) == 28


def test_polynomials_per_divisor():
    counts = {d: len(claims_for(d).polynomials) for d in claimed_divisors()}
    assert counts == {2: 10, 3: 5, 5: 5, 11: 3, 13: 3, 17: 2}


def test_labels_carry_direction(published_polynomials):
    for cp in published_polynomials:
        assert cp.label[0] in ("P", "N")
        assert cp.rotation_label.value == (
            "positive" if cp.label.startswith("P") else "negative"
        )


def test_claimed_second_differentials_match_polynomials():
    for d, claims in all_claims().items():
        for cp in claims.polynomials:
            assert cp.poly.second_differential == cp.second_differential
            direction = "positive" if cp.label.startswith("P") else "negative"
            assert cp.second_differential == claims.second_differentials[direction]


def test_every_entry_names_its_source():
    for d, claims in all_claims().items():
        assert claims.source
        for cp in claims.polynomials:
            assert cp.source == claims.source


def test_unknown_divisor():
    with pytest.raises(UnknownDivisor):
        claims_for(7)
