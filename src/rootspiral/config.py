"""Run configuration: tolerances, ranges, and output settings.

All calibrated defaults live here so a run is fully reproducible from its
config. A JSON file with any subset of the field names overrides defaults.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .quadratics import MIN_DRIFT_STEPS

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "ROOTSPIRAL_OUT"


@dataclass(frozen=True)
class Config:
    """Pipeline parameters.

    The first block mirrors the user-facing knobs; the second block holds
    the calibrated discovery constants (documented in discovery).
    """

    n_max: int = 20000
    angular_tol_rad: float = 0.35  # 0.25 loses d = 17 N1 (see the margins below)
    min_chain_len: int = 5
    gap_deg: float = 12.0
    pair_tol_deg: float = 8.0
    pair_claim_tol_deg: float = 12.0  # published pairings are visual judgments
    drift_epsilon_rad: float = 0.005
    mirror: bool = False
    output_dir: str = ""

    # Discovery calibration constants. Margins, measured with
    # verify_paper_table at the defaults (0 mismatched rows) and pinned by
    # test_discovery.TestVerify.test_calibration_margins:
    centre_cap: int = 54           # max f(0) of a near-centre arm start;
                                   #  40 loses d = 5 N3 and d = 17 N1
    run_start_max: int = 7         # settled drift run must begin by this step;
                                   #  5 loses d = 17 N1 and P1
    b_hard_max: int = 1200         # absolute bound on the doubled linear coefficient
    early_drift_lo: int = 1        # near-centre drift window (inclusive lo,
    early_drift_hi: int = 7        #  exclusive hi) for direction of equal-A families

    def __post_init__(self) -> None:
        if self.n_max < 100:
            raise ValueError("n_max must be at least 100")
        for name in ("angular_tol_rad", "gap_deg", "pair_tol_deg", "drift_epsilon_rad"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.min_chain_len < 4:
            raise ValueError("min_chain_len must be at least 4")
        if self.early_drift_lo < 0 or self.early_drift_hi - self.early_drift_lo < MIN_DRIFT_STEPS:
            raise ValueError(
                f"early drift window must start at x >= 0 and span at least {MIN_DRIFT_STEPS} steps"
            )

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "Config":
        """Load a JSON config; unknown keys are rejected."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update(overrides)
        return cls(**data)

    def resolved_output_dir(self) -> Path:
        """Output directory: explicit field, else environment, else cwd."""
        if self.output_dir:
            return Path(self.output_dir)
        env = os.environ.get(OUTPUT_DIR_ENV, "")
        return Path(env) if env else Path(".")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)
