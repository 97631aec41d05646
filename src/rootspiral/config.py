"""Run configuration: the run's settings, its calibration and its fixed tolerances.

A run is fully reproducible from its config, and every JSON report prints
all of its values under `parameters`. A JSON config file may set any
subset of the init fields, and none of the fixed (init=False) ones.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "ROOTSPIRAL_OUT"


def _is_int(value: Any) -> bool:
    """An int that is not a bool: a bool is an int to Python, not a count here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value: Any) -> bool:
    """An int that is not a bool, or a float, finite as a double."""
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an int past the largest double
        return False


#: By a field's annotation: the name of its values in an error, and their test.
_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_finite_number),
    "bool": ("true or false", lambda value: isinstance(value, bool)),
    "str": ("a string", lambda value: isinstance(value, str)),
}


@dataclass(frozen=True)
class Config:
    """Pipeline parameters.

    Seven init fields are the run's settings and the calibrated discovery
    constants (documented in discovery). The five init=False fields are the
    fixed bounds the claims are judged at and the near-centre window that
    splits equal-A families; no run can retune them, and each is read as
    `Config.<name>`.
    """

    n_max: int = 20000
    angular_tol_rad: float = 0.35  # 0.25 loses d = 17 N1 (see the margins below)
    min_chain_len: int = 5
    pair_tol_deg: float = field(default=8.0, init=False)
    pair_claim_tol_deg: float = field(default=12.0, init=False)  # pairings judged by eye
    drift_epsilon_rad: float = field(default=0.005, init=False)
    mirror: bool = False
    output_dir: str = ""

    # Discovery calibration constants. Margins, measured with
    # verify_paper_table at the defaults (0 mismatched rows) and pinned by
    # test_discovery.TestVerify.test_calibration_margins:
    centre_cap: int = 54           # max f(0) of a near-centre arm start;
                                   #  40 loses d = 5 N3 and d = 17 N1
    run_start_max: int = 7         # settled drift run must begin by this step;
                                   #  5 loses d = 17 N1 and P1
    early_drift_lo: int = field(default=1, init=False)  # near-centre drift window (inclusive lo,
    early_drift_hi: int = field(default=7, init=False)  #  exclusive hi) splitting equal-A families

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            kind, admits = _TYPES[f.type]
            value = getattr(self, f.name)
            if f.init and not admits(value):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if self.n_max < 100:
            raise ValueError("n_max must be at least 100")
        if self.angular_tol_rad <= 0:
            raise ValueError("angular_tol_rad must be positive")
        if self.min_chain_len < 4:
            raise ValueError("min_chain_len must be at least 4")
        if self.centre_cap < 1:
            raise ValueError("centre_cap must be at least 1")
        if self.run_start_max < 0:
            raise ValueError("run_start_max must be at least 0")

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "Config":
        """Load a JSON config; keys other than the init fields are rejected."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
        known = {f.name for f in dataclasses.fields(cls) if f.init}
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
