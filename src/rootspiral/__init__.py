"""Square Root Spiral toolkit: construction, spiral-graph calculus, discovery, rendering."""

from .errors import (
    RangeExhausted,
    RootSpiralError,
    TooFew,
    UnknownDivisor,
)
from .quadratics import (
    HalfIntQuadratic,
    Rotation,
    divisible_by,
    rotation_of,
)
from .config import Config
from .discovery import (
    Arm,
    ArmSystem,
    AxisSymmetry,
    ClaimCheck,
    DivisorReport,
    axis_symmetry,
    discover,
    discover_arms,
    group_into_systems,
    point_symmetry_pairs,
    square_number_arms,
    system_spacing,
    verify_paper_table,
)
from .spiral import SpiralPoint, SpiralTable, shared_table

__all__ = [
    "Arm",
    "ArmSystem",
    "AxisSymmetry",
    "ClaimCheck",
    "Config",
    "DivisorReport",
    "axis_symmetry",
    "discover",
    "discover_arms",
    "group_into_systems",
    "point_symmetry_pairs",
    "square_number_arms",
    "system_spacing",
    "verify_paper_table",
    "HalfIntQuadratic",
    "RangeExhausted",
    "RootSpiralError",
    "Rotation",
    "SpiralPoint",
    "SpiralTable",
    "TooFew",
    "UnknownDivisor",
    "divisible_by",
    "rotation_of",
    "shared_table",
]

__version__ = "0.1.0"
