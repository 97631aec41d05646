"""Square Root Spiral toolkit: construction, spiral-graph calculus, discovery, rendering."""

from .errors import (
    Inconsistent,
    NotHalfInteger,
    NotQuadratic,
    RangeExhausted,
    RootSpiralError,
    TooFew,
    TooShort,
    UnknownDivisor,
)
from .quadratics import (
    DifferenceTable,
    HalfIntQuadratic,
    Rotation,
    difference_table,
    divisible_by,
    fit_quadratic,
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
    "DifferenceTable",
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
    "Inconsistent",
    "NotHalfInteger",
    "NotQuadratic",
    "RangeExhausted",
    "RootSpiralError",
    "Rotation",
    "SpiralPoint",
    "SpiralTable",
    "TooFew",
    "TooShort",
    "UnknownDivisor",
    "difference_table",
    "divisible_by",
    "fit_quadratic",
    "rotation_of",
    "shared_table",
]

__version__ = "0.1.0"
