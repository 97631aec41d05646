"""Exception types shared across the package."""


class RootSpiralError(Exception):
    """Base class for all package-specific errors."""


class RangeExhausted(RootSpiralError):
    """An operation needed spiral data beyond the built table."""


class TooFew(RootSpiralError):
    """Not enough systems for a spacing computation."""


class UnknownDivisor(RootSpiralError):
    """No embedded claims exist for the requested divisor."""
