"""Exception types shared across the :mod:`repro` package."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ShapeError(ReproError):
    """An input array has an incompatible shape."""


class InvalidInputError(ReproError, ValueError):
    """An input array holds values the operation cannot accept, such as
    a non-finite key entry."""


class ConfigError(ReproError):
    """A configuration object holds inconsistent or out-of-range values."""


class CapacityError(ReproError):
    """A hardware buffer was asked to hold more data than it can fit."""


class QuantizationError(ReproError):
    """A value cannot be represented in the requested fixed-point format."""
