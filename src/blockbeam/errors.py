"""Exception types shared across the package, and the one rule for numbers
that a caller or a configuration file supplies."""

import math
import numbers


class BlockbeamError(Exception):
    """Base class for package-specific errors."""


class FormatError(BlockbeamError, ValueError):
    """Malformed file contents (WAV header, weight-file schema)."""


class UnsupportedEncodingError(FormatError):
    """Well-formed file using an encoding outside the supported set."""


class DataError(BlockbeamError, ValueError):
    """Numerically invalid data (non-finite samples, zero-energy stems)."""


class SizeError(BlockbeamError, ValueError):
    """Shape or length precondition violated."""


class ConfigError(BlockbeamError, ValueError):
    """Invalid or inconsistent configuration."""


def whole_number(value, name: str, minimum: int = 0) -> int:
    """`value` as an int >= `minimum`. An integer-valued float such as JSON's
    2.0 passes; a fraction, a bool, a non-number or a smaller value raises
    ConfigError naming `name`."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def real_number(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """`value` as a finite float in [`low`, `high`]. A bool, a non-number,
    NaN, +-inf or a value out of range raises ConfigError naming `name`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not (real and low <= value <= high):
        bounds = "".join(f", {op} {bound:g}" for op, bound in ((">=", low), ("<=", high)) if math.isfinite(bound))
        raise ConfigError(f"{name} must be a number, finite{bounds}, got {value!r}")
    return float(value)
