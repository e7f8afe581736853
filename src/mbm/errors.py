"""Exception hierarchy shared across the package.

The split matters to batch callers: DataError means the inputs were bad,
ConvergenceError means the numerics gave up, DomainError means a utility
function was evaluated outside its admissible consumption range.
"""

import math
from dataclasses import fields


class MbmError(Exception):
    """Base class for all package errors."""


class DataError(MbmError):
    """Malformed or inconsistent input data (ticks, config, samples)."""


class DomainError(MbmError):
    """Consumption or parameter outside the admissible domain."""


class ConvergenceError(MbmError):
    """A numerical solve failed to reach its residual contract."""


def require_finite(obj, skip=()):
    """Raise DataError naming the first dataclass field of obj that is nan or inf."""
    # optional fields left as None stay allowed
    for field in fields(obj):
        value = getattr(obj, field.name)
        if field.name not in skip and value is not None and not math.isfinite(value):
            raise DataError(f"{field.name} must be finite, got {value}")
