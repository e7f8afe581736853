"""Investor utility families with first and second derivatives.

Four families, all increasing and (weakly) concave on their domains:

    linear       u(c) = c                      any finite c
    log          u(c) = ln(c)                  0 < c < inf
    power        u(c) = c^(1-g)/(1-g), g>0,g!=1, 0 < c < inf
    exponential  u(c) = -exp(-a*c)/a, a>0      any finite c

linear exists mostly as the closed-form anchor: with u'' = 0 every pricing
equation collapses to price = discount * mean payoff. Power with g -> 1 is
rejected, not blended into log; select log explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError

FAMILIES = ("linear", "log", "power", "exponential")
#: Families defined for finite c > 0 only; the others take any finite c.
POSITIVE_FAMILIES = ("log", "power")

#: (u, u', u'') of each family at consumption c with parameter g. Scalars and
#: arrays run the same formulas; transcendental steps always go through the
#: numpy ufuncs, so a float gives the bits of the array loops (math.exp/log/pow
#: and np.float64.__pow__ round differently on some inputs).
_FORMULAS = {
    "linear": (lambda c, g: c, lambda c, g: np.ones_like(c), lambda c, g: np.zeros_like(c)),
    # np.divide, because c*c may underflow to 0, where float division raises
    "log": (lambda c, g: np.log(c), lambda c, g: 1.0 / c, lambda c, g: np.divide(-1.0, c * c)),
    "power": (lambda c, g: np.power(c, 1.0 - g) / (1.0 - g), lambda c, g: np.power(c, -g),
              lambda c, g: -g * np.power(c, -g - 1.0)),
    "exponential": (lambda c, g: -np.exp(-g * c) / g, lambda c, g: np.exp(-g * c),
                    lambda c, g: -g * np.exp(-g * c)),
}


@dataclass(frozen=True, slots=True)
class UtilitySpec:
    family: str
    parameter: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown utility family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "power":
            if not (self.parameter > 0.0) or self.parameter == 1.0:
                raise DataError(
                    f"power utility needs parameter > 0 and != 1, got {self.parameter}"
                )
        elif self.family == "exponential":
            if not (self.parameter > 0.0):
                raise DataError(f"exponential utility needs parameter > 0, got {self.parameter}")


def _positive(c) -> bool:
    if isinstance(c, np.ndarray):  # two reductions, no temporary: it runs on every sample array
        return c.size == 0 or bool(np.minimum.reduce(c, axis=None) > 0.0
                                   and np.maximum.reduce(c, axis=None) < math.inf)
    return 0.0 < c < math.inf


def _finite(c) -> bool:
    return bool(np.isfinite(c).all()) if isinstance(c, np.ndarray) else math.isfinite(c)


def resolve(spec: UtilitySpec):
    """((u, u', u''), inside) of spec's family: each formula is f(c, spec.parameter) on
    admissible c under the caller's error state; inside(c) is True when every value
    of a real number or float array lies in the family's domain."""
    return _FORMULAS[spec.family], _positive if spec.family in POSITIVE_FAMILIES else _finite


@np.errstate(over="ignore", under="ignore")  # extreme c maps to inf/0
def eval_utility(spec: UtilitySpec, c, order: int = 0):
    """Evaluate u, u', or u'' (order 0, 1, 2) at consumption c.

    Accepts scalars or arrays; scalar in, float out. Raises DomainError for
    consumption outside the family's admissible range.
    """
    if order not in (0, 1, 2):
        raise DataError(f"derivative order must be 0, 1, or 2, got {order}")
    scalar = isinstance(c, float)
    if not scalar:
        c = np.asarray(c, dtype=float)
        scalar = c.ndim == 0
    formulas, inside = resolve(spec)
    if not inside(c):
        raise DomainError(
            f"consumption outside admissible domain for {spec.family} utility"
        )
    out = formulas[order](c, spec.parameter)
    return float(out) if scalar else out
