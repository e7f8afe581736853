"""Investor utility families with first and second derivatives.

Four families, all increasing and (weakly) concave on their domains:

    linear       u(c) = c                      any c
    log          u(c) = ln(c)                  c > 0
    power        u(c) = c^(1-g)/(1-g), g>0,g!=1, c > 0
    exponential  u(c) = -exp(-a*c)/a, a>0      any c

linear exists mostly as the closed-form anchor: with u'' = 0 every pricing
equation collapses to price = discount * mean payoff. Power with g -> 1 is
rejected, not blended into log; select log explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError

FAMILIES = ("linear", "log", "power", "exponential")


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


def admissible(spec: UtilitySpec, c) -> bool:
    """True when every consumption value lies in the family's domain."""
    if spec.family in ("log", "power"):
        return bool(np.all(np.asarray(c) > 0.0))
    return bool(np.all(np.isfinite(np.asarray(c, dtype=float))))


def eval_utility(spec: UtilitySpec, c, order: int = 0):
    """Evaluate u, u', or u'' (order 0, 1, 2) at consumption c.

    Accepts scalars or arrays; scalar in, float out. Raises DomainError for
    consumption outside the family's admissible range.
    """
    if order not in (0, 1, 2):
        raise DataError(f"derivative order must be 0, 1, or 2, got {order}")
    arr = np.asarray(c, dtype=float)
    scalar = arr.ndim == 0
    if not admissible(spec, arr):
        raise DomainError(
            f"consumption outside admissible domain for {spec.family} utility"
        )

    fam = spec.family
    g = spec.parameter
    with np.errstate(over="ignore", under="ignore"):  # extreme c maps to inf/0
        if fam == "linear":
            out = {0: arr, 1: np.ones_like(arr), 2: np.zeros_like(arr)}[order]
        elif fam == "log":
            out = {0: np.log(arr), 1: 1.0 / arr, 2: -1.0 / (arr * arr)}[order]
        elif fam == "power":
            if order == 0:
                out = arr ** (1.0 - g) / (1.0 - g)
            elif order == 1:
                out = arr ** (-g)
            else:
                out = -g * arr ** (-g - 1.0)
        else:  # exponential
            e = np.exp(-g * arr)
            out = {0: -e / g, 1: e, 2: -g * e}[order]

    return float(out) if scalar else out

