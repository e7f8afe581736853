"""Approximate price densities from truncated characteristic functions.

A moment set of order k defines the truncated characteristic function

    F_k(x) = 1 + sum_{n=1..k} (i^n / n!) p_n x^n.

F_k is a polynomial, so its literal inverse Fourier transform is not a
function (the integrand does not decay). Two well-posed realizations of
"density with these moments" are provided, both evaluated in closed form
as a Gaussian times a Hermite series sum_n c_n He_n(z):

* density_gram_charlier (default): Gram-Charlier A-series around the
  Gaussian with the set's mean and variance, matching moments up to
  order min(k, 4). Produces a proper function with exactly the requested
  low-order moments; may develop negative lobes for strong skew/kurtosis,
  reported via negative_mass_fraction.
* density_damped_inversion: inverse transform of F_k multiplied by an
  explicit Gaussian damper exp(-x^2 / (2 s^2)), exact in closed form
  because multiplying by (ix)^n in the transform is (-d/dp)^n on the
  Gaussian. Equivalent to convolving with a Gaussian kernel of standard
  deviation 1/s: the recovered mean is exact and the recovered variance is
  the input variance plus 1/s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermeval
from numpy.polynomial.polynomial import polyval

from .errors import DataError, DomainError
from .moments import MomentSet, check_factorial_order

GC_MAX_ORDER = 4


@dataclass(frozen=True, slots=True)
class CharFnApprox:
    """Truncated characteristic function built from raw moments 1..k, k = order.

    F_k is a polynomial whose n-th Taylor coefficient is i^n p_n / n!, so
    its n-th derivative at 0 over i^n is moments[n-1] exactly.
    """

    moments: tuple[float, ...]

    def __post_init__(self):
        if not self.moments:
            raise DataError("need at least one moment, got none")
        check_factorial_order(self.order)

    @property
    def order(self) -> int:
        return len(self.moments)

    @classmethod
    def from_moment_set(cls, moments: MomentSet) -> "CharFnApprox":
        return cls(tuple(moments.raw_moments))

    def evaluate(self, x):
        """F_k(x) for scalar or array x, as complex: the polynomial of coefficients 1, i^n p_n / n!."""
        coeffs = [1.0] + [(1, 1j, -1, -1j)[n % 4] * (p / math.factorial(n))
                          for n, p in enumerate(self.moments, start=1)]
        out = polyval(np.asarray(x, dtype=float), coeffs)
        return complex(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True, slots=True)
class DensityApprox:
    """Tabulated approximate price density with normalization diagnostics.

    grid_spec is the grid's (lo, hi, points); .grid rebuilds np.linspace(*grid_spec)
    on each access instead of storing it, so a kept result holds half the floats."""

    grid_spec: tuple[float, float, int]
    values: np.ndarray
    total_mass: float
    recovered_mean: float
    recovered_variance: float
    negative_mass_fraction: float
    method: str

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(*self.grid_spec)

    def to_csv_text(self) -> str:
        lines = ["price,density"]
        for p, v in zip(self.grid, self.values):
            lines.append(f"{float(p)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "total_mass": self.total_mass,
            "recovered_mean": self.recovered_mean,
            "recovered_variance": self.recovered_variance,
            "negative_mass_fraction": self.negative_mass_fraction,
            "grid": [float(p) for p in self.grid],
            "values": [float(v) for v in self.values],
        }


def _central_moments(raw: tuple[float, ...]):
    mu = raw[0]
    var = raw[1] - mu * mu
    m3 = m4 = None
    if len(raw) >= 3:
        m3 = raw[2] - 3.0 * raw[1] * mu + 2.0 * mu ** 3
    if len(raw) >= 4:
        m4 = raw[3] - 4.0 * raw[2] * mu + 6.0 * raw[1] * mu ** 2 - 3.0 * mu ** 4
    return mu, var, m3, m4


def _parse_grid(grid_spec) -> tuple[tuple[float, float, int], np.ndarray]:
    try:
        lo, hi, points = grid_spec
        spec = float(lo), float(hi), int(points)
    except (TypeError, ValueError, OverflowError):  # int(nan), int(inf)
        raise DataError(f"grid_spec must be (lo, hi, points), got {grid_spec!r}") from None
    if spec[2] != points:
        raise DataError(f"grid points must be an integer, got {points!r}")
    lo, hi, points = spec
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError(f"grid lo and hi must be finite, got ({lo}, {hi})")
    if not (hi > lo) or points < 2:
        raise DataError(f"grid needs hi > lo and points >= 2, got ({lo}, {hi}, {points})")
    try:
        return spec, np.linspace(*spec)
    except (MemoryError, ValueError):  # numpy's "Maximum allowed size exceeded"
        raise DataError(f"grid of {points} points does not fit in memory") from None


def _hermite_density(grid: np.ndarray, center: float, scale: float, coeffs) -> np.ndarray:
    """Gaussian N(center, scale^2) times the Hermite series sum_n c_n He_n(z)."""
    # an overflow makes non-finite values, which _finalize reports, not warns about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = (grid - center) / scale
        base = np.exp(-0.5 * z * z) / (scale * math.sqrt(2.0 * math.pi))
        return base * hermeval(z, coeffs)


def _finalize(spec, grid: np.ndarray, values_raw: np.ndarray, method: str) -> DensityApprox:
    if not np.all(np.isfinite(values_raw)):
        raise DomainError(f"{method}: non-finite density values on the grid")
    raw_mass = float(np.trapezoid(values_raw, grid))
    if raw_mass <= 0.0:
        raise DomainError(f"{method}: normalization mass {raw_mass:g} is not positive")
    values = values_raw / raw_mass
    abs_mass = float(np.trapezoid(np.abs(values), grid))
    neg_mass = float(np.trapezoid(np.clip(-values, 0.0, None), grid))
    mean = float(np.trapezoid(grid * values, grid))
    second = float(np.trapezoid(grid * grid * values, grid))
    return DensityApprox(
        grid_spec=spec,
        values=values,
        total_mass=float(np.trapezoid(values, grid)),
        recovered_mean=mean,
        recovered_variance=second - mean * mean,
        negative_mass_fraction=neg_mass / abs_mass if abs_mass > 0.0 else 0.0,
        method=method,
    )


def _check_moments(moments: MomentSet) -> None:
    """An input error for an order below 2; a numerical failure for a set flagged non_finite."""
    if moments.order < 2:
        raise DataError(f"density needs order >= 2, got {moments.order}")
    if "non_finite" in moments.flags:
        raise DomainError("cannot build a density from non-finite moments "
                          f"{list(moments.raw_moments)}")


def density_gram_charlier(moments: MomentSet, grid_spec) -> DensityApprox:
    """Gram-Charlier A-series density matching the set's moments (up to 4).

    The expansion is taken around the Gaussian with the set's mean and
    variance; third/fourth standardized moments enter through He3/He4
    corrections when the set carries them. Requires positive variance
    (flagged sets are rejected) and a grid spanning at least mean +/- 6
    standard deviations.
    """
    _check_moments(moments)
    if "negative_variance" in moments.flags or not (moments.variance > 0.0):
        raise DomainError(
            f"cannot build a density from non-positive variance {moments.variance:g}"
        )
    mu, var, m3, m4 = _central_moments(moments.raw_moments[:GC_MAX_ORDER])
    sigma = math.sqrt(var)
    spec, grid = _parse_grid(grid_spec)
    if grid[0] > mu - 6.0 * sigma or grid[-1] < mu + 6.0 * sigma:
        raise DataError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] too narrow; needs to cover "
            f"[{mu - 6 * sigma:g}, {mu + 6 * sigma:g}]"
        )

    coeffs = [1.0]
    if m3 is not None:
        coeffs += [0.0, 0.0, m3 / sigma ** 3 / 6.0]
    if m4 is not None:
        coeffs.append((m4 / sigma ** 4 - 3.0) / 24.0)
    return _finalize(spec, grid, _hermite_density(grid, mu, sigma, coeffs), "gram_charlier")


def density_damped_inversion(
    moments: MomentSet, damping_sigma: float, grid_spec
) -> DensityApprox:
    """Invert the damped truncated characteristic function in closed form.

    The inverse transform of F_k(x) * exp(-x^2/(2 s^2)) is the Gaussian of
    standard deviation 1/s times sum_n p_n s^n He_n(s p) / n!, normalized on
    the grid. The damper is an explicit regularizer: the result is the
    moment-consistent density convolved with a Gaussian of standard
    deviation 1/s, so larger damping_sigma means less broadening.
    """
    _check_moments(moments)
    if not (damping_sigma > 0.0):
        raise DataError(f"damping_sigma must be positive, got {damping_sigma}")
    if damping_sigma == math.inf:
        raise DataError("damping_sigma must be finite, got inf")
    charfn = CharFnApprox.from_moment_set(moments)  # it rejects an order whose n! is no float
    spec, grid = _parse_grid(grid_spec)
    try:
        coeffs = [1.0] + [
            p * damping_sigma ** n / math.factorial(n)
            for n, p in enumerate(charfn.moments, start=1)
        ]
    except OverflowError:
        raise DomainError(f"damped_inversion: a power of damping_sigma {damping_sigma!r} up to "
                          f"{charfn.order} overflows") from None
    values = _hermite_density(grid, 0.0, 1.0 / damping_sigma, coeffs)
    return _finalize(spec, grid, values, "damped_inversion")
