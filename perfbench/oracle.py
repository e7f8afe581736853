"""Independent expected values for the benchmark's correctness gate.

Everything here is computed by the benchmark from its own generated
arrays with plain numpy, never by calling ``mbm``. Floats are compared
within ``RTOL`` of each quantity's natural scale (the raw moment for a
moment, the second raw moment for a variance, the price product for an
autocorrelation), because variances and autocorrelations are differences
of large terms and have no useful relative accuracy of their own.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Tolerance of every float check, relative to the quantity's scale.
RTOL = 1e-9
#: |correlation| above which ``mbm moments --strict`` flags a window.
DECORRELATION_THRESHOLD = 0.2


def windows(a: np.ndarray, n: int, mode: str) -> np.ndarray:
    """(windows, n) view of ``a`` in the CLI's disjoint or sliding layout."""
    if mode == "sliding":
        return sliding_window_view(a, n)
    return a[: (a.size // n) * n].reshape(-1, n)


def center_times(count: int, n: int, mode: str) -> np.ndarray:
    """Median tick time per window for ticks at times 0, 1, 2, ..."""
    starts = np.arange(count, dtype=float) * (1 if mode == "sliding" else n)
    mid = n // 2
    if n % 2:
        return starts + mid
    return starts + 0.5 * ((mid - 1) + mid)


def market_moments(p: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """(windows, k) market raw moments E[C^n] / E[U^n] of 2-D windows."""
    c = p * u
    return np.stack(
        [np.mean(c**n, axis=1) / np.mean(u**n, axis=1) for n in range(1, k + 1)], axis=1
    )


def decorrelation(p: np.ndarray, u: np.ndarray, n: int = 2) -> np.ndarray:
    """Per-window sample correlation of p^n and U^n, clipped to [-1, 1]."""
    a = p**n
    b = u**n
    da = a - a.mean(axis=1, keepdims=True)
    db = b - b.mean(axis=1, keepdims=True)
    sa = np.sqrt(np.mean(da * da, axis=1))
    sb = np.sqrt(np.mean(db * db, axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.mean(da * db, axis=1) / (sa * sb)
    coef[(sa == 0.0) | (sb == 0.0)] = 0.0
    return np.clip(coef, -1.0, 1.0)


def market_autocorr(p: np.ndarray, u: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Market autocorrelation of window i with window i+lag, and its scale."""
    c = p * u
    c1, c2, u1, u2 = c[:-lag], c[lag:], u[:-lag], u[lag:]
    cross = np.mean(c1 * c2, axis=1) / np.mean(u1 * u2, axis=1)
    prod = (np.mean(c1, axis=1) / np.mean(u1, axis=1)) * (np.mean(c2, axis=1) / np.mean(u2, axis=1))
    return cross - prod, np.abs(cross) + np.abs(prod)


def close(observed, expected, scale) -> np.ndarray:
    """Boolean mask of values within RTOL * scale of the expectation."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return np.abs(observed - expected) <= RTOL * np.maximum(np.abs(scale), 1e-300)


def marginal(family: str, parameter: float, c, order: int) -> np.ndarray:
    """u' (order 1) or u'' (order 2) of the four utility families."""
    c = np.asarray(c, dtype=float)
    if family == "linear":
        return np.ones_like(c) if order == 1 else np.zeros_like(c)
    if family == "log":
        return 1.0 / c if order == 1 else -1.0 / (c * c)
    if family == "power":
        return c**-parameter if order == 1 else -parameter * c ** (-parameter - 1.0)
    e = np.exp(-parameter * c)
    return e if order == 1 else -parameter * e


def price_residual(coeffs: dict, p0: float) -> float:
    """rhs(p0) - p0 of the linearized mean-price equation.

    ``coeffs`` holds the equation's coefficients: purchase-date consumption
    is ``e_t - spent - p0 * xi`` and sale-date consumption ``c_T``;
    ``x`` is the payoff mean, ``A`` the payoff-risk term and ``B`` the
    price-risk term.
    """
    fam, par = coeffs["family"], coeffs["parameter"]
    c_t = coeffs["e_t"] - coeffs["spent"] - p0 * coeffs["xi"]
    c_T = coeffs["c_T"]
    up_t = marginal(fam, par, c_t, 1)
    rhs = (
        coeffs["beta"] * marginal(fam, par, c_T, 1) / up_t * coeffs["x"]
        + coeffs["beta"] * marginal(fam, par, c_T, 2) / up_t * coeffs["A"]
        + marginal(fam, par, c_t, 2) / up_t * coeffs["B"]
    )
    return float(rhs - p0)


def holdings_foc(family: str, parameter: float, beta: float, e_t: float, e_T: float,
                 prices: np.ndarray, payoffs: np.ndarray, xi: float) -> tuple[float, float]:
    """Sampled first-order condition at ``xi`` and the size of its terms."""
    lhs = float(np.mean(marginal(family, parameter, e_t - prices * xi, 1) * prices))
    rhs = beta * float(np.mean(marginal(family, parameter, e_T + payoffs * xi, 1) * payoffs))
    return lhs - rhs, abs(lhs) + abs(rhs)


def central_moments(raw: tuple[float, ...]) -> tuple[float, float, float, float]:
    """(mean, variance, third and fourth central moments) from four raw moments."""
    mu = raw[0]
    var = raw[1] - mu * mu
    m3 = raw[2] - 3.0 * raw[1] * mu + 2.0 * mu**3
    m4 = raw[3] - 4.0 * raw[2] * mu + 6.0 * raw[1] * mu**2 - 3.0 * mu**4
    return mu, var, m3, m4


def gram_charlier_summary(raw: tuple[float, ...], grid: np.ndarray) -> tuple[float, float]:
    """(total mass, recovered mean) of the normalized order-4 Gram-Charlier density."""
    mu, var, m3, m4 = central_moments(raw)
    sigma = math.sqrt(var)
    z = (grid - mu) / sigma
    dens = np.exp(-0.5 * z * z) * (
        1.0
        + (m3 / sigma**3 / 6.0) * (z**3 - 3.0 * z)
        + ((m4 / sigma**4 - 3.0) / 24.0) * (z**4 - 6.0 * z**2 + 3.0)
    )
    dens = dens / np.trapezoid(dens, grid)
    return float(np.trapezoid(dens, grid)), float(np.trapezoid(grid * dens, grid))
