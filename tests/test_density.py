import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from mbm.density import (
    CharFnApprox,
    density_damped_inversion,
    density_gram_charlier,
)
from mbm.errors import DataError, DomainError
from mbm.moments import compute_moment_set

from conftest import make_window, random_window


def moment_set_from_points(points, order=4, method="market"):
    """Moment set of a discrete price distribution given by the points."""
    w = make_window(points)
    return compute_moment_set(w, order, method)


def random_moment_set(rng, order=4, scale=None):
    s = scale if scale is not None else 10.0 ** rng.uniform(0.0, 3.0)
    points = s * rng.uniform(0.5, 1.5, size=8)
    return moment_set_from_points(points, order=order)


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------

def test_charfn_at_zero_is_one(rng):
    for _ in range(20):
        ms = random_moment_set(rng)
        assert CharFnApprox.from_moment_set(ms).evaluate(0.0) == 1.0 + 0.0j


def test_charfn_hand_value_first_order():
    cf = CharFnApprox(moments=(17.5,))
    got = cf.evaluate(0.01)
    assert got == pytest.approx(1.0 + 0.175j, rel=1e-15)


def test_charfn_zero_moments_identity():
    cf = CharFnApprox(moments=(0.0, 0.0, 0.0))
    for x in (-2.0, 0.0, 0.5, 10.0):
        assert cf.evaluate(x) == 1.0 + 0.0j


def test_charfn_needs_a_moment():
    with pytest.raises(DataError, match="^need at least one moment, got none$"):
        CharFnApprox(moments=())


def test_charfn_conjugate_symmetry(rng):
    for _ in range(20):
        ms = random_moment_set(rng)
        xs = rng.uniform(-1.0, 1.0, size=7)
        cf = CharFnApprox.from_moment_set(ms)
        plus = cf.evaluate(xs)
        minus = cf.evaluate(-xs)
        np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-15)


# ---------------------------------------------------------------------------
# moment recovery
# ---------------------------------------------------------------------------

def test_recover_round_trips_stored_moments(rng):
    for _ in range(100):
        order = int(rng.integers(2, 5))
        ms = random_moment_set(rng, order=order)
        cf = CharFnApprox.from_moment_set(ms)
        for n in range(1, order + 1):
            got = cf.moments[n - 1]
            assert got == pytest.approx(ms.raw_moments[n - 1], rel=1e-6)


def test_recover_round_trips_stored_moments_bit_for_bit():
    moments = (3.0, 10.0, 34.5, 130.25, 520.0, 2201.5)
    for order in (3, 6):
        cf = CharFnApprox(moments=moments[:order])
        assert cf.order == order
        assert [cf.moments[n - 1] for n in range(1, order + 1)] == list(moments[:order])


def test_recover_hand_set():
    cf = CharFnApprox(moments=(17.5, 370.0))
    assert cf.moments[0] == pytest.approx(17.5, rel=1e-6)
    assert cf.moments[1] == pytest.approx(370.0, rel=1e-6)


def test_recover_zero_moments():
    cf = CharFnApprox(moments=(0.0, 0.0))
    assert cf.moments[0] == 0.0
    assert cf.moments[1] == 0.0


# ---------------------------------------------------------------------------
# Gram-Charlier density
# ---------------------------------------------------------------------------

def gaussian_pdf(x, mu, var):
    return np.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def test_gc_order_two_is_gaussian():
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    mu, var = ms.mean, ms.variance
    sd = math.sqrt(var)
    dens = density_gram_charlier(ms, (mu - 8 * sd, mu + 8 * sd, 1601))
    assert abs(dens.total_mass - 1.0) <= 1e-6
    inside = np.abs(dens.grid - mu) <= 4 * sd
    expect = gaussian_pdf(dens.grid[inside], mu, var)
    np.testing.assert_allclose(dens.values[inside], expect, rtol=1e-8)
    assert dens.negative_mass_fraction == 0.0


def test_gc_quadrature_moments_match_inputs(rng):
    for _ in range(10):
        ms = random_moment_set(rng, order=4, scale=10.0 ** rng.uniform(0.0, 2.0))
        mu, var = ms.mean, ms.variance
        sd = math.sqrt(var)
        dens = density_gram_charlier(ms, (mu - 10 * sd, mu + 10 * sd, 4001))
        assert dens.recovered_mean == pytest.approx(mu, rel=1e-4)
        assert dens.recovered_variance == pytest.approx(var, rel=1e-4)


def test_gc_rejects_flagged_negative_variance():
    ms = compute_moment_set(make_window([10, 1], [1, 10]), 2, "market")
    assert "negative_variance" in ms.flags
    with pytest.raises(DomainError):
        density_gram_charlier(ms, (-100.0, 100.0, 101))


def non_finite_set():
    """The market k=4 moment set of ticks near 1e160, whose squares overflow."""
    ms = compute_moment_set(make_window([1e160, 2e160, 3e160]), 4, "market")
    assert ms.flags == ("non_finite",)
    return ms


NON_FINITE = r"^cannot build a density from non-finite moments \[2e\+160, inf, inf, inf\]$"


def test_gc_rejects_a_non_finite_set():
    # the non_finite flag, not the nan variance it gives, names the failure
    with pytest.raises(DomainError, match=NON_FINITE):
        density_gram_charlier(non_finite_set(), (-1e161, 1e161, 11))


def test_damped_inversion_rejects_a_non_finite_set():
    # rejected before any evaluation, so no overflow warning precedes the error
    with pytest.raises(DomainError, match=NON_FINITE):
        density_damped_inversion(non_finite_set(), 1.0, (-1e161, 1e161, 11))


def test_gc_rejects_narrow_grid():
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    sd = math.sqrt(ms.variance)
    with pytest.raises(DataError, match="too narrow"):
        density_gram_charlier(ms, (ms.mean - 2 * sd, ms.mean + 2 * sd, 101))


def test_gc_grid_is_strictly_increasing():
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    sd = math.sqrt(ms.variance)
    dens = density_gram_charlier(ms, (ms.mean - 7 * sd, ms.mean + 7 * sd, 257))
    assert np.all(np.diff(dens.grid) > 0)


def test_gc_skewed_set_reports_negative_mass(rng):
    # a strongly skewed two-point distribution drives the series negative
    ms = moment_set_from_points([1.0] * 9 + [30.0], order=4, method="frequency")
    sd = math.sqrt(ms.variance)
    dens = density_gram_charlier(ms, (ms.mean - 8 * sd, ms.mean + 8 * sd, 2001))
    assert dens.negative_mass_fraction > 0.0
    assert abs(dens.total_mass - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# damped inversion
# ---------------------------------------------------------------------------

def damped_from_raw(mu, var, s, grid):
    from mbm.moments import MomentSet

    ms = MomentSet(
        method="market",
        center_time=0.0,
        raw_moments=(mu, var + mu * mu),
        trade_value_moments=None,
        trade_volume_moments=None,
        variance=var,
    )
    return density_damped_inversion(ms, s, grid)


def test_damped_inversion_variance_is_input_plus_broadening():
    mu, var = 1.0, 0.25
    previous = None
    for s in (1.0, 2.0, 4.0):
        width = math.sqrt(var + 1.0 / s ** 2)
        dens = damped_from_raw(mu, var, s, (mu - 10 * width, mu + 10 * width, 1601))
        assert dens.recovered_mean == pytest.approx(mu, abs=1e-6)
        expect = var + 1.0 / s ** 2
        assert dens.recovered_variance == pytest.approx(expect, rel=1e-3)
        if previous is not None:
            assert dens.recovered_variance < previous  # monotone in damping width
        previous = dens.recovered_variance


def test_damped_inversion_degenerate_set_concentrates():
    widths = []
    for s in (1.0, 2.0, 4.0):
        dens = damped_from_raw(0.0, 0.0, s, (-10.0, 10.0, 2001))
        widths.append(math.sqrt(dens.recovered_variance))
        assert dens.recovered_mean == pytest.approx(0.0, abs=1e-9)
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] == pytest.approx(0.25, rel=1e-3)  # kernel width 1/s


def test_damped_inversion_mass_normalized():
    dens = damped_from_raw(1.0, 0.25, 2.0, (-6.0, 8.0, 801))
    assert abs(dens.total_mass - 1.0) <= 1e-6


def test_damped_inversion_rejects_bad_damping():
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    with pytest.raises(DataError):
        density_damped_inversion(ms, 0.0, (-100.0, 100.0, 101))


@pytest.mark.parametrize("damping, message", [
    (math.inf, "damping_sigma must be finite, got inf"),
    (math.nan, "damping_sigma must be positive, got nan"),
    (-1.0, "damping_sigma must be positive, got -1.0"),
])
def test_damped_inversion_rejects_a_damping_that_is_not_positive_and_finite(damping, message):
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    with pytest.raises(DataError, match=f"^{message}$"):
        density_damped_inversion(ms, damping, (-100.0, 100.0, 101))


def damped_quadrature(raw_moments, s, grid, n_x=4001):
    """Trapezoid inverse transform of F_k(x) * exp(-x^2/(2 s^2)) over |x| <= 8s."""
    xs = np.linspace(-8.0 * s, 8.0 * s, n_x)
    charfn = sum(
        (1j * xs) ** n * p / math.factorial(n) for n, p in enumerate(raw_moments, start=1)
    ) + 1.0
    integrand = charfn * np.exp(-xs * xs / (2.0 * s * s))
    # real part of integrand * exp(-i x p), one grid chunk at a time
    values = np.empty_like(grid)
    for start in range(0, grid.size, 50):
        xp = grid[start:start + 50, None] * xs[None, :]
        real = integrand.real * np.cos(xp) + integrand.imag * np.sin(xp)
        values[start:start + 50] = np.trapezoid(real, xs, axis=1) / (2.0 * math.pi)
    return values / np.trapezoid(values, grid)


DAMPED_POINTS = [0.6, 0.9, 1.0, 1.3, 1.7]


@pytest.mark.parametrize("s", [0.05, 0.1, 1.0, 2.0])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_damped_inversion_matches_quadrature_oracle(order, s):
    ms = moment_set_from_points(DAMPED_POINTS, order=order)
    width = math.sqrt(ms.variance + 1.0 / s ** 2)
    dens = density_damped_inversion(ms, s, (ms.mean - 8 * width, ms.mean + 8 * width, 401))
    expect = damped_quadrature(ms.raw_moments, s, dens.grid)
    assert np.max(np.abs(dens.values - expect)) <= 1e-9 * np.max(np.abs(expect))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_damped_inversion_analytic_variance_on_wide_grid(order):
    ms = moment_set_from_points(DAMPED_POINTS, order=order)
    for s in (0.5, 1.0, 4.0):
        width = math.sqrt(ms.variance + 1.0 / s ** 2)
        dens = density_damped_inversion(ms, s, (ms.mean - 16 * width, ms.mean + 16 * width, 4001))
        assert dens.recovered_mean == pytest.approx(ms.mean, rel=1e-9)
        assert dens.recovered_variance == pytest.approx(ms.variance + 1.0 / s ** 2, rel=1e-9)


def test_densities_from_random_windows(rng):
    # both realizations stay normalized on sets from real windows
    w = random_window(rng, size=100, price_lo=5.0, price_hi=15.0)
    ms = compute_moment_set(w, 4, "market")
    sd = math.sqrt(ms.variance)
    gc = density_gram_charlier(ms, (ms.mean - 8 * sd, ms.mean + 8 * sd, 1201))
    assert abs(gc.total_mass - 1.0) <= 1e-6
    s = 0.5 / ms.mean
    width = math.sqrt(ms.variance + 1.0 / s ** 2)
    di = density_damped_inversion(ms, s, (ms.mean - 8 * width, ms.mean + 8 * width, 801))
    assert abs(di.total_mass - 1.0) <= 1e-6


def test_csv_and_json_serialization():
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    sd = math.sqrt(ms.variance)
    dens = density_gram_charlier(ms, (ms.mean - 7 * sd, ms.mean + 7 * sd, 64))
    text = dens.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "price,density"
    assert len(lines) == 65
    payload = dens.to_json_dict()
    assert payload["method"] == "gram_charlier"
    assert len(payload["grid"]) == len(payload["values"]) == 64


@pytest.mark.parametrize("order", [171, 200])
def test_an_order_whose_factorial_is_no_float_is_an_input_error(order):
    message = f"^order {order} is above 170, the largest whose factorial is a float$"
    with pytest.raises(DataError, match=message):
        CharFnApprox(moments=(1.0,) * order)
    with pytest.raises(DataError, match=message):
        moment_set_from_points(DAMPED_POINTS, order=order)
    # a set of that order made by hand, its moments past 170 made up
    ms = moment_set_from_points(DAMPED_POINTS, order=170)
    ms = dataclasses.replace(ms, raw_moments=ms.raw_moments + (1.0,) * (order - 170))
    with pytest.raises(DataError, match=message):
        density_damped_inversion(ms, 0.5, (0.0, 2.0, 11))
    assert density_gram_charlier(ms, (-4.0, 6.0, 11)).total_mass > 0.0  # it reads orders 1..4


def test_order_170_is_the_largest_a_charfn_and_a_damped_density_take():
    ms = moment_set_from_points(DAMPED_POINTS, order=170)
    assert np.isfinite(CharFnApprox.from_moment_set(ms).evaluate(0.5))
    assert np.isfinite(density_damped_inversion(ms, 0.5, (0.0, 2.0, 11)).values).all()


@pytest.mark.parametrize("grid, message", [
    ((0.0, 40.0, 5.5), "grid points must be an integer, got 5.5"),
    ((0.0, 40.0, math.nan), "grid_spec must be (lo, hi, points)"),
    ((0.0, 40.0, math.inf), "grid_spec must be (lo, hi, points)"),
    ((-math.inf, 40.0, 11), "grid lo and hi must be finite"),
    ((0.0, math.nan, 11), "grid lo and hi must be finite"),
], ids=["points-5.5", "points-nan", "points-inf", "lo-inf", "hi-nan"])
@pytest.mark.parametrize("method", ["gram_charlier", "damped"])
def test_a_grid_of_non_integral_points_or_non_finite_ends_is_an_input_error(grid, message,
                                                                            method):
    ms = moment_set_from_points([18.0, 20.0, 22.0, 21.0])
    with pytest.raises(DataError, match=re.escape(message)):
        if method == "damped":
            density_damped_inversion(ms, 1.0, grid)
        else:
            density_gram_charlier(ms, grid)


def test_a_damping_whose_powers_overflow_is_a_numerical_failure():
    ms = moment_set_from_points([18.0, 20.0, 22.0, 21.0])
    with pytest.raises(DomainError, match="a power of damping_sigma 1e[+]200 up to 4 overflows"):
        density_damped_inversion(ms, 1e200, (0.0, 40.0, 101))


@pytest.mark.parametrize("method", ["gram_charlier", "damped"])
def test_a_hermite_series_that_overflows_is_one_failure_without_warnings(method):
    ms = moment_set_from_points([18.0, 20.0, 22.0, 21.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="non-finite density values on the grid"):
            if method == "damped":
                density_damped_inversion(ms, 1.0, (-1e300, 1e300, 101))
            else:
                density_gram_charlier(ms, (-1e300, 1e300, 101))
