import math

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from mbm.errors import DataError
from mbm.moments import (
    decorrelation_diagnostic,
    freq_moment,
    market_price_moment,
    payoff_autocorrelation,
)
from mbm.simulate import (
    SimSpec,
    _stream_uniforms,
    gen_payoff_samples,
    gen_trades,
    ndtri,
    stream_normals,
)
from mbm.ticks import Window, parse_ticks, render_ticks


def spec(**overrides):
    base = dict(
        length=1000, seed=42, price_model="ar1", base_price=10.0, phi=0.3,
        sigma=0.05, volume_model="lognormal", median_volume=50.0,
        log_sigma=0.4, pv_correlation=0.0,
    )
    base.update(overrides)
    return SimSpec(**base)


def test_same_seed_reproduces_series_exactly():
    a = gen_trades(spec())
    b = gen_trades(spec())
    assert a == b
    assert render_ticks(a) == render_ticks(b)


def test_different_seeds_differ():
    assert gen_trades(spec(seed=1)) != gen_trades(spec(seed=2))


def test_stream_normals_fixed_values():
    # pinned output of the documented generator; a change here is a
    # breaking change to every seeded artifact
    got = stream_normals(42, 0, 3)
    expect = np.array([-0.40349536446955714, 1.7033288326736669, -0.03422331773865502])
    np.testing.assert_allclose(got, expect, rtol=0.0, atol=0.0)


def test_streams_are_independent_of_draw_counts():
    # drawing more from stream 0 must not shift stream 1
    a = stream_normals(7, 1, 10)
    _ = stream_normals(7, 0, 1000)
    b = stream_normals(7, 1, 10)
    np.testing.assert_array_equal(a, b)


def test_prices_and_volumes_positive():
    series = gen_trades(spec(sigma=0.5, log_sigma=1.5, seed=3))
    assert (series.price > 0).all() and (series.volume > 0).all()


def test_value_identity_holds():
    series = gen_trades(spec(seed=5))
    np.testing.assert_array_equal(series.value, series.price * series.volume)


def test_constant_volume_collapses_market_to_frequency():
    series = gen_trades(spec(volume_model="constant", median_volume=7.0, seed=11))
    w = Window(series, 0, len(series))
    assert (series.volume == 7.0).all()
    for n in range(1, 5):
        m = market_price_moment(w, n)
        f = freq_moment(w, n)
        assert abs(m - f) <= 1e-12 * abs(f)


def test_constant_price_model():
    series = gen_trades(spec(price_model="constant", seed=13))
    assert (series.price == 10.0).all()


def test_uncorrelated_streams_pass_decorrelation_diagnostic():
    series = gen_trades(spec(length=10000, seed=21))
    w = Window(series, 0, len(series))
    d = decorrelation_diagnostic(w, 1)
    assert abs(d.coefficient) < 0.05


def test_requested_correlation_is_realized():
    series = gen_trades(spec(length=20000, pv_correlation=0.7, phi=0.0, seed=31))
    logp = np.log(series.price) - np.log(10.0)
    logu = np.log(series.volume) - np.log(50.0)
    got = np.corrcoef(logp, logu)[0, 1]
    assert got == pytest.approx(0.7, abs=0.03)


def test_sample_moments_converge_at_root_n():
    # phi=0 keeps draws iid: 5 sigma bands at N=1e4
    n = 10000
    s = spec(length=n, phi=0.0, sigma=0.2, log_sigma=0.5, seed=17)
    series = gen_trades(s)
    logp = np.log(series.price) - np.log(s.base_price)
    logu = np.log(series.volume) - np.log(s.median_volume)
    assert abs(logp.mean()) <= 5 * s.sigma / np.sqrt(n)
    assert abs(logu.mean()) <= 5 * s.log_sigma / np.sqrt(n)
    assert abs(logp.std() - s.sigma) <= 5 * s.sigma / np.sqrt(2 * n)
    assert abs(logu.std() - s.log_sigma) <= 5 * s.log_sigma / np.sqrt(2 * n)


def test_ar1_persistence_is_realized():
    s = spec(length=50000, phi=0.6, sigma=0.1, seed=23)
    series = gen_trades(s)
    y = np.log(series.price) - np.log(10.0)
    rho1 = np.corrcoef(y[:-1], y[1:])[0, 1]
    assert rho1 == pytest.approx(0.6, abs=0.02)


def test_single_tick_series_has_no_spacing():
    series = gen_trades(spec(length=1, seed=2))
    assert series.tick_spacing is None
    assert len(series) == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(length=0),
        dict(phi=1.0),
        dict(phi=-0.1),
        dict(sigma=-1.0),
        dict(pv_correlation=1.5),
        dict(base_price=0.0),
        dict(median_volume=-1.0),
        dict(price_model="ou"),
        dict(volume_model="gaussian"),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(DataError):
        spec(**kwargs)


# ---------------------------------------------------------------------------
# payoff sample generation
# ---------------------------------------------------------------------------

def test_payoff_samples_deterministic():
    a = gen_payoff_samples(5.0, 2.0, 0.5, 100, 9)
    b = gen_payoff_samples(5.0, 2.0, 0.5, 100, 9)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_payoff_samples_centered():
    d12, d2 = gen_payoff_samples(5.0, 2.0, 0.5, 1000, 3)
    assert abs(d12.mean()) <= 1e-12
    assert abs(d2.mean()) <= 1e-12
    # accepted by the estimator without complaint
    payoff_autocorrelation(d12, d2)


def test_payoff_samples_full_correlation_pairs_equal():
    d12, d2 = gen_payoff_samples(0.0, 3.0, 3.0, 500, 4)
    np.testing.assert_allclose(d12, d2, rtol=0.0, atol=1e-12)


def test_payoff_samples_zero_variance_all_zero():
    d12, d2 = gen_payoff_samples(1.0, 0.0, 0.0, 10, 5)
    assert not d12.any()
    assert not d2.any()


def test_payoff_samples_zero_autocorr_statistics():
    n = 100000
    variance = 2.0
    d12, d2 = gen_payoff_samples(0.0, variance, 0.0, n, 6)
    est = payoff_autocorrelation(d12, d2)
    assert abs(est) <= 3.0 * variance / np.sqrt(n)


def test_payoff_samples_target_covariance():
    n = 100000
    d12, d2 = gen_payoff_samples(0.0, 2.0, 1.2, n, 8)
    est = payoff_autocorrelation(d12, d2)
    assert est == pytest.approx(1.2, abs=5.0 * 2.0 / np.sqrt(n))


def test_payoff_samples_validation():
    with pytest.raises(DataError, match="Cauchy-Schwarz"):
        gen_payoff_samples(0.0, 1.0, 1.5, 10, 1)
    with pytest.raises(DataError):
        gen_payoff_samples(0.0, -1.0, 0.0, 10, 1)
    with pytest.raises(DataError):
        gen_payoff_samples(0.0, 1.0, 0.0, 1, 1)


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(1, 5000),
    seed=st.integers(0, 2**64 - 1),
    phi=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    sigma=st.one_of(st.sampled_from([1e-6, 0.01, 0.3, 2.0]), st.floats(1e-8, 3.0)),
)
def test_ar1_prices_bit_identical_to_lfilter(length, seed, phi, sigma):
    from scipy.signal import lfilter  # here, so collecting the suite imports no scipy

    s = spec(length=length, seed=seed, phi=phi, sigma=sigma, base_price=7.5)
    with np.errstate(over="ignore"):
        want = 7.5 * np.exp(lfilter([1.0], [1.0, -phi], sigma * stream_normals(seed, 0, length)))
    assume(np.isfinite(want).all())  # an overflowing path is rejected by the tick checks
    got = gen_trades(s).price
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field", ["base_price", "phi", "sigma", "median_volume", "log_sigma", "pv_correlation"]
)
def test_simspec_rejects_non_finite_fields(field, value):
    with pytest.raises(DataError, match=f"^{field} must be finite"):
        spec(**{field: value})


def _scipy_ndtri(u):
    from scipy.special import ndtri as scipy_ndtri  # here, so collecting the suite imports no scipy

    return scipy_ndtri(u)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("stream", [0, 1])
def test_ndtri_matches_scipy_bitwise_on_generator_draws(stream):
    u = _stream_uniforms(2024, stream, 1_000_000)
    np.testing.assert_array_equal(_bits(stream_normals(2024, stream, 1_000_000)),
                                  _bits(_scipy_ndtri(u)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=64))
def test_ndtri_matches_scipy_bitwise(values):
    u = np.array(values)
    u = np.concatenate([u, 1.0 - u, u * 2.0**-40])  # reach both tails
    np.testing.assert_array_equal(_bits(ndtri(u)), _bits(_scipy_ndtri(u)))


def _neighbours(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]


def test_ndtri_matches_scipy_bitwise_at_branch_edges():
    e2 = 0.13533528323661269189  # the central branch's bound, e^-2
    y8 = math.exp(-32.0)  # sqrt(-2 ln y) = 8, the P1/Q1 to P2/Q2 switch
    edges = [*_neighbours(e2), *_neighbours(math.exp(-2.0)), *_neighbours(1.0 - e2),
             *_neighbours(1.0 - math.exp(-2.0)), *_neighbours(y8), *_neighbours(1.0 - y8),
             0.5 * 2.0**-53, 1.0 - 2.0**-53, 0.5, 5e-324, 0.0, 1.0]
    x = np.array(edges)
    np.testing.assert_array_equal(_bits(ndtri(x)), _bits(_scipy_ndtri(x)))
    assert ndtri(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]


def test_top_raw_draw_maps_to_one_and_infinity():
    # raw >> 11 = 2^53 - 1 gives 2^53 - 0.5, which rounds to 2^53: u is exactly 1
    u = (np.array([2**53 - 1], dtype=np.uint64).astype(np.float64) + 0.5) * 2.0**-53
    assert u.tolist() == [1.0]
    assert ndtri(u).tolist() == [math.inf]


SIM_SPECS = st.builds(
    SimSpec,
    length=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    price_model=st.sampled_from(["constant", "ar1"]),
    base_price=st.floats(1e-3, 1e4),
    phi=st.floats(0.0, 1.0, exclude_max=True),
    sigma=st.floats(0.0, 2.0),
    volume_model=st.sampled_from(["constant", "lognormal"]),
    median_volume=st.floats(1e-3, 1e6),
    log_sigma=st.floats(0.0, 3.0),
    pv_correlation=st.floats(-1.0, 1.0),
)


@settings(max_examples=100, deadline=None)
@given(SIM_SPECS)
def test_rendered_series_parses_back_exactly(sim_spec):
    try:
        series = gen_trades(sim_spec)
    except DataError:  # an overflowing path is rejected by the tick checks
        reject()
    assert parse_ticks(render_ticks(series)) == series
