import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbm.errors import DataError
from mbm.moments import (
    compute_moment_set,
    decorrelation_diagnostic,
    freq_moment,
    market_price_moment,
    payoff_autocorrelation,
    price_autocorrelation,
    trade_moments,
    vwap,
)
from mbm.ticks import TickSeries, Window

from conftest import make_window, random_window


# ---------------------------------------------------------------------------
# brute-force re-summation oracle, deliberately separate from the numpy paths
# ---------------------------------------------------------------------------

def rows(window):
    """The window's price, volume and value rows as lists of Python floats."""
    batch = window.batch()
    return batch.price[0].tolist(), batch.volume[0].tolist(), batch.value[0].tolist()


def oracle_freq(window, n):
    return math.fsum(p ** n for p in rows(window)[0]) / len(window)


def oracle_trade(window, n):
    _, volumes, values = rows(window)
    c = math.fsum(x ** n for x in values) / len(window)
    u = math.fsum(x ** n for x in volumes) / len(window)
    return c, u


def oracle_price_cov(w1, w2):
    p1, p2 = rows(w1)[0], rows(w2)[0]
    m1 = math.fsum(p1) / len(w1)
    m2 = math.fsum(p2) / len(w2)
    return math.fsum((a - m1) * (b - m2) for a, b in zip(p1, p2)) / len(w1)


def test_freq_moment_hand_values():
    w = make_window([10, 20, 30])
    assert freq_moment(w, 1) == 20.0
    assert freq_moment(w, 2) == pytest.approx(1400.0 / 3.0, rel=1e-15)


def test_freq_moment_single_tick_power():
    w = make_window([7.0])
    for n in range(1, 6):
        assert freq_moment(w, n) == pytest.approx(7.0 ** n, rel=1e-15)


def test_freq_moment_rejects_bad_order():
    with pytest.raises(DataError):
        freq_moment(make_window([10]), 0)


def test_trade_moments_hand_values():
    w = make_window([10, 20], [1, 3])
    assert trade_moments(w, 1) == (35.0, 2.0)
    assert trade_moments(w, 2) == (1850.0, 5.0)


def test_trade_moments_unit_volume_reduces_to_freq():
    w = make_window([3.0, 5.0, 11.0])
    for n in range(1, 5):
        c, u = trade_moments(w, n)
        assert u == 1.0
        assert c == freq_moment(w, n)


def test_market_price_moment_hand_values():
    w = make_window([10, 20], [1, 3])
    assert market_price_moment(w, 1) == 17.5
    assert market_price_moment(w, 2) == 370.0


def test_market_equals_freq_for_constant_volume(rng):
    for _ in range(50):
        w = random_window(rng, vol_sigma=0.0)
        for n in range(1, 7):
            m = market_price_moment(w, n)
            f = freq_moment(w, n)
            assert abs(m - f) <= 1e-12 * abs(f)


def test_moment_convexity_bound_both_methods(rng):
    for _ in range(200):
        w = random_window(rng)
        prices = w.batch().price[0]
        for n in range(1, 7):
            powers = prices ** n
            assert powers.min() <= market_price_moment(w, n) <= powers.max()
            assert powers.min() <= freq_moment(w, n) <= powers.max()


def test_vwap_examples():
    assert vwap(make_window([10.0])) == 10.0
    assert vwap(make_window([10, 20], [1, 3])) == 17.5
    # equal volumes -> arithmetic mean
    assert vwap(make_window([10, 20, 30], [5, 5, 5])) == pytest.approx(20.0, rel=1e-15)


def test_vwap_is_market_first_moment_bitwise(rng):
    for _ in range(100):
        w = random_window(rng)
        assert vwap(w) == market_price_moment(w, 1)


def test_moment_operations_match_brute_force(rng):
    for _ in range(20):
        w = random_window(rng, size=int(rng.integers(2, 1000)))
        for n in range(1, 5):
            assert freq_moment(w, n) == pytest.approx(oracle_freq(w, n), rel=1e-12)
            c, u = trade_moments(w, n)
            oc, ou = oracle_trade(w, n)
            assert c == pytest.approx(oc, rel=1e-12)
            assert u == pytest.approx(ou, rel=1e-12)
            assert market_price_moment(w, n) == pytest.approx(oc / ou, rel=1e-12)


def test_compute_moment_set_market_hand_values():
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    assert ms.mean == 17.5
    assert ms.variance == pytest.approx(63.75, rel=1e-15)
    assert ms.flags == ()
    assert ms.trade_value_moments == (35.0, 1850.0)
    assert ms.trade_volume_moments == (2.0, 5.0)


def test_compute_moment_set_flags_negative_market_variance():
    ms = compute_moment_set(make_window([10, 1], [1, 10]), 2, "market")
    assert ms.mean == pytest.approx(20.0 / 11.0, rel=1e-15)
    assert ms.raw_moments[1] == pytest.approx(100.0 / 50.5, rel=1e-15)
    assert ms.variance == pytest.approx(100.0 / 50.5 - (20.0 / 11.0) ** 2, rel=1e-12)
    assert ms.variance < 0.0
    assert ms.flags == ("negative_variance",)


def test_compute_moment_set_constant_price_zero_variance():
    for method in ("frequency", "market"):
        ms = compute_moment_set(make_window([4.2] * 5, [1, 2, 3, 4, 5]), 2, method)
        assert ms.variance == pytest.approx(0.0, abs=1e-14)


def test_compute_moment_set_frequency_variance_non_negative(rng):
    for _ in range(200):
        w = random_window(rng)
        assert compute_moment_set(w, 2, "frequency").variance >= 0.0


def test_compute_moment_set_rejects_low_order_and_bad_method():
    w = make_window([10, 20])
    with pytest.raises(DataError):
        compute_moment_set(w, 1, "market")
    with pytest.raises(DataError):
        compute_moment_set(w, 2, "harmonic")


def test_moment_set_mean_variance_identity(rng):
    for method in ("frequency", "market"):
        ms = compute_moment_set(random_window(rng), 3, method)
        assert ms.mean == ms.raw_moments[0]
        assert ms.variance == ms.raw_moments[1] - ms.mean ** 2


def test_moment_set_json_keys():
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    d = ms.to_json_dict()
    assert list(d) == [
        "method", "order", "center_time", "raw_moments", "value_moments",
        "volume_moments", "mean", "variance", "flags",
    ]
    assert compute_moment_set(make_window([10, 20]), 2, "frequency").to_json_dict()[
        "value_moments"
    ] is None


def test_decorrelation_constant_volume_undefined():
    d = decorrelation_diagnostic(make_window([10, 20, 30], [2, 2, 2]), 1)
    assert d.undefined
    assert d.coefficient == 0.0
    assert not d.flagged


def test_decorrelation_two_point_anticorrelation():
    d = decorrelation_diagnostic(make_window([10, 1], [1, 10]), 1)
    assert d.coefficient == -1.0
    assert d.flagged
    assert not d.undefined


def test_decorrelation_threshold_configurable():
    w = make_window([10, 1], [1, 10])
    assert decorrelation_diagnostic(w, 1, threshold=1.5).flagged is False


def test_decorrelation_needs_two_ticks():
    with pytest.raises(DataError):
        decorrelation_diagnostic(make_window([10]), 1)


def test_price_autocorrelation_hand_value():
    w1 = make_window([10, 20])
    w2 = make_window([12, 18])
    assert price_autocorrelation(w1, w2, "frequency") == pytest.approx(15.0, rel=1e-15)


def test_price_autocorrelation_constant_window_is_zero():
    w1 = make_window([10, 10, 10])
    w2 = make_window([12, 18, 9])
    assert price_autocorrelation(w1, w2, "frequency") == 0.0


def test_price_autocorrelation_same_window_equals_variance(rng):
    for method in ("frequency", "market"):
        for _ in range(50):
            w = random_window(rng, price_lo=1.0, price_hi=30.0)
            var = compute_moment_set(w, 2, method).variance
            b = price_autocorrelation(w, w, method)
            assert abs(b - var) <= 1e-12 * max(1.0, abs(var))


def test_price_autocorrelation_market_matches_definition(rng):
    w1 = random_window(rng, size=10)
    w2 = random_window(rng, size=10)
    got = price_autocorrelation(w1, w2, "market")
    (_, u1, c1), (_, u2, c2) = rows(w1), rows(w2)
    num = math.fsum(a * b for a, b in zip(c1, c2))
    den = math.fsum(a * b for a, b in zip(u1, u2))
    expect = num / den - vwap(w1) * vwap(w2)
    assert got == pytest.approx(expect, rel=1e-12)


def test_price_autocorrelation_frequency_matches_brute_force(rng):
    w1 = random_window(rng, size=64)
    w2 = random_window(rng, size=64)
    assert price_autocorrelation(w1, w2, "frequency") == pytest.approx(
        oracle_price_cov(w1, w2), rel=1e-12
    )


def test_price_autocorrelation_input_checks():
    with pytest.raises(DataError, match="equal tick counts"):
        price_autocorrelation(make_window([1, 2]), make_window([1, 2, 3]), "frequency")
    with pytest.raises(DataError, match="at least 2"):
        price_autocorrelation(make_window([1]), make_window([2]), "frequency")


def test_payoff_autocorrelation_hand_values():
    assert payoff_autocorrelation([1.0, -1.0], [-1.0, 1.0]) == -1.0
    dev = [0.5, -1.5, 1.0]
    assert payoff_autocorrelation(dev, dev) == pytest.approx(np.var(dev), rel=1e-15)


def test_payoff_autocorrelation_rejects_uncentered():
    with pytest.raises(DataError, match="not centered"):
        payoff_autocorrelation([1.0, 2.0], [-1.0, 1.0])


def test_payoff_autocorrelation_needs_two_pairs():
    with pytest.raises(DataError):
        payoff_autocorrelation([1.0], [1.0])


# ---------------------------------------------------------------------------
# overflowing moments are flagged, not reported as plain numbers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["frequency", "market"])
def test_overflowing_moments_are_flagged_non_finite(method, recwarn):
    # p**2 overflows: the variance comes out nan or inf
    window = make_window([1e160, 2e160, 3e160], [1.0, 2.0, 1.0])
    ms = compute_moment_set(window, 4, method)
    assert not math.isfinite(ms.variance)
    assert ms.flags == ("non_finite",)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_non_finite_flag_keeps_a_finite_negative_variance():
    # anticorrelated values near 1e78: value**4 overflows, value**2 does not
    ms = compute_moment_set(make_window([1e78, 1e77], [1.0, 10.0]), 4, "market")
    assert ms.variance < 0.0 and math.isinf(ms.raw_moments[3])
    assert ms.flags == ("negative_variance", "non_finite")


def test_finite_moments_carry_no_non_finite_flag(rng):
    for method in ("frequency", "market"):
        assert "non_finite" not in compute_moment_set(random_window(rng), 4, method).flags


# ---------------------------------------------------------------------------
# the paper's identities as properties of windows built from drawn columns
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
POSITIVE = st.floats(0.01, 1e3)


@st.composite
def windows(draw, min_len=1, max_len=30):
    n = draw(st.integers(min_len, max_len))
    prices = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    volumes = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    return Window(TickSeries(np.arange(n, dtype=float), prices, volumes), 0, n)


@settings(max_examples=200, deadline=None)
@given(w=windows())
def test_vwap_is_the_market_first_moment_bitwise(w):
    assert vwap(w) == market_price_moment(w, 1)


@settings(max_examples=200, deadline=None)
@given(w=windows(), n=st.integers(1, 6))
def test_market_moment_obeys_the_convexity_bound(w, n):
    # exact in real arithmetic; in floats C_i = p_i*U_i, the powers, sums and
    # the division each round, so the bound holds to (n + 2N + 4) eps relative
    powers = w.batch().price[0] ** n
    slack = (n + 2 * len(w) + 4) * EPS
    m = market_price_moment(w, n)
    assert powers.min() * (1.0 - slack) <= m <= powers.max() * (1.0 + slack)


@settings(max_examples=200, deadline=None)
@given(w=windows(min_len=2), method=st.sampled_from(["frequency", "market"]))
def test_self_autocorrelation_is_the_variance(w, method):
    b = price_autocorrelation(w, w, method)
    ms = compute_moment_set(w, 2, method)
    if method == "market":
        assert b == ms.variance
    else:
        # two-pass covariance against the one-pass E[p^2] - E[p]^2, whose
        # cancellation error scales with E[p^2] (the kernel's noise scale)
        assert abs(b - ms.variance) <= 64.0 * EPS * ms.raw_moments[1]


def test_a_window_of_a_long_series_computes_on_its_own_ticks_alone(rng):
    n, start, stop = 200_000, 123_456, 123_476
    prices = rng.uniform(1.0, 50.0, n)
    volumes = 10.0 * np.exp(0.5 * rng.standard_normal(n))
    series = TickSeries(np.arange(n, dtype=float), prices, volumes)
    window, after = Window(series, start, stop), Window(series, stop, stop + 20)
    alone = make_window(prices[start:stop], volumes[start:stop], np.arange(start, stop, dtype=float))
    alone_after = make_window(prices[stop:stop + 20], volumes[stop:stop + 20],
                              np.arange(stop, stop + 20, dtype=float))

    batch = window.batch()
    assert batch.ticks("price").size == len(window)
    assert batch.series is series and batch.rows(batch.ticks("price")).shape == (1, len(window))
    for name in ("price", "volume", "value"):
        assert np.array_equal(batch.ticks(name), getattr(series, name)[start:stop])
    for w, a in ((window, alone), (after, alone_after)):
        assert vwap(w) == vwap(a)
        assert market_price_moment(w, 3) == market_price_moment(a, 3)
        for method in ("frequency", "market"):
            assert repr(compute_moment_set(w, 4, method)) == repr(compute_moment_set(a, 4, method))
        assert decorrelation_diagnostic(w, 2) == decorrelation_diagnostic(a, 2)
    for method in ("frequency", "market"):
        assert (price_autocorrelation(window, after, method)
                == price_autocorrelation(alone, alone_after, method))
