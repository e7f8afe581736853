import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbm import pricing
from mbm.errors import ConvergenceError, DataError, DomainError
from mbm.pricing import (
    PricingScenario,
    TwoTradeScenario,
    linearized_marginal_expectation,
    optimize_holdings,
    residual_basic_eq,
    sdf,
    solve_price_first_purchase,
    solve_price_second_purchase,
    solve_price_single,
    solve_price_two_sales,
)
from mbm.utility import UtilitySpec, eval_utility

LOG = UtilitySpec("log")
LINEAR = UtilitySpec("linear")
POWER2 = UtilitySpec("power", 2.0)


def log_sample(**overrides):
    base = dict(
        utility=LOG, beta=0.95, endowment_t=10.0, endowment_T=10.0,
        holdings=1.0, payoff_mean=5.0,
    )
    base.update(overrides)
    return PricingScenario(**base)


def two_trade_sample(**overrides):
    base = dict(
        utility=LOG, beta=0.95, endowment_t=10.0, endowment_T=10.0,
        holdings=1.0, payoff_mean=5.0, payoff_variance=1.0, price_variance=1.0,
        holdings2=1.0, payoff_mean2=5.0, payoff_variance2=1.0, price_variance2=1.0,
    )
    base.update(overrides)
    return TwoTradeScenario(**base)


# ---------------------------------------------------------------------------
# independent residual evaluation + hand-rolled bisection oracle
# ---------------------------------------------------------------------------

def single_residual(scn, p0):
    """The single-trade equation residual, written out from scratch."""
    u = scn.utility
    ct0 = scn.endowment_t - p0 * scn.holdings
    cT0 = scn.endowment_T + scn.payoff_mean * scn.holdings
    rhs = (
        scn.beta * eval_utility(u, cT0, 1) / eval_utility(u, ct0, 1) * scn.payoff_mean
        + scn.beta * eval_utility(u, cT0, 2) / eval_utility(u, ct0, 1)
        * scn.holdings * scn.payoff_variance
        + eval_utility(u, ct0, 2) / eval_utility(u, ct0, 1)
        * scn.holdings * scn.price_variance
    )
    return rhs - p0


def second_purchase_residual(scn, p1, p0):
    u = scn.utility
    xi1, xi2 = scn.holdings, scn.holdings2
    ct0 = scn.endowment_t - p1 * xi1 - p0 * xi2
    cT0 = scn.endowment_T + scn.payoff_mean2 * (xi1 + xi2)
    rhs = (
        scn.beta * eval_utility(u, cT0, 1) / eval_utility(u, ct0, 1) * scn.payoff_mean2
        + scn.beta * eval_utility(u, cT0, 2) / eval_utility(u, ct0, 1)
        * (xi1 + xi2) * scn.payoff_variance2
        + eval_utility(u, ct0, 2) / eval_utility(u, ct0, 1)
        * (xi1 * scn.price_autocorr + xi2 * scn.price_variance2)
    )
    return rhs - p0


def two_sales_residual(scn, p1, p0):
    u = scn.utility
    xi1, xi2 = scn.holdings, scn.holdings2
    x12 = scn.payoff_mean2 if scn.payoff_mean12 is None else scn.payoff_mean12
    ct0 = scn.endowment_t - p1 * xi1 - p0 * xi2
    cT0 = scn.endowment_T + x12 * xi1 + scn.payoff_mean2 * xi2
    rhs = (
        scn.beta * eval_utility(u, cT0, 1) / eval_utility(u, ct0, 1) * scn.payoff_mean2
        + scn.beta * eval_utility(u, cT0, 2) / eval_utility(u, ct0, 1)
        * (xi1 * scn.payoff_autocorr + xi2 * scn.payoff_variance2)
        + eval_utility(u, ct0, 2) / eval_utility(u, ct0, 1)
        * (xi1 * scn.price_autocorr + xi2 * scn.price_variance2)
    )
    return rhs - p0


def bisect_root(f, lo, hi, iterations=200):
    flo = f(lo)
    assert flo * f(hi) < 0, "oracle bracket must straddle the root"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# SDF
# ---------------------------------------------------------------------------

def test_sdf_linear_is_beta():
    assert sdf(LINEAR, 0.9, 3.0, 7.0) == 0.9


def test_sdf_log_hand_value():
    assert sdf(LOG, 0.95, 1.0, 2.0) == pytest.approx(0.475, rel=1e-15)


def test_sdf_equal_consumption_is_beta():
    for u in (LINEAR, LOG, POWER2, UtilitySpec("exponential", 1.0)):
        assert sdf(u, 0.8, 2.5, 2.5) == pytest.approx(0.8, rel=1e-15)


def test_sdf_positive(rng):
    for _ in range(100):
        beta = rng.uniform(0.05, 1.0)
        c1, c2 = rng.uniform(0.1, 20.0, size=2)
        for u in (LINEAR, LOG, POWER2, UtilitySpec("exponential", 0.5)):
            assert sdf(u, beta, c1, c2) > 0.0


# ---------------------------------------------------------------------------
# single purchase/sale
# ---------------------------------------------------------------------------

def test_single_linear_is_discounted_payoff():
    scn = PricingScenario(
        utility=LINEAR, beta=0.95, endowment_t=10.0, endowment_T=10.0,
        holdings=2.0, payoff_mean=5.0, payoff_variance=3.0, price_variance=2.0,
    )
    sol = solve_price_single(scn)
    assert sol.mean_price == 0.95 * 5.0
    assert sol.converged


def test_single_log_matches_bisection_oracle():
    scn = log_sample()
    sol = solve_price_single(scn)
    root = bisect_root(lambda p: single_residual(scn, p), 0.0, 9.999)
    assert sol.mean_price == pytest.approx(root, abs=1e-10)
    assert sol.mean_price == pytest.approx(47.5 / 19.75, abs=1e-9)


def test_single_log_with_volatility_matches_oracle():
    scn = log_sample(payoff_variance=0.8, price_variance=0.6)
    sol = solve_price_single(scn)
    root = bisect_root(lambda p: single_residual(scn, p), 0.0, 9.999)
    assert sol.mean_price == pytest.approx(root, abs=1e-10)


def test_single_payoff_volatility_lowers_price():
    p_base = solve_price_single(log_sample()).mean_price
    p_vol = solve_price_single(log_sample(payoff_variance=1.0)).mean_price
    assert p_vol < p_base


def test_single_price_volatility_lowers_price():
    p_base = solve_price_single(log_sample()).mean_price
    p_vol = solve_price_single(log_sample(price_variance=1.0)).mean_price
    assert p_vol < p_base


def test_single_residual_contract():
    for scn in (log_sample(), log_sample(payoff_variance=1.0, price_variance=0.5)):
        sol = solve_price_single(scn)
        assert sol.converged
        assert abs(sol.residual) <= 1e-10 * max(1.0, abs(sol.mean_price))
        assert abs(single_residual(scn, sol.mean_price)) <= 1e-10 * max(
            1.0, abs(sol.mean_price)
        )


def test_single_zero_holdings_explicit():
    scn = log_sample(holdings=0.0)
    sol = solve_price_single(scn)
    # with no position the equation is explicit: beta * (u'(e_T)/u'(e_t)) * x0
    assert sol.mean_price == pytest.approx(0.95 * 5.0, rel=1e-12)


def test_single_exponential_utility_closed_form():
    u = UtilitySpec("exponential", 0.2)
    scn = PricingScenario(
        utility=u, beta=0.9, endowment_t=10.0, endowment_T=12.0,
        holdings=1.5, payoff_mean=4.0, payoff_variance=0.7, price_variance=0.3,
    )
    sol = solve_price_single(scn)
    # u''/u' = -alpha regardless of consumption except through the SDF ratio
    ct0 = scn.endowment_t - sol.mean_price * scn.holdings
    cT0 = scn.endowment_T + scn.payoff_mean * scn.holdings
    ratio = math.exp(-0.2 * cT0) / math.exp(-0.2 * ct0)
    expect = (
        scn.beta * ratio * scn.payoff_mean
        - scn.beta * ratio * 0.2 * scn.holdings * scn.payoff_variance
        - 0.2 * scn.holdings * scn.price_variance
    )
    assert sol.mean_price == pytest.approx(expect, abs=1e-9)


def test_single_unsolvable_scenario_raises():
    scn = log_sample(payoff_variance=1e6)
    with pytest.raises(ConvergenceError):
        solve_price_single(scn)


def test_scenario_validation():
    with pytest.raises(DataError):
        log_sample(beta=0.0)
    with pytest.raises(DataError):
        log_sample(beta=1.5)
    with pytest.raises(DataError):
        log_sample(payoff_variance=-1.0)
    with pytest.raises(DataError):
        log_sample(holdings=-1.0)


SCENARIO_FIELDS = (
    "beta", "endowment_t", "endowment_T", "holdings", "payoff_mean", "payoff_variance",
    "price_variance", "dividend_mean", "holdings2", "payoff_mean2", "payoff_variance2",
    "price_variance2", "price_autocorr", "payoff_autocorr", "payoff_mean12",
    "t1", "t2", "T1", "T2",
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", SCENARIO_FIELDS)
def test_scenario_rejects_non_finite_fields(field, value):
    with pytest.raises(DataError, match=f"{field} must be finite"):
        two_trade_sample(**{field: value})


def test_inadmissible_sale_consumption_raises():
    scn = log_sample(endowment_T=1.0, payoff_mean=-5.0, holdings=1.0)
    with pytest.raises(DomainError):
        solve_price_single(scn)


# ---------------------------------------------------------------------------
# two purchases, one sale
# ---------------------------------------------------------------------------

def test_first_purchase_matches_single_bitwise():
    scn = two_trade_sample()
    a = solve_price_single(scn)
    b = solve_price_first_purchase(scn)
    assert a.mean_price == b.mean_price


def test_first_purchase_linear_anchor():
    scn = two_trade_sample(utility=LINEAR)
    assert solve_price_first_purchase(scn).mean_price == 0.95 * 5.0


def test_first_purchase_log_matches_oracle():
    scn = two_trade_sample()
    sol = solve_price_first_purchase(scn)
    root = bisect_root(lambda p: single_residual(scn, p), 0.0, 9.999)
    assert sol.mean_price == pytest.approx(root, abs=1e-10)


def test_second_purchase_linear_ignores_autocorrelation():
    for b_p in (0.0, 0.5, 1.0):
        scn = two_trade_sample(utility=LINEAR, price_autocorr=b_p, payoff_mean2=6.0)
        assert solve_price_second_purchase(scn).mean_price == 0.95 * 6.0


def test_second_purchase_matches_oracle():
    scn = two_trade_sample(price_autocorr=0.4)
    first = solve_price_first_purchase(scn)
    sol = solve_price_second_purchase(scn, first=first)
    hi = (scn.endowment_t - first.mean_price * scn.holdings) / scn.holdings2
    root = bisect_root(
        lambda p: second_purchase_residual(scn, first.mean_price, p), 0.0, hi * 0.999
    )
    assert sol.mean_price == pytest.approx(root, abs=1e-10)
    assert abs(second_purchase_residual(scn, first.mean_price, sol.mean_price)) <= 1e-10 * max(
        1.0, abs(sol.mean_price)
    )


def test_second_purchase_positive_autocorrelation_lowers_price():
    lo = solve_price_second_purchase(two_trade_sample(price_autocorr=0.0))
    hi = solve_price_second_purchase(two_trade_sample(price_autocorr=0.8))
    assert hi.mean_price < lo.mean_price


def test_second_purchase_vanishing_second_lot_recovers_first_price():
    scn = two_trade_sample(holdings2=1e-12, price_autocorr=1.0)
    first = solve_price_first_purchase(scn)
    second = solve_price_second_purchase(scn, first=first)
    assert abs(second.mean_price - first.mean_price) <= 1e-8


def test_cauchy_schwarz_enforced_on_price_autocorr():
    with pytest.raises(DataError, match="Cauchy-Schwarz"):
        two_trade_sample(price_variance=0.01, price_variance2=0.01, price_autocorr=0.5)


def test_two_trade_time_ordering_enforced():
    with pytest.raises(DataError, match="t1 < t2"):
        two_trade_sample(t1=2.0, t2=1.0)
    with pytest.raises(DataError, match="t1 < t2"):
        two_trade_sample(payoff_autocorr=0.1, T2=1.0, t1=0.0, t2=1.0, T1=0.5)


def test_two_sale_fields_require_payoff_autocorr():
    with pytest.raises(DataError, match="two-sale"):
        two_trade_sample(T2=3.0)
    with pytest.raises(DataError, match="two-sale"):
        two_trade_sample(payoff_mean12=4.0)


# ---------------------------------------------------------------------------
# two purchases, two sales
# ---------------------------------------------------------------------------

def test_two_sales_requires_two_sale_fields():
    with pytest.raises(DataError, match="two-sale"):
        solve_price_two_sales(two_trade_sample())


def test_two_sales_linear_anchor():
    scn = two_trade_sample(utility=LINEAR, payoff_autocorr=0.7, payoff_mean2=6.0, T2=3.0)
    assert solve_price_two_sales(scn).mean_price == 0.95 * 6.0


def test_two_sales_reduces_to_second_purchase_when_sales_coincide():
    # one sale is the degenerate two-sale case: same re-forecast payoff for
    # both lots and payoff autocorrelation equal to the payoff variance
    single_sale = two_trade_sample(price_autocorr=0.3)
    coincident = two_trade_sample(
        price_autocorr=0.3, payoff_autocorr=single_sale.payoff_variance2,
        payoff_mean12=single_sale.payoff_mean2, T2=2.0,
    )
    a = solve_price_second_purchase(single_sale)
    b = solve_price_two_sales(coincident)
    assert b.mean_price == pytest.approx(a.mean_price, abs=1e-12)


def test_two_sales_matches_oracle():
    scn = two_trade_sample(price_autocorr=0.2, payoff_autocorr=0.5, payoff_mean12=4.5, T2=3.0)
    first = solve_price_first_purchase(scn)
    sol = solve_price_two_sales(scn, first=first)
    hi = (scn.endowment_t - first.mean_price * scn.holdings) / scn.holdings2
    root = bisect_root(
        lambda p: two_sales_residual(scn, first.mean_price, p), 0.0, hi * 0.999
    )
    assert sol.mean_price == pytest.approx(root, abs=1e-10)


def test_two_sales_positive_payoff_autocorrelation_lowers_price():
    lo = solve_price_two_sales(two_trade_sample(payoff_autocorr=0.0, T2=3.0))
    hi = solve_price_two_sales(two_trade_sample(payoff_autocorr=0.8, T2=3.0))
    assert hi.mean_price < lo.mean_price


def test_cauchy_schwarz_enforced_on_payoff_autocorr():
    with pytest.raises(DataError, match="Cauchy-Schwarz"):
        two_trade_sample(payoff_variance=0.01, payoff_variance2=0.01,
                         payoff_autocorr=0.5, T2=3.0)


# ---------------------------------------------------------------------------
# linearized expectation and sampled residual
# ---------------------------------------------------------------------------

def test_linearized_expectation_linear_utility():
    assert linearized_marginal_expectation(LINEAR, 5.0, 10.0, 3.0, 2.0) == 10.0


def test_linearized_expectation_zero_variance():
    got = linearized_marginal_expectation(POWER2, 2.0, 10.0, 0.0, 1.0)
    assert got == pytest.approx(0.25 * 10.0, rel=1e-15)


def test_linearized_expectation_hand_value():
    got = linearized_marginal_expectation(POWER2, 2.0, 10.0, 1.0, 1.0)
    assert got == pytest.approx(2.75, rel=1e-15)


def test_residual_linear_utility():
    scn = PricingScenario(
        utility=LINEAR, beta=0.9, endowment_t=10.0, endowment_T=10.0,
        holdings=1.0, payoff_mean=5.0,
    )
    prices = [4.0, 5.0, 6.0]
    payoffs = [5.0, 6.0]
    got = residual_basic_eq(scn, prices, payoffs, 1.0)
    assert got == pytest.approx(np.mean(prices) - 0.9 * np.mean(payoffs), rel=1e-15)


def test_residual_degenerate_samples_vanish():
    scn = PricingScenario(
        utility=LINEAR, beta=0.9, endowment_t=10.0, endowment_T=10.0,
        holdings=1.0, payoff_mean=5.0,
    )
    assert residual_basic_eq(scn, [0.9 * 5.0] * 3, [5.0] * 3, 1.0) == 0.0


def test_residual_rejects_inadmissible_samples():
    scn = log_sample()
    with pytest.raises(DomainError):
        residual_basic_eq(scn, [20.0], [5.0], 1.0)  # consumption e_t - 20 < 0


# ---------------------------------------------------------------------------
# holdings optimization
# ---------------------------------------------------------------------------

def samples_for(rng, n=256, price_mean=4.5, payoff_mean=5.5):
    prices = price_mean + rng.uniform(-1.0, 1.0, size=n)
    payoffs = payoff_mean + rng.uniform(-1.0, 1.0, size=n)
    return prices, payoffs


def test_optimize_linear_decreasing_hits_lower_bound():
    scn = PricingScenario(
        utility=LINEAR, beta=0.9, endowment_t=10.0, endowment_T=10.0,
        holdings=1.0, payoff_mean=5.0,
    )
    out = optimize_holdings(scn, [6.0, 6.2], [5.0, 5.2], (0.0, 1.0))
    assert out.holdings == 0.0
    assert out.at_boundary


def test_optimize_linear_increasing_hits_upper_bound():
    scn = PricingScenario(
        utility=LINEAR, beta=0.9, endowment_t=10.0, endowment_T=10.0,
        holdings=1.0, payoff_mean=5.0,
    )
    out = optimize_holdings(scn, [4.0, 4.2], [5.0, 5.2], (0.0, 1.0))
    assert out.holdings == 1.0
    assert out.at_boundary


def test_optimize_log_interior_satisfies_foc(rng):
    scn = log_sample()
    prices, payoffs = samples_for(rng)
    out = optimize_holdings(scn, prices, payoffs, (0.0, 1.5))
    assert not out.at_boundary
    scale = max(1.0, abs(float(np.mean(prices))))
    assert abs(out.foc_residual) <= 1e-8 * scale
    assert abs(residual_basic_eq(scn, prices, payoffs, out.holdings)) <= 1e-8 * scale


def test_optimize_log_matches_grid_oracle(rng):
    scn = log_sample()
    prices, payoffs = samples_for(rng)
    out = optimize_holdings(scn, prices, payoffs, (0.0, 1.5))
    grid = np.linspace(0.0, 1.5, 10001)
    c_t = scn.endowment_t - np.outer(grid, prices)
    c_T = scn.endowment_T + np.outer(grid, payoffs)
    objective = np.log(c_t).mean(axis=1) + scn.beta * np.log(c_T).mean(axis=1)
    best = grid[int(np.argmax(objective))]
    assert abs(out.holdings - best) <= 1.5 / 10000


def test_optimize_small_interior_optimum_keeps_relative_precision(monkeypatch):
    # log utility: the optimum sits near 5e-5, far below 1, where a stopping
    # width of a few ulp of 1.0 would keep only ~12 significant digits; these
    # samples never make the sampled derivative exactly 0, so the bisection
    # ends on its bracket
    scn = log_sample()
    prices, payoffs = [5.38, 4.35], [4.126279789172481, 6.116279789172481]
    seen = []

    def recording_residual(*args):
        r = residual_basic_eq(*args)
        seen.append((args[3], -r))  # (holdings, derivative of the objective)
        return r

    monkeypatch.setattr(pricing, "residual_basic_eq", recording_residual)
    xi = optimize_holdings(scn, prices, payoffs, (0.0, 1.0)).holdings
    assert 1e-5 < xi < 1e-4
    # the last bracket: nearest evaluated holdings on each side of the optimum
    left = max(h for h, d in seen if h < xi and d > 0.0)
    right = min(h for h, d in seen if h > xi and d < 0.0)
    assert right - left <= 4 * math.ulp(xi)


def test_optimize_optimum_at_zero_stops_at_a_bracket_scaled_floor(monkeypatch):
    # a derivative that falls through 0 exactly at xi = 0 and nowhere else:
    # without a floor the stop width shrinks with the bracket ends into the
    # subnormals and the bisection runs to its 200-step cap
    calls = []

    def linear_residual(scn, p, x, xi):
        calls.append(xi)
        return xi  # the objective's derivative is -xi

    monkeypatch.setattr(pricing, "residual_basic_eq", linear_residual)
    # price 4 keeps both bounds admissible for the real residual too
    # (-0.664 at -1, 1.7625 at 2); at price 5, holdings 2 empty e_t
    out = optimize_holdings(log_sample(), [4.0], [5.0], (-1.0, 2.0))
    assert not out.at_boundary
    assert abs(out.holdings) <= 2.0 ** -100
    # 9 grid points and the final first-order residual; 3 * 2**-j reaches
    # 4 ulp of 3 * 2**-52 after about 104 bisection steps
    assert len(calls) - 10 <= 110


def test_optimize_rejects_inadmissible_bounds():
    scn = log_sample()
    with pytest.raises(DataError, match=r"holdings bound hi=5\.0 makes consumption inadmissible"):
        optimize_holdings(scn, [4.0, 5.0], [5.0, 6.0], (0.0, 5.0))  # hi empties e_t


def test_optimize_rejects_bad_bounds():
    scn = log_sample()
    with pytest.raises(DataError):
        optimize_holdings(scn, [4.0], [5.0], (1.0, 1.0))


def test_solution_serialization():
    sol = solve_price_single(log_sample())
    d = sol.to_json_dict()
    assert set(d) == {"mean_price", "residual", "iterations", "converged"}
    assert d["converged"] is True


# ---------------------------------------------------------------------------
# the kernels resolve the utility once per call: properties against the
# generic eval_utility path, over all four families
# ---------------------------------------------------------------------------

ALL_FAMILIES = st.one_of(
    st.just(LINEAR),
    st.just(LOG),
    st.floats(0.3, 5.0).filter(lambda g: abs(g - 1.0) > 1e-3).map(lambda g: UtilitySpec("power", g)),
    st.floats(0.05, 2.5).map(lambda a: UtilitySpec("exponential", a)),
)


@st.composite
def two_sale_scenarios(draw):
    def real(lo, hi):
        return draw(st.floats(lo, hi))

    pv, pv2, xv, xv2 = (real(0.0, 2.0) for _ in range(4))
    return TwoTradeScenario(
        utility=draw(ALL_FAMILIES), beta=real(0.85, 1.0),
        endowment_t=real(6.0, 14.0), endowment_T=real(2.5, 14.0),
        holdings=real(0.2, 1.5), payoff_mean=real(0.5, 6.0),
        payoff_variance=xv, price_variance=pv,
        holdings2=real(0.2, 1.5), payoff_mean2=real(0.5, 6.0),
        payoff_variance2=xv2, price_variance2=pv2,
        price_autocorr=real(-0.99, 0.99) * math.sqrt(pv * pv2),
        payoff_autocorr=real(-0.99, 0.99) * math.sqrt(xv * xv2), T2=3.0,
    )


def kernel_residual(scn, p0, *, spent, xi, c_T0, x, A, B):
    """The linearized residual through eval_utility, in the kernel's operation order."""
    u = scn.utility
    c_t0 = scn.endowment_t - spent - p0 * xi
    up_T, upp_T = eval_utility(u, c_T0, 1), eval_utility(u, c_T0, 2)
    up_t, upp_t = eval_utility(u, c_t0, 1), eval_utility(u, c_t0, 2)
    return scn.beta * (up_T / up_t) * x + scn.beta * (upp_T / up_t) * A + (upp_t / up_t) * B - p0


def check_solution(scn, sol, x, **coefficients):
    p0 = sol.mean_price
    assert sol.converged
    assert sol.residual.hex() == kernel_residual(scn, p0, x=x, **coefficients).hex()
    assert abs(sol.residual) <= 1e-10 * max(1.0, abs(p0))
    if scn.utility.family == "linear":
        assert p0 == scn.beta * x


AVERSE_TWO_SALES = TwoTradeScenario(
    utility=UtilitySpec("exponential", 2.0), beta=0.95, endowment_t=10.0, endowment_T=3.0,
    holdings=1.0, payoff_mean=5.0, payoff_variance=1.0, price_variance=1.0,
    holdings2=0.5, payoff_mean2=5.0, payoff_variance2=1.0, price_variance2=1.0,
    payoff_autocorr=0.0, T2=3.0,
)


@settings(max_examples=120, deadline=None)
@given(scn=two_sale_scenarios())
@example(scn=AVERSE_TWO_SALES)  # the first purchase takes the bracketed fallback
def test_solutions_carry_the_eval_utility_residual_bit_for_bit(scn):
    xi1, xi2 = scn.holdings, scn.holdings2
    try:
        first = solve_price_first_purchase(scn)
    except (ConvergenceError, DomainError):
        return
    check_solution(scn, first, scn.payoff_mean, spent=0.0, xi=xi1,
                   c_T0=scn.endowment_T + scn.payoff_mean * xi1,
                   A=xi1 * scn.payoff_variance, B=xi1 * scn.price_variance)
    try:
        second = solve_price_two_sales(scn, first=first)
    except (ConvergenceError, DomainError):
        return
    check_solution(scn, second, scn.payoff_mean2, spent=first.mean_price * xi1, xi=xi2,
                   c_T0=scn.endowment_T + scn.first_lot_payoff_mean * xi1 + scn.payoff_mean2 * xi2,
                   A=xi1 * scn.payoff_autocorr + xi2 * scn.payoff_variance2,
                   B=xi1 * scn.price_autocorr + xi2 * scn.price_variance2)


@settings(max_examples=150, deadline=None)
@given(u=ALL_FAMILIES, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600),
       e_t=st.floats(2.0, 12.0), e_T=st.floats(2.0, 12.0), xi=st.floats(0.0, 1.2))
def test_residual_basic_eq_is_the_eval_utility_mean_form_bit_for_bit(u, seed, n, e_t, e_T, xi):
    rng = np.random.default_rng(seed)
    prices, payoffs = rng.uniform(0.5, 8.0, n), rng.uniform(0.5, 8.0, n)
    scn = PricingScenario(utility=u, beta=0.95, endowment_t=e_t, endowment_T=e_T,
                          holdings=1.0, payoff_mean=6.0)
    c_t, c_T = e_t - prices * xi, e_T + payoffs * xi
    try:
        want = (float(np.mean(eval_utility(u, c_t, 1) * prices))
                - scn.beta * float(np.mean(eval_utility(u, c_T, 1) * payoffs)))
    except DomainError:
        with pytest.raises(DomainError):
            residual_basic_eq(scn, prices, payoffs, xi)
        return
    assert residual_basic_eq(scn, prices, payoffs, xi).hex() == want.hex()


def test_averse_bracketed_solves_and_edge_optimize_do_not_warn():
    rng = np.random.default_rng(9)
    prices, payoffs = rng.uniform(3.5, 5.5, 500), rng.uniform(5.5, 7.5, 500)

    def averse(alpha, e_T, holdings=1.0, price_variance=1.0):
        return PricingScenario(
            utility=UtilitySpec("exponential", alpha), beta=0.95, endowment_t=10.0,
            endowment_T=e_T, holdings=holdings, payoff_mean=5.0, payoff_variance=1.0,
            price_variance=price_variance)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the benchmark's strongly averse scenarios stall the fixed point
        for alpha, e_T in [(1.8, 2.8), (2.0, 3.0), (2.2, 3.2)]:
            sol = solve_price_single(averse(alpha, e_T))
            assert sol.iterations > pricing.MAX_ITERATIONS  # bracketed
        # more price risk sends trial prices where exp(-alpha * c_t) overflows
        assert solve_price_single(averse(1.8, 2.8, holdings=1.2, price_variance=3.0)).converged
        # hi leaves ~1e-14 of consumption at the highest price; power 30's
        # u' = c^-30 overflows there
        hi = 10.0 / prices.max() * (1.0 - 1e-15)
        for u in (LOG, UtilitySpec("power", 30.0)):
            scn = log_sample(utility=u)
            assert 10.0 - prices.max() * hi < 1e-13
            assert not optimize_holdings(scn, prices, payoffs, (0.0, hi)).at_boundary
