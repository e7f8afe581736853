"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from mbm.cli import main as cli_main
from mbm.density import CharFnApprox, density_gram_charlier, recover_moment
from mbm.errors import ConvergenceError
from mbm.moments import (
    compute_moment_set,
    decorrelation_diagnostic,
    freq_moment,
    market_price_moment,
    price_autocorrelation,
    vwap,
)
from mbm.pricing import (
    PricingScenario,
    TwoTradeScenario,
    optimize_holdings,
    residual_basic_eq,
    solve_price_first_purchase,
    solve_price_second_purchase,
    solve_price_single,
    solve_price_two_sales,
)
from mbm.simulate import SimSpec, gen_trades
from mbm.ticks import Window, partition_windows
from mbm.utility import UtilitySpec, eval_utility

from conftest import make_window

LOG = UtilitySpec("log")
LINEAR = UtilitySpec("linear")
POWER2 = UtilitySpec("power", 2.0)


def announce(number, text):
    print(f"ACCEPTANCE {number:02d} PASS  {text}")


def build_windows(rng, count, size_lo=2, size_hi=20, price_lo=1.0, price_hi=50.0):
    sizes = rng.integers(size_lo, size_hi + 1, size=count)
    windows = []
    for n in sizes:
        prices = rng.uniform(price_lo, price_hi, size=n)
        volumes = 10.0 * np.exp(0.5 * rng.standard_normal(n))
        windows.append(make_window(prices, volumes))
    return windows


# ---------------------------------------------------------------------------
# 1. frequency/market collision under constant volume
# ---------------------------------------------------------------------------

def test_c01_constant_volume_collision():
    start = time.perf_counter()
    spec = SimSpec(
        length=10000, seed=101, phi=0.4, sigma=0.08,
        volume_model="constant", median_volume=7.3,
    )
    windows = partition_windows(gen_trades(spec), 100, "disjoint")
    assert len(windows) == 100
    worst = 0.0
    for w in windows:
        market = compute_moment_set(w, 4, "market")
        freq = compute_moment_set(w, 4, "frequency")
        for m, f in zip(market.raw_moments, freq.raw_moments):
            worst = max(worst, abs(m - f) / abs(f))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    announce(1, f"constant-volume market==frequency, max rel diff {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. VWAP identity on random windows
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def many_windows():
    rng = np.random.default_rng(202)
    return build_windows(rng, 10000)


def test_c02_vwap_identity(many_windows):
    start = time.perf_counter()
    for w in many_windows:
        v = vwap(w)
        assert v == market_price_moment(w, 1)
        prices = w.batch().price[0]
        assert prices.min() <= v <= prices.max()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(2, f"vwap == market moment 1 bitwise on 10^4 windows, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. convexity bound for orders up to 6
# ---------------------------------------------------------------------------

def test_c03_convexity_bound(many_windows):
    violations = 0
    for w in many_windows:
        prices = w.batch().price[0]
        for n in range(1, 7):
            m = market_price_moment(w, n)
            powers = prices ** n
            if not (powers.min() <= m <= powers.max()):
                violations += 1
    assert violations == 0
    announce(3, "market moments inside [min p^n, max p^n] for n<=6, zero violations")


# ---------------------------------------------------------------------------
# 4. assumption-violation detection end to end
# ---------------------------------------------------------------------------

def test_c04_assumption_violation_detection(tmp_path, capsys):
    ms = compute_moment_set(make_window([10, 1], [1, 10]), 2, "market")
    assert ms.variance < 0.0
    assert "negative_variance" in ms.flags
    diag = decorrelation_diagnostic(make_window([10, 1], [1, 10]), 2)
    assert diag.coefficient == -1.0
    assert diag.flagged

    csv_path = tmp_path / "anti.csv"
    csv_path.write_text("time,price,volume\n0,10,1\n1,1,10\n", encoding="utf-8")
    code = cli_main([
        "moments", "--input", str(csv_path), "--window", "2",
        "--order", "2", "--method", "market", "--strict",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "window 0" in err
    announce(4, "anticorrelated window flagged, coefficient -1, strict CLI exit 3")


# ---------------------------------------------------------------------------
# 5. autocorrelation self-consistency
# ---------------------------------------------------------------------------

def test_c05_autocorrelation_self_consistency():
    rng = np.random.default_rng(205)
    windows = build_windows(rng, 1000, price_lo=1.0, price_hi=30.0)
    for method in ("frequency", "market"):
        for w in windows:
            var = compute_moment_set(w, 2, method).variance
            b = price_autocorrelation(w, w, method)
            assert abs(b - var) <= 1e-12 * max(1.0, abs(var))
    announce(5, "B_p(w, w, method) == variance(w, method) to 1e-12, both methods")


# ---------------------------------------------------------------------------
# 6. moment recovery from the characteristic function
# ---------------------------------------------------------------------------

def test_c06_moment_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(206)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(0.0, 3.0)
        points = scale * rng.uniform(0.5, 1.5, size=8)
        order = int(rng.integers(2, 5))
        moments = tuple(float(np.mean(points ** n)) for n in range(1, order + 1))
        cf = CharFnApprox(order=order, moments=moments)
        for n in range(1, order + 1):
            got = recover_moment(cf, n)
            assert abs(got - moments[n - 1]) <= 1e-6 * abs(moments[n - 1])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(6, f"moment recovery within 1e-6 relative for k<=4, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. density sanity for the Gaussian case
# ---------------------------------------------------------------------------

def test_c07_density_sanity():
    ms = compute_moment_set(make_window([10, 20], [1, 3]), 2, "market")
    mu, var = ms.mean, ms.variance
    sd = math.sqrt(var)
    dens = density_gram_charlier(ms, (mu - 8 * sd, mu + 8 * sd, 1601))
    assert abs(dens.total_mass - 1.0) <= 1e-6
    inside = np.abs(dens.grid - mu) <= 4 * sd
    exact = np.exp(-((dens.grid[inside] - mu) ** 2) / (2 * var)) / math.sqrt(
        2 * math.pi * var
    )
    rel = np.abs(dens.values[inside] - exact) / exact
    assert float(rel.max()) <= 1e-8
    assert abs(dens.recovered_mean - mu) <= 1e-4 * abs(mu)
    assert abs(dens.recovered_variance - var) <= 1e-4 * abs(var)
    announce(7, f"k=2 Gram-Charlier equals Gaussian, worst pointwise rel {rel.max():.2e}")


# ---------------------------------------------------------------------------
# 8. risk-neutral anchor under linear utility
# ---------------------------------------------------------------------------

def test_c08_risk_neutral_anchor():
    rng = np.random.default_rng(208)
    for _ in range(1000):
        beta = rng.uniform(0.5, 1.0)
        x0 = rng.uniform(1.0, 10.0)
        vols = rng.uniform(0.0, 2.0, size=4)
        rho_p = rng.uniform(-1.0, 1.0) * math.sqrt(vols[2] * vols[3])
        rho_x = rng.uniform(-1.0, 1.0) * math.sqrt(vols[0] * vols[1])
        scn = TwoTradeScenario(
            utility=LINEAR, beta=beta, endowment_t=50.0, endowment_T=50.0,
            holdings=1.0, payoff_mean=x0, payoff_variance=vols[0],
            price_variance=vols[2], holdings2=1.0, payoff_mean2=x0,
            payoff_variance2=vols[1], price_variance2=vols[3],
            price_autocorr=rho_p, payoff_autocorr=rho_x, payoff_mean12=x0, T2=3.0,
        )
        expect = beta * x0
        ulp = math.ulp(max(1.0, expect))
        assert abs(solve_price_single(scn).mean_price - expect) <= ulp
        assert abs(solve_price_second_purchase(scn).mean_price - expect) <= ulp
        assert abs(solve_price_two_sales(scn).mean_price - expect) <= ulp
    announce(8, "linear utility: all three solvers return beta*x0 to 1 ulp")


# ---------------------------------------------------------------------------
# 9. volatility and autocorrelation monotonicity
# ---------------------------------------------------------------------------

def _solve_axis(utility, axis, value):
    if axis in ("price_variance", "payoff_variance"):
        scn = PricingScenario(
            utility=utility, beta=0.95, endowment_t=10.0, endowment_T=10.0,
            holdings=1.0, payoff_mean=5.0, **{axis: value},
        )
        return solve_price_single(scn).mean_price
    if axis == "price_autocorr":
        scn = TwoTradeScenario(
            utility=utility, beta=0.95, endowment_t=10.0, endowment_T=10.0,
            holdings=1.0, payoff_mean=5.0, payoff_variance=1.0, price_variance=1.0,
            holdings2=1.0, payoff_mean2=5.0, payoff_variance2=1.0,
            price_variance2=1.0, price_autocorr=value,
        )
        return solve_price_second_purchase(scn).mean_price
    scn = TwoTradeScenario(
        utility=utility, beta=0.95, endowment_t=10.0, endowment_T=10.0,
        holdings=1.0, payoff_mean=5.0, payoff_variance=1.0, price_variance=1.0,
        holdings2=1.0, payoff_mean2=5.0, payoff_variance2=1.0,
        price_variance2=1.0, price_autocorr=0.3, payoff_autocorr=value, T2=3.0,
    )
    return solve_price_two_sales(scn).mean_price


def test_c09_monotonicity():
    rng = np.random.default_rng(209)
    axes = ("price_variance", "payoff_variance", "price_autocorr", "payoff_autocorr")
    pairs = 0
    for utility in (LOG, POWER2):
        for axis in axes:
            for i in range(50):
                if i == 0:
                    a, b = 0.0, 1.0
                else:
                    a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
                    if a == b:
                        continue
                p_low = _solve_axis(utility, axis, float(a))
                p_high = _solve_axis(utility, axis, float(b))
                assert p_high < p_low, f"{utility.family} {axis}: {a}->{b}"
                pairs += 1
    assert pairs == 400
    announce(9, "p0 strictly decreasing along all four risk axes, 400/400 pairs")


# ---------------------------------------------------------------------------
# 10. limit consistency as the second lot vanishes
# ---------------------------------------------------------------------------

def test_c10_limit_consistency():
    for utility in (LOG, POWER2):
        scn = TwoTradeScenario(
            utility=utility, beta=0.95, endowment_t=10.0, endowment_T=10.0,
            holdings=1.0, payoff_mean=5.0, payoff_variance=1.0, price_variance=1.0,
            holdings2=1e-12, payoff_mean2=5.0, payoff_variance2=1.0,
            price_variance2=1.0, price_autocorr=1.0,
        )
        first = solve_price_first_purchase(scn)
        second = solve_price_second_purchase(scn, first=first)
        assert abs(second.mean_price - first.mean_price) <= 1e-8
    announce(10, "second-purchase price meets first-purchase price as xi(t2) -> 0")


# ---------------------------------------------------------------------------
# 11. residual contract, re-verified independently
# ---------------------------------------------------------------------------

def _independent_single_residual(scn, p0):
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


def test_c11_residual_contract():
    rng = np.random.default_rng(211)
    checked = 0
    for _ in range(200):
        utility = (LOG, POWER2, UtilitySpec("exponential", 0.3))[int(rng.integers(0, 3))]
        scn = PricingScenario(
            utility=utility, beta=float(rng.uniform(0.5, 1.0)),
            endowment_t=float(rng.uniform(8.0, 15.0)),
            endowment_T=float(rng.uniform(8.0, 15.0)),
            holdings=float(rng.uniform(0.1, 1.5)),
            payoff_mean=float(rng.uniform(2.0, 6.0)),
            payoff_variance=float(rng.uniform(0.0, 1.0)),
            price_variance=float(rng.uniform(0.0, 1.0)),
        )
        sol = solve_price_single(scn)
        assert sol.converged
        bound = 1e-10 * max(1.0, abs(sol.mean_price))
        assert abs(sol.residual) <= bound
        assert abs(_independent_single_residual(scn, sol.mean_price)) <= bound
        checked += 1
    assert checked == 200
    with pytest.raises(ConvergenceError):
        solve_price_single(
            PricingScenario(
                utility=LOG, beta=0.95, endowment_t=10.0, endowment_T=10.0,
                holdings=1.0, payoff_mean=5.0, payoff_variance=1e6,
            )
        )
    announce(11, "200 converged solves honor 1e-10 residual bound; failure raises")


# ---------------------------------------------------------------------------
# 12. first-order condition at optimized holdings
# ---------------------------------------------------------------------------

def test_c12_first_order_condition():
    start = time.perf_counter()
    rng = np.random.default_rng(212)
    for _ in range(50):
        e_t = float(rng.uniform(9.0, 12.0))
        e_T = float(rng.uniform(9.0, 12.0))
        scn = PricingScenario(
            utility=LOG, beta=float(rng.uniform(0.9, 1.0)), endowment_t=e_t,
            endowment_T=e_T, holdings=1.0, payoff_mean=6.0,
        )
        prices = rng.uniform(3.5, 5.5, size=256)
        payoffs = rng.uniform(5.5, 7.5, size=256)
        bounds = (0.0, 1.2)
        out = optimize_holdings(scn, prices, payoffs, bounds)
        assert not out.at_boundary

        lhs_scale = max(
            1.0,
            abs(float(np.mean(eval_utility(LOG, e_t - prices * out.holdings, 1) * prices))),
        )
        assert abs(residual_basic_eq(scn, prices, payoffs, out.holdings)) <= 1e-8 * lhs_scale

        grid = np.linspace(bounds[0], bounds[1], 10001)
        c_t = e_t - np.outer(grid, prices)
        c_T = e_T + np.outer(grid, payoffs)
        objective = np.log(c_t).mean(axis=1) + scn.beta * np.log(c_T).mean(axis=1)
        best = float(grid[int(np.argmax(objective))])
        assert abs(out.holdings - best) <= (bounds[1] - bounds[0]) / 10000
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(12, f"50 interior optima meet the sampled FOC and grid oracle, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 13. statistical convergence of market vs frequency means
# ---------------------------------------------------------------------------

def test_c13_statistical_convergence():
    lengths = (100, 1000, 10000, 100000)
    mean_errors = []
    for n in lengths:
        errors = []
        for seed in range(20):
            spec = SimSpec(
                length=n, seed=1300 + seed, phi=0.3, sigma=0.1,
                median_volume=50.0, log_sigma=0.4, pv_correlation=0.0,
            )
            series = gen_trades(spec)
            w = Window(series, 0, len(series))
            errors.append(abs(vwap(w) - freq_moment(w, 1)))
        mean_errors.append(float(np.mean(errors)))
    slope = float(np.polyfit(np.log(lengths), np.log(mean_errors), 1)[0])
    assert -0.7 <= slope <= -0.3
    announce(13, f"|vwap - mean| shrinks at 1/sqrt(N): slope {slope:.3f}")


# ---------------------------------------------------------------------------
# 14. full-run determinism of the CLI
# ---------------------------------------------------------------------------

def test_c14_full_run_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[simulate]\nlength = 400\nseed = 14\nphi = 0.2\nsigma = 0.05\n"
        "median_volume = 30\nlog_sigma = 0.3\n",
        encoding="utf-8",
    )
    outputs = []
    for tag in ("a", "b"):
        ticks = tmp_path / f"ticks_{tag}.csv"
        moments_out = tmp_path / f"moments_{tag}.json"
        assert cli_main(["simulate", "--config", str(cfg), "--output", str(ticks)]) == 0
        assert cli_main([
            "moments", "--input", str(ticks), "--window", "50", "--order", "4",
            "--method", "market", "--output", str(moments_out),
        ]) == 0
        outputs.append((ticks.read_bytes(), moments_out.read_bytes()))
    assert outputs[0] == outputs[1]
    json.loads(outputs[0][1].decode())  # outputs stay valid JSON
    announce(14, "identical config and seed give byte-identical CLI outputs")
