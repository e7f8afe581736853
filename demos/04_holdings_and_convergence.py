# Optimal holdings and the statistical behavior of market averages
# =================================================================
#
# Two loose ends worth seeing run: the sampled expected-utility objective
# and its first-order condition, and the rate at which market and
# frequency means of a simulated uncorrelated series approach each other.

import numpy as np

from mbm import (
    PricingScenario,
    SimSpec,
    UtilitySpec,
    Window,
    freq_moment,
    gen_payoff_samples,
    gen_trades,
    optimize_holdings,
    payoff_autocorrelation,
    vwap,
)

LOG = UtilitySpec("log")

# --- 1. holdings that maximize sampled expected utility ---------------------

rng = np.random.default_rng(4)
prices = rng.uniform(3.5, 5.5, size=500)
payoffs = rng.uniform(5.5, 7.5, size=500)
scn = PricingScenario(utility=LOG, beta=0.95, endowment_t=10, endowment_T=10,
                      holdings=1, payoff_mean=6)

out = optimize_holdings(scn, prices, payoffs, bounds=(0.0, 1.2))
print(f"optimal holdings: {out.holdings:.6f} (boundary: {out.at_boundary})")
print(f"first-order condition residual: {out.foc_residual:+.2e}")

# a cheaper asset should be held in greater quantity
cheap = optimize_holdings(scn, prices - 0.5, payoffs, bounds=(0.0, 1.2))
print(f"with prices 0.5 lower: {cheap.holdings:.6f}")

# linear utility has no interior optimum: it is all or nothing
linear_scn = PricingScenario(utility=UtilitySpec("linear"), beta=0.95, endowment_t=10,
                             endowment_T=10, holdings=1, payoff_mean=6)
allout = optimize_holdings(linear_scn, prices, payoffs, bounds=(0.0, 1.2))
print(f"linear utility:  holdings={allout.holdings} boundary={allout.at_boundary}")

# --- 2. synthetic payoff deviations with a prescribed autocorrelation -------

d12, d2 = gen_payoff_samples(mean=6.0, variance=2.0, autocorr=0.8, count=50000, seed=5)
print(f"\nrequested payoff autocorrelation 0.8, "
      f"estimated {payoff_autocorrelation(d12, d2):.4f}")

# --- 3. vwap vs frequency mean: the 1/sqrt(N) collapse ----------------------
#
# With independent price and volume streams the gap between the two means
# is pure sampling noise, so it shrinks at the square root rate.

print("\nN        mean |vwap - freq mean| over 10 seeds")
lengths = (100, 1000, 10000)
gaps = []
for n in lengths:
    errs = []
    for seed in range(10):
        spec = SimSpec(length=n, seed=600 + seed, phi=0.3, sigma=0.1,
                       median_volume=50.0, log_sigma=0.4)
        series = gen_trades(spec)
        w = Window(series, 0, len(series))
        errs.append(abs(vwap(w) - freq_moment(w, 1)))
    gaps.append(np.mean(errs))
    print(f"{n:<8d} {gaps[-1]:.6f}")

slope = np.polyfit(np.log(lengths), np.log(gaps), 1)[0]
print(f"log-log slope: {slope:.3f} (theory: -0.5)")
