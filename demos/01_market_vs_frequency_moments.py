# Market-based vs frequency-based price moments
# ==============================================
#
# A trade is (time, price, volume, value) with value = price * volume.
# The frequency view averages p^n over a window; the market view divides
# the n-th moment of trade value by the n-th moment of trade volume.
# The two agree exactly when volume is constant, and drift apart as the
# price and volume series start to co-move.


from mbm import (
    SimSpec,
    Window,
    compute_moment_set,
    decorrelation_diagnostic,
    freq_moment,
    gen_trades,
    market_price_moment,
    vwap,
)

# --- 1. constant volume: the two conventions collide -----------------------

spec = SimSpec(length=2000, seed=1, phi=0.3, sigma=0.05,
               volume_model="constant", median_volume=5.0)
series = gen_trades(spec)
window = Window(series, 0, len(series))

print("constant volume, n = 1..4:")
for n in range(1, 5):
    f = freq_moment(window, n)
    m = market_price_moment(window, n)
    print(f"  n={n}: frequency={f:.10g}  market={m:.10g}  rel diff={abs(m - f) / f:.2e}")

# --- 2. independent random volume: close but not identical -----------------

spec = SimSpec(length=2000, seed=1, phi=0.3, sigma=0.05,
               median_volume=5.0, log_sigma=0.5, pv_correlation=0.0)
series = gen_trades(spec)
window = Window(series, 0, len(series))

print("\nindependent lognormal volume:")
print(f"  frequency mean = {freq_moment(window, 1):.6f}")
print(f"  vwap           = {vwap(window):.6f}")
diag = decorrelation_diagnostic(window, 1)
print(f"  price/volume correlation = {diag.coefficient:+.4f} (flagged: {diag.flagged})")

# --- 3. correlated volume: the market variance can go negative -------------
#
# The market construction assumes p^n and U^n do not correlate inside the
# window. Force a strong negative correlation and the market "variance"
# loses its frequency meaning entirely; the moment set carries a flag
# instead of silently clamping.

spec = SimSpec(length=2000, seed=1, phi=0.0, sigma=0.3,
               median_volume=5.0, log_sigma=0.5, pv_correlation=-0.9)
series = gen_trades(spec)
window = Window(series, 0, len(series))

for method in ("frequency", "market"):
    ms = compute_moment_set(window, 2, method)
    print(f"\n{method} moment set: mean={ms.mean:.4f} variance={ms.variance:.4f} "
          f"flags={list(ms.flags) or '-'}")

diag = decorrelation_diagnostic(window, 2)
print(f"order-2 decorrelation diagnostic: {diag.coefficient:+.4f} (flagged: {diag.flagged})")
