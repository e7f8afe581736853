# Price densities from truncated characteristic functions
# ========================================================
#
# A moment set of order k pins the truncated characteristic function
# F_k(x) = 1 + sum (i^n/n!) p_n x^n. Differentiating F_k at zero returns
# the moments; inverting it (suitably regularized) returns an approximate
# price density. Both density realizations and the derivative round trip
# are shown here.

import math

from mbm import (
    CharFnApprox,
    SimSpec,
    Window,
    charfn_eval,
    compute_moment_set,
    density_damped_inversion,
    density_gram_charlier,
    gen_trades,
    recover_moment,
)

spec = SimSpec(length=5000, seed=11, phi=0.0, sigma=0.12,
               median_volume=30.0, log_sigma=0.3)
series = gen_trades(spec)
window = Window(series, 0, len(series))
ms = compute_moment_set(window, 4, "market")
print(f"market moment set: mean={ms.mean:.4f} variance={ms.variance:.4f}")

# --- 1. the characteristic function and its derivative round trip ----------

print(f"\nF(0) = {charfn_eval(ms, 0.0)}")
print(f"F(0.01) = {charfn_eval(ms, 0.01):.6f}")

cf = CharFnApprox.from_moment_set(ms)
print("\nmoment recovery by finite differences at x = 0:")
for n in range(1, 5):
    got = recover_moment(cf, n)
    stored = ms.raw_moments[n - 1]
    print(f"  n={n}: recovered={got:.8g}  stored={stored:.8g}  "
          f"rel err={abs(got - stored) / abs(stored):.1e}")

# --- 2. Gram-Charlier density around the matched Gaussian ------------------

sd = math.sqrt(ms.variance)
grid = (ms.mean - 8 * sd, ms.mean + 8 * sd, 801)
gc = density_gram_charlier(ms, grid)
print(f"\nGram-Charlier: mass={gc.total_mass:.8f} mean={gc.recovered_mean:.4f} "
      f"variance={gc.recovered_variance:.4f} "
      f"negative mass fraction={gc.negative_mass_fraction:.2e}")

# --- 3. damped inversion of the literal transform ---------------------------
#
# The raw inverse transform of a polynomial diverges, so the integrand is
# damped by exp(-x^2 / (2 s^2)). The price of that explicit regularizer is
# a Gaussian blur of width 1/s: the recovered variance is exactly the input
# variance plus 1/s^2, shrinking toward the input as s grows. The truncated
# polynomial only tracks the true characteristic function for |x| * mean
# of order one, so useful damping widths scale like 1/mean; push s beyond
# that and the reconstruction falls apart (negative lobes, unusable mass).

print("\ndamped inversion: variance -> input variance + 1/s^2")
for s in (0.02, 0.05, 0.1):
    width = math.sqrt(ms.variance + 1.0 / s**2)
    di = density_damped_inversion(ms, s, (ms.mean - 8 * width, ms.mean + 8 * width, 801))
    print(f"  s={s}: recovered variance={di.recovered_variance:.4f} "
          f"(input + 1/s^2 = {ms.variance + 1 / s**2:.4f}), "
          f"negative mass fraction={di.negative_mass_fraction:.3f}")

# --- 4. plot-ready output ----------------------------------------------------

with open("density_demo.csv", "w", encoding="utf-8") as fh:
    fh.write(gc.to_csv_text())
print("\nwrote density_demo.csv (price,density)")
