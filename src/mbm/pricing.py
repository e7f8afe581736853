"""Mean-price solvers for the linearized two-date pricing equations.

The first-order condition of two-date expected-utility maximization,
E[u'(c_t) p] = beta E[u'(c_T) x], linearized to first order in price and
payoff deviations, gives an implicit equation for the mean price p0:

    p0 = beta * (u'(cT0)/u'(ct0)) * x0
       + beta * (u''(cT0)/u'(ct0)) * (payoff variance terms)
       +        (u''(ct0)/u'(ct0)) * (price variance terms)

with ct0 = e_t - p0 * xi, so p0 appears on both sides. Three variants are
solved here: a single purchase/sale, the second of two purchases sold
together (price autocorrelation enters), and the second of two purchases
sold separately (payoff autocorrelation enters as well). Since u'' <= 0,
every variance or positive autocorrelation term drags the mean price down.

Solver strategy: damped fixed-point iteration seeded at beta * x0 (exact
for linear utility), with a bracketed fallback when iteration stalls: a
grid scan finds a sign change of the residual and ``brentq``, this
module's port of scipy's Brent solver, refines it. The fallback calls
whatever the module attribute ``mbm.pricing.brentq`` holds, so it can be
wrapped or replaced. Converged solutions honor
|residual| <= RESIDUAL_RTOL * max(1, |p0|), RESIDUAL_RTOL = 1e-10; the
iteration budget and damping are the module constants MAX_ITERATIONS and
DAMPING. A solve or sampled residual resolves the utility's formulas,
domain test and error state once, not per trial.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, DataError, DomainError, require_finite
from .utility import POSITIVE_FAMILIES, UtilitySpec, eval_utility, resolve

RESIDUAL_RTOL = 1e-10
MAX_ITERATIONS = 200  # fixed-point steps before the bracketed fallback
DAMPING = 0.5  # share of the residual each fixed-point step moves p0 by


@dataclass(frozen=True, slots=True)
class RootInfo:
    """Counts of a brentq solve, named as scipy's RootResults names them."""

    iterations: int
    function_calls: int


def brentq(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100, full_output=False):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    A line-for-line port of the C ``brentq`` that ``scipy.optimize.brentq``
    runs (scipy/optimize/Zeros/brentq.c, after Brent 1973, ch. 4): it uses
    only + - * /, abs and comparisons, so on Python floats it returns
    scipy's root bits and iteration counts. With full_output it returns
    (root, RootInfo). A NaN value of f or an exhausted iteration limit
    raises ConvergenceError; ends of one sign raise DataError.
    """
    calls = 0

    def value(x: float) -> float:
        nonlocal calls
        calls += 1
        fx = float(f(x))
        if math.isnan(fx):
            raise ConvergenceError(f"function value at x={x!r} is NaN")
        return fx

    def done(x: float, iterations: int):
        return (x, RootInfo(iterations, calls)) if full_output else x

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return done(xpre, 0)
    if fcur == 0.0:
        return done(xcur, 0)
    if (fpre < 0.0) == (fcur < 0.0):
        raise DataError(f"f(a) and f(b) must differ in sign, got {fpre!r} and {fcur!r}")
    for i in range(1, maxiter + 1):
        # f values are never NaN here, so on nonzero ones "< 0" is C's signbit
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return done(xcur, i)

        good = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass  # C divides to inf or NaN, which fails the short-step test
        if good:  # short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(f"brentq did not converge in {maxiter} iterations (last x={xcur!r})")


@dataclass(frozen=True, slots=True, kw_only=True)
class PricingScenario:
    """Inputs for the single purchase/sale equation.

    payoff_mean is the full expected payoff (expected resale price plus
    dividend_mean); dividend_mean is kept as an informational decomposition
    and does not enter the equations separately.
    """

    utility: UtilitySpec
    beta: float
    endowment_t: float
    endowment_T: float
    holdings: float
    payoff_mean: float
    payoff_variance: float = 0.0
    price_variance: float = 0.0
    dividend_mean: float = 0.0

    def __post_init__(self):
        require_finite(self, skip=("utility",))
        if not (0.0 < self.beta <= 1.0):
            raise DataError(f"beta must be in (0, 1], got {self.beta}")
        if self.payoff_variance < 0.0 or self.price_variance < 0.0:
            raise DataError("variances must be non-negative")
        if self.holdings < 0.0:
            raise DataError(f"holdings must be non-negative, got {self.holdings}")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check_cauchy_schwarz(name: str, cov: float, var1: float, var2: float):
    bound = math.sqrt(var1 * var2)
    if abs(cov) > bound + 1e-12 * max(1.0, bound):
        raise DataError(
            f"{name}={cov:g} violates the Cauchy-Schwarz bound sqrt({var1:g}*{var2:g})={bound:g}"
        )


@dataclass(frozen=True, slots=True, kw_only=True)
class TwoTradeScenario(PricingScenario):
    """Two purchases at t1 < t2, sold at T1 (and T2 for the two-sale case).

    Base fields describe the first purchase; *2 fields the second.
    payoff_autocorr (and the T2 time) being set marks a two-sale scenario;
    payoff_mean12 is the mean first-lot payoff as re-forecast at t2 and
    defaults to payoff_mean2. Autocorrelations are validated against their
    Cauchy-Schwarz bounds at construction so inconsistent inputs fail fast.
    """

    holdings2: float = 0.0
    payoff_mean2: float = 0.0
    payoff_variance2: float = 0.0
    price_variance2: float = 0.0
    price_autocorr: float = 0.0
    payoff_autocorr: float | None = None
    payoff_mean12: float | None = None
    t1: float = 0.0
    t2: float = 1.0
    T1: float = 2.0
    T2: float | None = None

    def __post_init__(self):
        PricingScenario.__post_init__(self)
        if self.holdings2 < 0.0:
            raise DataError(f"holdings2 must be non-negative, got {self.holdings2}")
        if self.payoff_variance2 < 0.0 or self.price_variance2 < 0.0:
            raise DataError("variances must be non-negative")
        _check_cauchy_schwarz(
            "price_autocorr", self.price_autocorr, self.price_variance, self.price_variance2
        )
        if self.two_sale:
            _check_cauchy_schwarz(
                "payoff_autocorr", self.payoff_autocorr, self.payoff_variance, self.payoff_variance2
            )
            if self.T2 is None:
                raise DataError("two-sale scenario needs T2")
            if not (self.t1 < self.t2 <= self.T1 <= self.T2):
                raise DataError(
                    f"need t1 < t2 <= T1 <= T2, got {self.t1}, {self.t2}, {self.T1}, {self.T2}"
                )
        else:
            if self.T2 is not None or self.payoff_mean12 is not None:
                raise DataError(
                    "T2/payoff_mean12 are two-sale fields; set payoff_autocorr as well"
                )
            if not (self.t1 < self.t2 < self.T1):
                raise DataError(f"need t1 < t2 < T, got {self.t1}, {self.t2}, {self.T1}")

    @property
    def two_sale(self) -> bool:
        return self.payoff_autocorr is not None

    @property
    def first_lot_payoff_mean(self) -> float:
        return self.payoff_mean2 if self.payoff_mean12 is None else self.payoff_mean12


@dataclass(frozen=True, slots=True)
class PriceSolution:
    mean_price: float
    residual: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def sdf(utility: UtilitySpec, beta: float, c_t: float, c_T: float) -> float:
    """Stochastic discount factor beta * u'(c_T) / u'(c_t); always positive."""
    return beta * eval_utility(utility, c_T, 1) / eval_utility(utility, c_t, 1)


@np.errstate(over="ignore", under="ignore")  # extreme consumption maps u', u'' to inf/0
def _solve_linearized(
    scn: PricingScenario, *, spent: float, xi: float, c_T0: float, x: float, A: float, B: float,
) -> PriceSolution:
    """Solve the linearized mean-price equation for p0.

        p0 = beta * u'(cT0)/u'(ct0) * x + beta * u''(cT0)/u'(ct0) * A
           + u''(ct0)/u'(ct0) * B,          ct0 = e_t - spent - p0 * xi.

    Every scenario reduces to these coefficients: x is the payoff mean, A
    the payoff-risk term and B the price-risk term. Damped fixed-point
    iteration seeded at beta * x (exact for linear utility), bracketed
    fallback on rhs(p0) - p0 when iteration stalls. Iteration aims two
    decades below the residual contract so downstream oracle comparisons at
    the contract tolerance have headroom; an iterate that merely satisfies
    the contract is still accepted if the tighter target proves unreachable.
    """
    u = scn.utility
    (_, d1, d2), inside = resolve(u)
    g = u.parameter
    if not inside(c_T0):
        raise DomainError(f"sale-date mean consumption {c_T0:g} inadmissible")
    up_T, upp_T = float(d1(c_T0, g)), float(d2(c_T0, g))  # Python floats, as eval_utility gives

    def residual(p0: float) -> float:
        c_t0 = scn.endowment_t - spent - p0 * xi
        if not inside(c_t0):
            raise DomainError(
                f"purchase-date mean consumption {c_t0:g} inadmissible at trial p0={p0:g}"
            )
        up_t = float(d1(c_t0, g))
        if not (up_t > 0.0) or not math.isfinite(up_t):
            raise DomainError(f"marginal utility unusable at mean consumption {c_t0:g}")
        upp_t = float(d2(c_t0, g))
        rhs = scn.beta * (up_T / up_t) * x + scn.beta * (upp_T / up_t) * A + (upp_t / up_t) * B
        return rhs - p0

    def safe_residual(p: float) -> float:
        try:
            return residual(p)
        except (DomainError, ZeroDivisionError, OverflowError):
            return math.nan

    # largest trial price keeping today's mean consumption admissible
    hi_bound = math.inf
    if u.family in POSITIVE_FAMILIES and xi > 0.0:
        hi_bound = (scn.endowment_t - spent) / xi
    bounded = math.isfinite(hi_bound)
    hi_adm = hi_bound - 1e-12 * max(1.0, abs(hi_bound)) if bounded else hi_bound

    seed = scn.beta * x
    runaway = 1e12 * max(1.0, abs(seed))
    p = min(seed, hi_adm) if bounded else seed
    iterations = 0
    best: tuple[float, float, int] | None = None
    for _ in range(MAX_ITERATIONS):
        iterations += 1
        r = safe_residual(p)
        if math.isnan(r):
            break  # iterate escaped the evaluable region; switch to bracketing
        scale = max(1.0, abs(p))
        if abs(r) <= RESIDUAL_RTOL * scale:
            best = (p, r, iterations)
            if abs(r) <= 0.01 * RESIDUAL_RTOL * scale:
                break
        p_next = p + DAMPING * r
        if not math.isfinite(p_next) or p_next >= hi_adm or abs(p_next) > runaway:
            break
        p = p_next
    if best is not None:
        return PriceSolution(
            mean_price=best[0], residual=best[1], iterations=best[2], converged=True
        )

    # bracketed fallback: scan an expanding interval for a sign change
    span = max(1.0, 10.0 * abs(seed))
    for _ in range(3):
        lo = seed - span
        hi = min(seed + span, hi_adm)
        grid = np.linspace(lo, hi, 129)
        res = np.array([safe_residual(g) for g in grid])
        finite = np.isfinite(res)
        pair_ok = finite[:-1] & finite[1:]
        flips = np.nonzero(pair_ok & (np.sign(res[:-1]) * np.sign(res[1:]) < 0))[0]
        exact = np.nonzero(finite & (res == 0.0))[0]
        if exact.size:
            p = float(grid[exact[0]])
            return PriceSolution(mean_price=p, residual=0.0, iterations=iterations, converged=True)
        if flips.size:
            a, b = float(grid[flips[0]]), float(grid[flips[0] + 1])
            # a global lookup, so that a rebinding of ``mbm.pricing.brentq`` is honored
            root, info = brentq(
                residual, a, b, xtol=1e-14, rtol=8.9e-16, full_output=True
            )
            r = residual(root)
            iterations += info.iterations
            if abs(r) <= RESIDUAL_RTOL * max(1.0, abs(root)):
                return PriceSolution(
                    mean_price=float(root), residual=r, iterations=iterations, converged=True
                )
            raise ConvergenceError(
                f"bracketed solve left residual {r:g} above tolerance at p0={root:g}"
            )
        span *= 8.0
    raise ConvergenceError(
        f"no admissible mean price satisfies the equation (searched around {seed:g}); "
        "check endowments and volatility inputs"
    )


def solve_price_single(scn: PricingScenario) -> PriceSolution:
    """Solve the single-trade mean-price equation.

    Mean consumptions are ct0 = e_t - p0*xi and cT0 = e_T + x0*xi; the
    equation is implicit in p0 through ct0. Linear utility collapses it to
    p0 = beta * x0 exactly, which is also the iteration seed.
    """
    xi = scn.holdings
    return _solve_linearized(
        scn, spent=0.0, xi=xi, c_T0=scn.endowment_T + scn.payoff_mean * xi,
        x=scn.payoff_mean, A=xi * scn.payoff_variance, B=xi * scn.price_variance,
    )


def solve_price_first_purchase(scn: TwoTradeScenario) -> PriceSolution:
    """First-purchase equation of a two-trade scenario; same structure as
    the single-trade equation applied to the t1 fields."""
    return solve_price_single(scn)


def _solve_second(
    scn: TwoTradeScenario, first: PriceSolution | None, *, c_T0: float, A: float,
) -> PriceSolution:
    # both second-purchase variants: the first lot is bought at the known
    # price p0(t1) and its price autocorrelation joins the price-risk term
    if first is None:
        first = solve_price_first_purchase(scn)
    xi1, xi2 = scn.holdings, scn.holdings2
    return _solve_linearized(
        scn, spent=first.mean_price * xi1, xi=xi2, c_T0=c_T0,
        x=scn.payoff_mean2, A=A, B=xi1 * scn.price_autocorr + xi2 * scn.price_variance2,
    )


def solve_price_second_purchase(
    scn: TwoTradeScenario, *, first: PriceSolution | None = None
) -> PriceSolution:
    """Solve for the second-purchase mean price p0(t2), both lots sold at T.

    The first-purchase price enters as a known input (solved here when not
    supplied). Holding the first lot makes its price autocorrelation with
    the current window a price of risk: the term xi(t1) * B_p joins
    xi(t2) * sigma_p^2(t2) under u''(ct0)/u'(ct0).
    """
    held = scn.holdings + scn.holdings2
    return _solve_second(
        scn, first,
        c_T0=scn.endowment_T + scn.payoff_mean2 * held, A=held * scn.payoff_variance2,
    )


def solve_price_two_sales(
    scn: TwoTradeScenario, *, first: PriceSolution | None = None
) -> PriceSolution:
    """Solve for p0(t2) when the lots are sold separately at T1 and T2.

    Relative to the single-sale second-purchase equation, the first lot's
    payoff variance contribution is replaced by the payoff autocorrelation
    between the two sale forecasts: beta * u''(cT0)/u'(ct0) multiplies
    xi(t1) * B_x + xi(t2) * sigma_x2^2. Setting B_x equal to sigma_x2^2 and
    the re-forecast first-lot payoff mean equal to the second-lot mean
    reproduces the single-sale equation term for term.
    """
    if not scn.two_sale:
        raise DataError("scenario has no two-sale fields (payoff_autocorr, T2)")
    xi1, xi2 = scn.holdings, scn.holdings2
    return _solve_second(
        scn, first,
        c_T0=scn.endowment_T + scn.first_lot_payoff_mean * xi1 + scn.payoff_mean2 * xi2,
        A=xi1 * scn.payoff_autocorr + xi2 * scn.payoff_variance2,
    )


def linearized_marginal_expectation(
    utility: UtilitySpec, mean_c: float, mean_p: float, variance_p: float, holdings: float
) -> float:
    """Linearized E[u'(c) p]: u'(mean_c)*mean_p - holdings*u''(mean_c)*variance_p."""
    return (
        eval_utility(utility, mean_c, 1) * mean_p
        - holdings * eval_utility(utility, mean_c, 2) * variance_p
    )


def _consumptions(scn: PricingScenario, samples, holdings: float, endowment: float, sign: float):
    c = endowment + sign * samples * holdings
    if not resolve(scn.utility)[1](c):
        raise DomainError(
            f"consumption inadmissible for some sample at holdings {holdings:g}"
        )
    return c


def _samples(price_samples, payoff_samples) -> tuple[np.ndarray, np.ndarray]:
    """The price and payoff samples as float arrays; an empty or non-finite one is a DataError,
    so that no bound or holdings is blamed for it."""
    p = np.asarray(price_samples, dtype=float)
    x = np.asarray(payoff_samples, dtype=float)
    if p.size == 0 or x.size == 0:
        raise DataError("need non-empty price and payoff samples")
    for name, values in (("price", p), ("payoff", x)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(f"{name} sample {bad[0]} must be finite, got {values.flat[bad[0]]}")
    return p, x


def residual_basic_eq(
    scn: PricingScenario, price_samples, payoff_samples, holdings: float
) -> float:
    """Sampled residual of the exact first-order condition.

    mean[u'(e_t - p*xi) * p] - beta * mean[u'(e_T + x*xi) * x]; zero at an
    interior expected-utility optimum in xi.
    """
    return _residual(scn, *_samples(price_samples, payoff_samples), holdings)


def _residual(scn: PricingScenario, p: np.ndarray, x: np.ndarray, holdings: float) -> float:
    d1, g = resolve(scn.utility)[0][1], scn.utility.parameter
    # an overflowing consumption fails the domain test; extreme consumption maps u' to inf/0
    with np.errstate(over="ignore", under="ignore"):
        c_t = _consumptions(scn, p, holdings, scn.endowment_t, -1.0)
        c_T = _consumptions(scn, x, holdings, scn.endowment_T, +1.0)
        up_t, up_T = d1(c_t, g), d1(c_T, g)
    # np.mean's own pairwise sum and division by the count, without its wrapper
    lhs = float(np.add.reduce(up_t * p, axis=None) / p.size)
    rhs = scn.beta * float(np.add.reduce(up_T * x, axis=None) / x.size)
    return lhs - rhs


@dataclass(frozen=True, slots=True)
class HoldingsOptimum:
    holdings: float
    at_boundary: bool
    objective: float
    foc_residual: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def optimize_holdings(
    scn: PricingScenario, price_samples, payoff_samples, bounds: tuple[float, float]
) -> HoldingsOptimum:
    """Maximize mean[u(e_t - p*xi)] + beta * mean[u(e_T + x*xi)] over xi.

    The objective is checked to be concave, so its derivative is monotone
    and bisection on [lo, hi] finds interior optima until the sampled
    first-order condition is met to rounding. When the maximum sits on a
    bound the boundary point is returned with at_boundary set. A bound at
    which some sample's consumption leaves the utility's domain raises
    DataError naming that bound.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (hi > lo):
        raise DataError(f"bounds must satisfy lo < hi, got ({lo}, {hi})")
    p, x = _samples(price_samples, payoff_samples)

    def objective(xi: float) -> float:
        c_t = _consumptions(scn, p, xi, scn.endowment_t, -1.0)
        c_T = _consumptions(scn, x, xi, scn.endowment_T, +1.0)
        return float(
            np.mean(eval_utility(scn.utility, c_t, 0))
            + scn.beta * np.mean(eval_utility(scn.utility, c_T, 0))
        )

    def derivative(xi: float) -> float:
        return -_residual(scn, p, x, xi)

    # consumption is linear in holdings and each family's admissible set is an
    # interval, so admissible bounds make every holdings between them
    # admissible: the derivative is taken at the bounds first, to name a bad one
    at_bounds = []
    for name, bound in (("lo", lo), ("hi", hi)):
        try:
            at_bounds.append(derivative(bound))
        except DomainError:
            raise DataError(f"holdings bound {name}={bound!r} makes consumption "
                            "inadmissible for some sample") from None
    # concavity check: the derivative must not increase across the range
    grid = np.linspace(lo, hi, 9)  # grid[0] is lo and grid[-1] is hi exactly
    dgrid = np.array([at_bounds[0], *(derivative(g) for g in grid[1:-1]), at_bounds[1]])
    slack = 1e-9 * max(1.0, float(np.max(np.abs(dgrid))))
    if np.any(np.diff(dgrid) > slack):
        raise DataError("objective is not concave in holdings over the given bounds")
    d_lo, d_hi = dgrid[0], dgrid[-1]

    def finish(xi: float, at_boundary: bool) -> HoldingsOptimum:
        return HoldingsOptimum(
            holdings=xi,
            at_boundary=at_boundary,
            objective=objective(xi),
            foc_residual=_residual(scn, p, x, xi),
        )

    if d_lo <= 0.0:
        return finish(lo, True)
    if d_hi >= 0.0:
        return finish(hi, True)

    # the derivative falls from d_lo > 0 to d_hi < 0: bisect its sign change down
    # to a few ulp of the bracket itself, so small optima keep full relative
    # precision; an optimum at or next to 0 stops at a few ulp of eps*(hi - lo)
    left, right = lo, hi
    floor = 2.0 ** -52 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (left + right)
        d = derivative(mid)
        if d == 0.0 or right - left <= 4.0 * math.ulp(max(abs(left), abs(right), floor)):
            left = right = mid
            break
        if d > 0.0:
            left = mid
        else:
            right = mid
    xi_star = 0.5 * (left + right)
    return finish(xi_star, False)
