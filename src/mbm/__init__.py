"""Market-based price moments, densities, and consumption-based pricing.

The package splits into small, composable layers:

* ticks: columnar tick series, tick-CSV parsing, the value = price * volume
  identity, windowing into single windows or whole window batches
* moments: frequency vs market price moments, VWAP, autocorrelations, as
  batched kernels over all windows at once and their one-window forms
* density: truncated characteristic functions and density reconstructions
* utility / pricing: utility families and the mean-price equation solvers
* simulate: deterministic synthetic trades for validating the moment
  machinery's independence assumptions
* cli: batch front end (also exposed as the `mbm` console script)
"""

from .density import (
    CharFnApprox,
    DensityApprox,
    charfn_eval,
    density_damped_inversion,
    density_gram_charlier,
    recover_moment,
)
from .errors import ConvergenceError, DataError, DomainError, MbmError
from .moments import (
    CorrelationDiagnostic,
    MomentSet,
    MomentTable,
    batch_autocorrelation,
    batch_decorrelation,
    batch_moments,
    batch_vwap,
    compute_moment_set,
    decorrelation_diagnostic,
    freq_moment,
    market_price_moment,
    payoff_autocorrelation,
    price_autocorrelation,
    trade_moments,
    vwap,
)
from .pricing import (
    HoldingsOptimum,
    PriceSolution,
    PricingScenario,
    SolverOptions,
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
from .simulate import SimSpec, gen_payoff_samples, gen_trades, stream_normals
from .ticks import (
    TickSeries,
    TradeTick,
    Window,
    WindowBatch,
    parse_ticks,
    partition_windows,
    render_ticks,
    window_batch,
    window_from_ticks,
)
from .utility import UtilitySpec, eval_utility

__version__ = "0.1.0"

__all__ = [
    "CharFnApprox",
    "ConvergenceError",
    "CorrelationDiagnostic",
    "DataError",
    "DensityApprox",
    "DomainError",
    "HoldingsOptimum",
    "MbmError",
    "MomentSet",
    "MomentTable",
    "PriceSolution",
    "PricingScenario",
    "SimSpec",
    "SolverOptions",
    "TickSeries",
    "TradeTick",
    "TwoTradeScenario",
    "UtilitySpec",
    "Window",
    "WindowBatch",
    "batch_autocorrelation",
    "batch_decorrelation",
    "batch_moments",
    "batch_vwap",
    "charfn_eval",
    "compute_moment_set",
    "decorrelation_diagnostic",
    "density_damped_inversion",
    "density_gram_charlier",
    "eval_utility",
    "freq_moment",
    "gen_payoff_samples",
    "gen_trades",
    "linearized_marginal_expectation",
    "market_price_moment",
    "optimize_holdings",
    "parse_ticks",
    "partition_windows",
    "payoff_autocorrelation",
    "price_autocorrelation",
    "recover_moment",
    "render_ticks",
    "residual_basic_eq",
    "sdf",
    "solve_price_first_purchase",
    "solve_price_second_purchase",
    "solve_price_single",
    "solve_price_two_sales",
    "stream_normals",
    "trade_moments",
    "vwap",
    "window_batch",
    "window_from_ticks",
]
