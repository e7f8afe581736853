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

``import mbm`` loads errors, ticks and moments, which every tick command
uses. The density, utility, pricing and simulate layers load on first
access to one of their names (or to the layer itself, as ``mbm.pricing``),
so a process pays only for the layers it computes with.
"""

from importlib import import_module

#: Layer module -> the public names it exports; the table yields __all__.
_EXPORTS = {
    "errors": ("ConvergenceError", "DataError", "DomainError", "MbmError"),
    "ticks": ("TickSeries", "TradeTick", "Window", "WindowBatch", "parse_ticks",
              "partition_windows", "render_ticks", "window_batch", "window_from_ticks"),
    "moments": ("CorrelationDiagnostic", "MomentSet", "MomentTable", "batch_autocorrelation",
                "batch_decorrelation", "batch_moments", "batch_vwap", "compute_moment_set",
                "decorrelation_diagnostic", "freq_moment", "market_price_moment",
                "payoff_autocorrelation", "price_autocorrelation", "trade_moments", "vwap"),
    "density": ("CharFnApprox", "DensityApprox", "charfn_eval", "density_damped_inversion",
                "density_gram_charlier", "recover_moment"),
    "utility": ("UtilitySpec", "eval_utility"),
    "pricing": ("HoldingsOptimum", "PriceSolution", "PricingScenario", "SolverOptions",
                "TwoTradeScenario", "linearized_marginal_expectation", "optimize_holdings",
                "residual_basic_eq", "sdf", "solve_price_first_purchase",
                "solve_price_second_purchase", "solve_price_single", "solve_price_two_sales"),
    "simulate": ("SimSpec", "gen_payoff_samples", "gen_trades", "stream_normals"),
}
_EAGER = ("errors", "ticks", "moments")
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.2.0"
__all__ = sorted(_LAYER_OF)

for _layer in _EAGER:
    _module = import_module(f".{_layer}", __name__)
    globals().update({name: getattr(_module, name) for name in _EXPORTS[_layer]})
del _layer, _module


def __getattr__(name: str):
    # Not cached: mbm.<name> always reads the layer's current binding, so a
    # wrapper installed on the layer's attribute shows here too.
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{layer}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
