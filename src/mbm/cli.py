"""Command-line front end for batch runs over tick files and scenarios.

Subcommands: validate, moments, vwap, autocorr, density, price, optimize,
simulate. Every flag can also be set under its dest name in the [run]
config section or through the MBM_<DEST> environment variable (dest
upper-cased, e.g. MBM_DECORRELATION_THRESHOLD); flags win over the
environment, which wins over the file. Numbers are read by config.number.

The density, utility, pricing and simulate layers are imported inside
the commands that compute with them, so a tick command loads only ticks
and moments.

Exit codes: 0 success, 1 input error, 2 numerical failure, 3 assumption
violation under --strict. Diagnostics go to stderr, summaries to stdout,
results to the output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import moments as moments_mod
from .config import (
    ENV_PREFIX,
    build_scenario,
    build_sim_spec,
    build_solver_options,
    build_utility,
    load_config,
    number,
)
from .errors import ConvergenceError, DataError, DomainError
from .ticks import Window, _data_rows, parse_ticks, render_ticks, window_batch

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_STRICT = 3


class StrictViolation(Exception):
    """An assumption violation promoted to an error by --strict."""


# parser dests that pick the command and its config rather than name a setting
_NOT_SETTINGS = ("command", "config", "overrides")

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise DataError(f"cannot parse boolean value {raw!r}")


def _resolve_settings(args: argparse.Namespace, file_cfg: dict) -> dict:
    """flag > MBM_<DEST> environment variable > [run] <dest> config key > parser default."""
    run_section = file_cfg.get("run", {})
    settings = {}
    for dest, value in vars(args).items():
        if dest not in _NOT_SETTINGS:
            if value is None:
                value = os.environ.get(ENV_PREFIX + dest.upper(), run_section.get(dest))
            settings[dest] = value
    if isinstance(settings["strict"], str):
        settings["strict"] = _parse_bool(settings["strict"])
    settings["strict"] = bool(settings["strict"])
    return settings


def _setting(settings: dict, key: str, default: str) -> str:
    """The setting's value, or default when no source sets it; an empty value is set."""
    value = settings.get(key)
    return default if value is None else value


def _require(settings: dict, key: str) -> str:
    if settings.get(key) is None:
        raise DataError(f"missing required setting {key!r} (flag, MBM_ env, or [run] config)")
    return settings[key]


def _read_series(settings: dict):
    path = _require(settings, "input")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return parse_ticks(text)


def _write_text(path: str | None, text: str):
    if path is None:
        raise DataError("missing required setting 'output'")
    if not path:
        raise DataError("output must be a file path, got ''")
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _write_json(path: str | None, payload):
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _window_batch(settings: dict, series):
    window_len = number(_require(settings, "window"), "window", integer=True)
    mode = _setting(settings, "mode", "disjoint")
    return window_batch(series, window_len, mode)


def _print_lines(lines):
    if lines:
        print("\n".join(lines))


def _apply_overrides(file_cfg: dict, overrides):
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise DataError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        file_cfg.setdefault(section, {})[key] = value
    return file_cfg


def cmd_validate(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    spacing = "irregular" if series.tick_spacing is None else repr(series.tick_spacing)
    print(f"ok ticks={len(series)} spacing={spacing}")
    return EXIT_OK


def cmd_moments(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    order = number(_require(settings, "order"), "order", integer=True)
    method = _require(settings, "method")
    threshold = number(_setting(settings, "decorrelation_threshold", "0.2"),
                       "decorrelation_threshold")
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"decorrelation_threshold must be in [0, 1], got {threshold!r}")

    table = moments_mod.batch_moments(batch, order, method)
    text = table.value_text()
    centers, means, variances = (text[:, j].tolist() for j in (0, 1, -1))
    flags = [",".join(names) or "-" for names in moments_mod.FLAG_SETS]
    _print_lines([
        f"window {i} center_time={c} mean={m} variance={v} flags={flags[code]}"
        for i, (c, m, v, code) in enumerate(zip(centers, means, variances, table.flag_codes()))
    ])
    violations = []
    if settings["strict"]:
        negative, non_finite = table.negative_variance, table.non_finite
        coef, correlated = np.zeros(len(batch)), np.zeros(len(batch), dtype=bool)
        if batch.window_len >= 2:
            coef, correlated, _ = moments_mod.batch_decorrelation(batch, 2, threshold)
        for i in np.flatnonzero(negative | non_finite | correlated).tolist():
            if negative[i]:
                violations.append(f"window {i}: negative market variance {variances[i]}")
            if non_finite[i]:
                # the set itself is unusable; its correlation is usually a NaN clipped to -1
                violations.append(f"window {i}: non-finite moments")
            elif correlated[i]:
                violations.append(
                    f"window {i}: order-2 price/volume correlation "
                    f"{float(coef[i])!r} exceeds {threshold!r}"
                )
    if settings.get("output") is not None:
        _write_text(settings["output"], table.to_json_text(text))
    if violations:
        raise StrictViolation("; ".join(violations))
    return EXIT_OK


def cmd_vwap(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    centers = batch.center_time.tolist()
    values = moments_mod.batch_vwap(batch).tolist()
    _print_lines([f"window {i} center_time={c!r} vwap={v!r}"
                  for i, (c, v) in enumerate(zip(centers, values))])
    if settings.get("output") is not None:
        rows = "".join(f"{c!r},{v!r}\n" for c, v in zip(centers, values))
        _write_text(settings["output"], "center_time,vwap\n" + rows)
    return EXIT_OK


def cmd_autocorr(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    method = _require(settings, "method")
    lag = number(_setting(settings, "lag", "1"), "lag", integer=True)
    if len(batch) <= lag:
        raise DataError(f"need more than {lag} windows for lag {lag}, got {len(batch)}")
    values = moments_mod.batch_autocorrelation(batch, lag, method).tolist()
    centers = batch.center_time.tolist()
    pairs = [(centers[i], centers[i + lag], v) for i, v in enumerate(values)]
    _print_lines([f"window {i} t1={t1!r} t2={t2!r} autocorr={v!r}"
                  for i, (t1, t2, v) in enumerate(pairs)])
    if settings.get("output") is not None:
        _write_json(settings["output"], [
            {"center_time_1": t1, "center_time_2": t2, "autocorrelation": v}
            for t1, t2, v in pairs
        ])
    return EXIT_OK


def _parse_grid_setting(raw: str):
    parts = raw.split(":")
    if len(parts) != 3:
        raise DataError(f"grid must be LO:HI:POINTS, got {raw!r}")
    lo, hi, points = parts
    return number(lo, "grid LO"), number(hi, "grid HI"), number(points, "grid POINTS", integer=True)


def cmd_density(settings: dict, file_cfg: dict) -> int:
    from . import density as density_mod

    series = _read_series(settings)
    window = Window(series, 0, len(series))
    order = number(_require(settings, "order"), "order", integer=True)
    method = _require(settings, "method")
    ms = moments_mod.compute_moment_set(window, order, method)
    if "negative_variance" in ms.flags and settings["strict"]:
        raise StrictViolation(
            f"moment set has negative market variance {ms.variance!r}; density undefined"
        )
    grid_spec = _parse_grid_setting(_require(settings, "grid"))
    density_method = _setting(settings, "density_method", "gram_charlier")
    if density_method == "gram_charlier":
        approx = density_mod.density_gram_charlier(ms, grid_spec)
    elif density_method == "damped":
        damping = number(_require(settings, "damping_sigma"), "damping_sigma")
        approx = density_mod.density_damped_inversion(ms, damping, grid_spec)
    else:
        raise DataError(f"density_method must be gram_charlier or damped, got {density_method!r}")

    out = _require(settings, "output")
    _write_text(out, approx.to_csv_text())
    _write_json(str(Path(out).with_suffix(".json")), approx.to_json_dict())
    print(
        f"density method={approx.method} mass={approx.total_mass!r} "
        f"mean={approx.recovered_mean!r} variance={approx.recovered_variance!r} "
        f"negative_mass_fraction={approx.negative_mass_fraction!r}"
    )
    return EXIT_OK


def _scenario_from_cfg(file_cfg: dict):
    if "scenario" not in file_cfg or "utility" not in file_cfg:
        raise DataError("price/optimize commands need [scenario] and [utility] config sections")
    utility = build_utility(file_cfg["utility"])
    scenario = build_scenario(file_cfg["scenario"], utility)
    options = build_solver_options(file_cfg.get("solver"))
    return scenario, options


def cmd_price(settings: dict, file_cfg: dict) -> int:
    from .pricing import (
        TwoTradeScenario,
        solve_price_first_purchase,
        solve_price_second_purchase,
        solve_price_single,
        solve_price_two_sales,
    )

    scenario, options = _scenario_from_cfg(file_cfg)
    kind = file_cfg["scenario"].get("kind", "single")
    payload: dict = {"kind": kind}
    if kind == "single":
        sol = solve_price_single(scenario, options)
        payload["solution"] = sol.to_json_dict()
        print(f"p0={sol.mean_price!r} residual={sol.residual!r} iterations={sol.iterations}")
    else:
        assert isinstance(scenario, TwoTradeScenario)
        first = solve_price_first_purchase(scenario, options)
        if kind == "two_purchase":
            second = solve_price_second_purchase(scenario, options, first=first)
        else:
            second = solve_price_two_sales(scenario, options, first=first)
        payload["first_purchase"] = first.to_json_dict()
        payload["second_purchase"] = second.to_json_dict()
        print(
            f"p0(t1)={first.mean_price!r} p0(t2)={second.mean_price!r} "
            f"residuals=({first.residual!r}, {second.residual!r})"
        )
    if settings.get("output") is not None:
        _write_json(settings["output"], payload)
    return EXIT_OK


def _read_samples(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read samples {path}: {exc}") from None
    header, _, body = text.partition("\n")
    if header.strip().lower() != "price,payoff":
        raise DataError("samples file needs header 'price,payoff' on line 1")
    prices, payoffs = [], []
    for lineno, row in _data_rows(body):
        if len(row) != 2:
            raise DataError(f"samples line {lineno}: expected 2 fields, got {len(row)}")
        prices.append(number(row[0], f"samples line {lineno}: price"))
        payoffs.append(number(row[1], f"samples line {lineno}: payoff"))
    if not prices:
        raise DataError("samples file has no rows")
    return prices, payoffs


def cmd_optimize(settings: dict, file_cfg: dict) -> int:
    from .pricing import optimize_holdings

    scenario, _ = _scenario_from_cfg(file_cfg)
    prices, payoffs = _read_samples(_require(settings, "samples"))
    lo = number(_setting(settings, "lo", "0"), "lo")
    hi_raw = settings.get("hi")
    if hi_raw is None:
        raise DataError("optimize needs an upper holdings bound (--hi or [run] hi)")
    hi = number(hi_raw, "hi")
    result = optimize_holdings(scenario, prices, payoffs, (lo, hi))
    print(
        f"holdings={result.holdings!r} at_boundary={result.at_boundary} "
        f"foc_residual={result.foc_residual!r}"
    )
    if settings.get("output") is not None:
        _write_json(settings["output"], result.to_json_dict())
    return EXIT_OK


def cmd_simulate(settings: dict, file_cfg: dict) -> int:
    from .simulate import gen_trades

    if "simulate" not in file_cfg:
        raise DataError("simulate needs a [simulate] config section")
    section = dict(file_cfg["simulate"])
    if settings.get("seed") is not None:
        section["seed"] = settings["seed"]
    spec = build_sim_spec(section)
    series = gen_trades(spec)
    _write_text(_require(settings, "output"), render_ticks(series))
    print(f"simulated ticks={len(series)} seed={spec.seed}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "moments": cmd_moments,
    "vwap": cmd_vwap,
    "autocorr": cmd_autocorr,
    "density": cmd_density,
    "price": cmd_price,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbm",
        description="Market-based price moments, densities, and pricing solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "parse a tick file and check the value identity"),
        ("moments", "per-window price moments (frequency or market)"),
        ("vwap", "per-window volume weighted average price"),
        ("autocorr", "price autocorrelation between lagged windows"),
        ("density", "approximate price density from a moment set"),
        ("price", "solve the mean-price equations for a scenario"),
        ("optimize", "optimal holdings for sampled prices/payoffs"),
        ("simulate", "generate a synthetic tick file"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file (key=value sections)")
        p.add_argument("--set", action="append", dest="overrides", metavar="SECTION.KEY=VALUE",
                       help="override one config value")
        p.add_argument("--input", help="input tick-CSV path")
        p.add_argument("--output", help="output file path")
        p.add_argument("--window", help="ticks per window")
        p.add_argument("--order", help="highest moment order")
        p.add_argument("--method", choices=["frequency", "market"], help="averaging method")
        p.add_argument("--mode", choices=["disjoint", "sliding"], help="windowing mode")
        p.add_argument("--lag", help="window lag for autocorr")
        p.add_argument("--grid", help="density grid LO:HI:POINTS")
        p.add_argument("--density-method", dest="density_method",
                       choices=["gram_charlier", "damped"], help="density realization")
        p.add_argument("--damping-sigma", dest="damping_sigma",
                       help="damping width for the inversion integral")
        p.add_argument("--seed", help="simulation seed")
        p.add_argument("--samples", help="price,payoff samples CSV for optimize")
        p.add_argument("--lo", help="lower holdings bound")
        p.add_argument("--hi", help="upper holdings bound")
        p.add_argument("--decorrelation-threshold", dest="decorrelation_threshold",
                       help="|correlation| that counts as an assumption violation")
        p.add_argument("--strict", action="store_const", const=True, default=None,
                       help="exit 3 on assumption violations")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    file_cfg = load_config(args.config) if args.config else {}
    file_cfg = _apply_overrides(file_cfg, getattr(args, "overrides", None))
    settings = _resolve_settings(args, file_cfg)
    return _COMMANDS[args.command](settings, file_cfg)


def main(argv=None) -> int:
    try:
        return run(argv)
    except StrictViolation as exc:
        print(f"strict violation: {exc}", file=sys.stderr)
        return EXIT_STRICT
    except (ConvergenceError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
