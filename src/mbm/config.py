"""Plain-text configuration: key=value pairs under [section] headers.

Sections: [run] for top-level command settings, [utility], [scenario],
[solver], [simulate]. Keys are case-sensitive (endowment_t and endowment_T
are different keys). Resolution order for a run setting is
command-line flag > MBM_* environment variable > config file > default.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .errors import DataError
from .pricing import PricingScenario, SolverOptions, TwoTradeScenario
from .simulate import SimSpec
from .utility import UtilitySpec

ENV_PREFIX = "MBM_"

_SCENARIO_FLOATS = (
    "beta",
    "endowment_t",
    "endowment_T",
    "holdings",
    "payoff_mean",
    "payoff_variance",
    "price_variance",
    "dividend_mean",
    "holdings2",
    "payoff_mean2",
    "payoff_variance2",
    "price_variance2",
    "price_autocorr",
    "payoff_autocorr",
    "payoff_mean12",
    "t1",
    "t2",
    "T1",
    "T2",
)

_TWO_TRADE_ONLY = (
    "holdings2",
    "payoff_mean2",
    "payoff_variance2",
    "price_variance2",
    "price_autocorr",
    "payoff_autocorr",
    "payoff_mean12",
    "t1",
    "t2",
    "T1",
    "T2",
)


def load_config(path: str | Path) -> dict[str, dict[str, str]]:
    """Read a config file into {section: {key: value}}."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise DataError(f"malformed config {path}: {exc}") from None
    return {section: dict(parser[section]) for section in parser.sections()}


def _float(section: dict[str, str], key: str, where: str):
    raw = section[key]
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"[{where}] {key}={raw!r} is not a number") from None


def _int(section: dict[str, str], key: str, where: str) -> int:
    value = _float(section, key, where)
    if not math.isfinite(value):
        raise DataError(f"[{where}] {key}={section[key]!r} is not a finite number")
    return int(value)


def build_utility(section: dict[str, str]) -> UtilitySpec:
    if "family" not in section:
        raise DataError("[utility] section needs a 'family' key")
    family = section["family"].strip()
    parameter = _float(section, "parameter", "utility") if "parameter" in section else 0.0
    return UtilitySpec(family=family, parameter=parameter)


def build_scenario(
    scenario: dict[str, str], utility: UtilitySpec
) -> PricingScenario | TwoTradeScenario:
    """Build a scenario from its config section.

    kind selects the shape: single (default), two_purchase, or two_sales.
    """
    kind = scenario.get("kind", "single").strip()
    if kind not in ("single", "two_purchase", "two_sales"):
        raise DataError(f"[scenario] kind must be single, two_purchase, or two_sales, got {kind!r}")

    values: dict[str, float] = {}
    for key in scenario:
        if key == "kind":
            continue
        if key not in _SCENARIO_FLOATS:
            raise DataError(f"[scenario] unknown key {key!r}")
        values[key] = _float(scenario, key, "scenario")

    for key in ("beta", "endowment_t", "endowment_T", "holdings", "payoff_mean"):
        if key not in values:
            raise DataError(f"[scenario] missing required key {key!r}")

    if kind == "single":
        extra = [k for k in values if k in _TWO_TRADE_ONLY]
        if extra:
            raise DataError(f"[scenario] keys {extra} need kind=two_purchase or two_sales")
        return PricingScenario(utility=utility, **values)

    if kind == "two_purchase" and ("payoff_autocorr" in values or "T2" in values):
        raise DataError("[scenario] payoff_autocorr/T2 belong to kind=two_sales")
    if kind == "two_sales":
        values.setdefault("payoff_autocorr", 0.0)
        if "T2" not in values:
            raise DataError("[scenario] kind=two_sales needs T2")
    return TwoTradeScenario(utility=utility, **values)


def build_solver_options(section: dict[str, str] | None) -> SolverOptions:
    if not section:
        return SolverOptions()
    kwargs = {}
    if "max_iter" in section:
        kwargs["max_iterations"] = _int(section, "max_iter", "solver")
    if "damping" in section:
        kwargs["damping"] = _float(section, "damping", "solver")
    if "tol" in section:
        kwargs["tolerance"] = _float(section, "tol", "solver")
    known = {"max_iter", "damping", "tol"}
    unknown = set(section) - known
    if unknown:
        raise DataError(f"[solver] unknown keys {sorted(unknown)}")
    return SolverOptions(**kwargs)


def build_sim_spec(section: dict[str, str]) -> SimSpec:
    kwargs: dict = {}
    for key in ("length", "seed"):
        if key not in section:
            raise DataError(f"[simulate] missing required key {key!r}")
        kwargs[key] = _int(section, key, "simulate")
    for key in ("base_price", "phi", "sigma", "median_volume", "log_sigma", "pv_correlation"):
        if key in section:
            kwargs[key] = _float(section, key, "simulate")
    for key in ("price_model", "volume_model"):
        if key in section:
            kwargs[key] = section[key].strip()
    known = {
        "length", "seed", "base_price", "phi", "sigma", "median_volume",
        "log_sigma", "pv_correlation", "price_model", "volume_model",
    }
    unknown = set(section) - known
    if unknown:
        raise DataError(f"[simulate] unknown keys {sorted(unknown)}")
    return SimSpec(**kwargs)
