"""Plain-text configuration: key=value pairs under [section] headers.

Sections: [run] for command settings, [utility] and [scenario] for
price and optimize, [simulate] for simulate; a section no command reads is
an input error. Keys are case-sensitive (endowment_t and endowment_T are
different keys). Resolution order for a run setting is
command-line flag > MBM_* environment variable > config file > default.
Every number read from outside the program goes through ``number``. Each
builder imports the layer whose dataclass it fills, so reading settings
loads no model layer.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError
from .ticks import _DECIMAL, read_text

if TYPE_CHECKING:
    from .pricing import PricingScenario, TwoTradeScenario
    from .simulate import SimSpec
    from .utility import UtilitySpec

ENV_PREFIX = "MBM_"

# An integer as written in a setting: plain digits, so int() reads it exactly.
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def number(raw: str, name: str, *, integer: bool = False):
    """The number a setting's text spells; DataError naming the setting otherwise.

    A float must be a finite decimal, as a tick-CSV field: no nan/inf,
    underscores, hex or overflow (1e400). An integer must be plain digits
    and is read exactly, so a seed above 2**53 keeps every digit and 2.7 is
    an error, not 2.
    """
    if integer:
        if _INTEGER.fullmatch(raw):
            return int(raw)
        raise DataError(f"{name} must be an integer (plain digits), got {raw!r}")
    if _DECIMAL.fullmatch(raw):
        value = float(raw)
        if math.isfinite(value):
            return value
    raise DataError(f"{name} must be a finite decimal number, got {raw!r}")


def load_config(path: str | Path) -> dict[str, dict[str, str]]:
    """Read a config file into {section: {key: value}}."""
    import configparser  # only a run with a config file reads one

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(read_text(path, "config "), source=str(path))
    except configparser.Error as exc:
        raise DataError(f"malformed config {path}: {exc}") from None
    return {section: dict(parser[section]) for section in parser.sections()}


def _read_fields(cls, section: dict[str, str], where: str, keys: dict[str, str] | None = None):
    """Keyword arguments for dataclass cls from a config section.

    keys maps each allowed config key to the field it sets (default: every
    field, under its own name). A value is read by its field's declared
    type, and a field without a default must be set.
    """
    keys = keys or {f.name: f.name for f in fields(cls)}
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise DataError(f"[{where}] unknown keys {unknown}")
    types = {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING}
    kwargs = {}
    for key, name in keys.items():
        if key in section:
            raw = section[key]
            kwargs[name] = raw.strip() if types[name] == "str" else number(
                raw, f"[{where}] {key}", integer=types[name] == "int")
        elif name in required:
            raise DataError(f"[{where}] missing required key {key!r}")
    return kwargs


def build_utility(section: dict[str, str]) -> UtilitySpec:
    from .utility import UtilitySpec

    return UtilitySpec(**_read_fields(UtilitySpec, section, "utility"))


def build_scenario(
    scenario: dict[str, str], utility: UtilitySpec
) -> PricingScenario | TwoTradeScenario:
    """Build a scenario from its config section.

    kind selects the shape: single (default), two_purchase, or two_sales.
    """
    from .pricing import PricingScenario, TwoTradeScenario

    # [scenario] keys are the scenario fields; utility comes from [utility]
    keys = {f.name: f.name for f in fields(TwoTradeScenario) if f.name != "utility"}
    two_trade_only = keys.keys() - {f.name for f in fields(PricingScenario)}
    kind = scenario.get("kind", "single").strip()
    if kind not in ("single", "two_purchase", "two_sales"):
        raise DataError(f"[scenario] kind must be single, two_purchase, or two_sales, got {kind!r}")
    section = {key: raw for key, raw in scenario.items() if key != "kind"}
    values = _read_fields(TwoTradeScenario, section, "scenario", keys)

    if kind == "single":
        extra = [k for k in values if k in two_trade_only]
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


def build_sim_spec(section: dict[str, str]) -> SimSpec:
    from .simulate import SimSpec

    return SimSpec(**_read_fields(SimSpec, section, "simulate"))
