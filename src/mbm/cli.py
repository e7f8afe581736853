"""Command-line front end for batch runs over tick files and scenarios.

Subcommands: validate, moments, vwap, autocorr, density, price, optimize,
simulate. SETTINGS names each setting once, with the commands that read
it, its type and default; a command has flags for those settings only.
A setting is also its [run] config key and its MBM_<NAME> environment
variable (e.g. MBM_DECORRELATION_THRESHOLD); a flag wins over the
environment, which wins over the file, and the winning text is typed in
one pass (numbers by config.number). A usage error, such as a flag the
command does not read, and a config section or [run] key no command
reads are input errors.

The density, utility, pricing and simulate layers are imported inside
the commands that compute with them, so a tick command loads only ticks
and moments; json, csv and configparser load only where they are used.

main(argv) is the in-process API: it runs one command and touches no
garbage-collector state, so it can be called again and again in one
process. process_main() is the entry of the `mbm` console script and of
`python -m mbm.cli`: it freezes the heap that the imports made
(gc.freeze), so that neither a collection during the command nor the
interpreter's teardown walks numpy's objects again, then returns main()'s
exit code.

Exit codes: 0 success, 1 input error, 2 numerical failure, 3 assumption
violation under --strict. Diagnostics go to stderr, summaries to stdout,
results to the output files. moments computes, flags and writes a chunk
of windows at a time, and writes its --strict report to stderr as it is
made: one line, "strict violation: " and the messages "; "-joined. A run
that fails after part of the report was written (an output that cannot
be written) ends that line, then reports its error on a line of its own
with that error's exit code.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import moments as moments_mod
from .config import ENV_PREFIX, build_scenario, build_sim_spec, build_utility, load_config, number
from .errors import ConvergenceError, DataError, DomainError
from .ticks import (TICK_CSV, TICK_FLOATS, Window, _data_rows, _decoded, framed, parse_ticks,
                    row_chunks, tick_rows, window_batch)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_STRICT = 3


class StrictViolation(Exception):
    """An assumption violation promoted to an error by --strict."""


_TICK_COMMANDS = "moments vwap autocorr"

#: setting -> (commands that read it, help, type: text/int/float/bool, default).
#: method, mode and density_method are text, checked where they are used.
SETTINGS = {
    "input": ("validate density " + _TICK_COMMANDS, "input tick-CSV path", "text", None),
    "output": ("density price optimize simulate " + _TICK_COMMANDS, "output file path",
               "text", None),
    "window": (_TICK_COMMANDS, "ticks per window", "int", None),
    "mode": (_TICK_COMMANDS, "windowing mode: disjoint or sliding", "text", "disjoint"),
    "order": ("moments density", "highest moment order", "int", None),
    "method": ("moments autocorr density", "averaging method: frequency or market", "text", None),
    "lag": ("autocorr", "window lag", "int", 1),
    "grid": ("density", "density grid LO:HI:POINTS", "text", None),
    "density_method": ("density", "density realization: gram_charlier or damped", "text",
                       "gram_charlier"),
    "damping_sigma": ("density", "damping width for the inversion integral", "float", None),
    "samples": ("optimize", "price,payoff samples CSV", "text", None),
    "lo": ("optimize", "lower holdings bound", "float", 0.0),
    "hi": ("optimize", "upper holdings bound", "float", None),
    "seed": ("simulate", "simulation seed (overrides [simulate] seed)", "int", None),
    "decorrelation_threshold": ("moments", "|correlation| that counts as an assumption "
                                "violation", "float", moments_mod.DEFAULT_DECORRELATION_THRESHOLD),
    "strict": ("moments density", "exit 3 on assumption violations", "bool", False),
}

# config sections some command reads; the [run] keys are the SETTINGS names
_SECTIONS = ("run", "utility", "scenario", "simulate")

_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _typed(raw: str, name: str, kind: str):
    if kind == "text":
        return raw
    if kind == "bool":
        value = _BOOLS.get(raw.strip().lower())
        if value is None:
            raise DataError(f"{name}: cannot parse boolean value {raw!r}")
        return value
    return number(raw, name, integer=kind == "int")


def _resolve_settings(args: argparse.Namespace, file_cfg: dict) -> dict:
    """The command's settings, typed: flag > MBM_<NAME> variable > [run] key > default."""
    run_section = file_cfg.get("run", {})
    settings = {}
    for name, (commands, _, kind, default) in SETTINGS.items():
        if args.command in commands.split():
            raw = getattr(args, name)
            if raw is None:
                raw = os.environ.get(ENV_PREFIX + name.upper(), run_section.get(name))
            settings[name] = default if raw is None else _typed(raw, name, kind)
    return settings


def _require(settings: dict, key: str):
    if settings[key] is None:
        raise DataError(f"missing required setting {key!r} (flag, MBM_ env, or [run] config)")
    return settings[key]


@contextmanager
def _failing(action: str):
    """An OSError inside is the input error "cannot <action>: <error>"."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot {action}: {exc}") from None


def _read_text(path: str, what: str = "") -> str:
    """A file's UTF-8 text with universal newlines; what ("samples ") prefixes the errors."""
    with _failing(f"read {what}{path}"), open(path, "rb") as fh:
        return _decoded(fh.read(), what)


def _read_series(settings: dict):
    """The input file's tick series: parse_ticks reads a file whole only on a cache miss, or a pipe."""
    path = _require(settings, "input")
    with _failing(f"read {path}"), open(path, "rb") as fh:
        return parse_ticks(fh)


def _write_pieces(path: str | None, pieces):
    """Write a text to path as UTF-8, each piece as it comes.

    The file is opened before the first piece is made. An OSError while
    opening, writing or closing it is an input error; the work that makes
    the pieces (formatting, printing) runs outside that check.
    """
    if path is None:
        raise DataError("missing required setting 'output'")
    if not path:
        raise DataError("output must be a file path, got ''")
    with _failing(f"write {path}"):
        fh = open(path, "w", encoding="utf-8")
    try:
        for piece in pieces:
            with _failing(f"write {path}"):
                fh.write(piece)
        with _failing(f"write {path}"):
            fh.close()
    finally:
        with suppress(OSError):
            fh.close()  # after an error, which is the one reported


def _write_text(path: str | None, text: str):
    _write_pieces(path, (text,))


def _write_rows(path: str | None, n: int, floats_per_row: int, chunk, frame,
                max_rows: int | None = None):
    """Print and write an n-row output a chunk of rows at a time (ticks.row_chunks).

    A row formats floats_per_row floats, so a chunk formats at most about
    ticks.OUTPUT_FLOATS. chunk(rows, to_file) formats the floats of a slice
    of rows once and returns their stdout lines and, if to_file, their part
    of the file; frame (as in ticks.framed) joins the parts. A chunk's lines
    are printed and its part written before the next chunk is formatted, so
    the text of the output is never held whole. Without a path only lines
    are printed. A chunk holds at most max_rows rows, if given.
    """
    def parts():
        for rows in row_chunks(n, floats_per_row, max_rows):
            lines, part = chunk(rows, path is not None)
            _print_lines(lines)
            yield part

    if path is None:
        for _ in parts():
            pass
    else:
        _write_pieces(path, framed(parts(), frame))


def _write_json(path: str | None, payload):
    import json  # only density, price and optimize write JSON this way

    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _window_batch(settings: dict, series):
    return window_batch(series, _require(settings, "window"), settings["mode"])


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


def _check_read(file_cfg: dict):
    """An input error for a config section, or a [run] key, that no command reads."""
    for section in file_cfg:
        if section not in _SECTIONS:
            raise DataError(f"config section [{section}] is read by no command")
    unknown = sorted(file_cfg.get("run", {}).keys() - SETTINGS.keys())
    if unknown:
        raise DataError(f"[run] unknown keys {unknown}")


def cmd_validate(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    spacing = "irregular" if series.tick_spacing is None else repr(series.tick_spacing)
    print(f"ok ticks={len(series)} spacing={spacing}")
    return EXIT_OK


def cmd_moments(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    order = _require(settings, "order")
    method = _require(settings, "method")
    threshold = settings["decorrelation_threshold"]
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"decorrelation_threshold must be in [0, 1], got {threshold!r}")
    # a table of no rows checks order and method before the output is opened
    row_floats = moments_mod.batch_moments(batch[:0], order, method).row_floats
    flags = [",".join(names) or "-" for names in moments_mod.FLAG_SETS]
    strict = settings["strict"]
    if strict:
        # 9 bytes a window, in one pass over spans: a call per chunk measured
        # slower, its large temporaries freed and made again between chunks
        coef, correlated = np.zeros(len(batch)), np.zeros(len(batch), dtype=bool)
        if batch.window_len >= 2:
            coef, correlated, _ = moments_mod.batch_decorrelation(batch, 2, threshold)
    reported = False  # whether the --strict report's line was begun

    def chunk(rows, to_file):
        nonlocal reported
        span = batch[rows]  # the windows of these rows over only their ticks
        table = moments_mod.batch_moments(span, order, method)
        text = table.value_text(slice(None))
        centers, means, variances = (text[:, j].tolist() for j in (0, 1, -1))
        lines = [f"window {i} center_time={c} mean={m} variance={v} flags={flags[code]}"
                 for i, (c, m, v, code) in enumerate(zip(centers, means, variances,
                                                         table.flag_codes(slice(None))),
                                                     rows.start)]
        if strict:
            negative, non_finite = table.negative_variance, table.non_finite
            messages = []
            for j in np.flatnonzero(negative | non_finite | correlated[rows]).tolist():
                i = rows.start + j
                if negative[j]:
                    messages.append(f"window {i}: negative market variance {variances[j]}")
                if non_finite[j]:
                    # the set itself is unusable; its correlation is usually a NaN clipped to -1
                    messages.append(f"window {i}: non-finite moments")
                elif correlated[i]:
                    messages.append(
                        f"window {i}: order-2 price/volume correlation "
                        f"{float(coef[i])!r} exceeds {threshold!r}"
                    )
            if messages:  # sys.stderr looked up here, so a redirected stderr gets them
                sys.stderr.write(("; " if reported else "strict violation: ") + "; ".join(messages))
                reported = True
        return lines, table.json_records(slice(None), text) if to_file else ""

    try:
        _write_rows(settings["output"], len(batch), row_floats, chunk, moments_mod.JSON_ARRAY,
                    moments_mod.span_rows(batch.window_len))
    finally:
        if reported:  # the report's one line ends before any error's message
            sys.stderr.write("\n")
    return EXIT_STRICT if reported else EXIT_OK


_VWAP_HEADER = "center_time,vwap\n"
_VWAP_FLOATS = _VWAP_HEADER.count(",") + 1  # floats per row


def cmd_vwap(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    centers, values = batch.center_time, moments_mod.batch_vwap(batch)

    def chunk(rows, to_file):
        pairs = list(zip(map(repr, centers[rows].tolist()), map(repr, values[rows].tolist())))
        lines = [f"window {i} center_time={c} vwap={v}" for i, (c, v) in enumerate(pairs, rows.start)]
        return lines, "".join([f"{c},{v}\n" for c, v in pairs]) if to_file else ""

    _write_rows(settings["output"], len(batch), _VWAP_FLOATS, chunk,
                (_VWAP_HEADER, "", "", _VWAP_HEADER))
    return EXIT_OK


# a record of the autocorr JSON as json.dumps(..., indent=2) writes it
_AUTOCORR_RECORD = ('  {\n    "center_time_1": %s,\n    "center_time_2": %s,\n'
                    '    "autocorrelation": %s\n  }')
_AUTOCORR_FLOATS = _AUTOCORR_RECORD.count("%s")  # floats per record


def cmd_autocorr(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    method = _require(settings, "method")
    lag = settings["lag"]
    if len(batch) <= lag:
        raise DataError(f"need more than {lag} windows for lag {lag}, got {len(batch)}")
    values = moments_mod.batch_autocorrelation(batch, lag, method)  # finite, or it raised
    centers = batch.center_time
    finite = bool(np.isfinite(centers).all())

    def chunk(rows, to_file):
        text = moments_mod.reprs(np.column_stack(
            [centers[rows], centers[rows.start + lag:rows.stop + lag], values[rows]]))
        lines = [f"window {i} t1={t1} t2={t2} autocorr={v}"
                 for i, (t1, t2, v) in enumerate(text.tolist(), rows.start)]
        if not to_file:
            return lines, ""
        return lines, moments_mod.fill_records(
            _AUTOCORR_RECORD, text if finite else moments_mod.json_spelled(text))

    _write_rows(settings["output"], len(values), _AUTOCORR_FLOATS, chunk, moments_mod.JSON_ARRAY)
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
    order = _require(settings, "order")
    method = _require(settings, "method")
    ms = moments_mod.compute_moment_set(window, order, method)
    if "negative_variance" in ms.flags and settings["strict"]:
        raise StrictViolation(
            f"moment set has negative market variance {ms.variance!r}; density undefined"
        )
    grid_spec = _parse_grid_setting(_require(settings, "grid"))
    density_method = settings["density_method"]
    if density_method == "gram_charlier":
        approx = density_mod.density_gram_charlier(ms, grid_spec)
    elif density_method == "damped":
        damping = _require(settings, "damping_sigma")
        approx = density_mod.density_damped_inversion(ms, damping, grid_spec)
    else:
        raise DataError(f"density_method must be gram_charlier or damped, got {density_method!r}")

    out = _require(settings, "output")
    if Path(out).suffix == ".json":  # the summary goes to the .json path, so the CSV would be lost
        raise DataError(f"output {out!r} is the path of the JSON summary; give the CSV another suffix")
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
    return build_scenario(file_cfg["scenario"], utility)


def cmd_price(settings: dict, file_cfg: dict) -> int:
    from .pricing import (
        TwoTradeScenario,
        solve_price_first_purchase,
        solve_price_second_purchase,
        solve_price_single,
        solve_price_two_sales,
    )

    scenario = _scenario_from_cfg(file_cfg)
    if not isinstance(scenario, TwoTradeScenario):
        sol = solve_price_single(scenario)
        payload = {"kind": "single", "solution": sol.to_json_dict()}
        print(f"p0={sol.mean_price!r} residual={sol.residual!r} iterations={sol.iterations}")
    else:
        first = solve_price_first_purchase(scenario)
        if scenario.two_sale:
            second = solve_price_two_sales(scenario, first=first)
        else:
            second = solve_price_second_purchase(scenario, first=first)
        payload = {"kind": "two_sales" if scenario.two_sale else "two_purchase",
                   "first_purchase": first.to_json_dict(), "second_purchase": second.to_json_dict()}
        print(
            f"p0(t1)={first.mean_price!r} p0(t2)={second.mean_price!r} "
            f"residuals=({first.residual!r}, {second.residual!r})"
        )
    if settings["output"] is not None:
        _write_json(settings["output"], payload)
    return EXIT_OK


def _read_samples(path: str):
    header, _, body = _read_text(path, "samples ").partition("\n")
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

    scenario = _scenario_from_cfg(file_cfg)
    prices, payoffs = _read_samples(_require(settings, "samples"))
    if settings["hi"] is None:
        raise DataError("optimize needs an upper holdings bound (--hi or [run] hi)")
    result = optimize_holdings(scenario, prices, payoffs, (settings["lo"], settings["hi"]))
    print(
        f"holdings={result.holdings!r} at_boundary={result.at_boundary} "
        f"foc_residual={result.foc_residual!r}"
    )
    if settings["output"] is not None:
        _write_json(settings["output"], result.to_json_dict())
    return EXIT_OK


def cmd_simulate(settings: dict, file_cfg: dict) -> int:
    from .simulate import trade_blocks

    if "simulate" not in file_cfg:
        raise DataError("simulate needs a [simulate] config section")
    section = dict(file_cfg["simulate"])
    if settings["seed"] is not None:
        section["seed"] = str(settings["seed"])  # plain digits, read back exactly
    spec = build_sim_spec(section)
    blocks = trade_blocks(spec)  # one block of ticks per chunk of rows, made as it is written
    blocks = itertools.chain([next(blocks)], blocks)  # a bad first block fails before the open
    _write_rows(_require(settings, "output"), spec.length, TICK_FLOATS,
                lambda rows, to_file: ((), tick_rows(next(blocks), slice(None))), TICK_CSV)
    print(f"simulated ticks={spec.length} seed={spec.seed}")
    return EXIT_OK


_COMMANDS = {
    "validate": (cmd_validate, "parse a tick file and check the value identity"),
    "moments": (cmd_moments, "per-window price moments (frequency or market)"),
    "vwap": (cmd_vwap, "per-window volume weighted average price"),
    "autocorr": (cmd_autocorr, "price autocorrelation between lagged windows"),
    "density": (cmd_density, "approximate price density from a moment set"),
    "price": (cmd_price, "solve the mean-price equations for a scenario"),
    "optimize": (cmd_optimize, "optimal holdings for sampled prices/payoffs"),
    "simulate": (cmd_simulate, "generate a synthetic tick file"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DataError(f"{self.prog}: {message}")  # a usage error is an input error


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mbm",
                     description="Market-based price moments, densities, and pricing solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="config file (key=value sections)")
        p.add_argument("--set", action="append", dest="overrides", metavar="SECTION.KEY=VALUE",
                       help="override one config value")
        for name, (commands, help_text, kind, default) in SETTINGS.items():
            if command in commands.split():
                if default is not None:
                    help_text += f" (default {default})"
                # --strict stores the text "true", typed like MBM_STRICT and [run] strict
                extra = {"action": "store_const", "const": "true"} if kind == "bool" else {}
                p.add_argument("--" + name.replace("_", "-"), help=help_text, **extra)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    file_cfg = load_config(args.config) if args.config else {}
    file_cfg = _apply_overrides(file_cfg, args.overrides)
    _check_read(file_cfg)
    settings = _resolve_settings(args, file_cfg)
    return _COMMANDS[args.command][0](settings, file_cfg)


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


def process_main() -> int:
    """main() for a process of its own: the imported heap is frozen before the command runs."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(process_main())
