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
violation under --strict. Diagnostics go to stderr, summaries and table
lines to stdout through _out (a stdout that cannot be written, such as a
closed pipe, is an input error), results to the output files. This
module alone spells output: moments, vwap and autocorr print a line and
write a record per row through _write_table, templates filled from each
float's repr, made once. moments computes, flags and writes a chunk of
windows at a time, and writes its --strict report to stderr as it is
made: one line, "strict violation: " and the messages "; "-joined. A run
that fails after part of the report was written (an output that cannot
be written) ends that line, then reports its error on a line of its own
with that error's exit code.

The chunks of a streamed output (the tables and simulate's tick blocks)
are made on every usable CPU (_in_turn), each once: on P CPUs, C =
min(P, chunks) processes take them in turn, this one and C - 1 children
forked before the first chunk, and this process writes every chunk's
bytes in order; a failed fork leaves its chunks to this process. So the
bytes do not depend on the CPU count.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from contextlib import closing, contextmanager, suppress
from pathlib import Path

import numpy as np

from . import moments as moments_mod
from .config import ENV_PREFIX, build_scenario, build_sim_spec, build_utility, load_config, number
from .errors import ConvergenceError, DataError, DomainError
from .ticks import (TICK_CSV, TICK_FLOATS, _data_rows, chunk_count, framed, parse_ticks,
                    read_text, row_chunks, tick_rows, window_batch)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_STRICT = 3


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


def _read_series(settings: dict):
    """The input file's tick series: parse_ticks reads a file whole only on a cache miss, or a pipe."""
    path = _require(settings, "input")
    with _failing(f"read {path}"), open(path, "rb") as fh:
        return parse_ticks(fh)


def _write_pieces(path: str | None, pieces):
    """Write a text's bytes to path, each piece as it comes.

    The file is opened before the first piece is made. An OSError while
    opening, writing or closing it is an input error; the work that makes
    the pieces (formatting, printing) runs outside that check.
    """
    if path is None:
        raise DataError("missing required setting 'output'")
    if not path:
        raise DataError("output must be a file path, got ''")
    with _failing(f"write {path}"):
        fh = open(path, "wb")
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
    _write_pieces(path, (text.encode("utf-8"),))


def _put(stream, data: bytes):
    """Write data to a text stream after the text written to it: to its buffer, with no
    decode and re-encode, where it has one (a StringIO has none)."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(data.decode("utf-8"))
    else:
        stream.flush()
        buffer.write(data)


def _out(data: bytes):
    """Write data to stdout: a stdout that cannot take it (a closed pipe) is an input error."""
    with _failing("write stdout"):
        _put(sys.stdout, data)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell, or cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _make_in_child(w: int, cpus: int, walked, make, pipe_fds):
    """Child w: send make(item) for the items i of walked with i % cpus == w, then exit.

    Each item's parts go down the pipe as their sizes on a line, then their
    bytes. Any exception ends the child before the item it hit is sent.
    """
    code = 1
    try:
        os.close(pipe_fds[0])
        with open(pipe_fds[1], "wb") as pipe:
            for i, item in walked:
                if i % cpus == w:
                    parts = make(item)
                    pipe.write(b" ".join(b"%d" % len(part) for part in parts) + b"\n")
                    pipe.writelines(parts)
        code = 0
    finally:
        os._exit(code)  # no cleanup of the parent's: its buffers, files and finally blocks


def _received(reader):
    """The parts a child sent for its next item, or None if it ended before sending them all."""
    head = reader.readline()
    if not head.endswith(b"\n"):
        return None
    sizes = [int(size) for size in head.split()]
    parts = tuple(reader.read(size) for size in sizes)
    return parts if [len(part) for part in parts] == sizes else None


def _fork(w: int, cpus: int, walked, make):
    """(pid, reader of its pipe) of a forked child w, which runs _make_in_child.

    The pipe holds 1 MiB where the platform allows, so that a child can make
    several chunks ahead while the parent makes its own or waits on another
    child: at the default 64 KiB a chunk fills the pipe, and the processes
    take turns rather than working together. The process's only other
    thread is OpenBLAS's pool, which no chunk's numpy work calls. A fork
    that fails closes the pipe and raises its OSError.
    """
    import fcntl  # loaded only when a child is forked

    pipe_fds = os.pipe()
    with suppress(AttributeError, OSError):  # no F_SETPIPE_SZ, or past the system's limit
        fcntl.fcntl(pipe_fds[1], fcntl.F_SETPIPE_SZ, 1 << 20)
    try:
        pid = os.fork()
    except OSError:
        for fd in pipe_fds:
            os.close(fd)
        raise
    if pid == 0:
        _make_in_child(w, cpus, walked, make, pipe_fds)
    os.close(pipe_fds[1])  # so the child's exit is its reader's end of file
    return pid, open(pipe_fds[0], "rb")


def _in_turn(items, count: int, make):
    """Yield make(item), a tuple of bytes, for each of items in order, made on every usable CPU.

    count is the number of items or an upper bound on it. On P usable CPUs
    (_usable_cpus), C = min(P, count) processes make the items: this one
    makes the items i with i % C == 0, and C - 1 children, forked before
    the first item, make the others, child w those with i % C == w, and
    send their bytes through a pipe; this process yields them all in
    order. Every process walks items itself from the start, so an iterator
    that carries state from item to item works, and a walk's error is
    raised here where one process would raise it. An item whose fork
    failed (no later child is forked) or whose child ended before sending
    it is made here. So errors and bytes are those of the serial code. The
    children are killed and reaped when the generator ends or is closed.
    """
    cpus = min(_usable_cpus(), count)
    walked = enumerate(items)
    children = []  # (pid, reader of its pipe) of child w, at w - 1
    try:
        with suppress(OSError):  # a failed fork leaves its items to this process
            for w in range(1, cpus):
                children.append(_fork(w, cpus, walked, make))
        for i, item in walked:
            w = i % cpus
            # None if this process makes it, or its child ended early (its pipe is then at its end)
            parts = _received(children[w - 1][1]) if 0 < w <= len(children) else None
            yield make(item) if parts is None else parts
    finally:
        if children:
            import signal  # loaded only when a child was forked

            for pid, reader in children:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _filled(template: str, sep: str, cells: np.ndarray) -> str:
    """One template per row of cells, sep-joined, the %s slots of each filled from its row.

    One % over the whole chunk: several times faster than formatting, or
    json's indenting encoder (pure Python), row by row, for the same bytes.
    """
    return sep.join([template] * len(cells)) % tuple(cells.ravel().tolist())


def _write_table(path: str | None, n: int, per_row: int, chunk, line: str, record: str,
                 frame) -> bool:
    """Print a line and write a record for each of n rows, a chunk of rows at a time; True
    if a --strict message was reported.

    The chunks are ticks.row_chunks(n, per_row), per_row being the floats a
    row formats (and, for moments, the ticks a row's window reduces), so no
    output's text is held whole. chunk(rows, to_file) returns, for a slice
    of rows, two (rows, slots) object arrays of cells and a list of --strict
    messages: the line cells after the row's index and, if to_file, the
    record cells (else None). Each chunk's text is made once by _in_turn,
    here or in one of the min(P, chunks) - 1 children forked before the
    first chunk on P usable CPUs, and written here in order, each chunk
    before the next one is taken:
    its messages to stderr, as one report line that starts with "strict
    violation: " and ends after the last chunk or before an error's
    message; its lines to stdout; its records to path, frame[1]-joined
    within a chunk and framed (as in ticks.framed) around the chunks.
    Without a path only lines are printed.
    """
    def make(rows):
        lines, records, messages = chunk(rows, path is not None)
        out = _filled(line, "\n", np.hstack(
            [np.arange(rows.start, rows.stop, dtype=object)[:, None], lines])) + "\n"
        part = "" if records is None else _filled(record, frame[1], records)
        return out.encode(), part.encode(), "; ".join(messages).encode()

    reported = False  # whether the report's line was begun

    def parts(made):
        nonlocal reported
        for out, part, report in made:
            if report:  # sys.stderr looked up here, so a redirected stderr gets it
                _put(sys.stderr, (b"; " if reported else b"strict violation: ") + report)
                reported = True
            _out(out)
            yield part

    try:
        with closing(_in_turn(row_chunks(n, per_row), chunk_count(n, per_row), make)) as made:
            if path is None:
                for _ in parts(made):
                    pass
            else:
                _write_pieces(path, framed(parts(made), tuple(s.encode() for s in frame)))
    finally:
        if reported:
            _put(sys.stderr, b"\n")
    return reported


def _write_json(path: str | None, payload):
    import json  # only density, price and optimize write JSON this way

    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _window_batch(settings: dict, series):
    return window_batch(series, _require(settings, "window"), settings["mode"])


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
    _out(f"ok ticks={len(series)} spacing={spacing}\n".encode())
    return EXIT_OK


# moments_mod.FLAG_SETS as a stdout line and as a record's json.dumps(..., indent=2) write them
_FLAG_CELLS = np.array([[",".join(names) or "-",
                         "[\n" + ",\n".join(f'      "{name}"' for name in names) + "\n    ]"
                         if names else "[]"] for names in moments_mod.FLAG_SETS], dtype=object)

#: The frame (see ticks.framed) of a JSON array of records as
#: ``json.dumps(records, indent=2) + "\n"`` writes it.
JSON_ARRAY = ("[\n", ",\n", "\n]\n", "[]\n")


def _reprs(values: np.ndarray) -> np.ndarray:
    """repr of each float of values, as an object array of the same shape."""
    return np.array(list(map(repr, values.ravel().tolist())), dtype=object).reshape(values.shape)


def _float_cells(floats: np.ndarray):
    """The _write_table chunk of a table of floats: a row's line and record cells are
    both its floats' reprs, and there is no --strict message."""
    def chunk(rows, to_file):
        cells = _reprs(floats[rows])
        return cells, cells, []
    return chunk


def _moment_record(method: str, k: int, trade: bool) -> str:
    """A moment set as json.dumps(MomentSet.to_json_dict(), indent=2) writes it in an array,
    a %s slot for each value; trade: with value and volume moments. method is one of
    moments.METHODS, which json writes as it is, in quotes."""
    def items(n_values: int) -> str:
        return "[\n" + ",\n".join(["      %s"] * n_values) + "\n    ]"

    return (
        '  {\n    "method": "' + method + '",\n    "order": ' + str(k)
        + ',\n    "center_time": %s,\n    "raw_moments": ' + items(k)
        + ',\n    "value_moments": ' + (items(k) if trade else "null")
        + ',\n    "volume_moments": ' + (items(k) if trade else "null")
        + ',\n    "mean": %s,\n    "variance": %s,\n    "flags": %s\n  }'
    )


def cmd_moments(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    order = _require(settings, "order")
    method = _require(settings, "method")
    threshold = settings["decorrelation_threshold"]
    moments_mod.check_threshold(threshold)
    # a table of no rows checks order and method before the output is opened
    moments_mod.batch_moments(batch[:0], order, method)
    trade = method == "market"
    strict = settings["strict"]

    def chunk(rows, to_file):
        table = moments_mod.batch_moments(batch[rows], order, method)  # over only their ticks
        negative, non_finite = table.negative_variance, table.non_finite
        correlated = np.zeros_like(negative)
        if strict and batch.window_len >= 2:  # each row's bits, as over the whole batch
            coef, correlated, _ = moments_mod.batch_decorrelation(batch[rows], 2, threshold)
        # each float written once: center_time, raw moments, [value, volume moments,] variance
        text = _reprs(np.hstack([table.center_time[:, None], table.raw_moments,
                                 *([table.trade_value_moments, table.trade_volume_moments]
                                   if trade else []), table.variance[:, None]]))
        flags = _FLAG_CELLS[negative + 2 * non_finite]
        messages = []
        if strict:
            for j in np.flatnonzero(negative | non_finite | correlated).tolist():
                i = rows.start + j
                if negative[j]:
                    messages.append(f"window {i}: negative market variance {text[j, -1]}")
                if non_finite[j]:
                    # the set itself is unusable; its correlation is usually a NaN clipped to -1
                    messages.append(f"window {i}: non-finite moments")
                elif correlated[j]:
                    messages.append(
                        f"window {i}: order-2 price/volume correlation "
                        f"{float(coef[j])!r} exceeds {threshold!r}"
                    )
        # a line: center_time, mean (the first raw moment), variance and flags
        lines = np.hstack([text[:, :2], text[:, -1:], flags[:, :1]])
        if not to_file:
            return lines, None, messages
        if non_finite.any():  # json's spelling of repr's nan, inf and -inf
            for spelled, json_spelling in (("nan", "NaN"), ("inf", "Infinity"),
                                           ("-inf", "-Infinity")):
                text[text == spelled] = json_spelling
        # a record: center_time and the moments, then the mean, variance and flags
        return (lines, np.hstack([text[:, :-1], text[:, 1:2], text[:, -1:], flags[:, 1:]]),
                messages)

    # a row formats 2 + order * (3 or 1) floats and its kernels reduce window_len ticks
    reported = _write_table(
        settings["output"], len(batch), max(2 + order * (3 if trade else 1), batch.window_len),
        chunk, "window %s center_time=%s mean=%s variance=%s flags=%s",
        _moment_record(method, order, trade), JSON_ARRAY)
    return EXIT_STRICT if reported else EXIT_OK


_VWAP_HEADER = "center_time,vwap\n"


def cmd_vwap(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    floats = np.column_stack([batch.center_time, moments_mod.batch_vwap(batch)])
    _write_table(settings["output"], len(floats), 2, _float_cells(floats),
                 "window %s center_time=%s vwap=%s", "%s,%s\n",
                 (_VWAP_HEADER, "", "", _VWAP_HEADER))
    return EXIT_OK


# a record of the autocorr JSON as json.dumps(..., indent=2) writes it
_AUTOCORR_RECORD = ('  {\n    "center_time_1": %s,\n    "center_time_2": %s,\n'
                    '    "autocorrelation": %s\n  }')


def cmd_autocorr(settings: dict, file_cfg: dict) -> int:
    series = _read_series(settings)
    batch = _window_batch(settings, series)
    method = _require(settings, "method")
    lag = settings["lag"]
    if len(batch) <= lag:
        raise DataError(f"need more than {lag} windows for lag {lag}, got {len(batch)}")
    values = moments_mod.batch_autocorrelation(batch, lag, method)  # finite, or it raised
    centers = batch.center_time  # finite, as the tick times are
    floats = np.column_stack([centers[:len(values)], centers[lag:], values])
    _write_table(settings["output"], len(floats), 3, _float_cells(floats),
                 "window %s t1=%s t2=%s autocorr=%s", _AUTOCORR_RECORD, JSON_ARRAY)
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
    order = _require(settings, "order")
    method = _require(settings, "method")
    ms = moments_mod.compute_moment_set(window_batch(series, len(series)), order, method)
    if "negative_variance" in ms.flags and settings["strict"]:
        print(f"strict violation: moment set has negative market variance {ms.variance!r}; "
              "density undefined", file=sys.stderr)
        return EXIT_STRICT
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
    _out(f"density method={approx.method} mass={approx.total_mass!r} "
         f"mean={approx.recovered_mean!r} variance={approx.recovered_variance!r} "
         f"negative_mass_fraction={approx.negative_mass_fraction!r}\n".encode())
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
        _out(f"p0={sol.mean_price!r} residual={sol.residual!r} iterations={sol.iterations}\n".encode())
    else:
        first = solve_price_first_purchase(scenario)
        if scenario.two_sale:
            second = solve_price_two_sales(scenario, first=first)
        else:
            second = solve_price_second_purchase(scenario, first=first)
        payload = {"kind": "two_sales" if scenario.two_sale else "two_purchase",
                   "first_purchase": first.to_json_dict(), "second_purchase": second.to_json_dict()}
        _out(f"p0(t1)={first.mean_price!r} p0(t2)={second.mean_price!r} "
             f"residuals=({first.residual!r}, {second.residual!r})\n".encode())
    if settings["output"] is not None:
        _write_json(settings["output"], payload)
    return EXIT_OK


def _read_samples(path: str):
    header, _, body = read_text(path, "samples ").partition("\n")
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
    _out(f"holdings={result.holdings!r} at_boundary={result.at_boundary} "
         f"foc_residual={result.foc_residual!r}\n".encode())
    if settings["output"] is not None:
        _write_json(settings["output"], result.to_json_dict())
    return EXIT_OK


def cmd_simulate(settings: dict, file_cfg: dict) -> int:
    from .simulate import make_block, walk_blocks

    if "simulate" not in file_cfg:
        raise DataError("simulate needs a [simulate] config section")
    section = dict(file_cfg["simulate"])
    if settings["seed"] is not None:
        section["seed"] = str(settings["seed"])  # plain digits, read back exactly
    spec = build_sim_spec(section)

    def make(walked):  # one block of ticks per chunk of rows, made where it is formatted
        return (tick_rows(make_block(spec, walked), slice(None)).encode(),)

    with closing(_in_turn(walk_blocks(spec), chunk_count(spec.length, TICK_FLOATS), make)) as made:
        first = next(made)  # made here, so a bad first block fails before the output is opened
        path = _require(settings, "output")
        _write_pieces(path, framed((rows for rows, in itertools.chain([first], made)),
                                   tuple(s.encode() for s in TICK_CSV)))
    _out(f"simulated ticks={spec.length} seed={spec.seed}\n".encode())
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
        code = run(argv)
        with _failing("write stdout"):  # a closed stdout is an input error here, not at exit
            sys.stdout.flush()
        return code
    except (ConvergenceError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def process_main() -> int:
    """main() for a process of its own: the imported heap is frozen before the command runs.

    A stdout that cannot take its last bytes (a closed pipe), which main()
    reported, is pointed at the null device, so the interpreter's exit
    drops them rather than printing a traceback.
    """
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(process_main())
