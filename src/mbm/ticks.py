"""Trade tick time-series: parsing, validation, and windowing.

A trade tick is the atom of everything downstream: (time, price, volume,
value) with the identity value = price * volume enforced on ingestion.
A TickSeries holds its ticks as four read-only float64 columns, built by
its one constructor and validated there in one vectorized pass. Windows
are defined by tick COUNT, not wall-clock span; all averaging operators
downstream treat a window as one averaging interval. A Window is a
(series, start, stop) view of the columns, and a WindowBatch lays
equal-length windows out as the rows of 2-D column views so that moment
kernels can process them all at once. TradeTick is a plain record that
window_from_ticks reads into a series.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

# Relative tolerance for the value = price * volume identity.
VALUE_IDENTITY_RTOL = 1e-9

# Messages of the tick rules, in the order _check_columns checks them; a
# tick breaking several rules reports the first. {0}..{4}: time, price,
# volume, value, price*volume.
_RULE_MESSAGES = (
    "time {0} is not finite",
    "negative time {0}",
    "price must be positive and finite, got {1}",
    "volume must be positive and finite, got {2}",
    "value {3} is not finite",
    "value {3} violates price*volume={4} beyond relative " f"{VALUE_IDENTITY_RTOL:g}",
)

# A decimal number as written in tick-CSV: no inf/nan, no underscores, no hex.
_DECIMAL = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*")
_DECIMAL_BYTES = b"0123456789.eE+-, \t\r\n"


def _check_columns(time, price, volume, value, where) -> None:
    """Raise DataError for the first tick that breaks a rule or goes back in time.

    where(i) names tick i in the message (a CSV line, a tick index).
    """
    with np.errstate(invalid="ignore", over="ignore"):
        expected = price * volume
        passed = (
            np.isfinite(time),
            time >= 0.0,
            (price > 0.0) & np.isfinite(price),
            (volume > 0.0) & np.isfinite(volume),
            np.isfinite(value),
            # an overflowing price*volume fails: |value - inf| <= inf would pass
            np.isfinite(expected)
            & (np.abs(value - expected) <= VALUE_IDENTITY_RTOL * np.abs(expected)),
        )
    good = np.logical_and.reduce(passed)
    ordered = time[1:] >= time[:-1]
    if good.all() and ordered.all():
        return
    i = int(np.argmin(good)) if not good.all() else len(time)
    j = int(np.argmin(ordered)) + 1 if not ordered.all() else len(time)
    if i <= j:
        rule = next(r for r, ok in enumerate(passed) if not ok[i])
        fields = (float(c[i]) for c in (time, price, volume, value, expected))
        raise DataError(f"{where(i)}: {_RULE_MESSAGES[rule].format(*fields)}")
    raise DataError(
        f"{where(j)}: time {float(time[j])} decreases from previous {float(time[j - 1])} "
        "(tick times must be non-decreasing)"
    )


# TradeTick, window_from_ticks and partition_windows stay because the
# benchmark in perfbench/ calls them; the package itself works on columns.
class TradeTick(NamedTuple):
    """One market trade as a plain record; window_from_ticks checks it through TickSeries."""

    time: float
    price: float
    volume: float
    value: float


_TICK_FIELDS = TradeTick._fields


def _frozen_column(values) -> np.ndarray:
    col = np.array(values, dtype=float)
    col.setflags(write=False)
    return col


class TickSeries:
    """Ordered trade ticks as read-only float64 columns, with an optional regular spacing.

    The columns are equal-length 1-d arrays; value defaults to
    price*volume. Every tick is checked in one vectorized pass, and where(i)
    names the offending tick in the DataError message. tick_spacing is the
    minimal time division of the series; it is inferred on parse when all
    consecutive time differences agree, else left None.
    """

    __slots__ = ("time", "price", "volume", "value", "tick_spacing")

    def __init__(self, time, price, volume, value=None, tick_spacing: float | None = None,
                 *, where=lambda i: f"tick {i}"):
        if value is None:
            with np.errstate(over="ignore"):  # an overflowing product fails _check_columns
                value = np.multiply(price, volume)
        columns = [_frozen_column(c) for c in (time, price, volume, value)]
        if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
            raise DataError("tick columns must be 1-d and of equal length")
        _check_columns(*columns, where)
        self.time, self.price, self.volume, self.value = columns
        self.tick_spacing = tick_spacing

    def __len__(self):
        return len(self.time)

    def __eq__(self, other):
        if not isinstance(other, TickSeries):
            return NotImplemented
        return self.tick_spacing == other.tick_spacing and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in _TICK_FIELDS
        )

    __hash__ = None

    def __repr__(self):
        return f"TickSeries(<{len(self)} ticks>, tick_spacing={self.tick_spacing!r})"


def _median_times(time: np.ndarray, starts, window_len: int):
    """Median tick time of each window [start, start + window_len); starts is an index or an array."""
    mid = window_len // 2
    if window_len % 2 == 1:
        return time[starts + mid]
    return 0.5 * (time[starts + mid - 1] + time[starts + mid])


@dataclass(frozen=True, slots=True)
class WindowBatch:
    """Equal-length windows as (windows, N) read-only views of the tick columns.

    Row i of price/volume/value holds the ticks of window i; center_time[i]
    is its median tick time. Moment kernels take a batch and return one
    result per row. rows(x) lays out a per-tick array x, such as
    ticks("price") ** n, as these rows, so an elementwise step runs once per
    tick. A batch built by hand from its rows alone (no series) is its own
    columns, with rows the identity.
    """

    center_time: np.ndarray
    price: np.ndarray
    volume: np.ndarray
    value: np.ndarray
    series: TickSeries | None = None
    rows: Callable[[np.ndarray], np.ndarray] = np.asarray

    def __len__(self):
        return len(self.center_time)

    def __getitem__(self, sl: slice) -> WindowBatch:
        """The windows in a slice of rows, as a batch of views."""
        rows = self.rows if self.series is None else (lambda x: self.rows(x)[sl])
        return WindowBatch(self.center_time[sl], self.price[sl], self.volume[sl],
                           self.value[sl], self.series, rows)

    def ticks(self, name: str) -> np.ndarray:
        """The per-tick column that rows() lays out as the price, volume or value rows."""
        return getattr(self if self.series is None else self.series, name)

    @property
    def window_len(self) -> int:
        return self.price.shape[1]


@dataclass(frozen=True, slots=True)
class Window:
    """A contiguous run of ticks [start, stop) of a series, forming one averaging interval."""

    series: TickSeries
    start: int
    stop: int

    def __post_init__(self):
        if not 0 <= self.start < self.stop <= len(self.series):
            raise DataError("window must contain at least one tick")

    def __len__(self):
        return self.stop - self.start

    @property
    def center_time(self) -> float:
        """Median tick time."""
        return float(_median_times(self.series.time, self.start, len(self)))

    def batch(self) -> WindowBatch:
        """This window as a one-row WindowBatch."""
        s, rows = self.series, lambda column: column[None, self.start:self.stop]
        return WindowBatch(np.array([self.center_time]), rows(s.price), rows(s.volume),
                           rows(s.value), s, rows)


def window_from_ticks(ticks) -> Window:
    """Build a Window over exactly these TradeTick records; its center is the median tick time."""
    series = TickSeries(*np.array(list(ticks), dtype=float).reshape(-1, 4).T)
    return Window(series, 0, len(series))


def parse_ticks(text: str) -> TickSeries:
    """Parse tick-CSV into a TickSeries.

    Expected header is ``time,price,volume`` or ``time,price,volume,value``.
    When the value column is absent it is computed as price*volume; when
    present it is validated against that identity (relative 1e-9).
    Fields must be finite decimal numbers (no inf/nan, underscores or hex).
    Raises DataError with the offending line number on any malformed row,
    non-finite or non-positive price/volume, identity violation, or
    decreasing times.
    """
    if not text:
        raise DataError("empty input: missing header")
    first, _, body = text.partition("\n")
    header = [h.strip().lower() for h in next(csv.reader([first]), [])]
    if header == ["time", "price", "volume"]:
        ncols = 3
    elif header == ["time", "price", "volume", "value"]:
        ncols = 4
    else:
        raise DataError(
            "line 1: header must be 'time,price,volume' or 'time,price,volume,value', "
            f"got {','.join(header)!r}"
        )

    data = _parse_body(body, ncols)
    series = TickSeries(*(data[:, j] for j in range(ncols)),
                        where=lambda i: f"line {_data_line_numbers(body)[i]}")
    series.tick_spacing = _infer_spacing(series.time)
    return series


def _data_rows(body: str):
    """(line number, fields) of each non-blank CSV row after the header."""
    for lineno, row in enumerate(csv.reader(io.StringIO(body)), start=2):
        if row and (len(row) > 1 or row[0].strip()):
            yield lineno, row


def _data_line_numbers(body: str) -> list[int]:
    return [lineno for lineno, _ in _data_rows(body)]


def _parse_body(body: str, ncols: int) -> np.ndarray:
    """(rows, ncols) floats of the data rows.

    numpy's C reader takes bodies that hold nothing but decimal numbers;
    anything else is read row by row, which names the first bad line.
    """
    if not body.encode().translate(None, _DECIMAL_BYTES) and body.strip():
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
        if data is not None and data.shape[1] == ncols:
            return data

    rows = []
    for lineno, row in _data_rows(body):
        if len(row) != ncols:
            raise DataError(f"line {lineno}: expected {ncols} fields, got {len(row)}")
        for field in row:
            if not _DECIMAL.fullmatch(field):
                raise DataError(f"line {lineno}: non-numeric field {field!r}; "
                                "expected a finite decimal number")
        rows.append([float(f) for f in row])
    return np.array(rows, dtype=float).reshape(-1, ncols)


def _infer_spacing(time: np.ndarray) -> float | None:
    if len(time) < 2:
        return None
    diffs = np.diff(time)
    first = diffs[0]
    if not first > 0.0:
        return None
    if np.any(np.abs(diffs - first) > 1e-9 * np.maximum(abs(first), np.abs(diffs))):
        return None
    return float(first)


def render_ticks(series: TickSeries) -> str:
    """Render a TickSeries back to tick-CSV.

    Floats are written with repr (shortest round-trip form), so
    parse_ticks(render_ticks(s)) reproduces s bit-exactly.
    """
    rows = np.column_stack([series.time, series.price, series.volume, series.value])
    return "time,price,volume,value\n" + "%r,%r,%r,%r\n" * len(series) % tuple(rows.ravel().tolist())


def _window_starts(series: TickSeries, window_len: int, mode: str) -> np.ndarray:
    """First tick index of each window, after checking the windowing request."""
    if window_len < 1:
        raise DataError(f"window length must be >= 1, got {window_len}")
    n = len(series)
    if n == 0:
        raise DataError("cannot window an empty series")
    if window_len > n:
        raise DataError(f"window length {window_len} exceeds series length {n}")
    if mode == "disjoint":
        return np.arange(n // window_len) * window_len
    if mode == "sliding":
        return np.arange(n - window_len + 1)
    raise DataError(f"unknown windowing mode {mode!r}")


def partition_windows(series: TickSeries, window_len: int, mode: str = "disjoint") -> list[Window]:
    """Split a series into count-based windows.

    disjoint: floor(len/N) consecutive non-overlapping windows (a trailing
    remainder shorter than N is dropped). sliding: len-N+1 windows stepping
    one tick at a time. Window centers are median tick times.
    """
    starts = _window_starts(series, window_len, mode)
    return [Window(series, start, start + window_len) for start in starts.tolist()]


def window_batch(series: TickSeries, window_len: int, mode: str = "disjoint") -> WindowBatch:
    """The windows of partition_windows(series, window_len, mode) as one WindowBatch.

    Disjoint windows reshape the columns, sliding ones are strided views;
    nothing is copied.
    """
    starts = _window_starts(series, window_len, mode)

    def rows(column: np.ndarray) -> np.ndarray:
        if mode == "disjoint":
            return column[:len(starts) * window_len].reshape(len(starts), window_len)
        return sliding_window_view(column, window_len)

    return WindowBatch(_median_times(series.time, starts, window_len),
                       rows(series.price), rows(series.volume), rows(series.value), series, rows)
