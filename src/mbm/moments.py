"""Price statistical moments per window: frequency-based and market-based.

Two averaging conventions coexist:

* frequency: the n-th moment is the plain average of p^n over the window.
* market: the n-th moment is the ratio of the n-th moment of trade value
  to the n-th moment of trade volume, C(t;n)/U(t;n). Its first moment is
  VWAP. The market convention rests on the assumption that p^n and U^n
  series do not correlate inside the window; when they do, market variance
  can go negative. Negative variance is reported with a flag and a
  correlation diagnostic, never clamped.

All expectations use population (1/N) normalization: an expectation here
is a plain average over the window, nothing more.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .ticks import Window, WindowBatch, framed, row_chunks

METHODS = ("frequency", "market")

#: |correlation| above this marks the no-correlation assumption as violated.
DEFAULT_DECORRELATION_THRESHOLD = 0.2


@dataclass(frozen=True, slots=True)
class MomentSet:
    """Raw price moments 1..k for one window, by one averaging method.

    raw_moments[n-1] is the n-th moment. For the market method the
    trade value/volume moments that produced them are kept alongside.
    variance is always raw_moments[1] - mean**2; under the market method it
    may be negative, in which case "negative_variance" appears in flags.
    "non_finite" appears when a moment overflowed to inf or nan.
    """

    method: str
    order: int
    center_time: float
    raw_moments: tuple[float, ...]
    trade_value_moments: tuple[float, ...] | None
    trade_volume_moments: tuple[float, ...] | None
    mean: float
    variance: float
    flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "order": self.order,
            "center_time": self.center_time,
            "raw_moments": list(self.raw_moments),
            "value_moments": None if self.trade_value_moments is None else list(self.trade_value_moments),
            "volume_moments": None if self.trade_volume_moments is None else list(self.trade_volume_moments),
            "mean": self.mean,
            "variance": self.variance,
            "flags": list(self.flags),
        }


@dataclass(frozen=True, slots=True)
class CorrelationDiagnostic:
    """Sample correlation between p^n and U^n inside one window.

    undefined is set (and coefficient reported as 0) when either series is
    constant; flagged when |coefficient| exceeds the threshold.
    """

    order: int
    coefficient: float
    flagged: bool
    undefined: bool = False


# Elements per temporary in the batch kernels: they take a span of windows of
# about this many ticks at a time, which bounds the products of their rows.
_CHUNK_ELEMENTS = 1 << 16


def span_rows(window_len: int) -> int:
    """Rows per span of windows of window_len ticks: _CHUNK_ELEMENTS ticks of rows (one at least)."""
    return max(1, _CHUNK_ELEMENTS // window_len)


def _spans(*batches: WindowBatch):
    """(rows, the span batch of those rows of each batch), covering the batches' rows in order."""
    step = span_rows(batches[0].window_len)
    for lo in range(0, len(batches[0]), step):
        rows = slice(lo, lo + step)
        yield (rows, *(batch[rows] for batch in batches))


def _row_means(block: np.ndarray) -> np.ndarray:
    """np.mean(block, axis=1) without its per-call overhead: the same sum, the same division.

    A row of a view, strided or not, sums exactly like np.mean over one
    window's 1-d array, so batched results equal per-window ones bit for bit.
    """
    return np.add.reduce(block, axis=1) / block.shape[1]


def _power_means(batch: WindowBatch, name: str, orders) -> np.ndarray:
    """(windows, len(orders)) window averages (1/N) sum x_i^n of a tick column, each tick
    raised to each power once (pow is elementwise: the bits of each window's own x ** n)
    and its rows reduced as a view, so no (windows, N) temporary is made."""
    ticks = batch.ticks(name)
    out = np.empty((len(batch), len(orders)))
    for j, n in enumerate(orders):
        out[:, j] = _row_means(batch.rows(ticks ** n))
    return out


def _check_order(n: int, what: str = "moment order"):
    if n < 1:
        raise DataError(f"{what} must be >= 1, got {n}")


def _check_method(method: str):
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {METHODS}")


# json's spelling of the floats that repr writes as nan/inf/-inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: The frame (see ticks.framed) of a JSON array of records as
#: ``json.dumps(records, indent=2) + "\n"`` writes it.
JSON_ARRAY = ("[\n", ",\n", "\n]\n", "[]\n")

#: Flags of a moment set, indexed by negative_variance + 2 * non_finite.
FLAG_SETS = ((), ("negative_variance",), ("non_finite",), ("negative_variance", "non_finite"))

# FLAG_SETS as json.dumps(..., indent=2) writes them inside a record
_JSON_FLAGS = np.array(["[\n" + ",\n".join(f'      "{name}"' for name in names) + "\n    ]"
                        if names else "[]" for names in FLAG_SETS], dtype=object)


def reprs(values: np.ndarray) -> np.ndarray:
    """repr of each float of values, as an object array of the same shape."""
    return np.array(list(map(repr, values.ravel().tolist())), dtype=object).reshape(values.shape)


def json_spelled(text: np.ndarray) -> np.ndarray:
    """A copy of repr strings with nan, inf and -inf spelled as json writes them."""
    text = text.copy()
    for spelled, json_spelling in _JSON_NONFINITE.items():
        text[text == spelled] = json_spelling
    return text


def fill_records(record: str, cells: np.ndarray) -> str:
    """One record per row of cells, ",\n"-joined: the %s slots of record filled from the row.

    json's indenting encoder runs in pure Python; filling a template per
    record gives the same bytes several times faster.
    """
    return ",\n".join([record] * len(cells)) % tuple(cells.ravel().tolist())


@functools.lru_cache
def _json_record(method: str, k: int, trade: bool) -> str:
    """A moment record as json.dumps(..., indent=2) writes it, a %s slot for each value;
    trade: with value and volume moments. method is one of METHODS, which json writes
    as it is, in quotes."""
    _check_method(method)

    def items(n_values: int) -> str:
        return "[\n" + ",\n".join(["      %s"] * n_values) + "\n    ]"

    return (
        '  {\n    "method": "' + method + '",\n    "order": ' + str(k)
        + ',\n    "center_time": %s,\n    "raw_moments": ' + items(k)
        + ',\n    "value_moments": ' + (items(k) if trade else "null")
        + ',\n    "volume_moments": ' + (items(k) if trade else "null")
        + ',\n    "mean": %s,\n    "variance": %s,\n    "flags": %s\n  }'
    )


@dataclass(frozen=True, slots=True)
class MomentTable:
    """Moment sets of every window of a batch, as arrays; row i is window i.

    Columns match MomentSet: raw_moments[:, n-1] is the n-th moment, the
    trade value/volume moments are kept for the market method, and
    negative_variance and non_finite mark the rows whose set carries that flag.
    """

    method: str
    order: int
    center_time: np.ndarray
    raw_moments: np.ndarray
    trade_value_moments: np.ndarray | None
    trade_volume_moments: np.ndarray | None
    variance: np.ndarray
    negative_variance: np.ndarray
    non_finite: np.ndarray

    def __len__(self):
        return len(self.center_time)

    @property
    def mean(self) -> np.ndarray:
        return self.raw_moments[:, 0]

    def flag_codes(self, rows: slice) -> list[int]:
        """Per row in rows, the index into FLAG_SETS of that row's flags."""
        return (self.negative_variance[rows] + 2 * self.non_finite[rows]).tolist()

    def moment_set(self, i: int) -> MomentSet:
        def row(a):
            return None if a is None else tuple(a[i].tolist())

        raw = row(self.raw_moments)
        return MomentSet(
            method=self.method,
            order=self.order,
            center_time=float(self.center_time[i]),
            raw_moments=raw,
            trade_value_moments=row(self.trade_value_moments),
            trade_volume_moments=row(self.trade_volume_moments),
            mean=raw[0],
            variance=float(self.variance[i]),
            flags=FLAG_SETS[int(self.negative_variance[i]) + 2 * int(self.non_finite[i])],
        )

    @property
    def row_floats(self) -> int:
        """Floats per row of value_text."""
        return 2 + self.order * (1 if self.trade_value_moments is None else 3)

    def value_text(self, rows: slice) -> np.ndarray:
        """repr of each float the outputs write for the rows, once, as a (rows, columns)
        object array: center_time, raw moments, [trade value, volume moments,] variance
        (the mean is the first raw moment). JSON, stdout and --strict messages share it."""
        columns = [self.center_time[rows, None], self.raw_moments[rows]]
        if self.trade_value_moments is not None:
            columns += [self.trade_value_moments[rows], self.trade_volume_moments[rows]]
        return reprs(np.hstack(columns + [self.variance[rows, None]]))

    def json_records(self, rows: slice, text: np.ndarray) -> str:
        """The JSON records of the rows, ",\n"-joined; text is their value_text(rows)."""
        record = _json_record(self.method, self.order, self.trade_value_moments is not None)
        if self.non_finite[rows].any() or not np.isfinite(self.center_time[rows]).all():
            text = json_spelled(text)
        flags = _JSON_FLAGS[self.negative_variance[rows] + 2 * self.non_finite[rows], None]
        # per record: center_time and the moments, then the mean, variance and flags
        return fill_records(record, np.hstack([text[:, :-1], text[:, 1:2], text[:, -1:], flags]))

    def to_json_text(self) -> str:
        """``json.dumps([set.to_json_dict() ...], indent=2) + "\n"``, from the arrays.

        The text is the join of the chunks that ``mbm moments`` writes.
        """
        parts = (self.json_records(rows, self.value_text(rows))
                 for rows in row_chunks(len(self), self.row_floats))
        return "".join(framed(parts, JSON_ARRAY))


def batch_moments(batch: WindowBatch, k: int, method: str) -> MomentTable:
    """Raw moments 1..k of every window in the batch, with diagnostics.

    The batched form of compute_moment_set: row i equals
    compute_moment_set(window i, k, method) bit for bit.
    """
    if k < 2:
        raise DataError(f"moment set order must be >= 2, got {k}")
    _check_method(method)

    orders = range(1, k + 1)
    value_moms = volume_moms = None
    # overflowing powers are flagged non_finite below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method == "frequency":
            raw = _power_means(batch, "price", orders)
        else:
            value_moms = _power_means(batch, "value", orders)
            volume_moms = _power_means(batch, "volume", orders)
            raw = value_moms / volume_moms
        mean = raw[:, 0]
        variance = raw[:, 1] - mean * mean
        negative = variance < 0.0
        if method == "frequency":
            # rounding noise on a (near-)constant window; true value is >= 0
            noise = negative & np.isfinite(variance) & (
                np.abs(variance) <= 64.0 * np.finfo(float).eps * mean * mean)
            variance[noise] = 0.0
            negative &= ~noise
    computed = [raw, variance[:, None]] + ([] if value_moms is None else [value_moms, volume_moms])
    # each array checked on its own: no (windows, columns) copy of them all
    non_finite = ~np.logical_and.reduce([np.isfinite(a).all(axis=1) for a in computed])
    return MomentTable(method, k, batch.center_time, raw, value_moms, volume_moms,
                       variance, negative, non_finite)


def batch_decorrelation(
    batch: WindowBatch, n: int, threshold: float = DEFAULT_DECORRELATION_THRESHOLD
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coefficient, flagged, undefined): decorrelation_diagnostic of every window, as arrays."""
    _check_order(n, "diagnostic order")
    if batch.window_len < 2:
        raise DataError("decorrelation diagnostic needs at least 2 ticks")
    coef = np.empty(len(batch))
    flagged = np.empty(len(batch), dtype=bool)
    undefined = np.empty(len(batch), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for sl, span in _spans(batch):
            a, b = (span.rows(span.ticks(name) ** n) for name in ("price", "volume"))
            da = a - _row_means(a)[:, None]
            db = b - _row_means(b)[:, None]
            sa = np.sqrt(_row_means(da * da))
            sb = np.sqrt(_row_means(db * db))
            c = _row_means(da * db) / (sa * sb)
            u = (sa == 0.0) | (sb == 0.0)
            # a NaN coefficient (overflowing powers) clips to -1, so it is flagged, not hidden
            c = np.where(u, 0.0, np.clip(np.where(np.isnan(c), -1.0, c), -1.0, 1.0))
            coef[sl], flagged[sl], undefined[sl] = c, ~u & (np.abs(c) > threshold), u
    return coef, flagged, undefined


def batch_vwap(batch: WindowBatch) -> np.ndarray:
    """VWAP of every window; equal bit for bit to the market first moment."""
    return _power_means(batch, "value", (1,))[:, 0] / _power_means(batch, "volume", (1,))[:, 0]


def _paired_autocorrelation(first: WindowBatch, second: WindowBatch, method: str) -> np.ndarray:
    """price_autocorrelation of row i of first with row i of second, for every i."""
    if first.window_len < 2:
        raise DataError("autocorrelation needs at least 2 ticks per window")
    # an overflow is reported below, naming the window, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method == "frequency":
            out = np.empty(len(first))
            for sl, a, b in _spans(first, second):
                out[sl] = _row_means((a.price - _row_means(a.price)[:, None])
                                     * (b.price - _row_means(b.price)[:, None]))
        else:
            cross = np.empty((len(first), 2))
            for sl, a, b in _spans(first, second):
                cross[sl, 0] = _row_means(a.value * b.value)
                cross[sl, 1] = _row_means(a.volume * b.volume)
            out = cross[:, 0] / cross[:, 1] - batch_vwap(first) * batch_vwap(second)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"window {i}: {method} price autocorrelation {float(out[i])!r} "
                          "is not finite")
    return out


def batch_autocorrelation(batch: WindowBatch, lag: int, method: str) -> np.ndarray:
    """price_autocorrelation of window i with window i + lag, for every i."""
    _check_method(method)
    if lag < 0:
        raise DataError(f"lag must be >= 0, got {lag}")
    pairs = max(0, len(batch) - lag)
    return _paired_autocorrelation(batch[:pairs], batch[lag:lag + pairs], method)


def freq_moment(window: Window, n: int) -> float:
    """Frequency-based n-th price moment: (1/N) sum p_i^n."""
    _check_order(n)
    return float(_power_means(window.batch(), "price", (n,))[0, 0])


def trade_moments(window: Window, n: int) -> tuple[float, float]:
    """n-th moments of trade value and volume: ((1/N) sum C_i^n, (1/N) sum U_i^n)."""
    _check_order(n)
    batch = window.batch()
    return (float(_power_means(batch, "value", (n,))[0, 0]),
            float(_power_means(batch, "volume", (n,))[0, 0]))


def market_price_moment(window: Window, n: int) -> float:
    """Market-based n-th price moment: C(t;n) / U(t;n).

    A convex combination of p_i^n with weights U_i^n, so it always lies in
    [min p_i^n, max p_i^n]. Volumes are positive, so the denominator is too.
    """
    c_n, u_n = trade_moments(window, n)
    return c_n / u_n


def vwap(window: Window) -> float:
    """Volume weighted average price; identical to the market first moment."""
    return float(batch_vwap(window.batch())[0])


def compute_moment_set(window: Window, k: int, method: str) -> MomentSet:
    """Compute raw moments 1..k by the chosen method, with diagnostics.

    Market variance may legitimately come out negative when the price/volume
    no-correlation assumption fails; the set is then flagged, never adjusted.
    """
    return batch_moments(window.batch(), k, method).moment_set(0)


def decorrelation_diagnostic(
    window: Window, n: int, threshold: float = DEFAULT_DECORRELATION_THRESHOLD
) -> CorrelationDiagnostic:
    """Sample correlation between p^n and U^n over the window.

    This probes the assumption that makes market moments factorize; a large
    |coefficient| means market and frequency moments will disagree and the
    market variance may misbehave.
    """
    coef, flagged, undefined = batch_decorrelation(window.batch(), n, threshold)
    return CorrelationDiagnostic(order=n, coefficient=float(coef[0]), flagged=bool(flagged[0]),
                                 undefined=bool(undefined[0]))


def price_autocorrelation(window1: Window, window2: Window, method: str) -> float:
    """Covariance of prices across two equal-length windows, tick i with tick i.

    frequency: (1/N) sum (p1_i - mean1)(p2_i - mean2) with frequency means.
    market: E[C1*C2]/E[U1*U2] - vwap1*vwap2, the cross-window extension of
    the market moment construction. Applied to one window twice, either
    method reproduces that method's variance.
    """
    _check_method(method)
    if len(window1) != len(window2):
        raise DataError(
            f"windows must have equal tick counts, got {len(window1)} and {len(window2)}"
        )
    return float(_paired_autocorrelation(window1.batch(), window2.batch(), method)[0])


def payoff_autocorrelation(dev12, dev2) -> float:
    """Average product of paired payoff deviations: (1/N) sum d12_i * d2_i.

    Inputs must already be centered; a sample mean beyond 1e-9 of the
    deviation scale is rejected rather than silently re-centered.
    """
    d12 = np.asarray(dev12, dtype=float)
    d2 = np.asarray(dev2, dtype=float)
    if d12.shape != d2.shape or d12.ndim != 1:
        raise DataError("deviation sequences must be 1-d and of equal length")
    if d12.size < 2:
        raise DataError("payoff autocorrelation needs at least 2 pairs")
    for name, d in (("first", d12), ("second", d2)):
        scale = max(1.0, float(np.max(np.abs(d))) if d.size else 1.0)
        if abs(float(np.mean(d))) > 1e-9 * scale:
            raise DataError(f"{name} deviation sequence is not centered (mean {np.mean(d):g})")
    return float(np.mean(d12 * d2))
