"""Batched window kernels against an independent per-window numpy reference.

The reference below is the per-window arithmetic written out on 1-d arrays
(np.mean(c**n) and friends). The batched kernels must reproduce it bit for
bit, across window lengths, orders, methods, windowing modes and chunk
boundaries.
"""

import contextlib
import io
import itertools
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbm.ticks
from mbm import moments
from mbm.cli import main
from mbm.moments import (
    batch_autocorrelation,
    batch_decorrelation,
    batch_moments,
    batch_vwap,
)
from mbm.ticks import TickSeries, partition_windows, render_ticks, window_batch

THRESHOLD = 0.2


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_bitwise(got, want):
    assert np.array_equal(bits(got), bits(want))


def reference_moments(p, u, c, k, method):
    """(raw, value, volume, variance, flagged) of one window, per-window numpy."""
    value = volume = None
    if method == "frequency":
        raw = [float(np.mean(p ** n)) for n in range(1, k + 1)]
    else:
        value = [float(np.mean(c ** n)) for n in range(1, k + 1)]
        volume = [float(np.mean(u ** n)) for n in range(1, k + 1)]
        raw = [cv / uv for cv, uv in zip(value, volume)]
    mean = raw[0]
    variance = raw[1] - mean * mean
    flagged = False
    if variance < 0.0:
        if abs(variance) <= 64.0 * np.finfo(float).eps * mean * mean:
            variance = 0.0
        else:
            flagged = True
    return raw, value, volume, variance, flagged


def reference_decorrelation(p, u, n):
    a, b = p ** n, u ** n
    da, db = a - a.mean(), b - b.mean()
    sa = float(np.sqrt(np.mean(da * da)))
    sb = float(np.sqrt(np.mean(db * db)))
    if sa == 0.0 or sb == 0.0:
        return 0.0, False, True
    coef = min(1.0, max(-1.0, float(np.mean(da * db)) / (sa * sb)))
    return coef, abs(coef) > THRESHOLD, False


def reference_autocorrelation(w1, w2, method):
    (p1, u1, c1), (p2, u2, c2) = w1, w2
    if method == "frequency":
        return float(np.mean((p1 - p1.mean()) * (p2 - p2.mean())))
    vwap1 = float(np.mean(c1)) / float(np.mean(u1))
    vwap2 = float(np.mean(c2)) / float(np.mean(u2))
    out = float(np.mean(c1 * c2)) / float(np.mean(u1 * u2)) - vwap1 * vwap2
    if out < 0.0 and abs(out) <= 64.0 * np.finfo(float).eps * vwap1 * vwap2:
        return 0.0  # the variance's rounding-noise rule, as for the market variance
    return out


def make_series(seed, n_ticks, discrete):
    rng = np.random.default_rng(seed)
    if discrete:  # repeated values: constant windows, undefined correlations
        price = rng.choice([9.5, 10.0, 10.5], size=n_ticks)
        volume = rng.choice([1.0, 2.0], size=n_ticks)
    else:
        price = rng.uniform(0.5, 50.0, size=n_ticks)
        volume = 10.0 * np.exp(rng.standard_normal(n_ticks))
    return TickSeries(np.arange(n_ticks, dtype=float), price, volume)


def check_against_reference(series, window_len, mode, k, method, lag, corr_order):
    batch = window_batch(series, window_len, mode)
    step = window_len if mode == "disjoint" else 1
    windows = [
        tuple(col[i * step:i * step + window_len] for col in (series.price, series.volume, series.value))
        for i in range(len(batch))
    ]

    table = batch_moments(batch, k, method)
    ref = [reference_moments(p, u, c, k, method) for p, u, c in windows]
    assert_bitwise(table.raw_moments, [r[0] for r in ref])
    if method == "market":
        assert_bitwise(table.trade_value_moments, [r[1] for r in ref])
        assert_bitwise(table.trade_volume_moments, [r[2] for r in ref])
        assert_bitwise(batch_vwap(batch), table.raw_moments[:, 0])
    else:
        assert table.trade_value_moments is None and table.trade_volume_moments is None
    assert_bitwise(table.variance, [r[3] for r in ref])
    assert table.negative_variance.tolist() == [r[4] for r in ref]
    assert_bitwise(batch_vwap(batch), [float(np.mean(c)) / float(np.mean(u)) for _, u, c in windows])

    if window_len >= 2:
        coef, flagged, undefined = batch_decorrelation(batch, corr_order, THRESHOLD)
        ref = [reference_decorrelation(p, u, corr_order) for p, u, _ in windows]
        assert_bitwise(coef, [r[0] for r in ref])
        assert flagged.tolist() == [r[1] for r in ref]
        assert undefined.tolist() == [r[2] for r in ref]
        if lag < len(batch):
            got = batch_autocorrelation(batch, lag, method)
            want = [reference_autocorrelation(windows[i], windows[i + lag], method)
                    for i in range(len(batch) - lag)]
            assert_bitwise(got, want)


@settings(max_examples=150, deadline=None)
@given(
    # 8/9, 128/129 and 257 straddle the block edges of numpy's pairwise sum
    window_len=st.sampled_from([1, 2, 7, 8, 9, 100, 128, 129, 257]),
    k=st.integers(2, 6),
    method=st.sampled_from(["frequency", "market"]),
    mode=st.sampled_from(["disjoint", "sliding"]),
    n_windows=st.integers(1, 40),
    extra=st.integers(0, 99),
    chunk_rows=st.sampled_from([1, 3, 7, None]),
    discrete=st.booleans(),
    lag=st.integers(0, 3),
    corr_order=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_kernels_equal_per_window_reference_bitwise(
    window_len, k, method, mode, n_windows, extra, chunk_rows, discrete, lag, corr_order, seed
):
    if mode == "disjoint":
        n_ticks = n_windows * window_len + extra % window_len
    else:
        n_ticks = n_windows + window_len - 1
    series = make_series(seed, n_ticks, discrete)
    # small chunks put chunk boundaries inside the batch; None keeps the default
    chunk = mbm.ticks.BLOCK if chunk_rows is None else chunk_rows * window_len
    with mock.patch.object(mbm.ticks, "BLOCK", chunk):
        check_against_reference(series, window_len, mode, k, method, lag, corr_order)


@pytest.mark.parametrize("method", ["frequency", "market"])
def test_batched_kernels_cross_default_chunk_boundaries(method):
    window_len = 1000  # long windows keep the default chunk to a few rows
    rows_per_chunk = mbm.ticks.BLOCK // window_len
    series = make_series(7, 2 * rows_per_chunk + 150 + window_len - 1, discrete=False)
    check_against_reference(series, window_len, "sliding", 4, method, 1, 2)


def moments_file_text(tmp_path, series: TickSeries, window: int, method: str) -> str:
    """The JSON file of ``mbm moments`` at order 4 over a series' disjoint windows."""
    ticks, out = tmp_path / "ticks.csv", tmp_path / "m.json"
    ticks.write_text(render_ticks(series), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["moments", "--input", str(ticks), "--window", str(window), "--order", "4",
                     "--method", method, "--output", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def json_dumps_text(table) -> str:
    return json.dumps([table.moment_set(i).to_json_dict() for i in range(len(table))],
                      indent=2) + "\n"


def test_moment_json_text_matches_json_dumps_with_non_finite_values(tmp_path):
    # prices near 1e80: c**4 and u**4 overflow, so moments come out inf/nan
    price = [10.0, 1.0, 12.0, 1e80, 2e80, 3e80, 1e80, 3e80, 2e80, 5.0, 5.0, 5.0]
    volume = [1.0, 10.0, 2.0, 1.0, 2.0, 1.0, 1e80, 1e80, 2e80, 1.0, 2.0, 3.0]
    series = TickSeries(np.arange(12.0), price, volume)
    for method in ("frequency", "market"):
        with np.errstate(over="ignore", invalid="ignore"):
            table = batch_moments(window_batch(series, 3, "disjoint"), 4, method)
        text = moments_file_text(tmp_path, series, 3, method)
        assert text == json_dumps_text(table)
        assert "Infinity" in text
    assert "NaN" in text and "negative_variance" in text


def test_moment_json_text_writes_every_flag_combination(tmp_path):
    # windows: plain, negative variance, overflowing, both (values near 1e78)
    price = [10.0, 11.0, 10.0, 1.0, 1e160, 3e160, 1e78, 1e77]
    volume = [1.0, 2.0, 1.0, 10.0, 1.0, 2.0, 1.0, 10.0]
    series = TickSeries(np.arange(8.0), price, volume)
    table = batch_moments(window_batch(series, 2, "disjoint"), 4, "market")
    flags = [table.moment_set(i).flags for i in range(len(table))]
    assert flags == [(), ("negative_variance",), ("non_finite",), ("negative_variance", "non_finite")]
    assert moments_file_text(tmp_path, series, 2, "market") == json_dumps_text(table)


def assert_same_flags(got, want):
    assert got.negative_variance.tolist() == want.negative_variance.tolist()
    assert got.non_finite.tolist() == want.non_finite.tolist()


def assert_same_kernel_bits(got, want):
    """Every batch kernel gives the same bits on batch got as on batch want."""
    for method in ("frequency", "market"):
        g, w = batch_moments(got, 2, method), batch_moments(want, 2, method)
        for name in ("center_time", "raw_moments", "variance"):
            assert_bitwise(getattr(g, name), getattr(w, name))
        assert_same_flags(g, w)
        if got.window_len >= 2:
            assert_bitwise(batch_autocorrelation(got, 0, method),
                           batch_autocorrelation(want, 0, method))
    assert_bitwise(batch_vwap(got), batch_vwap(want))
    if got.window_len >= 2:
        for g, w in zip(batch_decorrelation(got, 2, THRESHOLD),
                        batch_decorrelation(want, 2, THRESHOLD)):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("mode", ["disjoint", "sliding"])
def test_sliced_batches_equal_fresh_batches_of_the_same_rows(mode):
    # a batch from window_batch, sliced once and twice, against window_batch of
    # a fresh series that holds only the ticks of those rows
    series = make_series(11, 40, discrete=False)
    full = window_batch(series, 4, mode)
    step = 4 if mode == "disjoint" else 1
    for lo, sliced in ((1, full[1:4]), (2, full[2:][:3])):
        ticks = slice(lo * step, (lo + 2) * step + 4)  # the ticks of rows lo..lo + 2
        fresh = window_batch(TickSeries(*(getattr(series, c)[ticks]
                                          for c in ("time", "price", "volume", "value"))), 4, mode)
        assert sliced.series is series and len(sliced) == len(fresh) == 3
        for name in ("center_time", "price", "volume", "value"):
            assert_bitwise(getattr(sliced, name), getattr(fresh, name))
        assert_same_kernel_bits(sliced, fresh)
        for method in ("frequency", "market"):
            assert_bitwise(batch_autocorrelation(sliced, 1, method),
                           batch_autocorrelation(fresh, 1, method))


@settings(max_examples=100, deadline=None)
@given(n_ticks=st.integers(1, 40), data=st.data(), discrete=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_window_batch_is_the_sliding_batch_row_of_that_window(n_ticks, data, discrete, seed):
    series = make_series(seed, n_ticks, discrete)
    a = data.draw(st.integers(0, n_ticks - 1))
    b = data.draw(st.integers(a + 1, n_ticks))
    got = partition_windows(series, b - a, "sliding")[a]
    want = window_batch(series, b - a, "sliding")[a:a + 1]
    assert got == want and got.series is want.series is series
    assert (got.first, got.count, got.window_len, got.step) == (a, 1, b - a, 1)
    for name in ("center_time", "price", "volume", "value"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    assert_same_kernel_bits(got, want)


@pytest.mark.parametrize("method", ["frequency", "market"])
def test_non_finite_flags_equal_the_whole_table_check(monkeypatch, method):
    # each window power mean in turn replaced by inf, -inf, nan, 0 or 1e300: an
    # inf or nan lands in the raw moments alone (p**4 inf; U**4 mean 0), in the
    # variance alone (a mean whose square overflows) or in the volume moments
    # alone (U**4 mean inf, so C/U is 0). A value moment is never non-finite
    # alone, since the raw moment C/U then is too.
    k, windows = 4, 3
    batch = window_batch(make_series(5, windows + 1, discrete=False), 2, "sliding")
    power_means = moments._power_means
    names = ("price",) if method == "frequency" else ("value", "volume")
    alone, kept = set(), set()
    for name, row, col, special in itertools.product(names, range(windows), range(k),
                                                     (np.inf, -np.inf, np.nan, 0.0, 1e300)):
        def injected(batch, which, orders):
            out = power_means(batch, which, orders)
            if which == name:
                out[row, col] = special
            return out

        monkeypatch.setattr(moments, "_power_means", injected)
        with warnings.catch_warnings():  # the kernel warns about nothing it computes
            warnings.simplefilter("error", RuntimeWarning)
            table = batch_moments(batch, k, method)
        with np.errstate(over="ignore", invalid="ignore"):
            # the variance before frequency rounding noise is zeroed
            variance = table.raw_moments[:, 1] - table.mean * table.mean
        arrays = {"raw": table.raw_moments, "variance": variance[:, None]}
        if method == "market":
            arrays.update(value=table.trade_value_moments, volume=table.trade_volume_moments)
        whole = ~np.isfinite(np.hstack(list(arrays.values()))).all(axis=1)
        assert table.non_finite.tolist() == whole.tolist()
        # only a finite variance is ever zeroed as rounding noise; -inf stays -inf
        unusable = ~np.isfinite(variance)
        assert_bitwise(table.variance[unusable], variance[unusable])
        assert table.negative_variance.tolist() == (
            (variance < 0) & (unusable | (table.variance != 0.0))).tolist()
        kept.update(variance[unusable].tolist())
        bad = [a for a, values in arrays.items() if not np.isfinite(values[row]).all()]
        alone.update(bad if len(bad) == 1 else ())
    assert alone == ({"raw", "variance"} if method == "frequency" else {"raw", "variance", "volume"})
    assert -np.inf in kept


@settings(max_examples=150, deadline=None)
@given(
    window_len=st.sampled_from([1, 2, 3, 7, 8, 9, 16]),
    k=st.integers(2, 5),
    method=st.sampled_from(["frequency", "market"]),
    mode=st.sampled_from(["disjoint", "sliding"]),
    n_windows=st.integers(1, 60),
    extra=st.integers(0, 99),
    data=st.data(),
    prices=st.sampled_from(["uniform", "discrete", "huge"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_batches_equal_the_whole_batch_rows_bitwise(
    window_len, k, method, mode, n_windows, extra, data, prices, seed
):
    if mode == "disjoint":
        n_ticks = n_windows * window_len + extra % window_len
    else:
        n_ticks = n_windows + window_len - 1
    series = make_series(seed, n_ticks, prices == "discrete")
    if prices == "huge":  # powers overflow in some windows: non_finite rows
        price = series.price.copy()
        price[::5] *= 1e80
        series = TickSeries(series.time, price, series.volume)
    whole = window_batch(series, window_len, mode)
    # spans of 1, N-1, N and N+1 rows, or any bounds
    count = data.draw(st.sampled_from([1, window_len - 1, window_len, window_len + 1])
                      | st.integers(0, n_windows))
    lo = data.draw(st.integers(0, max(0, n_windows - count)))
    hi = min(n_windows, lo + count)
    span = whole[lo:hi]
    with pytest.raises(ValueError, match="consecutive rows"):
        whole[lo:hi:2]
    step = window_len if mode == "disjoint" else 1
    assert len(span) == hi - lo
    if hi > lo:  # the span holds the ticks of its windows alone
        assert_bitwise(span.ticks("price"), series.price[lo * step:(hi - 1) * step + window_len])
    assert_bitwise(span.center_time, whole.center_time[lo:hi])
    for name in ("price", "volume", "value"):
        assert_bitwise(getattr(span, name), getattr(whole, name)[lo:hi])

    with np.errstate(over="ignore", invalid="ignore"):
        got, want = batch_moments(span, k, method), batch_moments(whole, k, method)
    for name in ("center_time", "raw_moments", "trade_value_moments", "trade_volume_moments",
                 "variance"):
        if getattr(want, name) is not None:
            assert_bitwise(getattr(got, name), getattr(want, name)[lo:hi])
    assert got.negative_variance.tolist() == want.negative_variance[lo:hi].tolist()
    assert got.non_finite.tolist() == want.non_finite[lo:hi].tolist()
    if window_len >= 2:
        for g, w in zip(batch_decorrelation(span, 2, THRESHOLD),
                        batch_decorrelation(whole, 2, THRESHOLD)):
            assert_bitwise(g, w[lo:hi])
