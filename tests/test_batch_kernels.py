"""Batched window kernels against an independent per-window numpy reference.

The reference below is the per-window arithmetic written out on 1-d arrays
(np.mean(c**n) and friends). The batched kernels must reproduce it bit for
bit, across window lengths, orders, methods, windowing modes and chunk
boundaries.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbm import moments
from mbm.moments import (
    batch_autocorrelation,
    batch_decorrelation,
    batch_moments,
    batch_vwap,
)
from mbm.ticks import TickSeries, WindowBatch, window_batch

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
        if method == "frequency" and abs(variance) <= 64.0 * np.finfo(float).eps * mean * mean:
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
    return float(np.mean(c1 * c2)) / float(np.mean(u1 * u2)) - vwap1 * vwap2


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
    window_len=st.sampled_from([1, 2, 7, 100]),
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
    chunk = moments._CHUNK_ELEMENTS if chunk_rows is None else chunk_rows * window_len
    with mock.patch.object(moments, "_CHUNK_ELEMENTS", chunk):
        check_against_reference(series, window_len, mode, k, method, lag, corr_order)


@pytest.mark.parametrize("method", ["frequency", "market"])
def test_batched_kernels_cross_default_chunk_boundaries(method):
    window_len = 1000  # long windows keep the default chunk to a few hundred rows
    rows_per_chunk = moments._CHUNK_ELEMENTS // window_len
    series = make_series(7, 2 * rows_per_chunk + 150 + window_len - 1, discrete=False)
    check_against_reference(series, window_len, "sliding", 4, method, 1, 2)


def test_moment_json_text_matches_json_dumps_with_non_finite_values():
    # prices near 1e80: c**4 and u**4 overflow, so moments come out inf/nan
    price = [10.0, 1.0, 12.0, 1e80, 2e80, 3e80, 1e80, 3e80, 2e80, 5.0, 5.0, 5.0]
    volume = [1.0, 10.0, 2.0, 1.0, 2.0, 1.0, 1e80, 1e80, 2e80, 1.0, 2.0, 3.0]
    series = TickSeries(np.arange(12.0), price, volume)
    for method in ("frequency", "market"):
        with np.errstate(over="ignore", invalid="ignore"):
            table = batch_moments(window_batch(series, 3, "disjoint"), 4, method)
        payload = [table.moment_set(i).to_json_dict() for i in range(len(table))]
        text = table.to_json_text()
        assert text == json.dumps(payload, indent=2) + "\n"
        assert "Infinity" in text
    assert "NaN" in text and "negative_variance" in text

    empty = WindowBatch(np.empty(0), np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)))
    assert batch_moments(empty, 2, "market").to_json_text() == json.dumps([], indent=2) + "\n"


def test_moment_json_text_writes_every_flag_combination():
    # windows: plain, negative variance, overflowing, both (values near 1e78)
    price = [10.0, 11.0, 10.0, 1.0, 1e160, 3e160, 1e78, 1e77]
    volume = [1.0, 2.0, 1.0, 10.0, 1.0, 2.0, 1.0, 10.0]
    series = TickSeries(np.arange(8.0), price, volume)
    table = batch_moments(window_batch(series, 2, "disjoint"), 4, "market")
    flags = [table.moment_set(i).flags for i in range(len(table))]
    assert flags == [(), ("negative_variance",), ("non_finite",), ("negative_variance", "non_finite")]
    payload = [table.moment_set(i).to_json_dict() for i in range(len(table))]
    assert table.to_json_text() == json.dumps(payload, indent=2) + "\n"
