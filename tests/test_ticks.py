import numpy as np
import pytest

import mbm
from mbm.errors import DataError
from mbm.ticks import (TickSeries, TradeTick, Window, WindowBatch, parse_ticks, partition_windows,
                       render_ticks, window_batch, window_from_ticks)

from conftest import make_series, make_window


def test_parse_computes_missing_value():
    series = parse_ticks("time,price,volume\n0,10,2\n")
    assert len(series) == 1
    assert series.value[0] == 20.0


def test_parse_rejects_value_mismatch():
    with pytest.raises(DataError, match="value"):
        parse_ticks("time,price,volume,value\n0,10,2,25\n")


def test_parse_accepts_consistent_value_column():
    series = parse_ticks("time,price,volume,value\n0,10,2,20\n")
    assert series.value[0] == 20.0


def test_parse_three_rows_infers_spacing():
    series = parse_ticks("time,price,volume\n0,10,1\n1,11,1\n2,12,1\n")
    assert len(series) == 3
    assert series.tick_spacing == 1.0


def test_parse_irregular_times_leave_spacing_unset():
    series = parse_ticks("time,price,volume\n0,10,1\n1,11,1\n5,12,1\n")
    assert series.tick_spacing is None


def test_parse_handles_crlf():
    series = parse_ticks("time,price,volume\r\n0,10,1\r\n1,11,2\r\n")
    assert len(series) == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("time,price,volume\n0,10\n", "line 2"),
        ("time,price,volume\n0,ten,1\n", "line 2"),
        ("time,price,volume\n0,-10,1\n", "price"),
        ("time,price,volume\n0,10,0\n", "volume"),
        ("time,price,volume\n1,10,1\n0,10,1\n", "decreases"),
        ("time,price\n0,10\n", "header"),
        ("", "header"),
        ("time,price,volume\n-1,10,1\n", "negative time"),
    ],
)
def test_parse_errors_report_location(text, fragment):
    with pytest.raises(DataError, match=fragment):
        parse_ticks(text)


def test_tick_identity_tolerance_is_relative():
    # one part in 1e10 passes, one part in 1e8 does not
    window_from_ticks([TradeTick(time=0.0, price=10.0, volume=2.0, value=20.0 * (1 + 1e-10))])
    with pytest.raises(DataError, match="tick 0: value"):
        window_from_ticks([TradeTick(time=0.0, price=10.0, volume=2.0, value=20.0 * (1 + 1e-8))])


def test_render_parse_round_trip_exact(rng):
    prices = np.exp(rng.normal(2.0, 1.0, size=60))
    volumes = np.exp(rng.normal(0.0, 1.5, size=60))
    times = np.cumsum(rng.uniform(0.1, 3.0, size=60))
    series = make_series(prices, volumes, times)
    assert parse_ticks(render_ticks(series)) == series


def test_round_trip_preserves_regular_spacing():
    series = make_series([10.0, 11.0, 12.0], spacing=1.0)
    assert parse_ticks(render_ticks(series)) == series


def test_partition_disjoint_counts():
    series = make_series(range(1, 7))
    windows = partition_windows(series, 3, "disjoint")
    assert [len(w) for w in windows] == [3, 3]
    seen = [t for w in windows for t in series.time[w.start:w.stop].tolist()]
    assert seen == sorted(set(seen))  # no tick shared


def test_partition_disjoint_drops_remainder():
    series = make_series(range(1, 8))
    assert len(partition_windows(series, 3, "disjoint")) == 2


def test_partition_sliding_counts_and_overlap():
    series = make_series(range(1, 7))
    windows = partition_windows(series, 3, "sliding")
    assert len(windows) == 4
    for w1, w2 in zip(windows, windows[1:]):
        assert (w2.start, w2.stop) == (w1.start + 1, w1.stop + 1)  # N-1 shared ticks


def test_partition_window_longer_than_series():
    series = make_series([10.0, 11.0])
    with pytest.raises(DataError, match="exceeds"):
        partition_windows(series, 3)


def test_partition_rejects_bad_window_len_and_mode():
    series = make_series([10.0, 11.0])
    with pytest.raises(DataError):
        partition_windows(series, 0)
    with pytest.raises(DataError):
        partition_windows(series, 2, "wavelet")


def test_window_center_is_median_time():
    odd = make_window([1, 2, 3], times=[0.0, 4.0, 10.0])
    assert odd.center_time == 4.0
    even = make_window([1, 2, 3, 4], times=[0.0, 2.0, 6.0, 8.0])
    assert even.center_time == 4.0


def test_window_times_lie_in_centered_span():
    w = make_window([1, 2, 3, 4, 5])
    times = w.series.time[w.start:w.stop]
    half = np.abs(times - w.center_time).max()
    assert ((w.center_time - half <= times) & (times <= w.center_time + half)).all()


def test_empty_window_rejected():
    with pytest.raises(DataError):
        window_from_ticks(())


@pytest.mark.parametrize("first, count, window_len, step", [
    (-1, 1, 2, 1), (0, -1, 2, 1), (0, 1, 0, 1), (0, 1, 2, 0),
    (0, 9, 3, 1), (2, 3, 3, 3), (9, 1, 2, 1), (10, 1, 1, 1), (11, 0, 2, 1),
    # not integers: rejected before any view is made
    (0.5, 1, 3, 1), (0, 1.0, 3, 1), (0, 1, 3.0, 1), (0, 1, 3, 1.5), (0, 1, "3", 1),
])
def test_window_batch_rejects_geometry_outside_its_series(first, count, window_len, step):
    series = make_series(range(1, 11))
    with pytest.raises(DataError, match="10 ticks"):
        WindowBatch(series, first, count, window_len, step)


def test_window_batch_accepts_geometry_that_ends_at_its_series_end():
    series = make_series(range(1, 11))
    for geometry in ((0, 8, 3, 1), (1, 3, 3, 3), (9, 1, 1, 1), (10, 0, 2, 1), (0, 0, 11, 1)):
        batch = WindowBatch(series, *geometry)
        assert batch.price.shape == (batch.count, batch.window_len)
    assert window_batch(series, 3, "sliding")[8:] == WindowBatch(series, 8, 0, 3, 1)
    assert WindowBatch(series, np.int64(1), np.int64(2), np.intp(3), np.int32(3)).count == 2


@pytest.mark.parametrize("row", [0, -1, np.int64(2), [0, 1], (slice(0, 1),)])
def test_window_batch_takes_a_slice_of_rows_only(row):
    batch = window_batch(make_series(range(1, 11)), 3, "sliding")
    with pytest.raises(TypeError, match="takes a slice of rows"):
        batch[row]


def test_series_requires_sorted_times():
    with pytest.raises(DataError, match="non-decreasing"):
        make_series([10.0, 11.0], times=[1.0, 0.0])


def test_benchmark_tick_api_matches_the_columns(rng):
    # perfbench builds keyword TradeTick records, windows them with
    # window_from_ticks, and traces two functions of mbm.ticks by name
    time = np.arange(50.0)
    price = rng.uniform(5.0, 15.0, size=50)
    volume = np.exp(rng.normal(3.0, 0.5, size=50))
    ticks = [mbm.TradeTick(time=t, price=p, volume=u, value=p * u)
             for t, p, u in zip(time.tolist(), price.tolist(), volume.tolist())]
    got = mbm.compute_moment_set(mbm.window_from_ticks(ticks), 4, "market")
    want = mbm.compute_moment_set(Window(TickSeries(time, price, volume), 0, 50), 4, "market")
    assert repr(got) == repr(want)  # float repr round-trips: equal bits
    assert callable(mbm.ticks.partition_windows) and callable(mbm.ticks.window_from_ticks)
