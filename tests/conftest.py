"""Shared helpers for building ticks and windows in tests."""

import numpy as np
import pytest

from mbm.ticks import TickSeries, Window


def make_series(prices, volumes=None, times=None, spacing=None):
    prices = np.asarray(prices, dtype=float)
    volumes = np.ones(len(prices)) if volumes is None else volumes
    times = np.arange(len(prices), dtype=float) if times is None else times
    return TickSeries(times, prices, volumes, tick_spacing=spacing)


def make_window(prices, volumes=None, times=None):
    series = make_series(prices, volumes, times)
    return Window(series, 0, len(series))


def random_window(rng, size=None, price_lo=1.0, price_hi=50.0, vol_sigma=0.5):
    """A window with continuous random prices and lognormal volumes."""
    n = int(size if size is not None else rng.integers(2, 40))
    prices = rng.uniform(price_lo, price_hi, size=n)
    volumes = 10.0 * np.exp(vol_sigma * rng.standard_normal(n))
    return make_window(prices, volumes)


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
