"""Shared helpers for building ticks and windows in tests."""

import numpy as np
import pytest

from mbm.ticks import TickSeries, WindowBatch


def make_series(prices, volumes=None, times=None):
    prices = np.asarray(prices, dtype=float)
    volumes = np.ones(len(prices)) if volumes is None else volumes
    times = np.arange(len(prices), dtype=float) if times is None else times
    return TickSeries(times, prices, volumes)


def make_window(prices, volumes=None, times=None):
    """The one window of these ticks, a one-row WindowBatch."""
    series = make_series(prices, volumes, times)
    return WindowBatch(series, 0, 1, len(series), 1)


def random_window(rng, size=None, price_lo=1.0, price_hi=50.0, vol_sigma=0.5):
    """A window with continuous random prices and lognormal volumes."""
    n = int(size if size is not None else rng.integers(2, 40))
    prices = rng.uniform(price_lo, price_hi, size=n)
    volumes = 10.0 * np.exp(vol_sigma * rng.standard_normal(n))
    return make_window(prices, volumes)


@pytest.fixture(scope="session", autouse=True)
def session_tick_cache(tmp_path_factory):
    """A tick cache root for the module-scoped fixtures, which run before tick_cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache-session")))
        yield


@pytest.fixture(autouse=True)
def tick_cache(tmp_path_factory, monkeypatch):
    """A fresh tick cache root per test, so no test reads or writes the user's cache.

    It lies outside tmp_path, whose listing some tests check. Returns the
    cache directory that parse_ticks uses under that root.
    """
    root = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "mbm" / "ticks"


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
