"""Seeded input generators owned by the benchmark.

Tick inputs never come from ``mbm.simulate``: a change to the simulator
must not change what ``validate``, ``moments``, ``vwap`` and ``autocorr``
read. Prices follow an AR(1) in log price and volumes are lognormal, with
parameters close to the README's ``[simulate]`` example.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

BASE_PRICE = 10.0
PHI = 0.3
SIGMA = 0.05
MEDIAN_VOLUME = 50.0
LOG_SIGMA = 0.4


def gen_ticks(seed: int, n: int, stream: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Prices and volumes of ``n`` ticks at unit time spacing."""
    rng = np.random.default_rng([seed, stream])
    shocks = (SIGMA * rng.standard_normal(n)).tolist()
    log_dev = np.empty(n)
    acc = 0.0
    for i, shock in enumerate(shocks):
        acc = PHI * acc + shock
        log_dev[i] = acc
    prices = BASE_PRICE * np.exp(log_dev)
    volumes = MEDIAN_VOLUME * np.exp(LOG_SIGMA * rng.standard_normal(n))
    return prices, volumes


def render_csv(prices: np.ndarray, volumes: np.ndarray) -> str:
    """Tick-CSV with a value column, floats written by repr (round-trip exact)."""
    lines = ["time,price,volume,value"]
    for i, (p, u) in enumerate(zip(prices.tolist(), volumes.tolist())):
        lines.append(f"{float(i)!r},{p!r},{u!r},{p * u!r}")
    return "\n".join(lines) + "\n"


def write_tick_file(path: Path, seed: int, n: int, stream: int = 0):
    """Write a generated tick file; returns (prices, volumes, sha256 hex)."""
    prices, volumes = gen_ticks(seed, n, stream)
    data = render_csv(prices, volumes).encode("utf-8")
    path.write_bytes(data)
    return prices, volumes, hashlib.sha256(data).hexdigest()


def simulate_config(seed: int, n: int) -> str:
    """The ``[simulate]`` config the ``cli_batch`` workload hands to ``mbm simulate``."""
    return (
        "[simulate]\n"
        f"length = {n}\n"
        f"seed = {seed}\n"
        "price_model = ar1\n"
        f"base_price = {BASE_PRICE!r}\n"
        f"phi = {PHI!r}\n"
        f"sigma = {SIGMA!r}\n"
        "volume_model = lognormal\n"
        f"median_volume = {MEDIAN_VOLUME!r}\n"
        f"log_sigma = {LOG_SIGMA!r}\n"
        "pv_correlation = 0.0\n"
    )


def digest_arrays(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()
