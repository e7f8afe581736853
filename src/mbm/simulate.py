"""Deterministic synthetic trade series and payoff samples.

Reproducibility contract
------------------------
Randomness comes from a fixed, portable counter-based generator so that a
spec + seed pins the output bit-for-bit, independent of library RNG
internals:

* raw 64-bit draw i (0-based) of stream s for seed q is
  ``mix64(sub(q, s) + (i + 1) * GAMMA)`` computed modulo 2^64, where
  GAMMA = 0x9E3779B97F4A7C15, ``sub(q, s) = mix64(q + (s + 1) * GAMMA)``,
  and mix64 is the SplitMix64 finalizer
  (xorshift 30, * 0xBF58476D1CE4E5B9, xorshift 27, * 0x94D049BB133111EB,
  xorshift 31);
* the draw maps to a uniform ((raw >> 11) + 0.5) * 2^-53 in (0, 1) and to a
  standard normal through the inverse normal CDF;
* stream 0 always feeds price innovations, stream 1 volume innovations
  (gen_payoff_samples: stream 0 the first deviation, stream 1 the
  independent component of the second). Skipping an unused stream does not
  disturb the others.

Changing any of this is a breaking change to the output format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, require_finite
from .ticks import TickSeries

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

PRICE_STREAM = 0
VOLUME_STREAM = 1


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def stream_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard normal draws from the documented counter-based generator."""
    if count < 0:
        raise DataError(f"count must be non-negative, got {count}")
    from scipy.special import ndtri  # here, so that commands drawing no normals never load scipy

    with np.errstate(over="ignore"):  # modular 2^64 arithmetic is intended
        sub = _mix64(np.uint64(seed % 2**64) + np.uint64((stream + 1)) * _GAMMA)
        idx = np.arange(1, count + 1, dtype=np.uint64)
        raw = _mix64(sub + idx * _GAMMA)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u)


def _ar1(x: np.ndarray, phi: float) -> np.ndarray:
    """y[i] = x[i] + phi * y[i-1] with y[-1] = 0, evaluated in that order.

    The same operations, in the same order, as
    ``scipy.signal.lfilter([1.0], [1.0, -phi], x)``, so the result is
    bit-identical to it.
    """
    return np.fromiter(itertools.accumulate(x.tolist(), lambda y, e: e + phi * y), float, x.size)


@dataclass(frozen=True, slots=True, kw_only=True)
class SimSpec:
    """Synthetic trade series specification.

    Log-price follows an AR(1) about log(base_price) (phi=0 gives iid
    log-returns; price_model="constant" pins the price). Volumes are
    lognormal about median_volume, guaranteeing positivity, or constant.
    pv_correlation couples the log-price and log-volume innovations.
    """

    length: int
    seed: int
    price_model: str = "ar1"
    base_price: float = 10.0
    phi: float = 0.0
    sigma: float = 0.0
    volume_model: str = "lognormal"
    median_volume: float = 1.0
    log_sigma: float = 0.0
    pv_correlation: float = 0.0

    def __post_init__(self):
        require_finite(self, skip=("length", "seed", "price_model", "volume_model"))
        if self.length < 1:
            raise DataError(f"length must be >= 1, got {self.length}")
        if self.price_model not in ("constant", "ar1"):
            raise DataError(f"unknown price model {self.price_model!r}")
        if self.volume_model not in ("constant", "lognormal"):
            raise DataError(f"unknown volume model {self.volume_model!r}")
        if not (self.base_price > 0.0) or not (self.median_volume > 0.0):
            raise DataError("base_price and median_volume must be positive")
        if self.sigma < 0.0 or self.log_sigma < 0.0:
            raise DataError("innovation scales must be non-negative")
        if not (0.0 <= self.phi < 1.0):
            raise DataError(f"phi must be in [0, 1), got {self.phi}")
        if not (-1.0 <= self.pv_correlation <= 1.0):
            raise DataError(f"pv_correlation must be in [-1, 1], got {self.pv_correlation}")


def gen_trades(spec: SimSpec) -> TickSeries:
    """Generate a deterministic tick series at unit time spacing."""
    n = spec.length
    rho = spec.pv_correlation

    needs_price_noise = spec.price_model == "ar1" and spec.sigma > 0.0
    needs_volume_noise = spec.volume_model == "lognormal" and spec.log_sigma > 0.0

    if spec.price_model == "constant" or not needs_price_noise:
        prices = np.full(n, spec.base_price)
        eps_p = None
    else:
        eps_p = stream_normals(spec.seed, PRICE_STREAM, n)
        log_dev = _ar1(spec.sigma * eps_p, spec.phi)
        prices = spec.base_price * np.exp(log_dev)

    if spec.volume_model == "constant" or not needs_volume_noise:
        volumes = np.full(n, spec.median_volume)
    else:
        eps_v = stream_normals(spec.seed, VOLUME_STREAM, n)
        if rho != 0.0:
            if eps_p is None:
                eps_p = stream_normals(spec.seed, PRICE_STREAM, n)
            # 2x2 Cholesky: correlate volume innovations with price ones
            eps_v = rho * eps_p + np.sqrt(1.0 - rho * rho) * eps_v
        volumes = spec.median_volume * np.exp(spec.log_sigma * eps_v)

    return TickSeries.from_columns(np.arange(n, dtype=float), prices, volumes, prices * volumes,
                                   tick_spacing=1.0 if n >= 2 else None)


def gen_payoff_samples(
    mean: float, variance: float, autocorr: float, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Paired payoff deviations with the requested covariance.

    Draws jointly Gaussian pairs, each with population variance `variance`
    and covariance `autocorr`, then removes the sample means so the output
    is exactly centered (the mean argument describes the payoff level the
    deviations sit around; deviations themselves are mean-free).
    """
    del mean  # deviations are reported around the mean, which never enters
    if variance < 0.0:
        raise DataError(f"variance must be non-negative, got {variance}")
    if abs(autocorr) > variance + 1e-12 * max(1.0, variance):
        raise DataError(
            f"autocorr {autocorr:g} violates Cauchy-Schwarz for equal variances {variance:g}"
        )
    if count < 2:
        raise DataError(f"count must be >= 2, got {count}")

    if variance == 0.0:
        return np.zeros(count), np.zeros(count)

    sd = np.sqrt(variance)
    rho = autocorr / variance
    e1 = stream_normals(seed, 0, count)
    e2 = stream_normals(seed, 1, count)
    d12 = sd * e1
    d2 = sd * (rho * e1 + np.sqrt(max(0.0, 1.0 - rho * rho)) * e2)
    return d12 - d12.mean(), d2 - d2.mean()
