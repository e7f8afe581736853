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
* the draw maps to a uniform u = ((raw >> 11) + 0.5) * 2^-53 in (0, 1],
  rounded to double: raw >> 11 = 2^53 - 1 gives 2^53 - 0.5, which rounds
  to 2^53, so u is exactly 1.0 (and the normal +inf) with probability
  2^-53 per draw;
* u maps to a standard normal through Cephes ``ndtri`` (S. L. Moshier,
  *Methods and Programs for Mathematical Functions*, 1989), the code
  scipy.special.ndtri compiles. With y = 1 - u if u > 1 - e^-2 (folded)
  and y = u otherwise:
  - y > e^-2: ``(t + t * (t^2 * P0(t^2) / Q0(t^2))) * sqrt(2 pi)`` with
    t = y - 0.5;
  - else: ``(x - ln(x) / x) - z * P(z) / Q(z)`` with x = sqrt(-2 ln y) and
    z = 1 / x, P1/Q1 for x < 8 and P2/Q2 beyond, negated unless folded;
  - u = 0 and u = 1 give -inf and +inf.
  The coefficients (below), the branch points, this evaluation order and
  the Horner order of ``polevl``/``p1evl`` are pinned; ``ln`` is the C
  library's ``log`` and every other step one IEEE double operation;
* stream 0 always feeds price innovations, stream 1 volume innovations
  (gen_payoff_samples: stream 0 the first deviation, stream 1 the
  independent component of the second). Skipping an unused stream does not
  disturb the others.

Changing any of this is a breaking change to the output format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, require_finite
from .ticks import TICK_FLOATS, TickSeries, row_chunks

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

PRICE_STREAM = 0
VOLUME_STREAM = 1


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


# Cephes ndtri: sqrt(2 pi), e^-2, and the rational coefficients, highest
# power first. Q* are monic: the leading 1.0 gives 1.0 * x + c, which rounds
# as Cephes p1evl's x + c.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Horner's rule from the highest power, as Cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, as in the compiled Cephes code;
    # numpy's vectorized log may round differently
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of u in [0, 1], bit for bit Cephes ndtri."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(y)
    central = y > _EXP_M2  # unsigned result: y - 0.5 carries the sign
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    tail = ~central & (y > 0.0)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    out[y == 0.0] = np.where(upper[y == 0.0], np.inf, -np.inf)
    return out


def _stream_uniforms(seed: int, stream: int, count: int, start: int = 0) -> np.ndarray:
    with np.errstate(over="ignore"):  # modular 2^64 arithmetic is intended
        sub = _mix64(np.uint64(seed % 2**64) + np.uint64((stream + 1)) * _GAMMA)
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        raw = _mix64(sub + idx * _GAMMA)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def stream_normals(seed: int, stream: int, count: int, start: int = 0) -> np.ndarray:
    """Standard normal draws start..start+count-1 from the documented counter-based generator."""
    if count < 0:
        raise DataError(f"count must be non-negative, got {count}")
    return ndtri(_stream_uniforms(seed, stream, count, start))


def _ar1(x: np.ndarray, phi: float, last: float | None = None) -> np.ndarray:
    """y[i] = x[i] + phi * y[i-1] with y[-1] = last, evaluated in that order.

    With no last, y[0] = x[0]: the same operations, in the same order, as
    ``scipy.signal.lfilter([1.0], [1.0, -phi], x)``, so the result is
    bit-identical to it. A series cut in pieces, each given the one
    before's final y as last, gives the same bits.
    """
    ys = itertools.accumulate(x.tolist(), lambda y, e: e + phi * y, initial=last)
    return np.fromiter(itertools.islice(ys, last is not None, None), float, x.size)


@dataclass(frozen=True, slots=True, kw_only=True)
class SimSpec:
    """Synthetic trade series specification.

    Log-price follows an AR(1) about log(base_price) (phi=0 gives iid
    log-returns; price_model="constant" pins the price). Volumes are
    lognormal about median_volume, guaranteeing positivity, or constant.
    pv_correlation couples the log-price and log-volume innovations.
    Ticks fall at times 0..length-1, exact as floats for length <= 2**53.
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
        if self.length > 2 ** 53:
            raise DataError(f"length must be <= 2**53, past which float tick times are not "
                            f"exact integers, got {self.length}")
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


def walk_blocks(spec: SimSpec):
    """(rows, price-stream normals, AR(1) log deviations) of each block of trade_blocks(spec):
    the state one block carries into the next, and no more. The normals and
    deviations are None where the price has no noise."""
    price_noise = spec.price_model == "ar1" and spec.sigma > 0.0
    log_dev = None
    for rows in row_chunks(spec.length, TICK_FLOATS):
        eps_p = None
        if price_noise:
            eps_p = stream_normals(spec.seed, PRICE_STREAM, rows.stop - rows.start, rows.start)
            with np.errstate(over="ignore"):  # an overflowing tick fails the tick checks
                log_dev = _ar1(spec.sigma * eps_p, spec.phi, log_dev[-1] if rows.start else None)
        yield rows, eps_p, log_dev


def make_block(spec: SimSpec, walked) -> TickSeries:
    """The ticks of one block of trade_blocks(spec) from its walk_blocks(spec) item."""
    rows, eps_p, log_dev = walked
    lo, n = rows.start, rows.stop - rows.start
    rho = spec.pv_correlation
    with np.errstate(over="ignore"):  # an overflowing tick fails the tick checks
        prices = (np.full(n, spec.base_price) if log_dev is None
                  else spec.base_price * np.exp(log_dev))
        if spec.volume_model == "lognormal" and spec.log_sigma > 0.0:
            eps_v = stream_normals(spec.seed, VOLUME_STREAM, n, lo)
            if rho != 0.0:  # 2x2 Cholesky: correlate volume innovations with price ones
                if eps_p is None:
                    eps_p = stream_normals(spec.seed, PRICE_STREAM, n, lo)
                eps_v = rho * eps_p + np.sqrt(1.0 - rho * rho) * eps_v
            volumes = spec.median_volume * np.exp(spec.log_sigma * eps_v)
        else:
            volumes = np.full(n, spec.median_volume)
    return TickSeries(np.arange(lo, rows.stop, dtype=float), prices, volumes,
                      where=lambda i: f"tick {lo + i}", copy=False)


def trade_blocks(spec: SimSpec):
    """The ticks of gen_trades(spec) in the row chunks of their tick-CSV, made one at a time.

    Block [lo, hi) takes draws lo..hi-1 of each stream it uses, and the
    AR(1) log-price carries its last value into the next block, so the
    blocks join to the whole series bit for bit and memory does not grow
    with spec.length. Only that AR(1) is sequential: walk_blocks carries
    it from block to block, and make_block makes a block from its walk
    item alone (volumes, exp, tick checks), so a block can be made in
    another process than the one before it. A tick that breaks a tick rule
    raises the DataError of TickSeries, naming its index in the whole
    series.
    """
    return (make_block(spec, walked) for walked in walk_blocks(spec))


def gen_trades(spec: SimSpec) -> TickSeries:
    """Generate a deterministic tick series at unit time spacing: the join of trade_blocks(spec)."""
    blocks = list(trade_blocks(spec))
    return TickSeries(*(np.concatenate([getattr(b, c) for b in blocks])
                        for c in ("time", "price", "volume", "value")), copy=False)


def gen_payoff_samples(
    variance: float, autocorr: float, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Paired payoff deviations with the requested covariance.

    Draws jointly Gaussian pairs, each with population variance `variance`
    and covariance `autocorr`, then removes the sample means so the output
    is exactly centered: deviations are mean-free, whatever payoff level
    they sit around.
    """
    if not (math.isfinite(variance) and math.isfinite(autocorr)):
        raise DataError(f"variance and autocorr must be finite, got {variance} and {autocorr}")
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
