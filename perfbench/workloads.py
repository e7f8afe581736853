"""The benchmark's three workloads, their timed passes and correctness gate.

``cli_batch`` and ``sliding_strict`` run ``mbm`` subcommands, one process
at a time (or in-process through ``mbm.cli.main`` for the traced run);
``model_sweep`` calls the density, pricing and holdings functions of the
library in one process. Every pass is checked against the independent
expectations in ``oracle`` and, for the default seed at full size, against
the reference recorded from the seed code in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle
from calibrate import uncalibrated

DEFAULT_SEED = 1
REFERENCE_FILE = Path(__file__).with_name("reference.json")
#: At most this many values per output are kept in the recorded reference.
REFERENCE_VALUES = 200

SIZES = {
    "full": {
        "batch_ticks": 100_000,
        "sliding_ticks": 20_000,
        "gc_sets": 200,
        "damped_sets": 3,
        "solves": 1200,
        "holdings": 100,
        "setup_repeats": 3,
        "importtime_repeats": 3,
    },
    # for the benchmark's own tests: every code path, a fraction of the work
    "tiny": {
        "batch_ticks": 2_000,
        "sliding_ticks": 1_000,
        "gc_sets": 5,
        "damped_sets": 1,
        "solves": 40,
        "holdings": 3,
        "setup_repeats": 1,
        "importtime_repeats": 1,
    },
}

WINDOW = 100
ORDER = 4
LAG = 1
GC_WINDOW = 500
DAMPING_SIGMAS = (0.05, 0.1)
GRID_POINTS = 801
HOLDING_SAMPLES = 500
HOLDING_BOUNDS = (0.0, 1.2)
#: One scenario in this many is strongly risk-averse (exponential utility,
#: alpha near 2, sale-date endowment near 3); the seed code solves those
#: through its bracketed fallback rather than the fixed point.
AVERSE_EVERY = 10
FAMILIES = ("linear", "log", "power", "exponential")
#: Density inputs are the unflagged market moment sets whose standardized
#: skewness and kurtosis stay within this (about 99.5% of them). Beyond it the
#: Gram-Charlier density cancels terms that many times larger than its mass:
#: the package, the oracle and an evaluation from exact central moments then
#: disagree past the checks' tolerance (by 1e-6 at a kurtosis of 1.6e11).
MAX_STANDARDIZED = 1e6
#: A ``model_sweep`` pass is timed in this many consecutive slices of its
#: calls, each bracketed by calibration probes.
SWEEP_SLICES = 8


@dataclass
class OpRun:
    """One operation as run: exit code, wall seconds, peak RSS."""

    code: int
    wall_s: float
    rss_mb: float


@dataclass
class PassResult:
    wall_s: float
    cal_s: float = 0.0  # wall_s scaled to the reference host speed (see calibrate.py)
    rss_mb: float = 0.0
    op_seconds: dict = field(default_factory=dict)
    exits: dict = field(default_factory=dict)
    solve_ms: list = field(default_factory=list)
    results: list = field(default_factory=list)


@dataclass
class Verdict:
    """Outcome of checking one pass: per-operation problems and observations."""

    attempted: int = 0
    problems: dict = field(default_factory=dict)
    observations: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def add(self, op: str, problems: list[str], observation=None):
        self.attempted += 1
        if problems:
            self.problems[op] = problems
        if observation is not None:
            self.observations[op] = observation


def _subsample(values: np.ndarray) -> tuple[int, np.ndarray]:
    stride = max(1, math.ceil(len(values) / REFERENCE_VALUES))
    return stride, values[::stride]


def _compare_reference(obs: dict, ref: dict, scale: np.ndarray) -> list[str]:
    problems = []
    for key in ("exit", "count", "flagged"):
        if obs[key] != ref[key]:
            problems.append(f"{key} differs from the seed reference")
    stride = ref["stride"]
    got = np.asarray(obs["values"], dtype=float)[::stride]
    want = np.asarray(ref["values"], dtype=float)
    if got.shape != want.shape or not np.all(oracle.close(got, want, scale[::stride])):
        problems.append("values differ from the seed reference beyond tolerance")
    return problems


def _reference_entry(obs: dict) -> dict:
    stride, values = _subsample(np.asarray(obs["values"], dtype=float))
    return {**{k: obs[k] for k in ("exit", "count", "flagged")},
            "stride": stride, "values": values.tolist()}


def line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


# --------------------------------------------------------------------------
# CLI workloads


@dataclass
class CliOp:
    name: str
    args: list[str]
    stdout: Path
    stderr: Path


class CliWorkload:
    """A fixed sequence of ``mbm`` subcommands over generated tick files."""

    def __init__(self, name: str, work: Path, seed: int, size: dict):
        self.name = name
        self.work = work
        self.seed = seed
        self.digests = {}
        self.ops: list[CliOp] = []
        if name == "cli_batch":
            n = size["batch_ticks"]
            cfg = work / "sim.cfg"
            cfg.write_text(inputs.simulate_config(seed, n), encoding="utf-8")
            self.digests["sim.cfg"] = hashlib.sha256(cfg.read_bytes()).hexdigest()
            self.sim_ticks = n
            self._add("simulate", ["--config", str(cfg), "--output", str(work / "sim.csv")])
            self.ticks_path = work / "ticks.csv"
            self.p, self.u, self.digests["ticks.csv"] = inputs.write_tick_file(self.ticks_path, seed, n)
            tick_args = ["--input", str(self.ticks_path)]
            win = ["--window", str(WINDOW)]
            self._add("validate", tick_args)
            self._add("moments", tick_args + win + ["--order", str(ORDER), "--method", "market",
                                                    "--output", str(work / "moments.json")])
            self._add("vwap", tick_args + win + ["--output", str(work / "vwap.csv")])
            self._add("autocorr", tick_args + win + ["--lag", str(LAG), "--method", "market",
                                                     "--output", str(work / "autocorr.json")])
        elif name == "sliding_strict":
            n = size["sliding_ticks"]
            self.ticks_path = work / "ticks.csv"
            self.p, self.u, self.digests["ticks.csv"] = inputs.write_tick_file(self.ticks_path, seed, n)
            self._add("moments", ["--mode", "sliding", "--strict", "--input", str(self.ticks_path),
                                  "--window", str(WINDOW), "--order", str(ORDER), "--method", "market",
                                  "--output", str(work / "moments.json")])
        else:
            raise ValueError(f"unknown CLI workload {name!r}")

    def _add(self, command: str, args: list[str]):
        self.ops.append(CliOp(command, [command, *args], self.work / f"{command}.out",
                              self.work / f"{command}.err"))

    def run_pass(self, runner, measure=uncalibrated) -> PassResult:
        """Run every operation once, one at a time; ``runner(op)`` returns an OpRun."""
        res = PassResult(wall_s=0.0)
        for op in self.ops:
            run, factor = measure(lambda: runner(op))
            res.exits[op.name] = run.code
            res.op_seconds[op.name] = run.wall_s
            res.rss_mb = max(res.rss_mb, run.rss_mb)
            res.wall_s += run.wall_s
            res.cal_s += run.wall_s * factor
        return res

    def check(self, res: PassResult, reference: dict | None) -> Verdict:
        verdict = Verdict()
        for op in self.ops:
            try:
                problems, obs, scale = getattr(self, f"_check_{op.name}")(op, res.exits[op.name])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems, obs, scale = [f"unreadable output: {exc!r}"], None, None
            if reference is not None and obs is not None:
                problems += _compare_reference(obs, reference[op.name], scale)
            verdict.add(op.name, problems, obs)
        return verdict

    # each _check_<command> returns (problems, observation, value scale)

    def _check_simulate(self, op: CliOp, code: int):
        problems = []
        if code != 0:
            problems.append(f"exit {code}, expected 0")
        text = op.stdout.read_text(encoding="utf-8")
        if text != f"simulated ticks={self.sim_ticks} seed={self.seed}\n":
            problems.append(f"unexpected stdout {text[:80]!r}")
        out = self.work / "sim.csv"
        with out.open(encoding="utf-8") as fh:
            if fh.readline() != "time,price,volume,value\n":
                problems.append("missing tick-CSV header")
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        t, p, u, c = rows.T
        if len(t) != self.sim_ticks or not np.array_equal(t, np.arange(len(t), dtype=float)):
            problems.append("tick times are not 0, 1, ..., length-1")
        if not (np.all(p > 0) and np.all(u > 0)):
            problems.append("non-positive price or volume")
        if not np.all(np.abs(c - p * u) <= 1e-9 * p * u):
            problems.append("value column violates value = price * volume")
        # the simulator's documented marginals, within 10% (>= 6 standard errors at 2k ticks)
        sd_logp = float(np.std(np.log(p / inputs.BASE_PRICE)))
        sd_logu = float(np.std(np.log(u / inputs.MEDIAN_VOLUME)))
        want_logp = inputs.SIGMA / math.sqrt(1.0 - inputs.PHI**2)
        if abs(sd_logp / want_logp - 1.0) > 0.1 or abs(sd_logu / inputs.LOG_SIGMA - 1.0) > 0.1:
            problems.append(f"log-price sd {sd_logp:g} or log-volume sd {sd_logu:g} off the spec")
        values = rows.ravel()
        obs = {"exit": code, "count": len(t), "flagged": {}, "values": values}
        return problems, obs, np.maximum(np.abs(values), 1.0)

    def _check_validate(self, op: CliOp, code: int):
        n = len(self.p)
        problems = [] if code == 0 else [f"exit {code}, expected 0"]
        text = op.stdout.read_text(encoding="utf-8")
        if text != f"ok ticks={n} spacing=1.0\n":
            problems.append(f"unexpected stdout {text[:80]!r}")
        obs = {"exit": code, "count": n, "flagged": {}, "values": np.empty(0)}
        return problems, obs, np.empty(0)

    def _check_moments(self, op: CliOp, code: int):
        strict = "--strict" in op.args
        mode = "sliding" if "sliding" in op.args else "disjoint"
        P, U = oracle.windows(self.p, WINDOW, mode), oracle.windows(self.u, WINDOW, mode)
        raw = oracle.market_moments(P, U, ORDER)
        var = raw[:, 1] - raw[:, 0] ** 2
        centers = oracle.center_times(len(P), WINDOW, mode)
        expected = np.column_stack([raw, raw[:, 0], var, centers])
        scale = np.column_stack([raw, raw[:, 0], raw[:, 1], np.maximum(centers, 1.0)])
        want_neg = np.nonzero(var < 0.0)[0].tolist()
        want_decor = []
        if strict:
            coef = oracle.decorrelation(P, U, 2)
            want_decor = np.nonzero(np.abs(coef) > oracle.DECORRELATION_THRESHOLD)[0].tolist()
        want_exit = 3 if strict and (want_neg or want_decor) else 0

        problems = [] if code == want_exit else [f"exit {code}, expected {want_exit}"]
        data = json.loads((self.work / "moments.json").read_text(encoding="utf-8"))
        if len(data) != len(P):
            return problems + [f"{len(data)} windows, expected {len(P)}"], None, None
        got = np.array([[*d["raw_moments"], d["mean"], d["variance"], d["center_time"]]
                        for d in data], dtype=float)
        bad = ~np.all(oracle.close(got, expected, scale), axis=1)
        if bad.any():
            problems.append(f"{int(bad.sum())} windows off the oracle, first {int(np.argmax(bad))}")
        flagged = {"negative_variance": [i for i, d in enumerate(data) if d["flags"]]}
        if any(d["flags"] not in ([], ["negative_variance"]) for d in data):
            problems.append("unexpected flag names")
        if flagged["negative_variance"] != want_neg:
            problems.append("negative_variance flags differ from the oracle")
        if line_count(op.stdout) != len(data):
            problems.append("stdout does not hold one line per window")
        if strict:
            err = op.stderr.read_text(encoding="utf-8")
            flagged["strict_negative"] = [int(m) for m in re.findall(r"window (\d+): negative", err)]
            flagged["strict_decorrelation"] = [int(m) for m in re.findall(r"window (\d+): order-2", err)]
            if flagged["strict_negative"] != want_neg or flagged["strict_decorrelation"] != want_decor:
                problems.append("strict violations differ from the oracle")
        obs = {"exit": code, "count": len(data), "flagged": flagged, "values": got.ravel()}
        return problems, obs, scale.ravel()

    def _check_vwap(self, op: CliOp, code: int):
        P, U = oracle.windows(self.p, WINDOW, "disjoint"), oracle.windows(self.u, WINDOW, "disjoint")
        centers = oracle.center_times(len(P), WINDOW, "disjoint")
        expected = np.column_stack([centers, np.mean(P * U, axis=1) / np.mean(U, axis=1)])
        scale = np.maximum(np.abs(expected), 1.0)
        problems = [] if code == 0 else [f"exit {code}, expected 0"]
        lines = (self.work / "vwap.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "center_time,vwap" or len(lines) - 1 != len(P):
            return problems + ["vwap.csv header or row count wrong"], None, None
        got = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        if not np.all(oracle.close(got, expected, scale)):
            problems.append("vwap values off the oracle")
        if line_count(op.stdout) != len(P):
            problems.append("stdout does not hold one line per window")
        obs = {"exit": code, "count": len(P), "flagged": {}, "values": got.ravel()}
        return problems, obs, scale.ravel()

    def _check_autocorr(self, op: CliOp, code: int):
        P, U = oracle.windows(self.p, WINDOW, "disjoint"), oracle.windows(self.u, WINDOW, "disjoint")
        centers = oracle.center_times(len(P), WINDOW, "disjoint")
        ac, ac_scale = oracle.market_autocorr(P, U, LAG)
        expected = np.column_stack([centers[:-LAG], centers[LAG:], ac])
        scale = np.column_stack([np.maximum(centers[:-LAG], 1.0), centers[LAG:], ac_scale])
        problems = [] if code == 0 else [f"exit {code}, expected 0"]
        data = json.loads((self.work / "autocorr.json").read_text(encoding="utf-8"))
        if len(data) != len(expected):
            return problems + [f"{len(data)} pairs, expected {len(expected)}"], None, None
        got = np.array([[d["center_time_1"], d["center_time_2"], d["autocorrelation"]]
                        for d in data], dtype=float)
        if not np.all(oracle.close(got, expected, scale)):
            problems.append("autocorrelations off the oracle")
        if line_count(op.stdout) != len(data):
            problems.append("stdout does not hold one line per window pair")
        obs = {"exit": code, "count": len(data), "flagged": {}, "values": got.ravel()}
        return problems, obs, scale.ravel()

    def reference_entry(self, verdict: Verdict) -> dict:
        return {name: _reference_entry(obs) for name, obs in verdict.observations.items()}


# --------------------------------------------------------------------------
# Library workload


@dataclass
class Call:
    group: str          # density | pricing | holdings
    function: str       # attribute of the mbm package, looked up at call time
    args: tuple
    check: object       # check(result, results) -> (problems, values)
    first_from: int | None = None  # index of the call whose solution is ``first``


class ModelSweep:
    """Densities, mean-price solves and holdings optima in one process."""

    name = "model_sweep"

    def __init__(self, seed: int, size: dict):
        import mbm

        self.mbm = mbm
        self.seed = seed
        self.calls: list[Call] = []
        self.digests = {}
        self._density_calls(size)
        self._pricing_calls(size)
        self._holdings_calls(size)

    # ---- inputs

    def _density_calls(self, size: dict):
        mbm = self.mbm
        n_sets = size["gc_sets"]
        n_windows = 2 * n_sets + 10
        p, u = inputs.gen_ticks(self.seed, GC_WINDOW * n_windows, stream=1)
        self.digests["density_ticks"] = inputs.digest_arrays(p, u)
        sets = []
        for w in range(n_windows):
            lo = w * GC_WINDOW
            ticks = [mbm.TradeTick(time=float(lo + i), price=a, volume=b, value=a * b)
                     for i, (a, b) in enumerate(zip(p[lo:lo + GC_WINDOW].tolist(),
                                                     u[lo:lo + GC_WINDOW].tolist()))]
            ms = mbm.compute_moment_set(mbm.window_from_ticks(ticks), ORDER, "market")
            _, var, m3, m4 = oracle.central_moments(ms.raw_moments)
            if not ms.flags and var > 0 and max(abs(m3) / var**1.5, abs(m4) / var**2) <= MAX_STANDARDIZED:
                sets.append(ms)
            if len(sets) == n_sets:
                break
        else:
            raise RuntimeError("too few usable moment sets for the density group")

        for ms in sets:
            sd = math.sqrt(ms.variance)
            grid = (ms.mean - 8.0 * sd, ms.mean + 8.0 * sd, GRID_POINTS)
            self.calls.append(Call("density", "density_gram_charlier", (ms, grid),
                                   self._gram_charlier_check(ms, grid)))
        for ms in sets[: size["damped_sets"]]:
            for s in DAMPING_SIGMAS:
                width = math.sqrt(ms.variance + 1.0 / s**2)
                grid = (ms.mean - 8.0 * width, ms.mean + 8.0 * width, GRID_POINTS)
                self.calls.append(Call("density", "density_damped_inversion", (ms, s, grid),
                                       self._damped_check(ms)))

    def _utility(self, rng, family: str):
        if family == "power":
            return self.mbm.UtilitySpec(family, float(rng.uniform(0.5, 4.0)))
        if family == "exponential":
            return self.mbm.UtilitySpec(family, float(rng.uniform(0.05, 0.5)))
        return self.mbm.UtilitySpec(family)

    def _pricing_calls(self, size: dict):
        mbm = self.mbm
        rng = np.random.default_rng([self.seed, 2])
        start = len(self.calls)
        # the mix of kinds and families is fixed; the seed only moves values
        # inside ranges, so that every seed asks for the same amount of work
        i = 0
        while len(self.calls) - start < size["solves"]:
            averse = i % AVERSE_EVERY == 0
            j = i - i // AVERSE_EVERY - 1
            i += 1
            if averse:
                pv, xv = (float(v) for v in rng.uniform(0.5, 1.5, 2))
                scn = mbm.PricingScenario(
                    utility=mbm.UtilitySpec("exponential", float(rng.uniform(1.8, 2.2))),
                    beta=float(rng.uniform(0.93, 0.97)),
                    endowment_t=float(rng.uniform(9.0, 11.0)), endowment_T=float(rng.uniform(2.8, 3.2)),
                    holdings=float(rng.uniform(0.8, 1.2)), payoff_mean=float(rng.uniform(4.5, 5.5)),
                    payoff_variance=xv, price_variance=pv)
                self.calls.append(Call("pricing", "solve_price_single", (scn,), self._solve_check(scn, "single")))
                continue
            utility = self._utility(rng, FAMILIES[(j // 3) % len(FAMILIES)])
            pv, pv2, xv, xv2 = (float(v) for v in rng.uniform(0.0, 2.0, 4))
            common = dict(
                utility=utility, beta=float(rng.uniform(0.9, 0.99)),
                endowment_t=float(rng.uniform(8.0, 12.0)), endowment_T=float(rng.uniform(8.0, 12.0)),
                holdings=float(rng.uniform(0.5, 1.5)), payoff_mean=float(rng.uniform(4.0, 6.0)),
                payoff_variance=xv, price_variance=pv)
            kind = ("single", "two_purchase", "two_sales")[j % 3]
            if kind == "single":
                scn = mbm.PricingScenario(**common)
                self.calls.append(Call("pricing", "solve_price_single", (scn,), self._solve_check(scn, "single")))
                continue
            extra = dict(
                holdings2=float(rng.uniform(0.5, 1.5)), payoff_mean2=float(rng.uniform(4.0, 6.0)),
                payoff_variance2=xv2, price_variance2=pv2,
                price_autocorr=float(rng.uniform(-0.99, 0.99)) * math.sqrt(pv * pv2))
            second = "solve_price_second_purchase"
            if kind == "two_sales":
                extra.update(payoff_autocorr=float(rng.uniform(-0.99, 0.99)) * math.sqrt(xv * xv2), T2=3.0)
                second = "solve_price_two_sales"
            scn = mbm.TwoTradeScenario(**common, **extra)
            first = len(self.calls)
            self.calls.append(Call("pricing", "solve_price_first_purchase", (scn,), self._solve_check(scn, "single")))
            self.calls.append(Call("pricing", second, (scn,), self._solve_check(scn, kind, first), first_from=first))
        self.digests["scenarios"] = hashlib.sha256(
            repr([c.args[0].to_json_dict() for c in self.calls[start:]]).encode()).hexdigest()

    def _holdings_calls(self, size: dict):
        mbm = self.mbm
        rng = np.random.default_rng([self.seed, 3])
        samples = []
        for i in range(size["holdings"]):
            shift = float(rng.uniform(-0.5, 0.5))
            prices = rng.uniform(3.5, 5.5, HOLDING_SAMPLES) + shift
            payoffs = rng.uniform(5.5, 7.5, HOLDING_SAMPLES)
            samples += [prices, payoffs]
            scn = mbm.PricingScenario(
                utility=self._utility(rng, FAMILIES[i % len(FAMILIES)]), beta=float(rng.uniform(0.9, 0.99)),
                endowment_t=float(rng.uniform(9.0, 11.0)), endowment_T=float(rng.uniform(9.0, 11.0)),
                holdings=1.0, payoff_mean=6.0)
            self.calls.append(Call("holdings", "optimize_holdings", (scn, prices, payoffs, HOLDING_BOUNDS),
                                   self._holdings_check(scn, prices, payoffs)))
        self.digests["holding_samples"] = inputs.digest_arrays(*samples)

    # ---- checks

    @staticmethod
    def _gram_charlier_check(ms, grid):
        def check(res, results):
            mass, mean = oracle.gram_charlier_summary(ms.raw_moments, np.linspace(*grid))
            problems = []
            if not (oracle.close(res.total_mass, mass, 1.0) and oracle.close(res.recovered_mean, mean, mean)):
                problems.append("Gram-Charlier mass or mean off the oracle")
            return problems, [res.total_mass, res.recovered_mean]
        return check

    @staticmethod
    def _damped_check(ms):
        def check(res, results):
            problems = []
            # the damper blurs the density but keeps its mean; 1e-6 covers grid cropping
            if not oracle.close(res.total_mass, 1.0, 1.0) or abs(res.recovered_mean / ms.mean - 1.0) > 1e-6:
                problems.append("damped inversion mass or mean off")
            return problems, [res.total_mass, res.recovered_mean]
        return check

    @staticmethod
    def _solve_check(scn, kind: str, first: int | None = None):
        fam, par = scn.utility.family, scn.utility.parameter

        def coefficients(results):
            if kind == "single":
                h = scn.holdings
                return dict(e_t=scn.endowment_t, spent=0.0, xi=h, c_T=scn.endowment_T + scn.payoff_mean * h,
                            x=scn.payoff_mean, A=h * scn.payoff_variance, B=h * scn.price_variance)
            h1, h2 = scn.holdings, scn.holdings2
            spent = results[first].mean_price * h1
            B = h1 * scn.price_autocorr + h2 * scn.price_variance2
            if kind == "two_purchase":
                return dict(e_t=scn.endowment_t, spent=spent, xi=h2, c_T=scn.endowment_T + scn.payoff_mean2 * (h1 + h2),
                            x=scn.payoff_mean2, A=(h1 + h2) * scn.payoff_variance2, B=B)
            return dict(e_t=scn.endowment_t, spent=spent, xi=h2,
                        c_T=scn.endowment_T + scn.first_lot_payoff_mean * h1 + scn.payoff_mean2 * h2,
                        x=scn.payoff_mean2, A=h1 * scn.payoff_autocorr + h2 * scn.payoff_variance2, B=B)

        def check(res, results):
            coeffs = coefficients(results)
            p0 = res.mean_price
            problems = []
            if not res.converged:
                problems.append("solution not marked converged")
            residual = oracle.price_residual({**coeffs, "family": fam, "parameter": par, "beta": scn.beta}, p0)
            if not abs(residual) <= 1e-10 * max(1.0, abs(p0)):
                problems.append(f"residual {residual:g} breaks |r| <= 1e-10 max(1, |p0|)")
            if fam == "linear" and p0 != scn.beta * coeffs["x"]:
                problems.append("linear utility price is not exactly beta * x0")
            return problems, [p0]
        return check

    @staticmethod
    def _holdings_check(scn, prices, payoffs):
        fam, par = scn.utility.family, scn.utility.parameter
        lo, hi = HOLDING_BOUNDS

        def check(res, results):
            xi = res.holdings
            foc, size = oracle.holdings_foc(fam, par, scn.beta, scn.endowment_t, scn.endowment_T,
                                            prices, payoffs, xi)
            problems = []
            tol = 1e-9 * size
            if res.at_boundary:
                # the objective's slope is -foc; a boundary optimum has it pointing outward
                if not ((xi == lo and foc >= -tol) or (xi == hi and foc <= tol)):
                    problems.append(f"boundary optimum {xi!r} without an outward slope")
            elif not (lo < xi < hi and abs(foc) <= tol):
                problems.append(f"interior optimum {xi!r} misses the first-order condition ({foc:g})")
            return problems, [xi, float(res.at_boundary)]
        return check

    # ---- pass

    def _run_calls(self, calls: list[Call], results: list, solve_ns: list) -> float:
        mbm = self.mbm
        start = time.perf_counter()
        for call in calls:
            fn = getattr(mbm, call.function)
            kwargs = {} if call.first_from is None else {"first": results[call.first_from]}
            t0 = time.perf_counter_ns()
            try:
                out = fn(*call.args, **kwargs)
            except Exception as exc:  # a call that raises is a failed operation
                out = exc
            t1 = time.perf_counter_ns()
            if call.group == "pricing":
                solve_ns.append(t1 - t0)
            results.append(out)
        return time.perf_counter() - start

    def run_pass(self, runner=None, measure=uncalibrated) -> PassResult:
        results, solve_ns = [], []
        res = PassResult(wall_s=0.0, results=results)
        step = math.ceil(len(self.calls) / SWEEP_SLICES)
        for lo in range(0, len(self.calls), step):
            seconds, factor = measure(lambda: self._run_calls(self.calls[lo:lo + step], results, solve_ns))
            res.wall_s += seconds
            res.cal_s += seconds * factor
        res.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res.solve_ms = [ns / 1e6 for ns in solve_ns]
        return res

    def check(self, res: PassResult, reference: dict | None) -> Verdict:
        verdict = Verdict()
        values = []
        for i, (call, out) in enumerate(zip(self.calls, res.results)):
            if isinstance(out, Exception):
                problems, vals = [f"raised {out!r}"], []
            else:
                problems, vals = call.check(out, res.results)
            if reference is not None:
                want = reference["calls"][i]
                if len(want) != len(vals) or not np.all(oracle.close(vals, want, np.abs(want))):
                    problems.append("differs from the seed reference beyond tolerance")
            values.append(vals)
            verdict.add(f"{i}:{call.function}", problems)
        verdict.observations["calls"] = values
        return verdict

    def reference_entry(self, verdict: Verdict) -> dict:
        return {"calls": [[float(v) for v in vals] for vals in verdict.observations["calls"]]}


def make_workload(name: str, work: Path, seed: int, size: dict):
    if name == "model_sweep":
        return ModelSweep(seed, size)
    return CliWorkload(name, work, seed, size)


WORKLOADS = ("cli_batch", "sliding_strict", "model_sweep")
