"""No command loads scipy, and the model layers load only where they compute.

Every command needs numpy alone: the simulator carries its own inverse
normal CDF and the pricing solvers their own Brent root finder, which
returns scipy's bits (scipy stays a test-only oracle). The tick commands
load none of the density, pricing or simulate layers.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mbm
from mbm import pricing
from mbm.errors import ConvergenceError

SRC = Path(__file__).resolve().parents[1] / "src"

# strongly risk-averse with a small sale-date endowment: the damped
# iteration does not settle and the bracketed fallback solves it
AVERSE_CFG = """\
[utility]
family = exponential
parameter = 2

[scenario]
beta = 0.95
endowment_t = 10
endowment_T = 3
holdings = 1
payoff_mean = 5
payoff_variance = 1
price_variance = 1
"""


def averse_scenario(alpha=2.0, beta=0.95, endowment_t=10.0, endowment_T=3.0, holdings=1.0,
                    payoff_mean=5.0, payoff_variance=1.0, price_variance=1.0):
    return mbm.PricingScenario(
        utility=mbm.UtilitySpec("exponential", alpha), beta=beta, endowment_t=endowment_t,
        endowment_T=endowment_T, holdings=holdings, payoff_mean=payoff_mean,
        payoff_variance=payoff_variance, price_variance=price_variance,
    )


# Runs in a fresh interpreter: prints, after each step, the scipy modules loaded so far.
PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    def model_layers():
        return sorted(m for m in ("mbm.density", "mbm.pricing", "mbm.simulate") if m in sys.modules)

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return mbm.cli.main(argv)

    ticks, work = sys.argv[1], sys.argv[2]
    steps, layers = {}, {}
    import mbm
    steps["import mbm"] = scipy_modules()
    import mbm.cli
    steps["import mbm.cli"] = scipy_modules()
    common = ["--input", ticks, "--window", "4"]
    commands = {
        "validate": ["validate", "--input", ticks],
        "moments": ["moments", *common, "--order", "4", "--method", "market",
                    "--output", work + "/m.json"],
        "vwap": ["vwap", *common, "--output", work + "/v.csv"],
        "autocorr": ["autocorr", *common, "--method", "market", "--lag", "1"],
        "density": ["density", "--input", ticks, "--order", "4", "--method", "frequency",
                    "--grid=0:30:51", "--output", work + "/d.csv"],
    }
    for name, argv in commands.items():
        steps[name] = [run(argv), scipy_modules()]
        layers[name] = model_layers()
    steps["layers"] = layers

    # the pricing steps also count the solves that reached the bracketed fallback
    import mbm.pricing
    port, brackets = mbm.pricing.brentq, []
    def counting(f, a, b, **kwargs):
        brackets.append((a, b))
        return port(f, a, b, **kwargs)
    mbm.pricing.brentq = counting
    cfg = ["--config", work + "/averse.cfg"]
    steps["price"] = [run(["price", *cfg]), scipy_modules(), len(brackets)]
    steps["optimize"] = [run(["optimize", *cfg, "--samples", work + "/s.csv", "--lo", "0",
                              "--hi", "1.5"]), scipy_modules(), len(brackets)]
    scn = mbm.PricingScenario(
        utility=mbm.UtilitySpec("exponential", 2.0), beta=0.95, endowment_t=10.0,
        endowment_T=3.0, holdings=1.0, payoff_mean=5.0, payoff_variance=1.0, price_variance=1.0)
    converged = mbm.solve_price_single(scn).converged
    steps["solve_price_single"] = [0 if converged else 1, scipy_modules(), len(brackets)]
    print(json.dumps(steps))
""")


@pytest.fixture(scope="module")
def probe_steps(tmp_path_factory):
    work = tmp_path_factory.mktemp("probe")
    ticks = work / "ticks.csv"
    rows = [f"{t},{10 + (t * 7) % 5},{1 + t % 3}" for t in range(12)]
    ticks.write_text("time,price,volume\n" + "\n".join(rows) + "\n", encoding="utf-8")
    (work / "averse.cfg").write_text(AVERSE_CFG, encoding="utf-8")
    (work / "s.csv").write_text(
        "price,payoff\n" + "".join(f"{4 + 0.01 * i},{5 + 0.01 * i}\n" for i in range(50)),
        encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(ticks), str(work)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("step", ["import mbm", "import mbm.cli"])
def test_import_loads_no_scipy(probe_steps, step):
    assert probe_steps[step] == []


@pytest.mark.parametrize("command", ["validate", "moments", "vwap", "autocorr", "density"])
def test_numpy_only_commands_load_no_scipy(probe_steps, command):
    assert probe_steps[command] == [0, []]


@pytest.mark.parametrize("command", ["validate", "moments", "vwap", "autocorr"])
def test_tick_commands_load_no_model_layer(probe_steps, command):
    assert probe_steps["layers"][command] == []


@pytest.mark.parametrize("step, brackets", [("price", 1), ("optimize", 1),
                                            ("solve_price_single", 2)])
def test_pricing_loads_no_scipy_through_the_bracketed_fallback(probe_steps, step, brackets):
    # brackets counts the bracketed solves so far: price has one, optimize none
    assert probe_steps[step] == [0, [], brackets]


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(mbm)
    for name in mbm.__all__:
        assert getattr(mbm, name).__module__.startswith("mbm.")
        assert name in listed


def test_simulate_loads_no_scipy(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("[simulate]\nlength = 50\nseed = 7\nphi = 0.5\nsigma = 0.1\nlog_sigma = 0.2\n",
                   encoding="utf-8")
    script = ("import json, sys, mbm.cli\n"
              f"assert mbm.cli.main(['simulate', '--config', {str(cfg)!r}, '--output', "
              f"{str(tmp_path / 's.csv')!r}]) == 0\n"
              "print(json.dumps(sorted(m for m in sys.modules"
              " if m == 'scipy' or m.startswith('scipy.'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_bracketed_fallback_calls_the_module_brentq(monkeypatch):
    port = pricing.brentq
    assert port.__module__ == "mbm.pricing"
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return port(*args, **kwargs)

    monkeypatch.setattr(pricing, "brentq", counting)
    sol = mbm.solve_price_single(averse_scenario())
    assert len(calls) == 1
    assert sol.converged and abs(sol.residual) <= 1e-10 * max(1.0, abs(sol.mean_price))


def _scipy_brentq():
    from scipy.optimize import brentq  # here, so collecting the suite imports no scipy

    return brentq


def _outcome(root, info):
    return root.hex(), info.iterations, info.function_calls


# (function, root): smooth, flat to ninth order, and a jump that only bisection settles
BRACKETED = [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0945514815423265),
    (lambda x: math.cos(x) - x, 0.7390851332151607),
    (lambda x: math.exp(x) - 3.0, math.log(3.0)),
    (lambda x: (x - 1.0) ** 9, 1.0),
    (lambda x: -1.0 if x < 0.7 else 2.0, 0.7),
]


@pytest.mark.parametrize("tolerances", [(2e-12, 8.881784197001252e-16), (1e-14, 8.9e-16),
                                        (1e-3, 1e-6)], ids=["scipy-default", "fallback", "loose"])
def test_brentq_port_matches_scipy_bitwise_on_a_grid_of_brackets(tolerances):
    scipy_brentq = _scipy_brentq()
    xtol, rtol = tolerances
    for f, root in BRACKETED:
        for below in (1e-3, 0.5, 3.0, 20.0):
            for above in (2e-3, 0.7, 4.0, 30.0):
                a, b = root - below, root + above
                want = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True, disp=False)
                if not want[1].converged:
                    with pytest.raises(ConvergenceError):
                        pricing.brentq(f, a, b, xtol=xtol, rtol=rtol)
                    continue
                got = pricing.brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
                assert _outcome(*got) == _outcome(*want), (root, a, b)
                assert pricing.brentq(f, a, b, xtol=xtol, rtol=rtol) == got[0]


def test_brentq_port_raises_where_scipy_runs_out_of_iterations():
    f, root = BRACKETED[3]
    _, info = _scipy_brentq()(f, root - 3.0, root + 4.0, maxiter=5, full_output=True, disp=False)
    assert not info.converged
    with pytest.raises(ConvergenceError, match="5 iterations"):
        pricing.brentq(f, root - 3.0, root + 4.0, maxiter=5)


def test_brentq_port_matches_scipy_bitwise_on_risk_averse_scenarios(monkeypatch):
    # the benchmark's risk-averse share: exponential utility, alpha near 2,
    # sale-date endowment near 3; every one solves through the fallback
    scipy_brentq, port = _scipy_brentq(), pricing.brentq
    pairs = []

    def both(*args, **kwargs):
        want, got = scipy_brentq(*args, **kwargs), port(*args, **kwargs)
        pairs.append((_outcome(*got), _outcome(*want)))
        return got

    monkeypatch.setattr(pricing, "brentq", both)
    rng = np.random.default_rng(7)
    for _ in range(8):
        draw = rng.uniform([1.8, 0.93, 9.0, 2.8, 0.8, 4.5, 0.5, 0.5],
                           [2.2, 0.97, 11.0, 3.2, 1.2, 5.5, 1.5, 1.5]).tolist()
        assert mbm.solve_price_single(averse_scenario(*draw)).converged
    assert len(pairs) == 8
    assert all(got == want for got, want in pairs)
