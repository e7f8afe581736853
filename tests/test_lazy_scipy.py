"""scipy and the model layers load only where they compute.

The moment, VWAP, autocorrelation and simulation paths need numpy alone
(the simulator carries its own inverse normal CDF); scipy.optimize
(brentq) loads with the first bracketed pricing fallback. The tick
commands load none of the density, pricing or simulate layers.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mbm
from mbm import pricing

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: prints, after each step, the scipy modules loaded so far.
PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    def model_layers():
        return sorted(m for m in ("mbm.density", "mbm.pricing", "mbm.simulate") if m in sys.modules)

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
        with contextlib.redirect_stdout(io.StringIO()):
            code = mbm.cli.main(argv)
        steps[name] = [code, scipy_modules()]
        layers[name] = model_layers()
    brentq = mbm.pricing.brentq
    steps["mbm.pricing.brentq"] = [brentq.__module__, "scipy.optimize" in sys.modules]
    steps["layers"] = layers
    print(json.dumps(steps))
""")


@pytest.fixture(scope="module")
def probe_steps(tmp_path_factory):
    work = tmp_path_factory.mktemp("probe")
    ticks = work / "ticks.csv"
    rows = [f"{t},{10 + (t * 7) % 5},{1 + t % 3}" for t in range(12)]
    ticks.write_text("time,price,volume\n" + "\n".join(rows) + "\n", encoding="utf-8")
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


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(mbm)
    for name in mbm.__all__:
        assert getattr(mbm, name).__module__.startswith("mbm.")
        assert name in listed


def test_brentq_attribute_imports_scipy_optimize_on_first_access(probe_steps):
    module, loaded = probe_steps["mbm.pricing.brentq"]
    assert module.startswith("scipy.optimize") and loaded


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
    from scipy.optimize import brentq

    assert pricing.brentq is brentq
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(pricing, "brentq", counting)
    # strongly risk-averse with a small sale-date endowment: the damped
    # iteration does not settle and the bracketed fallback solves it
    scn = mbm.PricingScenario(
        utility=mbm.UtilitySpec("exponential", 2.0), beta=0.95, endowment_t=10.0,
        endowment_T=3.0, holdings=1.0, payoff_mean=5.0, payoff_variance=1.0, price_variance=1.0,
    )
    sol = mbm.solve_price_single(scn)
    assert len(calls) == 1
    assert sol.converged and abs(sol.residual) <= 1e-10 * max(1.0, abs(sol.mean_price))
