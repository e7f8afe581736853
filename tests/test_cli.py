import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mbm
import mbm.ticks
from mbm.cli import SETTINGS, build_parser, main
from mbm.config import build_scenario, build_sim_spec, build_utility, load_config
from mbm.errors import DataError
from mbm.moments import compute_moment_set

from conftest import make_window

ANTI_CSV = "time,price,volume\n0,10,1\n1,1,10\n"

SIM_CFG = """\
[simulate]
length = 500
seed = 3
phi = 0
sigma = 0.05
median_volume = 40
log_sigma = 0.3
"""

PRICE_CFG = """\
[utility]
family = log

[scenario]
kind = single
beta = 0.95
endowment_t = 10
endowment_T = 10
holdings = 1
payoff_mean = 5
"""

TWO_SALES_CFG = """\
[utility]
family = log

[scenario]
kind = two_sales
beta = 0.95
endowment_t = 10
endowment_T = 10
holdings = 1
payoff_mean = 5
payoff_variance = 1
price_variance = 1
holdings2 = 1
payoff_mean2 = 5
payoff_variance2 = 1
price_variance2 = 1
price_autocorr = 0.5
payoff_autocorr = 0.5
T2 = 3
"""


@pytest.fixture
def ticks_path(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("time,price,volume\n0,10,1\n1,20,3\n2,12,2\n3,18,1\n", encoding="utf-8")
    return path


def test_validate_ok(ticks_path, capsys):
    assert main(["validate", "--input", str(ticks_path)]) == 0
    assert "ok ticks=4" in capsys.readouterr().out


def test_validate_reports_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,price,volume,value\n0,10,2,25\n", encoding="utf-8")
    assert main(["validate", "--input", str(bad)]) == 1
    assert "input error" in capsys.readouterr().err


def test_validate_missing_file_is_input_error(capsys):
    assert main(["validate", "--input", "/nonexistent/ticks.csv"]) == 1


@pytest.mark.parametrize("data, line", [
    (b"time,price,volume\n0,1\xff,2\n", 2),
    (b"time,price,volume\r\n0,1,2\r\n1,1,2\r\n2,\xe9,1\r\n", 4),
    (b"ti\xc3me,price,volume\n0,1,2\n", 1),
])
def test_a_tick_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, tick_cache, data, line):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(data)
    assert main(["validate", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: line {line}: not UTF-8 text (")
    assert "Traceback" not in err
    assert not tick_cache.exists() or not any(tick_cache.iterdir())


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_validate_reads_each_line_end_as_a_text_mode_read_does(tmp_path, capsys, end):
    path = tmp_path / "ticks.csv"
    path.write_bytes(end.join([b"time,price,volume", b"0,10,1", b"1,11,2", b"2,12,1", b""]))
    assert main(["validate", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "ok ticks=3 spacing=1.0\n"


def test_a_samples_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    cfg, samples = tmp_path / "p.cfg", tmp_path / "s.csv"
    cfg.write_text(PRICE_CFG, encoding="utf-8")
    samples.write_bytes(b"price,payoff\n4.0,5.0\n4.5,\xff\n")
    argv = ["optimize", "--config", str(cfg), "--samples", str(samples), "--hi", "1.5"]
    assert main(argv) == 1
    assert "input error: samples line 3: not UTF-8 text (" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes(SIM_CFG.encode().replace(b"500", b"5\xff00"))  # line 2
    assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr() == ("", "input error: config line 2: not UTF-8 text (invalid start byte)\n")
    assert not (tmp_path / "t.csv").exists()


def test_tick_commands_give_the_same_bytes_cold_and_warm(tmp_path, capsys, tick_cache,
                                                         monkeypatch):
    parses = []
    parse = mbm.ticks._parse_csv
    monkeypatch.setattr(mbm.ticks, "_parse_csv", lambda text: parses.append(1) or parse(text))
    cfg, ticks = tmp_path / "sim.cfg", tmp_path / "ticks.csv"
    cfg.write_text(SIM_CFG, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--output", str(ticks)]) == 0
    with open(ticks, "ab") as fh:  # CRLF line ends, read as a text-mode read would
        fh.write(b"1000,10.5,2,21\r\n")
    commands = {
        "validate": [],
        "moments": ["--window", "25", "--order", "4", "--method", "market", "--mode", "sliding",
                    "--strict"],
        "vwap": ["--window", "25"],
        "autocorr": ["--window", "25", "--method", "frequency", "--lag", "2"],
    }
    runs = []
    for run in ("cold", "warm"):
        capsys.readouterr()
        results = {}
        for command, args in commands.items():
            out = tmp_path / f"{command}-{run}.out"
            argv = [command, "--input", str(ticks), *args]
            code = main(argv + (["--output", str(out)] if command != "validate" else []))
            results[command] = (code, capsys.readouterr(),
                                out.read_bytes() if out.exists() else None)
        runs.append(results)
        assert len(list(tick_cache.iterdir())) == 1
    assert runs[0] == runs[1]
    assert len(parses) == 1  # the first command parsed the file, the other seven loaded it
    assert [code for code, _, _ in runs[0].values()] == [0, 3, 0, 0]
    assert runs[0]["validate"][1].out == "ok ticks=501 spacing=irregular\n"


def test_moments_happy_path(ticks_path, tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main([
        "moments", "--input", str(ticks_path), "--window", "2",
        "--order", "4", "--method", "market", "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 2
    assert payload[0]["method"] == "market"
    assert payload[0]["order"] == 4
    assert payload[0]["mean"] == 17.5
    stdout = capsys.readouterr().out
    assert stdout.count("window ") == 2


def test_moments_strict_negative_variance_exits_3(tmp_path, capsys):
    path = tmp_path / "anti.csv"
    path.write_text(ANTI_CSV, encoding="utf-8")
    code = main([
        "moments", "--input", str(path), "--window", "2",
        "--order", "2", "--method", "market", "--strict",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "window 0" in err
    assert "negative market variance" in err


def test_moments_non_strict_still_reports_flags(tmp_path, capsys):
    path = tmp_path / "anti.csv"
    path.write_text(ANTI_CSV, encoding="utf-8")
    code = main([
        "moments", "--input", str(path), "--window", "2",
        "--order", "2", "--method", "market",
    ])
    assert code == 0
    assert "negative_variance" in capsys.readouterr().out


def test_vwap_output(ticks_path, tmp_path, capsys):
    out = tmp_path / "vwap.csv"
    code = main(["vwap", "--input", str(ticks_path), "--window", "2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "center_time,vwap"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 17.5


def test_autocorr_command(ticks_path, tmp_path):
    out = tmp_path / "ac.json"
    code = main([
        "autocorr", "--input", str(ticks_path), "--window", "2", "--lag", "1",
        "--method", "frequency", "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 1
    assert set(payload[0]) == {"center_time_1", "center_time_2", "autocorrelation"}


def test_autocorr_needs_enough_windows(ticks_path):
    assert main([
        "autocorr", "--input", str(ticks_path), "--window", "4", "--lag", "1",
        "--method", "frequency",
    ]) == 1


def test_density_emits_csv_and_json(tmp_path):
    sim = tmp_path / "sim.cfg"
    sim.write_text(SIM_CFG, encoding="utf-8")
    ticks = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(sim), "--output", str(ticks)]) == 0
    out = tmp_path / "dens.csv"
    code = main([
        "density", "--input", str(ticks), "--order", "4", "--method", "market",
        "--grid", "5:15:301", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "price,density"
    assert len(lines) == 302
    payload = json.loads((tmp_path / "dens.json").read_text())
    assert abs(payload["total_mass"] - 1.0) <= 1e-6


def test_density_output_at_the_summary_path_is_input_error(tmp_path, capsys, monkeypatch):
    # the JSON summary goes to the output's .json path; a .json output used to lose its CSV to it
    sim = tmp_path / "sim.cfg"
    sim.write_text(SIM_CFG, encoding="utf-8")
    assert main(["simulate", "--config", str(sim), "--output", str(tmp_path / "t.csv")]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    for out, message in (("dens.json", "output 'dens.json' is the path of the JSON summary"),
                         ("./dens.json", "output './dens.json' is the path of the JSON summary"),
                         ("", "output must be a file path, got ''")):
        code = main(["density", "--input", "t.csv", "--order", "4", "--method", "market",
                     "--grid", "5:15:31", "--output", out])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"input error: {message}" + (
            "; give the CSV another suffix\n" if out else "\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.cfg", "t.csv"]


def test_density_damped_method(tmp_path):
    sim = tmp_path / "sim.cfg"
    sim.write_text(SIM_CFG, encoding="utf-8")
    ticks = tmp_path / "t.csv"
    main(["simulate", "--config", str(sim), "--output", str(ticks)])
    out = tmp_path / "dens.csv"
    code = main([
        "density", "--input", str(ticks), "--order", "4", "--method", "market",
        "--density-method", "damped", "--damping-sigma", "0.05",
        "--grid=-60:80:301", "--output", str(out),
    ])
    assert code == 0


ORDER_BOUND = "input error: order {} is above 170, the largest whose factorial is a float\n"


def test_a_damped_density_above_order_170_is_an_input_error(tmp_path, capsys):
    sim, ticks = tmp_path / "sim.cfg", tmp_path / "t.csv"
    sim.write_text(SIM_CFG, encoding="utf-8")
    main(["simulate", "--config", str(sim), "--output", str(ticks)])
    capsys.readouterr()
    code = main(["density", "--input", str(ticks), "--order", "200", "--method", "market",
                 "--density-method", "damped", "--damping-sigma", "0.5", "--grid=5:15:11",
                 "--output", str(tmp_path / "d.csv")])
    assert (code, capsys.readouterr().err) == (1, ORDER_BOUND.format(200))


@pytest.mark.parametrize("command", ["moments", "density"])
@pytest.mark.parametrize("order", [171, 10**11])
def test_a_moment_order_above_170_is_an_input_error_before_any_output(ticks_path, tmp_path,
                                                                       command, order):
    # in a process of its own: a loop over 10**11 orders would not end
    out = tmp_path / "out.csv"
    args = ["--window", "2"] if command == "moments" else ["--grid=0:40:11"]
    ran = subprocess.run([sys.executable, "-m", "mbm.cli", command, "--input", str(ticks_path),
                          "--order", str(order), "--method", "market", *args, "--output", str(out)],
                         capture_output=True, text=True, timeout=10,
                         env=dict(os.environ, PYTHONPATH=str(Path(mbm.__file__).parents[1])))
    assert (ran.returncode, ran.stdout, ran.stderr) == (1, "", ORDER_BOUND.format(order))
    assert not out.exists()


def test_a_density_grid_too_large_to_allocate_is_an_input_error(ticks_path, tmp_path, capsys):
    # 8 PB of grid: the allocation is refused at once, taking no memory
    points = 10**15
    code = main(["density", "--input", str(ticks_path), "--order", "4", "--method", "frequency",
                 f"--grid=0:100:{points}", "--output", str(tmp_path / "d.csv")])
    assert (code, capsys.readouterr().err) == (
        1, f"input error: grid of {points} points does not fit in memory\n")


@pytest.mark.parametrize("grid, density_args, code, message", [
    ("0:40:100000000000000000000000", [], 1,
     "input error: grid of 100000000000000000000000 points does not fit in memory"),
    ("0:40:101", ["--density-method", "damped", "--damping-sigma", "1e200"], 2,
     "numerical failure: damped_inversion: a power of damping_sigma 1e+200 up to 4 overflows"),
    ("-1e300:1e300:101", [], 2,
     "numerical failure: gram_charlier: non-finite density values on the grid"),
    ("-1e300:1e300:101", ["--density-method", "damped", "--damping-sigma", "1"], 2,
     "numerical failure: damped_inversion: non-finite density values on the grid"),
], ids=["grid-past-numpy-size", "damping-powers-overflow", "gc-series-overflows",
        "damped-series-overflows"])
def test_a_density_that_cannot_be_made_is_one_line_without_warnings(
        ticks_path, tmp_path, capsys, grid, density_args, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["density", "--input", str(ticks_path), "--order", "4", "--method",
                     "frequency", f"--grid={grid}", *density_args,
                     "--output", str(tmp_path / "d.csv")]) == code
    assert capsys.readouterr() == ("", message + "\n")
    assert not (tmp_path / "d.csv").exists()


def test_density_of_a_file_without_ticks_is_an_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("time,price,volume\n", encoding="utf-8")
    code = main(["density", "--input", str(empty), "--order", "4", "--method", "market",
                 "--grid=0:1:11", "--output", str(tmp_path / "d.csv")])
    assert (code, capsys.readouterr().err) == (1, "input error: cannot window an empty series\n")


def test_density_strict_rejects_flagged_set(tmp_path, capsys):
    path = tmp_path / "anti.csv"
    path.write_text(ANTI_CSV, encoding="utf-8")
    code = main([
        "density", "--input", str(path), "--order", "2", "--method", "market",
        "--grid=-100:100:101", "--output", str(tmp_path / "d.csv"), "--strict",
    ])
    assert code == 3
    variance = compute_moment_set(make_window([10.0, 1.0], [1.0, 10.0]), 2, "market").variance
    assert variance < 0.0
    assert capsys.readouterr() == ("", f"strict violation: moment set has negative market "
                                       f"variance {variance!r}; density undefined\n")
    assert not (tmp_path / "d.csv").exists()


def test_density_flagged_set_without_strict_is_numerical_failure(tmp_path):
    path = tmp_path / "anti.csv"
    path.write_text(ANTI_CSV, encoding="utf-8")
    code = main([
        "density", "--input", str(path), "--order", "2", "--method", "market",
        "--grid=-100:100:101", "--output", str(tmp_path / "d.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("density_method", ["gram_charlier", "damped"])
def test_density_of_non_finite_moments_is_one_numerical_failure(tmp_path, capsys,
                                                                density_method):
    path = tmp_path / "big.csv"
    path.write_text("time,price,volume\n0,1e160,1\n1,2e160,1\n2,3e160,1\n", encoding="utf-8")
    assert main(["density", "--input", str(path), "--order", "4", "--method", "market",
                 "--density-method", density_method, "--damping-sigma", "1",
                 "--grid=-1e161:1e161:11", "--output", str(tmp_path / "d.csv")]) == 2
    assert capsys.readouterr() == ("", "numerical failure: cannot build a density from "
                                       "non-finite moments [2e+160, inf, inf, inf]\n")


def test_price_single(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRICE_CFG, encoding="utf-8")
    out = tmp_path / "p.json"
    assert main(["price", "--config", str(cfg), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "single"
    assert payload["solution"]["converged"]
    assert payload["solution"]["mean_price"] == pytest.approx(47.5 / 19.75, abs=1e-9)


def test_price_two_sales(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(TWO_SALES_CFG, encoding="utf-8")
    out = tmp_path / "p.json"
    assert main(["price", "--config", str(cfg), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "two_sales"
    assert payload["second_purchase"]["mean_price"] < payload["first_purchase"]["mean_price"]


TWO_PURCHASE_CFG = "".join(
    line for line in TWO_SALES_CFG.replace("kind = two_sales", "kind = two_purchase")
    .splitlines(keepends=True) if not line.startswith(("payoff_autocorr", "T2"))
)


def test_price_two_purchase(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(TWO_PURCHASE_CFG, encoding="utf-8")
    out = tmp_path / "p.json"
    assert main(["price", "--config", str(cfg), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "two_purchase"
    assert payload["second_purchase"]["converged"]


@pytest.mark.parametrize("kind", ["single", "two_purchase", "two_sales"])
def test_price_kind_padded_with_spaces_runs_as_the_unpadded_kind(tmp_path, capsys, kind):
    # a padded kind used to fail an assert (single) or run the two-sales solver (two_purchase)
    cfg, out = tmp_path / "p.cfg", tmp_path / "p.json"
    cfg.write_text({"single": PRICE_CFG, "two_purchase": TWO_PURCHASE_CFG,
                    "two_sales": TWO_SALES_CFG}[kind], encoding="utf-8")
    runs = []
    for spelled in (kind, f" {kind}", f"{kind} ", f"\t{kind}  "):
        code = main(["price", "--config", str(cfg), "--set", f"scenario.kind={spelled}",
                     "--output", str(out)])
        runs.append((code, *capsys.readouterr(), out.read_bytes()))
    code, _, err, data = runs[0]
    assert (code, err, json.loads(data)["kind"]) == (0, "", kind)
    assert runs[1:] == runs[:1] * 3


def test_price_non_convergence_exits_2(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRICE_CFG + "payoff_variance = 1e6\n", encoding="utf-8")
    assert main(["price", "--config", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_price_non_finite_input_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRICE_CFG.replace("endowment_t = 10", "endowment_t = nan"), encoding="utf-8")
    assert main(["price", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "endowment_t" in err


def test_price_set_override(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRICE_CFG, encoding="utf-8")
    out = tmp_path / "p.json"
    assert main([
        "price", "--config", str(cfg), "--set", "scenario.payoff_mean=6",
        "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["solution"]["mean_price"] > 47.5 / 19.75


def test_optimize_command(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRICE_CFG, encoding="utf-8")
    samples = tmp_path / "s.csv"
    samples.write_text(
        "price,payoff\n" + "\n".join(f"{4 + 0.01 * i},{5 + 0.01 * i}" for i in range(100)),
        encoding="utf-8",
    )
    out = tmp_path / "o.json"
    code = main([
        "optimize", "--config", str(cfg), "--samples", str(samples),
        "--lo", "0", "--hi", "1.5", "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert 0.0 < payload["holdings"] < 1.5
    assert not payload["at_boundary"]
    assert abs(payload["foc_residual"]) <= 1e-8 * 5.0


@pytest.mark.parametrize("utility", ["family = log", "family = power\nparameter = 2"],
                         ids=["log", "power"])
def test_an_infinite_sale_date_consumption_is_a_numerical_failure(tmp_path, capsys, utility):
    # holdings 1e308 make the sale-date consumption inf, where log's u' reads 0
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRICE_CFG.replace("family = log", utility).replace(
        "holdings = 1\n", "holdings = 1e308\n"), encoding="utf-8")
    assert main(["price", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == (
        "", "numerical failure: sale-date mean consumption inf inadmissible\n")


def test_an_overflowing_holdings_bound_is_one_input_error_line(tmp_path, capsys):
    # the overflowing consumption fails the domain test, with no overflow warning before it
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRICE_CFG, encoding="utf-8")
    samples = tmp_path / "s.csv"
    samples.write_text("price,payoff\n4.0,5.0\n4.5,6.5\n", encoding="utf-8")
    assert main(["optimize", "--config", str(cfg), "--samples", str(samples),
                 "--lo", "0", "--hi", "1e308"]) == 1
    assert capsys.readouterr() == ("", "input error: holdings bound hi=1e+308 makes consumption "
                                       "inadmissible for some sample\n")


def test_simulate_deterministic_bytes(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG, encoding="utf-8")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG, encoding="utf-8")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(cfg), "--output", str(out1)])
    main(["simulate", "--config", str(cfg), "--seed", "8", "--output", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_env_variable_supplies_setting(ticks_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MBM_WINDOW", "2")
    monkeypatch.setenv("MBM_METHOD", "market")
    code = main(["moments", "--input", str(ticks_path), "--order", "2"])
    assert code == 0
    assert capsys.readouterr().out.count("window ") == 2


def test_flag_beats_env(ticks_path, monkeypatch, capsys):
    monkeypatch.setenv("MBM_WINDOW", "2")
    code = main([
        "moments", "--input", str(ticks_path), "--window", "4",
        "--order", "2", "--method", "market",
    ])
    assert code == 0
    assert capsys.readouterr().out.count("window ") == 1


def test_config_run_section_supplies_settings(ticks_path, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[run]\ninput = {ticks_path}\nwindow = 2\norder = 2\nmethod = frequency\n",
        encoding="utf-8",
    )
    assert main(["moments", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.count("window ") == 2


def test_missing_required_setting_is_input_error(capsys):
    assert main(["moments", "--order", "2", "--method", "market"]) == 1
    assert "input" in capsys.readouterr().err


@pytest.mark.parametrize("mode, prices, volumes, non_finite", [
    # p**2 overflows at these prices; volumes vary so the order-2 correlation is defined
    ("disjoint", [1e160, 2e160, 3e160], [1, 2, 1], [0]),
    # overlapping windows: only the two that hold a huge tick overflow, after
    # windows flagged for negative variance or correlation
    ("sliding", [10, 1, 12, 11, 10, 11, 1e160, 2e160], [1, 10, 2, 2, 1, 2, 1, 2], [4, 5]),
], ids=["disjoint", "sliding"])
def test_moments_strict_reports_non_finite_moments(tmp_path, capsys, mode, prices, volumes,
                                                   non_finite):
    path = tmp_path / "huge.csv"
    path.write_text("time,price,volume\n" + "".join(
        f"{t},{p},{u}\n" for t, (p, u) in enumerate(zip(prices, volumes))), encoding="utf-8")
    out = tmp_path / "m.json"
    with warnings.catch_warnings():  # a power overflowing outside the kernels' errstate fails
        warnings.simplefilter("error", RuntimeWarning)
        code = main([
            "moments", "--input", str(path), "--window", "3", "--order", "4", "--mode", mode,
            "--method", "market", "--strict", "--output", str(out),
        ])
    assert code == 3
    captured = capsys.readouterr()
    assert [int(i) for i in re.findall(r"window (\d+) .*flags=non_finite", captured.out)] == non_finite
    assert [int(i) for i in re.findall(r"window (\d+): non-finite", captured.err)] == non_finite
    reported = [int(i) for i in re.findall(r"window (\d+): ", captured.err)]
    assert reported == sorted(reported)  # the messages come in window order
    assert not {int(i) for i in re.findall(r"window (\d+): order-2", captured.err)} & set(non_finite)
    assert "RuntimeWarning" not in captured.err
    data = json.loads(out.read_text(encoding="utf-8"))
    assert [i for i, d in enumerate(data) if d["flags"] == ["non_finite"]] == non_finite


def test_frequency_moments_of_overflowing_prices_warn_nothing(tmp_path, capsys):
    # p**2 and the mean squared overflow; the rounding-noise test runs on them too
    path = tmp_path / "huge.csv"
    path.write_text("time,price,volume\n0,2e165,1\n1,3e165,1\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["moments", "--input", str(path), "--window", "2", "--order", "2",
                     "--method", "frequency"])
    assert code == 0
    assert capsys.readouterr() == (
        "window 0 center_time=0.5 mean=2.5e+165 variance=nan flags=non_finite\n", "")


@pytest.mark.parametrize("line", ["sigma = nan", "log_sigma = inf", "length = nan", "seed = inf"])
def test_simulate_rejects_non_finite_config_values(tmp_path, capsys, line):
    key = line.split(" =")[0]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("".join(line + "\n" if row.split(" =")[0] == key else row + "\n"
                           for row in SIM_CFG.splitlines()), encoding="utf-8")
    assert line in cfg.read_text(encoding="utf-8")
    code = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "s.csv")])
    assert code == 1
    assert key in capsys.readouterr().err


def test_autocorr_overflow_is_numerical_failure(tmp_path, capsys):
    # the C1*C2 products overflow at these prices
    path = tmp_path / "huge.csv"
    path.write_text("time,price,volume\n" + "".join(
        f"{i},{p},{u}\n" for i, (p, u) in enumerate(zip(["1e160", "2e160", "3e160"] * 2, [1, 2, 1, 2, 1, 2]))
    ), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["autocorr", "--input", str(path), "--window", "3", "--method", "market"])
    assert code == 2
    captured = capsys.readouterr()
    assert "numerical failure: window 0: " in captured.err and "not finite" in captured.err
    assert "autocorr=" not in captured.out


SAMPLES = "price,payoff\n" + "".join(f"{4 + 0.01 * i},{5 + 0.01 * i}\n" for i in range(20))
MOMENTS = ["moments", "--input", "{tmp}/ticks.csv", "--window", "4", "--order", "2",
           "--method", "market", "--strict"]
DENSITY = ["density", "--input", "{tmp}/ticks.csv", "--order", "2", "--method", "frequency",
           "--output", "{tmp}/d.csv", "--grid"]
OPTIMIZE = ["optimize", "--config", "{tmp}/price.cfg", "--lo", "0", "--samples"]
SIMULATE = ["simulate", "--output", "{tmp}/s.csv", "--config"]


@pytest.mark.parametrize("argv, code, expected", [
    (MOMENTS + ["--decorrelation-threshold", "nan"], 1, "decorrelation_threshold"),
    (DENSITY + ["0:20:1e3"], 1, "'1e3'"),
    (DENSITY + ["0:20:abc"], 1, "'abc'"),
    (DENSITY + ["0:inf:100"], 1, "'inf'"),
    (OPTIMIZE + ["{tmp}/good.csv", "--hi", "inf"], 1, "hi must be a finite decimal"),
    (OPTIMIZE + ["{tmp}/nan.csv", "--hi", "1.5"], 1, "samples line 22: price"),
    (OPTIMIZE + ["{tmp}/underscore.csv", "--hi", "1.5"], 1, "'1_0'"),
    (OPTIMIZE + ["{tmp}/blank.csv", "--hi", "1.5"], 1, "samples line 5: price"),
    (SIMULATE + ["{tmp}/length.cfg"], 1, "[simulate] length"),
    (SIMULATE + ["{tmp}/seed.cfg"], 0, "seed=12345678901234567890"),
], ids=["threshold-nan", "grid-points-1e3", "grid-points-abc", "grid-hi-inf", "hi-inf",
        "sample-nan", "sample-underscore", "sample-line-after-blanks", "length-fraction",
        "seed-beyond-2**53"])
def test_outside_numbers_are_finite_decimals_or_plain_integers(
        tmp_path, capsys, argv, code, expected):
    files = {
        "ticks.csv": "time,price,volume\n0,10,1\n1,20,3\n2,12,2\n3,18,1\n",
        "price.cfg": PRICE_CFG,
        "good.csv": SAMPLES,
        "nan.csv": SAMPLES + "nan,5\n",
        "underscore.csv": SAMPLES + "1_0,5\n",
        "blank.csv": "price,payoff\n4,5\n\n\nabc,5\n",
        "length.cfg": SIM_CFG.replace("length = 500", "length = 2.7"),
        "seed.cfg": SIM_CFG.replace("seed = 3", "seed = 12345678901234567890"),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    captured = capsys.readouterr()
    if code:
        assert "input error" in captured.err and expected in captured.err
    else:
        assert expected in captured.out


@pytest.mark.parametrize("threshold", ["-1", "1.5", "-0.0001"])
def test_decorrelation_threshold_outside_unit_interval_is_input_error(
        ticks_path, capsys, threshold):
    # a negative threshold used to flag every window and exit 3
    code = main(["moments", "--input", str(ticks_path), "--window", "2", "--order", "2",
                 "--method", "market", "--strict", "--decorrelation-threshold", threshold])
    err = capsys.readouterr().err
    assert code == 1
    assert "input error" in err and "decorrelation_threshold must be in [0, 1]" in err


@pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["plain", "strict"])
def test_a_bad_threshold_is_an_input_error_before_any_output(ticks_path, tmp_path, capsys,
                                                            strict):
    out = tmp_path / "m.json"
    code = main(["moments", "--input", str(ticks_path), "--window", "2", "--order", "2",
                 "--method", "market", "--decorrelation-threshold", "1.5", *strict,
                 "--output", str(out)])
    assert (code, capsys.readouterr()) == (
        1, ("", "input error: decorrelation_threshold must be in [0, 1], got 1.5\n"))
    assert not out.exists()


CONSTANT_PRICE_CFG = """\
[simulate]
length = 2000
seed = 3
price_model = constant
base_price = 3.3
log_sigma = 0.5
"""


@pytest.mark.parametrize("method", ["frequency", "market"])
def test_constant_price_moments_pass_strict_under_both_averagings(tmp_path, capsys, method):
    # the market variance of 8 of these 20 windows was rounding noise of -7.1e-15 to -1.8e-15
    cfg, ticks = tmp_path / "sim.cfg", tmp_path / "ticks.csv"
    cfg.write_text(CONSTANT_PRICE_CFG, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--output", str(ticks)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["moments", "--input", str(ticks), "--window", "100", "--order", "4",
                     "--method", method, "--strict"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 20 and "negative_variance" not in out


@pytest.mark.parametrize("threshold", ["0", "1"])
def test_decorrelation_threshold_bounds_are_accepted(ticks_path, capsys, threshold):
    code = main(["moments", "--input", str(ticks_path), "--window", "2", "--order", "2",
                 "--method", "frequency", "--strict", "--decorrelation-threshold", threshold])
    assert code in (0, 3)
    assert "input error" not in capsys.readouterr().err


EMPTY_SETTING_RUNS = {
    "lag": ["autocorr", "--input", "{tmp}/ticks.csv", "--window", "2", "--method", "market"],
    "lo": ["optimize", "--config", "{tmp}/price.cfg", "--samples", "{tmp}/s.csv", "--hi", "1.5"],
    "decorrelation_threshold": ["moments", "--input", "{tmp}/ticks.csv", "--window", "2",
                                "--order", "2", "--method", "market", "--strict"],
}


@pytest.mark.parametrize("source", ["flag", "env", "run"])
@pytest.mark.parametrize("name", list(EMPTY_SETTING_RUNS))
def test_empty_optional_number_is_input_error(tmp_path, capsys, monkeypatch, name, source):
    # only an unset setting takes the default; an empty one is no number
    (tmp_path / "ticks.csv").write_text("time,price,volume\n0,10,1\n1,20,3\n2,12,2\n3,18,1\n",
                                        encoding="utf-8")
    (tmp_path / "s.csv").write_text(SAMPLES, encoding="utf-8")
    run_section = f"[run]\n{name} =\n" if source == "run" else ""
    (tmp_path / "price.cfg").write_text(PRICE_CFG + "\n" + run_section, encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in EMPTY_SETTING_RUNS[name]]
    if source == "flag":
        argv += ["--" + name.replace("_", "-"), ""]
    elif source == "env":
        monkeypatch.setenv("MBM_" + name.upper(), "")
    elif name != "lo":
        (tmp_path / "run.cfg").write_text(run_section, encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "input error" in err and f"{name} must be" in err and "got ''" in err


@pytest.mark.parametrize("name, argv, expected", [
    ("mode", ["vwap", "--input", "{tmp}/ticks.csv", "--window", "2"],
     "unknown windowing mode ''"),
    ("density_method", ["density", "--input", "{tmp}/ticks.csv", "--order", "2",
                        "--method", "frequency", "--grid=0:30:31", "--output", "{tmp}/d.csv"],
     "density_method must be gram_charlier or damped, got ''"),
])
def test_empty_optional_choice_is_input_error(tmp_path, capsys, monkeypatch, name, argv, expected):
    (tmp_path / "ticks.csv").write_text("time,price,volume\n0,10,1\n1,20,3\n2,12,2\n3,18,1\n",
                                        encoding="utf-8")
    monkeypatch.setenv("MBM_" + name.upper(), "")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    assert expected in capsys.readouterr().err


EMPTY_OUTPUT_RUNS = {
    "moments": ["moments", "--input", "{tmp}/ticks.csv", "--window", "2", "--order", "2",
                "--method", "market"],
    "vwap": ["vwap", "--input", "{tmp}/ticks.csv", "--window", "2"],
    "autocorr": ["autocorr", "--input", "{tmp}/ticks.csv", "--window", "2", "--method", "market"],
    "price": ["price", "--config", "{tmp}/price.cfg"],
    "optimize": ["optimize", "--config", "{tmp}/price.cfg", "--samples", "{tmp}/s.csv",
                 "--lo", "0", "--hi", "1.5"],
}


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", list(EMPTY_OUTPUT_RUNS))
def test_empty_output_path_is_input_error(tmp_path, capsys, monkeypatch, command, source):
    # an empty path used to write nothing and exit 0
    files = {"ticks.csv": "time,price,volume\n0,10,1\n1,20,3\n2,12,2\n3,18,1\n",
             "price.cfg": PRICE_CFG, "s.csv": SAMPLES}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(tmp=tmp_path) for arg in EMPTY_OUTPUT_RUNS[command]]
    if source == "flag":
        argv += ["--output", ""]
    else:
        monkeypatch.setenv("MBM_OUTPUT", "")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "output must be a file path, got ''" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("command", ["vwap", "density"])
def test_unwritable_output_is_input_error(ticks_path, tmp_path, capsys, command):
    # a write error used to escape as an OSError traceback
    if command == "vwap":
        argv = ["vwap", "--input", str(ticks_path), "--window", "2",
                "--output", str(tmp_path / "missing" / "v.csv")]
    else:
        (tmp_path / "d.json").mkdir()  # the CSV is written, the JSON beside it cannot be
        argv = ["density", "--input", str(ticks_path), "--order", "2", "--method", "market",
                "--grid=-40:70:111", "--output", str(tmp_path / "d.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "input error: cannot write" in err and "Traceback" not in err
    assert (command == "vwap") != (tmp_path / "d.csv").is_file()


# the settings each subcommand reads; every other setting's flag is a usage error
READS = {
    "validate": {"input"},
    "moments": {"input", "output", "window", "mode", "order", "method",
                "decorrelation_threshold", "strict"},
    "vwap": {"input", "output", "window", "mode"},
    "autocorr": {"input", "output", "window", "mode", "method", "lag"},
    "density": {"input", "output", "order", "method", "grid", "density_method",
                "damping_sigma", "strict"},
    "price": {"output"},
    "optimize": {"output", "samples", "lo", "hi"},
    "simulate": {"output", "seed"},
}


def test_each_command_takes_exactly_its_settings():
    assert sum(map(len, READS.values())) == 34
    assert set().union(*READS.values()) == set(SETTINGS)
    parser = build_parser()
    for command, reads in READS.items():
        for name in SETTINGS:
            flag = ["--" + name.replace("_", "-")] + ([] if name == "strict" else ["1"])
            if name in reads:
                assert getattr(parser.parse_args([command, *flag]), name) is not None
            else:
                with pytest.raises(DataError, match="unrecognized arguments"):
                    parser.parse_args([command, *flag])


@pytest.mark.parametrize("argv, expected", [
    (["vwap", "--input", "{tmp}/ticks.csv", "--window", "2", "--order", "3"],
     "unrecognized arguments: --order 3"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "required: command"),
    (["moments", "--input", "{tmp}/ticks.csv", "--window", "2", "--order", "2",
      "--method", "bogus"], "unknown method 'bogus'"),
    (["vwap", "--input", "{tmp}/ticks.csv", "--window", "2", "--mode", "bogus"],
     "unknown windowing mode 'bogus'"),
    (["density", "--input", "{tmp}/ticks.csv", "--order", "2", "--method", "market",
      "--grid=0:30:31", "--output", "{tmp}/d.csv", "--density-method", "bogus"],
     "density_method must be gram_charlier or damped, got 'bogus'"),
], ids=["foreign-flag", "unknown-subcommand", "no-subcommand", "bad-method", "bad-mode",
        "bad-density-method"])
def test_usage_errors_and_bad_choices_are_input_errors(tmp_path, capsys, argv, expected):
    (tmp_path / "ticks.csv").write_text("time,price,volume\n0,10,1\n1,20,3\n2,12,2\n3,18,1\n",
                                        encoding="utf-8")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and expected in err


def test_bad_choice_gives_one_message_from_flag_and_env(ticks_path, capsys, monkeypatch):
    argv = ["moments", "--input", str(ticks_path), "--window", "2", "--order", "2"]
    assert main(argv + ["--method", "bogus"]) == 1
    from_flag = capsys.readouterr().err
    monkeypatch.setenv("MBM_METHOD", "bogus")
    assert main(argv) == 1
    assert capsys.readouterr().err == from_flag


@pytest.mark.parametrize("source", ["env", "run"])
@pytest.mark.parametrize("raw, strict", [
    ("1", True), ("true", True), ("Yes", True), ("on", True),
    ("0", False), ("false", False), ("no", False), (" OFF ", False),
])
def test_boolean_setting_spellings(tmp_path, capsys, monkeypatch, source, raw, strict):
    path = tmp_path / "anti.csv"
    path.write_text(ANTI_CSV, encoding="utf-8")
    argv = ["moments", "--input", str(path), "--window", "2", "--order", "2",
            "--method", "market"]
    if source == "env":
        monkeypatch.setenv("MBM_STRICT", raw)
    else:
        (tmp_path / "run.cfg").write_text(f"[run]\nstrict = {raw}\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == (3 if strict else 0)  # the window's market variance is negative


@pytest.mark.parametrize("source", ["env", "run"])
def test_unparsable_boolean_is_input_error(ticks_path, tmp_path, capsys, monkeypatch, source):
    argv = ["moments", "--input", str(ticks_path), "--window", "2", "--order", "2",
            "--method", "market"]
    if source == "env":
        monkeypatch.setenv("MBM_STRICT", "maybe")
    else:
        (tmp_path / "run.cfg").write_text("[run]\nstrict = maybe\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 1
    assert "cannot parse boolean value 'maybe'" in capsys.readouterr().err


def test_setting_a_command_does_not_read_is_ignored_outside_flags(ticks_path, monkeypatch):
    # vwap reads no strict setting, so a bad MBM_STRICT is not its concern
    monkeypatch.setenv("MBM_STRICT", "maybe")
    assert main(["vwap", "--input", str(ticks_path), "--window", "2"]) == 0


@pytest.mark.parametrize("extra, argv, expected", [
    ("\n[solver]\ntol = 0.01\n", [], "config section [solver] is read by no command"),
    ("", ["--set", "solver.tol=0.01"], "config section [solver] is read by no command"),
    ("\n[run]\nwindw = 2\n", [], "[run] unknown keys ['windw']"),
], ids=["solver-section", "solver-override", "run-key"])
def test_config_entries_no_command_reads_are_input_errors(tmp_path, capsys, extra, argv,
                                                          expected):
    # a stale [solver] tol = 0.01 used to be read and loosen the residual contract
    (tmp_path / "p.cfg").write_text(PRICE_CFG + extra, encoding="utf-8")
    assert main(["price", "--config", str(tmp_path / "p.cfg"), *argv]) == 1
    assert expected in capsys.readouterr().err


def test_an_unknown_utility_key_is_an_input_error(tmp_path, capsys):
    # a key that no utility reads is not ignored
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PRICE_CFG.replace("family = log\n", "family = log\ngamma = 3\n"),
                   encoding="utf-8")
    assert main(["price", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", "input error: [utility] unknown keys ['gamma']\n")


@pytest.mark.parametrize("section, argv", [
    ("[DEFAULT]\nseed = 3\n\n[simulate]\nlength = 5\n",
     ["simulate", "--output", "{tmp}/s.csv"]),
    ("[DEFAULT]\nbogus = 3\n", ["validate", "--input", "{tmp}/ticks.csv"]),
], ids=["seeds-simulate", "unknown-key"])
def test_a_default_section_is_an_input_error(ticks_path, tmp_path, capsys, section, argv):
    # configparser would share [DEFAULT]'s keys with every section
    cfg = tmp_path / "default.cfg"
    cfg.write_text(section, encoding="utf-8")
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--config", str(cfg)]) == 1
    assert capsys.readouterr() == (
        "", "input error: config section [DEFAULT] is read by no command\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("text, fault", [
    ("[]\nbogus = 3\n", "line 1: '[]' comes before any [section] header"),
    ("[simulate]\nlength = 5\nbogus\n",
     "line 3: 'bogus' is neither a [section] header nor a key = value line"),
    ("[simulate]\nlength = 5\n[simulate]\nseed = 3\n",
     "line 3: section [simulate] appears twice"),
    ("[simulate]\nlength = 5\nlength = 6\n",
     "line 3: key 'length' appears twice in section [simulate]"),
], ids=["no-section-header", "parsing-error", "duplicate-section", "duplicate-key"])
def test_a_malformed_config_is_one_input_error_line(ticks_path, tmp_path, capsys, text, fault):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["validate", "--input", str(ticks_path), "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"input error: malformed config {cfg}: {fault}\n")


def test_the_readme_config_example_builds_its_utility_scenario_and_sim_spec(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "example.cfg").write_text(block, encoding="utf-8")
    cfg = load_config(tmp_path / "example.cfg")
    assert sorted(cfg) == ["run", "scenario", "simulate", "utility"]
    utility = build_utility(cfg["utility"])
    assert (utility.family, utility.parameter) == ("log", 2.0)
    scenario = build_scenario(cfg["scenario"], utility)
    assert scenario.two_sale and scenario.T2 == 3.0
    spec = build_sim_spec(cfg["simulate"])
    assert (spec.length, spec.price_model, spec.volume_model) == (10000, "ar1", "lognormal")
