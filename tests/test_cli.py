import json
import warnings

import pytest

from mbm.cli import main

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


def test_density_strict_rejects_flagged_set(tmp_path, capsys):
    path = tmp_path / "anti.csv"
    path.write_text(ANTI_CSV, encoding="utf-8")
    code = main([
        "density", "--input", str(path), "--order", "2", "--method", "market",
        "--grid=-100:100:101", "--output", str(tmp_path / "d.csv"), "--strict",
    ])
    assert code == 3


def test_density_flagged_set_without_strict_is_numerical_failure(tmp_path):
    path = tmp_path / "anti.csv"
    path.write_text(ANTI_CSV, encoding="utf-8")
    code = main([
        "density", "--input", str(path), "--order", "2", "--method", "market",
        "--grid=-100:100:101", "--output", str(tmp_path / "d.csv"),
    ])
    assert code == 2


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


def test_price_two_purchase(tmp_path):
    cfg_text = TWO_SALES_CFG.replace("kind = two_sales", "kind = two_purchase")
    cfg_text = "\n".join(
        line for line in cfg_text.splitlines()
        if not line.startswith(("payoff_autocorr", "T2"))
    )
    cfg = tmp_path / "p.cfg"
    cfg.write_text(cfg_text + "\n", encoding="utf-8")
    out = tmp_path / "p.json"
    assert main(["price", "--config", str(cfg), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "two_purchase"
    assert payload["second_purchase"]["converged"]


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


def test_moments_strict_reports_non_finite_moments(tmp_path, capsys):
    # p**2 overflows at these prices; volumes vary so the order-2 correlation is defined
    path = tmp_path / "huge.csv"
    path.write_text("time,price,volume\n0,1e160,1\n1,2e160,2\n2,3e160,1\n", encoding="utf-8")
    out = tmp_path / "m.json"
    code = main([
        "moments", "--input", str(path), "--window", "3", "--order", "4",
        "--method", "market", "--strict", "--output", str(out),
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert "flags=non_finite" in captured.out
    assert "window 0: non-finite moments" in captured.err
    assert "exceeds" not in captured.err and "RuntimeWarning" not in captured.err
    assert json.loads(out.read_text(encoding="utf-8"))[0]["flags"] == ["non_finite"]


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
