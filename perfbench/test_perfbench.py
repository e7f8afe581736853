"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.SIZES["tiny"]
SEED = 7


def _result(capsys, *args) -> dict:
    assert run.main(["--size", "tiny", "--seconds", "0.01", "--seed", str(SEED), *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_lists_the_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {"setup_s", "wall_s"} <= {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_run_is_correct(capsys, workload):
    result = _result(capsys, "--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_counts_repeat(capsys, workload):
    first = _result(capsys, "--workload", workload, "--trace", "1")
    second = _result(capsys, "--workload", workload, "--trace", "1")
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] not in ("s", "ms")}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    m = {k: v["value"] for k, v in first["metrics"].items()}
    if workload == "sliding_strict":
        windows = TINY["sliding_ticks"] - workloads.WINDOW + 1
        assert m["moments.compute_moment_set_calls"] == m["ticks.windows"] == windows
        assert m["moments.decorrelation_diagnostic_calls"] == windows
        assert m["cli.stdout_lines"] == windows
    if workload == "cli_batch":
        assert m["ticks.parse_ticks_calls"] == 4
        assert m["ticks.ticks_parsed"] == 4 * TINY["batch_ticks"]
        assert m["simulate.stream_normals_calls"] == 2
    if workload == "model_sweep":
        assert m["pricing.bracket_calls"] > 0
        assert 0 < m["pricing.fixed_point_ratio"] < 1
        assert m["density.gram_charlier_calls"] == TINY["gc_sets"]


def test_calibration_scales_by_the_probes_around_each_operation():
    probes = iter([0.2, 0.1, 0.05])
    cal = calibrate.Calibrator(lambda: next(probes))
    assert cal.measure(lambda: "op") == ("op", pytest.approx(calibrate.REFERENCE_S / 0.15))
    # an operation right after another reuses its closing probe as its opening one
    assert cal.measure(lambda: "next") == ("next", pytest.approx(calibrate.REFERENCE_S / 0.075))
    assert cal.samples == [0.2, 0.1, 0.05]


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(run.SRC))
    import mbm
    import mbm.cli

    original = mbm.ticks.parse_ticks
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mbm.cli.parse_ticks is mbm.ticks.parse_ticks is mbm.parse_ticks
        assert mbm.parse_ticks is not original
        assert mbm.pricing.brentq.__wrapped__.__module__.startswith("scipy")
    finally:
        tracer.uninstall()
    assert mbm.cli.parse_ticks is original and mbm.parse_ticks is original


def test_launched_child_rss_is_not_the_harness_peak():
    script = "\n".join([
        "import os, resource, sys",
        f"sys.path.insert(0, {str(HERE)!r})",
        "import launcher",
        "child = launcher.Launcher()",
        "run = lambda: child.run(['-c', 'pass'], os.devnull, os.devnull, dict(os.environ))[2]",
        "bare = run()",
        "big = bytearray(200 * 2**20)",  # zero-filled, so every page is touched
        "print(bare, run(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    bare, after, harness = map(float, out.stdout.split())
    assert harness > 200
    assert after < bare + 20


def test_corrupted_cli_output_counts_as_failure(tmp_path):
    wl = workloads.CliWorkload("cli_batch", tmp_path, SEED, TINY)
    res = wl.run_pass(run.spawn_runner(run.child_env()))
    assert wl.check(res, None).failed == 0

    lines = (tmp_path / "vwap.csv").read_text().splitlines()
    center, value = lines[3].split(",")
    lines[3] = f"{center},{float(value) * (1 + 1e-6)!r}"
    (tmp_path / "vwap.csv").write_text("\n".join(lines) + "\n")
    data = json.loads((tmp_path / "moments.json").read_text())
    data[0]["flags"] = [] if data[0]["flags"] else ["negative_variance"]
    (tmp_path / "moments.json").write_text(json.dumps(data))
    verdict = wl.check(replace(res, exits={**res.exits, "validate": 1}), None)
    assert set(verdict.problems) == {"vwap", "moments", "validate"}
    assert verdict.failed == 3 and verdict.attempted == len(wl.ops)


def test_corrupted_reference_counts_as_failure(tmp_path):
    wl = workloads.CliWorkload("sliding_strict", tmp_path, SEED, TINY)
    res = wl.run_pass(run.spawn_runner(run.child_env()))
    verdict = wl.check(res, None)
    assert verdict.failed == 0 and res.exits["moments"] == 3
    reference = wl.reference_entry(verdict)
    assert wl.check(res, reference).failed == 0
    reference["moments"]["values"][5] *= 1 + 1e-6
    assert set(wl.check(res, reference).problems) == {"moments"}


def test_corrupted_model_result_counts_as_failure():
    sys.path.insert(0, str(run.SRC))
    wl = workloads.ModelSweep(SEED, TINY)
    res = wl.run_pass()
    assert wl.check(res, None).failed == 0
    i = next(i for i, c in enumerate(wl.calls) if c.function == "solve_price_single")
    res.results[i] = replace(res.results[i], mean_price=res.results[i].mean_price + 1e-6)
    j = next(j for j, c in enumerate(wl.calls) if c.function == "optimize_holdings")
    res.results[j] = replace(res.results[j], holdings=0.5 * res.results[j].holdings + 0.3)
    verdict = wl.check(res, None)
    assert set(verdict.problems) == {f"{i}:solve_price_single", f"{j}:optimize_holdings"}
