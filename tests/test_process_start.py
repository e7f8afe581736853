"""What an mbm process pays around its command: the modules it loads and its GC state.

A warm tick command loads none of json, csv or configparser; the commands
that write JSON load json when they write it, and their bytes stay the
golden ones. The process entry (the `mbm` console script and `python -m
mbm.cli`) freezes the imported heap before the command runs, while the
in-process main(argv) touches no garbage-collector state.
"""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from mbm.ticks import parse_ticks
from test_golden import MODEL_GOLDEN, model_commands, run_digests

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAZY = ("json", "csv", "configparser")

# Runs in a fresh interpreter: each (name, argv) of argv[1] through main, with
# its exit code, the lazily loaded modules loaded so far, its stdout and stderr.
PROBE = textwrap.dedent(f"""
    import ast, contextlib, io, sys

    def loaded():
        return [m for m in {LAZY!r} if m in sys.modules]

    import mbm.cli
    runs = {{"import mbm.cli": loaded()}}
    for name, argv in ast.literal_eval(sys.argv[1]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mbm.cli.main(argv)
        runs[name] = [code, loaded(), out.getvalue(), err.getvalue()]
    print(repr(runs))
""")


def fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """(runs by name, output paths of the model runs by name) of one fresh interpreter."""
    work = tmp_path_factory.mktemp("process-start")
    models = model_commands(work)  # writes the ticks the density runs read
    ticks = work / "ticks.csv"
    with open(ticks, "rb") as fh:
        parse_ticks(fh)  # the tick commands below find their columns in the cache
    common = ["--input", str(ticks), "--window", "50"]
    commands = [
        ("validate", ["validate", "--input", str(ticks)]),
        ("moments", ["moments", *common, "--order", "4", "--method", "market",
                     "--output", str(work / "m.json")]),
        ("vwap", ["vwap", *common, "--output", str(work / "v.csv")]),
        ("autocorr", ["autocorr", *common, "--method", "market", "--output",
                      str(work / "a.json")]),
        *((name, argv) for name, argv, _ in models),
    ]
    proc = fresh(PROBE, repr(commands))
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout), {name: outputs for name, _, outputs in models}


def test_import_loads_no_json_csv_or_configparser(probe):
    runs, _ = probe
    assert runs["import mbm.cli"] == []


@pytest.mark.parametrize("command", ["validate", "moments", "vwap", "autocorr"])
def test_warm_tick_commands_load_no_json_csv_or_configparser(probe, command):
    runs, _ = probe
    assert runs[command][:2] == [0, []]


@pytest.mark.parametrize("name", sorted(MODEL_GOLDEN))
def test_model_outputs_keep_their_bytes_in_a_fresh_process(probe, name):
    runs, outputs = probe
    code, _, stdout, stderr = runs[name]
    assert run_digests(code, stdout, stderr, outputs[name]) == MODEL_GOLDEN[name]


@pytest.fixture
def ticks_file(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("time,price,volume\n0,10,1\n1,11,2\n2,12,1\n", encoding="utf-8")
    return str(path)


# A fresh interpreter: the GC state before, during and after main(argv), then
# during and after process_main() with the same command in sys.argv.
GC_PROBE = textwrap.dedent("""
    import contextlib, gc, io, sys
    import mbm.cli

    def state():
        return [gc.isenabled(), gc.get_freeze_count()]

    states = {"before": state()}
    parse = mbm.cli.parse_ticks
    def recording(fh):
        states[during] = state()
        return parse(fh)
    mbm.cli.parse_ticks = recording

    argv = ["validate", "--input", sys.argv[1]]
    with contextlib.redirect_stdout(io.StringIO()):
        during = "during main"
        states["main"] = mbm.cli.main(argv)
        states["after main"] = state()
        during, sys.argv = "during process_main", ["mbm", *argv]
        states["process_main"] = mbm.cli.process_main()
        states["after process_main"] = state()
    print(repr(states))
""")


def test_main_keeps_the_gc_state_and_process_main_freezes_before_the_command(ticks_file):
    proc = fresh(GC_PROBE, ticks_file)
    assert proc.returncode == 0, proc.stderr
    states = ast.literal_eval(proc.stdout)
    assert states["before"] == states["during main"] == states["after main"] == [True, 0]
    assert states["main"] == states["process_main"] == 0
    enabled, frozen = states["during process_main"]
    assert enabled and frozen > 0
    assert states["after process_main"] == [True, frozen]


# `python -m mbm.cli ARGS`, with the freeze count reported from inside the
# command and from an atexit hook
ENTRY_PROBE = textwrap.dedent("""
    import atexit, gc, runpy, sys
    import mbm.ticks

    parse = mbm.ticks.parse_ticks
    def recording(fh):
        print(f"frozen during the command: {gc.get_freeze_count() > 0}", file=sys.stderr)
        return parse(fh)
    mbm.ticks.parse_ticks = recording  # bound by the __main__ module as it runs
    atexit.register(lambda: print(f"frozen at exit: {gc.get_freeze_count() > 0}",
                                  file=sys.stderr))
    sys.argv = ["mbm", *sys.argv[1:]]
    runpy.run_module("mbm.cli", run_name="__main__", alter_sys=True)
""")


def test_module_entry_freezes_the_heap_before_the_command(ticks_file):
    proc = fresh(ENTRY_PROBE, "validate", "--input", ticks_file)
    assert (proc.returncode, proc.stdout) == (0, "ok ticks=3 spacing=1.0\n")
    assert proc.stderr == "frozen during the command: True\nfrozen at exit: True\n"
    proc = fresh(ENTRY_PROBE, "validate", "--window", "3")  # a usage error: main's exit code
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error: mbm: unrecognized arguments: --window 3")
    assert proc.stderr.endswith("frozen at exit: True\n")


def test_console_script_is_the_process_entry():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^mbm = "mbm\.cli:process_main"$', pyproject, re.MULTILINE)
