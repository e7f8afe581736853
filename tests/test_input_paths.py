"""A tick command gives the same stdout, stderr, output file and exit code
whether its input's columns come from the tick cache or from a parse: cold
and warm, for an LF file, its CRLF copy and a FIFO, and for inputs that
cannot be read.
"""

import errno
import os
import threading

import pytest

import mbm.ticks
from mbm.cli import main

# sliding --strict windows: a moments run that exits 3 and names windows on stderr
COMMANDS = {
    "validate": [],
    "moments": ["--window", "4", "--order", "4", "--method", "market", "--mode", "sliding",
                "--strict"],
    "vwap": ["--window", "4", "--mode", "sliding"],
    "autocorr": ["--window", "4", "--method", "market", "--lag", "1"],
}
TEXT = "time,price,volume\n" + "".join(
    f"{t},{10 + (t * 7) % 5 / 4!r},{1 + (t * 3) % 4}\n" for t in range(30))


@pytest.fixture
def parses(monkeypatch):
    """Count the parses of a tick body; a cache hit, and a text that is not UTF-8, make none."""
    calls = []
    parse = mbm.ticks._parse_body
    monkeypatch.setattr(mbm.ticks, "_parse_body", lambda *args: calls.append(1) or parse(*args))
    return calls


def outcomes(capsys, tmp_path, make_input) -> dict:
    """command -> (exit, stdout, stderr, output bytes or None), each run on make_input()."""
    results = {}
    for command, args in COMMANDS.items():
        out = tmp_path / f"{command}.out"
        out.unlink(missing_ok=True)
        argv = [command, "--input", make_input(), *args]
        code = main(argv if command == "validate" else argv + ["--output", str(out)])
        stdout, stderr = capsys.readouterr()
        results[command] = (code, stdout, stderr, out.read_bytes() if out.exists() else None)
    return results


def cold_and_warm(capsys, tmp_path, parses, make_input) -> dict:
    """The outcomes of a cold run, checked equal to those of a warm run, which parses nothing."""
    cold = outcomes(capsys, tmp_path, make_input)
    parses.clear()
    assert outcomes(capsys, tmp_path, make_input) == cold
    assert parses == []
    return cold


def regular_file(tmp_path, data: bytes):
    path = tmp_path / "ticks.csv"
    path.write_bytes(data)
    return lambda: str(path)


def fifo(tmp_path, data: bytes):
    """A FIFO that a new writer thread fills with data for each run that opens it."""
    path = tmp_path / "ticks.fifo"
    os.mkfifo(path)
    writers = []

    def make_input():
        if writers:
            writers.pop().join(timeout=10)  # the last run read to the end
        writers.append(threading.Thread(target=path.write_bytes, args=(data,), daemon=True))
        writers[-1].start()
        return str(path)

    return make_input


INPUTS = {
    "lf": lambda tmp_path: regular_file(tmp_path, TEXT.encode()),
    "crlf": lambda tmp_path: regular_file(tmp_path, TEXT.replace("\n", "\r\n").encode()),
    "fifo": lambda tmp_path: fifo(tmp_path, TEXT.encode()),
}


@pytest.mark.parametrize("kind", INPUTS)
def test_an_input_gives_the_outcomes_of_the_lf_file_cold_and_warm(tmp_path, capsys, parses, kind):
    if kind == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs os.mkfifo")
    got = cold_and_warm(capsys, tmp_path, parses, INPUTS[kind](tmp_path))
    assert [code for code, *_ in got.values()] == [0, 3, 0, 0]
    assert got["validate"][1] == "ok ticks=30 spacing=1.0\n"
    assert outcomes(capsys, tmp_path, regular_file(tmp_path, TEXT.encode())) == got


def _unreadable(kind: str, tmp_path):
    """(input path, the error it gives) for an input that cannot be read as a tick file."""
    if kind == "not_utf8":
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"time,price,volume\r\n0,1,2\r\n1,\xff,2\r\n")
        return path, "line 3: not UTF-8 text (invalid start byte)"
    path, code = ((tmp_path / "missing.csv", errno.ENOENT) if kind == "missing"
                  else (tmp_path, errno.EISDIR))
    return path, f"cannot read {path}: [Errno {code}] {os.strerror(code)}: '{path}'"


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_an_unreadable_input_is_the_same_input_error_cold_and_warm(tmp_path, capsys, parses,
                                                                    tick_cache, kind):
    (tmp_path / "inputs").mkdir()
    path, message = _unreadable(kind, tmp_path / "inputs")
    got = cold_and_warm(capsys, tmp_path, parses, lambda: str(path))
    assert set(got.values()) == {(1, "", f"input error: {message}\n", None)}
    assert not tick_cache.exists() or not any(tick_cache.iterdir())
