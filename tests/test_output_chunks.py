"""Outputs written in row chunks equal the whole-output rendering byte for byte.

The CLI formats, prints and writes its large outputs a chunk of rows at a
time, the ticks.row_chunks of its rows: ticks.BLOCK floats a chunk, and
for moments, which also computes a chunk at a time, ticks.BLOCK of a row's
floats or of its window's ticks, whichever a row has more of. These tests
shrink ticks.BLOCK to R rows, check that the command then writes R rows
per chunk, and check, for 0, 1, R-1, R, R+1 and 2R+1 rows, that stdout,
stderr and the output file equal those of a run that renders the whole
output as one chunk, and that the JSON files equal json.dumps of their
records. The chunks are made on every usable CPU (cli._in_turn): with the
CPU count patched to 2 and 3, every byte, error and exit code equals the
one-CPU run's, and no child process is left behind, whether the output
ends, fails, is cut by a closed stdout, loses a child or cannot fork one;
and each chunk is made in one process alone, this one making its share.
"""

import errno
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mbm
import mbm.cli
import mbm.moments
import mbm.simulate
import mbm.ticks
from mbm.cli import main
from mbm.moments import batch_autocorrelation, batch_decorrelation, batch_moments
from mbm.ticks import (TICK_FLOATS, TickSeries, chunk_count, parse_ticks, render_ticks, row_chunks,
                       window_batch)

R = 3
ROW_COUNTS = (1, R - 1, R, R + 1, 2 * R + 1)

# (price, volume) ticks. Windows of A and B ticks alone, both kinds held, have
# a negative market variance, and any window holding H overflows p**4, so it
# is non_finite.
A, B, H = (10.0, 1.0), (1.0, 10.0), (1e80, 1.0)

# Window lengths below and above the floats of every moments row written
# here (at most 14), so that either bounds moments' chunks.
WINDOWS = {"floats_exceed_N": 2, "N_exceeds_floats": 16}


def tick_text(windows: int, mode: str, window: int = 2) -> str:
    """A tick file of the given windows, each tick of the two-tick pattern below
    written window // 2 times. With two-tick windows, it puts a non_finite and
    a negative_variance window on each side of every chunk boundary."""
    m = window // 2
    if mode == "disjoint":  # windows cycle non_finite, negative_variance, plain
        ticks = [t for i in range(windows) for t in ((A, H), (A, B), (A, A))[i % 3]
                 for _ in range(m)]
    else:  # two-tick windows cycle negative, negative, non_finite, non_finite, plain
        ticks = [(A, B, A, H, A)[i // m % 5] for i in range(windows + window - 1)]
    return "time,price,volume\n" + "".join(f"{t},{p!r},{v!r}\n" for t, (p, v) in enumerate(ticks))


def run(capsys, argv, output: Path | None, rows: int | None = None):
    """(exit, stdout, stderr, output bytes) of one CLI run, in chunks of rows if given."""
    if output is not None:
        output.unlink(missing_ok=True)
        argv = argv + ["--output", str(output)]
    calls = []  # the chunk sizes of each row_chunks call

    with pytest.MonkeyPatch.context() as patch:
        def recording(n, per_row):
            # chunks of `rows` rows of the width the command passes
            patch.setattr(mbm.ticks, "BLOCK", rows * per_row)
            chunks = list(row_chunks(n, per_row))
            calls.append([sl.stop - sl.start for sl in chunks])
            return chunks

        if rows is not None:
            # simulate makes its blocks of ticks before the writer's call
            patch.setattr(mbm.ticks, "BLOCK", rows * TICK_FLOATS)
            patch.setattr(mbm.cli, "row_chunks", recording)
        code = main(argv)
    for sizes in calls:  # R rows per chunk, the last chunk holding the rest
        n = sum(sizes)
        assert sizes == [rows] * (n // rows) + ([n % rows] if n % rows else []), sizes
    out, err = capsys.readouterr()
    return code, out, err, None if output is None or not output.exists() else output.read_bytes()


def same_chunked_and_whole(capsys, argv, output: Path | None = None):
    """The chunked run's result, after checking it equals the whole-output run's."""
    whole = run(capsys, argv, output)
    chunked = run(capsys, argv, output, rows=R)
    assert chunked == whole
    return chunked


def assert_no_child():
    """Every child process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def on_cpus(capsys, cpus: int, argv, output: Path | None, rows: int = R):
    """(run's result in chunks of rows, os.fork calls) on `cpus` usable CPUs, after checking
    that no child is left."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:  # in this process, not the child
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mbm.cli, "_usable_cpus", lambda: cpus)
        patch.setattr(os, "fork", counted)
        result = run(capsys, argv, output, rows)
    assert_no_child()
    return result, len(forks)


def window_numbers(text: str, sep: str = "\n") -> list[int]:
    return [int(item.split()[1].rstrip(":")) for item in text.split(sep) if item.startswith("window")]


def test_row_chunks_read_the_row_constant_at_each_call(monkeypatch):
    # 16,384 elements: a market k=4 moments row formats 14 floats, a tick-CSV row 4,
    # and a 100-tick window is 100 ticks of a kernel's row
    assert list(row_chunks(1171, 14)) == [slice(0, 1170), slice(1170, 1171)]
    assert list(row_chunks(8192, TICK_FLOATS)) == [slice(0, 4096), slice(4096, 8192)]
    assert list(row_chunks(200, 100)) == [slice(0, 163), slice(163, 200)]
    monkeypatch.setattr(mbm.ticks, "BLOCK", 2 * R + 1)
    assert list(row_chunks(0, 2)) == []
    assert list(row_chunks(2 * R + 1, 2)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    # a row of more floats than a chunk holds is a chunk of its own
    assert list(row_chunks(2, 2 * R + 2)) == [slice(0, 1), slice(1, 2)]


def test_row_chunks_are_made_as_they_are_taken(monkeypatch):
    chunks = row_chunks(3, 1)
    assert iter(chunks) is chunks  # an iterator, not a list made up front
    huge = row_chunks(10**30, 1)
    monkeypatch.setattr(mbm.ticks, "BLOCK", 5)  # BLOCK was read at the call
    assert next(huge) == slice(0, 1 << 14) and next(huge) == slice(1 << 14, 2 << 14)


@given(n=st.integers(0, 3000), per_row=st.integers(1, 300),
       block=st.none() | st.integers(1, 5000))
def test_row_chunks_cover_the_rows_in_order(n, per_row, block):
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:  # None keeps the default
            patch.setattr(mbm.ticks, "BLOCK", block)
        step = max(1, mbm.ticks.BLOCK // per_row)
        chunks = list(row_chunks(n, per_row))
        assert chunk_count(n, per_row) == len(chunks)
    assert [i for sl in chunks for i in range(sl.start, sl.stop)] == list(range(n))
    sizes = [sl.stop - sl.start for sl in chunks]
    assert all(sl.step is None for sl in chunks) and all(0 < size <= step for size in sizes)
    assert all(size == step for size in sizes[:-1])


def test_moment_rows_format_the_floats_they_are_chunked_by(tmp_path, capsys, monkeypatch):
    ticks, out = tmp_path / "ticks.csv", tmp_path / "m.json"
    ticks.write_text(tick_text(4, "sliding"), encoding="utf-8")
    chunked_by = []
    monkeypatch.setattr(mbm.cli, "row_chunks", lambda n, per_row: (
        chunked_by.append(per_row) or row_chunks(n, per_row)))
    for k, method, floats in ((4, "frequency", 6), (4, "market", 14), (3, "market", 11)):
        assert main(["moments", "--input", str(ticks), "--window", "2", "--mode", "sliding",
                     "--order", str(k), "--method", method, "--output", str(out)]) == 0
        record = json.loads(out.read_text(encoding="utf-8"))[0]
        # center_time, the moments and the variance; the mean is the first raw moment
        written = 2 + sum(len(record[name] or ()) for name in ("raw_moments", "value_moments",
                                                                "volume_moments"))
        assert chunked_by.pop() == floats == written
    # a window of more ticks than its row's 14 floats chunks the rows by its ticks
    ticks.write_text(tick_text(4, "sliding", 16), encoding="utf-8")
    assert main(["moments", "--input", str(ticks), "--window", "16", "--mode", "sliding",
                 "--order", "4", "--method", "market", "--output", str(out)]) == 0
    assert chunked_by.pop() == 16
    capsys.readouterr()


@pytest.mark.parametrize("windows", ROW_COUNTS)
@pytest.mark.parametrize("mode", ["disjoint", "sliding"])
@pytest.mark.parametrize("method", ["frequency", "market"])
def test_strict_moments_in_chunks_equal_one_chunk(tmp_path, capsys, method, mode, windows):
    # rows bounded by their floats, then by their windows' ticks
    for window in WINDOWS.values():
        check_strict_moments_in_chunks(tmp_path, capsys, method, mode, windows, window)


def check_strict_moments_in_chunks(tmp_path, capsys, method, mode, windows, window):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(tick_text(windows, mode, window), encoding="utf-8")
    argv = ["moments", "--input", str(ticks), "--window", str(window), "--mode", mode,
            "--order", "4", "--method", method, "--strict"]
    code, out, err, data = same_chunked_and_whole(capsys, argv, tmp_path / "m.json")
    assert code == 3
    assert window_numbers(out) == list(range(windows))
    batch = window_batch(parse_ticks(ticks.read_text()), window, mode)
    table = batch_moments(batch, 4, method)
    coef, correlated, _ = batch_decorrelation(batch, 2, 0.2)
    messages = []
    for i in range(windows):
        if table.negative_variance[i]:
            messages.append(f"window {i}: negative market variance {float(table.variance[i])!r}")
        if table.non_finite[i]:
            messages.append(f"window {i}: non-finite moments")
        elif correlated[i]:
            messages.append(f"window {i}: order-2 price/volume correlation {float(coef[i])!r} "
                            "exceeds 0.2")
    assert err == "strict violation: " + "; ".join(messages) + "\n"
    payload = [table.moment_set(i).to_json_dict() for i in range(len(table))]
    assert data.decode() == json.dumps(payload, indent=2) + "\n"
    # both flags on each side of a boundary; long sliding windows share too many
    # ticks to take turns
    if windows == 2 * R + 1 and method == "market" and (mode == "disjoint" or window == 2):
        for rows in (slice(0, R), slice(R, 2 * R)):
            assert table.negative_variance[rows].any() and table.non_finite[rows].any()
    # without an output file, stdout and stderr are those of the run with one
    assert same_chunked_and_whole(capsys, argv) == (code, out, err, None)


@pytest.mark.parametrize("window", WINDOWS.values(), ids=WINDOWS.keys())
def test_strict_report_names_the_windows_at_chunk_edges_by_their_series_index(tmp_path, capsys,
                                                                              window):
    # disjoint windows of A and B ticks, half each, have a negative market
    # variance and a -1 correlation, of A ticks alone neither. Rows 0-2, 3-5
    # and 6 are the chunks, and the first and last window of each is flagged.
    flagged = [0, 2, 3, 5, 6]
    ticks = tmp_path / "ticks.csv"
    rows = [(A, B) if i in flagged else (A, A) for i in range(2 * R + 1)]
    ticks.write_text("time,price,volume\n" + "".join(
        f"{t},{p!r},{v!r}\n" for t, (p, v) in enumerate(
            t for row in rows for t in row for _ in range(window // 2))),
        encoding="utf-8")
    argv = ["moments", "--input", str(ticks), "--window", str(window), "--order", "2",
            "--method", "market", "--strict"]
    code, out, err, _ = same_chunked_and_whole(capsys, argv, tmp_path / "m.json")
    assert code == 3
    assert [i for i, line in enumerate(out.splitlines()) if "negative_variance" in line] == flagged
    assert err.startswith("strict violation: ") and err.endswith("\n") and err.count("\n") == 1
    messages = err[len("strict violation: "):-1].split("; ")
    assert window_numbers("; ".join(messages), "; ") == [i for i in flagged for _ in range(2)]
    assert all(m.split(": ", 1)[1].startswith(("negative market variance ", "order-2 "))
               for m in messages)


@pytest.mark.parametrize("windows", ROW_COUNTS)
@pytest.mark.parametrize("mode", ["disjoint", "sliding"])
def test_vwap_in_chunks_equals_one_chunk(tmp_path, capsys, mode, windows):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(tick_text(windows, mode), encoding="utf-8")
    argv = ["vwap", "--input", str(ticks), "--window", "2", "--mode", mode]
    code, out, _, data = same_chunked_and_whole(capsys, argv, tmp_path / "v.csv")
    assert code == 0 and window_numbers(out) == list(range(windows))
    batch = window_batch(parse_ticks(ticks.read_text()), 2, mode)
    values = np.add.reduce(batch.value, axis=1) / np.add.reduce(batch.volume, axis=1)
    rows = "".join(f"{c!r},{v!r}\n" for c, v in zip(batch.center_time.tolist(), values.tolist()))
    assert data.decode() == "center_time,vwap\n" + rows


@pytest.mark.parametrize("pairs", ROW_COUNTS)
@pytest.mark.parametrize("mode", ["disjoint", "sliding"])
@pytest.mark.parametrize("method", ["frequency", "market"])
def test_autocorr_json_in_chunks_equals_json_dumps(tmp_path, capsys, method, mode, pairs):
    lag = 1
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(tick_text(pairs + lag, mode), encoding="utf-8")
    argv = ["autocorr", "--input", str(ticks), "--window", "2", "--mode", mode,
            "--method", method, "--lag", str(lag)]
    code, out, _, data = same_chunked_and_whole(capsys, argv, tmp_path / "a.json")
    assert code == 0 and window_numbers(out) == list(range(pairs))
    batch = window_batch(parse_ticks(ticks.read_text()), 2, mode)
    centers = batch.center_time.tolist()
    payload = [{"center_time_1": centers[i], "center_time_2": centers[i + lag],
                "autocorrelation": v}
               for i, v in enumerate(batch_autocorrelation(batch, lag, method).tolist())]
    assert data.decode() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("command, args", [("moments", ["--order", "4", "--method", "market"]),
                                           ("vwap", []), ("autocorr", ["--method", "market"])],
                         ids=["moments", "vwap", "autocorr"])
def test_tick_times_near_the_float_maximum_give_finite_center_times(tmp_path, capsys, command,
                                                                     args):
    # the sum of two such times overflows; half of each added does not
    times = [1e308, 1.5e308, 1.6e308, 1.7e308]
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("time,price,volume\n" + "".join(f"{t!r},{p},1\n"
                                                      for t, p in zip(times, (1, 2, 3, 1))),
                     encoding="utf-8")
    argv = [command, "--input", str(ticks), "--window", "2", "--mode", "sliding", *args]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err, data = same_chunked_and_whole(capsys, argv, tmp_path / "out")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    centers = [repr(0.5 * a + 0.5 * b) for a, b in zip(times, times[1:])]
    assert [line.split()[2].split("=")[1] for line in lines] == centers[:len(lines)]
    assert "inf" not in out and b"inf" not in data.lower()


@pytest.mark.parametrize("length", ROW_COUNTS)
def test_simulate_in_chunks_equals_one_chunk(tmp_path, capsys, length):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"[simulate]\nlength = {length}\nseed = 4\n", encoding="utf-8")
    code, out, _, data = same_chunked_and_whole(
        capsys, ["simulate", "--config", str(cfg)], tmp_path / "t.csv")
    assert code == 0 and out == f"simulated ticks={length} seed=4\n"
    assert data.decode().count("\n") == length + 1


def test_library_renderings_join_the_chunks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mbm.ticks, "BLOCK", R * TICK_FLOATS)
    for n in (0, *ROW_COUNTS):
        series = TickSeries(np.arange(float(n)), 1.0 + np.arange(n) / 7, np.full(n, 3.0))
        rows = zip(*(getattr(series, c).tolist() for c in ("time", "price", "volume", "value")))
        assert render_ticks(series) == "time,price,volume,value\n" + "".join(
            f"{t!r},{p!r},{v!r},{c!r}\n" for t, p, v, c in rows)
    # an output of no rows is its frame's empty text, with no lines
    path = tmp_path / "empty.json"
    mbm.cli._write_table(str(path), 0, 14, None, "", "", mbm.cli.JSON_ARRAY)
    assert path.read_text(encoding="utf-8") == json.dumps([], indent=2) + "\n"
    assert capsys.readouterr() == ("", "")


def test_a_multi_chunk_output_is_written_a_chunk_at_a_time(tmp_path, capsys, monkeypatch):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(tick_text(2 * R + 1, "sliding"), encoding="utf-8")
    written = []
    write_pieces = mbm.cli._write_pieces

    def recording(path, pieces):
        write_pieces(path, (written.append(piece) or piece for piece in pieces))

    monkeypatch.setattr(mbm.cli, "_write_pieces", recording)
    monkeypatch.setattr(mbm.ticks, "BLOCK", R * 14)  # a market k=4 row formats 14 floats
    assert main(["moments", "--input", str(ticks), "--window", "2", "--mode", "sliding",
                 "--order", "4", "--method", "market", "--output", str(tmp_path / "m.json")]) == 0
    assert window_numbers(capsys.readouterr().out) == list(range(2 * R + 1))
    # "[\n", three chunks of records with ",\n" between them, "\n]\n"
    assert written[::2] == [b"[\n", b",\n", b",\n", b"\n]\n"]
    assert [piece.count(b'"method"') for piece in written[1::2]] == [R, R, 1]


def cpu_case(tmp_path, case: str, rows: int):
    """(argv, output path) of a run of `case` whose output is `rows` rows."""
    ticks = tmp_path / "ticks.csv"
    if case == "simulate":
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"[simulate]\nlength = {rows}\nseed = 4\nsigma = 0.05\n", encoding="utf-8")
        return ["simulate", "--config", str(cfg)], tmp_path / "t.csv"
    command, mode, *method = case.split("-")
    # autocorr's rows are pairs of windows one apart
    ticks.write_text(tick_text(rows + (command == "autocorr"), mode), encoding="utf-8")
    argv = [command, "--input", str(ticks), "--window", "2", "--mode", mode]
    if command == "moments":
        argv += ["--order", "4", "--strict"]
    if method:
        argv += ["--method", *method]
    return argv, tmp_path / "out"


CPU_CASES = ["moments-disjoint-frequency", "moments-disjoint-market", "moments-sliding-frequency",
             "moments-sliding-market", "vwap-sliding", "autocorr-disjoint-market", "simulate"]


@pytest.mark.parametrize("case", CPU_CASES)
@pytest.mark.parametrize("cpus", [2, 3])
def test_outputs_on_several_cpus_equal_those_on_one(tmp_path, capsys, cpus, case):
    for chunks in sorted({1, cpus - 1, cpus, cpus + 1, 2 * cpus + 1}):
        argv, output = cpu_case(tmp_path, case, chunks * R - 1)  # the last chunk is short
        serial, forks = on_cpus(capsys, 1, argv, output)
        assert forks == 0
        assert serial[0] in (0, 3) and serial[3]
        # a child per CPU but this one's, or per chunk where there are fewer; one chunk forks nothing
        assert on_cpus(capsys, cpus, argv, output) == (serial, min(cpus, chunks) - 1)


@pytest.mark.parametrize("case", ["moments-sliding-market", "simulate"])
def test_a_child_that_ends_early_leaves_its_chunks_to_this_process(tmp_path, capsys, monkeypatch,
                                                                    case):
    argv, output = cpu_case(tmp_path, case, 7 * R)
    serial, _ = on_cpus(capsys, 1, argv, output)
    parent = os.getpid()
    name = "tick_rows" if case == "simulate" else "_reprs"  # what every chunk calls
    formats = getattr(mbm.cli, name)
    made = []

    def ending(*args):
        if os.getpid() != parent:
            made.append(args)
            if len(made) == 2:  # a child ends after sending its first chunk
                os._exit(1)
        return formats(*args)

    monkeypatch.setattr(mbm.cli, name, ending)
    assert on_cpus(capsys, 3, argv, output) == (serial, 2)


def made_where(capsys, cpus: int, argv, output: Path, log: Path):
    """(this process's id, [(process id, what was made)]) of a run on `cpus` CPUs that logs
    each chunk formatted (_reprs, tick_rows: by its first float) and each block of normals
    drawn (stream_normals: by stream and first draw), from whichever process made it."""
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)

    with pytest.MonkeyPatch.context() as patch:
        def logged(module, name, item):
            made = getattr(module, name)

            def logging(*args):  # one write of one line, so the processes' lines do not mix
                os.write(fd, f"{os.getpid()} {item(*args)}\n".encode())
                return made(*args)
            patch.setattr(module, name, logging)

        logged(mbm.cli, "_reprs", lambda values: f"chunk {values[0, 0]!r}")
        logged(mbm.cli, "tick_rows", lambda block, rows: f"chunk {block.time[0]!r}")
        logged(mbm.simulate, "stream_normals", lambda seed, stream, n, lo: f"draw {stream} {lo}")
        try:
            on_cpus(capsys, cpus, argv, output)
        finally:
            os.close(fd)
    return os.getpid(), [tuple(line.split(" ", 1)) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("case", [*CPU_CASES[:-1], "simulate-ar1", "simulate-constant"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_each_chunk_is_made_in_one_process(tmp_path, capsys, cpus, case):
    chunks = 2 * cpus + 1
    if case.startswith("simulate"):  # both streams drawn, correlated
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"[simulate]\nlength = {chunks * R - 1}\nseed = 4\n"
                       f"price_model = {case[9:]}\nsigma = 0.05\nphi = 0.5\nlog_sigma = 0.2\n"
                       "pv_correlation = 0.3\n", encoding="utf-8")
        argv, output = ["simulate", "--config", str(cfg)], tmp_path / "t.csv"
    else:
        argv, output = cpu_case(tmp_path, case, chunks * R - 1)
    _, serial = made_where(capsys, 1, argv, output, tmp_path / "serial.log")
    order = [item for _, item in serial if item.startswith("chunk")]
    assert len(order) == chunks
    parent, made = made_where(capsys, cpus, argv, output, tmp_path / "made.log")  # no child left
    # every chunk is formatted once, in the process whose turn it is: this one every cpus-th
    chunk_pids = {order.index(item): int(pid) for pid, item in made if item.startswith("chunk")}
    assert sorted(chunk_pids) == list(range(chunks))
    assert len([item for _, item in made if item.startswith("chunk")]) == chunks
    for i, pid in chunk_pids.items():
        assert (pid == parent) == (i % cpus == 0) and pid == chunk_pids[i % cpus]
    # a volume block is drawn once in all, and a price block once in each process that walks
    # the AR(1) (every process), or, with a constant price, once in all for the volumes
    volume = [item for _, item in made if item.startswith("draw 1 ")]
    price = [(pid, item) for pid, item in made if item.startswith("draw 0 ")]
    assert sorted(volume) == sorted({item for _, item in serial if item.startswith("draw 1 ")})
    assert len(volume) == (chunks if case.startswith("simulate") else 0)
    assert len(set(price)) == len(price)
    assert len(price) == (cpus * chunks if case == "simulate-ar1" else len(volume))


def open_fds() -> int | None:
    """The file descriptors this process has open, where the platform lists them (Linux)."""
    fds = Path("/proc/self/fd")
    return len(os.listdir(fds)) if fds.is_dir() else None


@pytest.mark.parametrize("failing", [1, 2], ids=["1st", "2nd"])
@pytest.mark.parametrize("case", ["moments-sliding-market", "simulate"])
def test_a_failed_fork_leaves_its_chunks_to_this_process(tmp_path, capsys, monkeypatch, case,
                                                        failing):
    argv, output = cpu_case(tmp_path, case, 7 * R)
    serial, _ = on_cpus(capsys, 1, argv, output)
    fork, calls = os.fork, []

    def fork_or_fail():  # as a fork past the process limit fails
        calls.append(None)
        if len(calls) == failing:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_or_fail)
    before = open_fds()
    # the children forked before the failed fork make their chunks, and this process the rest
    assert on_cpus(capsys, 3, argv, output) == (serial, failing - 1)
    assert len(calls) == failing  # no fork after the one that failed
    assert open_fds() == before  # both ends of the failed fork's pipe are closed


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_in_turn_walks_a_stateful_iterator_and_raises_where_one_process_would(monkeypatch, cpus):
    monkeypatch.setattr(mbm.cli, "_usable_cpus", lambda: cpus)

    def walk(n, bad=None):
        total = 0  # carried from item to item
        for i in range(n):
            if i == bad:
                raise mbm.DataError(f"item {i}")
            total += i
            yield total

    def make(total):
        return b"%d" % total, b"!" * total

    sums = [make(sum(range(i + 1))) for i in range(2 * cpus + 3)]
    for n in range(2 * cpus + 3):
        for count in (n, n + cpus):  # the count of items, or a bound above it
            assert list(mbm.cli._in_turn(walk(n), count, make)) == sums[:n]
            assert_no_child()
    for bad in range(2 * cpus + 2):
        made = []
        with pytest.raises(mbm.DataError, match=f"item {bad}$"):
            made.extend(mbm.cli._in_turn(walk(2 * cpus + 3, bad), 2 * cpus + 3, make))
        assert made == sums[:bad]  # every item before the error, as one process makes them
        assert_no_child()
    unfinished = mbm.cli._in_turn(walk(2 * cpus + 3), 2 * cpus + 3, make)
    assert next(unfinished) == sums[0]
    unfinished.close()  # its children are killed and reaped
    assert_no_child()


def test_a_child_that_ends_mid_item_sent_nothing_of_it():
    def received(sent: bytes):
        return mbm.cli._received(io.BufferedReader(io.BytesIO(sent)))

    assert received(b"3 0 2\nabcde") == (b"abc", b"", b"de")
    for cut in (b"", b"3 0", b"3 0 2\n", b"3 0 2\nabcd"):
        assert received(cut) is None


# runs mbm.cli.process_main with the arguments after it, on three CPUs and in
# chunks of 1,000 floats; exit 99 if a child process is left
_CLOSED_STDOUT = """
import os, sys
import mbm.cli, mbm.ticks
mbm.cli._usable_cpus = lambda: 3
mbm.ticks.BLOCK = 1000
sys.argv = ["mbm", *sys.argv[1:]]
code = mbm.cli.process_main()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""


SCENARIO_CFG = ("[utility]\nfamily = exponential\nparameter = 2\n\n[scenario]\nbeta = 0.95\n"
                "endowment_t = 10\nendowment_T = 3\nholdings = 1\npayoff_mean = 5\n"
                "payoff_variance = 1\nprice_variance = 1\n")


def closed_stdout_argv(tmp_path, command: str) -> list[str]:
    """The arguments of a run of command whose stdout is closed: the tables print 300 KB of
    lines or more, so their pipe is still being written when it is closed."""
    ticks = str(simulated(tmp_path, 5_000))
    scenario, samples = tmp_path / "scenario.cfg", tmp_path / "samples.csv"
    scenario.write_text(SCENARIO_CFG, encoding="utf-8")
    samples.write_text("price,payoff\n4.0,5.0\n4.5,6.5\n5.0,5.5\n4.2,7.0\n", encoding="utf-8")
    sliding = ["--input", ticks, "--window", "10", "--mode", "sliding"]
    return {
        "moments": ["moments", "--order", "4", "--method", "market", *sliding],
        "vwap": ["vwap", *sliding],
        "validate": ["validate", "--input", ticks],
        "simulate": ["simulate", "--config", str(tmp_path / "sim5000.cfg"),  # simulated's
                     "--output", str(tmp_path / "t.csv")],
        "density": ["density", "--input", ticks, "--order", "4", "--method", "frequency",
                    "--grid=5:15:11", "--output", str(tmp_path / "d.csv")],
        "price": ["price", "--config", str(scenario)],
        "optimize": ["optimize", "--config", str(scenario), "--samples", str(samples),
                     "--lo", "0", "--hi", "1.5"],
    }[command]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["moments", "vwap", "validate", "simulate", "density", "price",
                                     "optimize"])
def test_a_closed_stdout_is_one_input_error_line(tmp_path, command, unbuffered):
    argv = [sys.executable, "-c", _CLOSED_STDOUT, *closed_stdout_argv(tmp_path, command)]
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        [str(Path(mbm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    if command in ("moments", "vwap"):  # closed after the first line
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline().startswith(b"window 0 ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
    else:  # a one-line summary: its pipe's reading end is closed before the process starts
        reading, writing = os.pipe()
        os.close(reading)
        with os.fdopen(writing, "wb") as stdout:
            done = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
        err = done.stderr
        assert done.returncode == 1
    # no traceback, and no "Exception ignored" line at the interpreter's exit
    assert err == b"input error: cannot write stdout: [Errno 32] Broken pipe\n"


SIM_CFG = "[simulate]\nlength = {}\nseed = 9\nsigma = 0.05\nlog_sigma = 0.3\npv_correlation = {}\n"

# runs a command in a fresh, small interpreter and prints its exit code and
# peak RSS, so the peak is the command's own and not this process's
_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""

needs_wait4 = pytest.mark.skipif(not hasattr(os, "wait4"),
                                 reason="needs os.wait4 for a child's peak RSS")


def peak_mb(*args: str) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of ``mbm <args>`` run in a child process; with no
    args, of ``python -c "import mbm.cli"``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(mbm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    command = ["-m", "mbm.cli", *args] if args else ["-c", "import mbm.cli"]
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, *command],
                              env=env, capture_output=True, text=True, check=True)
    code, maxrss = map(int, launched.stdout.split())
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    return code, maxrss * (1 if sys.platform == "darwin" else 1024) / 2**20


def simulated(tmp_path, n: int, pv_correlation: float = -0.3) -> Path:
    cfg, ticks = tmp_path / f"sim{n}.cfg", tmp_path / f"ticks{n}.csv"
    cfg.write_text(SIM_CFG.format(n, pv_correlation), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--output", str(ticks)]) == 0
    return ticks


@needs_wait4
def test_sliding_strict_peak_memory_does_not_grow_with_the_output(tmp_path):
    peak = {}
    for n in (5_000, 25_000):
        code, peak[n] = peak_mb("moments", "--mode", "sliding", "--strict", "--window", "100",
                                "--order", "4", "--method", "market",
                                "--input", str(simulated(tmp_path, n)),
                                "--output", str(tmp_path / "m.json"))
        assert code in (0, 3)
    # the output is five times larger; its text is held a chunk at a time
    assert peak[25_000] - peak[5_000] < 25, peak


def warm_sliding_strict_growth(tmp_path, pv_correlation: float) -> float:
    """MB that a warm 20k-tick sliding --strict market k=4 run peaks above the imports."""
    args = ("moments", "--mode", "sliding", "--strict", "--window", "100", "--order", "4",
            "--method", "market", "--input", str(simulated(tmp_path, 20_000, pv_correlation)),
            "--output", str(tmp_path / "m.json"))
    assert peak_mb(*args)[0] == 3  # cold: parsed and stored
    code, peak = peak_mb(*args)
    assert code == 3
    return peak - peak_mb()[1]


@needs_wait4
def test_sliding_strict_peak_memory_stays_near_the_imports(tmp_path):
    # independent price and volume, as in the benchmark: 5,504 --strict messages.
    # 0.6 MB of columns. The run peaked 21.3 MB above the imports with 4,096-row
    # chunks, 512K-element kernel temporaries and the flag test's table copy;
    # 9.3 MB with the whole moment table; 4.1 MB computing a chunk at a time.
    growth = warm_sliding_strict_growth(tmp_path, 0.0)
    assert growth < 7, growth


@needs_wait4
def test_a_large_strict_report_is_written_as_it_is_made(tmp_path):
    # 34,530 --strict messages. Held until the end, they and their join took
    # the peak to 17.3 MB above the imports; 4.4 MB written a chunk at a time.
    growth = warm_sliding_strict_growth(tmp_path, -0.3)
    assert growth < 7, growth


@needs_wait4
def test_warm_validate_peak_memory_grows_with_the_columns_alone(tmp_path):
    peak = {}
    for n in (20_000, 100_000):
        ticks = str(simulated(tmp_path, n))
        assert peak_mb("validate", "--input", ticks)[0] == 0  # cold: parsed and stored
        code, peak[n] = peak_mb("validate", "--input", ticks)
        assert code == 0
    # 80k more ticks are 2.6 MB more columns. Growth was 12.8 MB when a hit
    # held the file's bytes and text and copied the columns, 5.5 MB since.
    assert peak[100_000] - peak[20_000] < 8, peak


@needs_wait4
def test_simulate_peak_memory_does_not_grow_with_its_length(tmp_path):
    peak = {}
    for n in (20_000, 100_000):
        cfg = tmp_path / f"sim{n}.cfg"
        cfg.write_text(SIM_CFG.format(n, -0.3), encoding="utf-8")
        code, peak[n] = peak_mb("simulate", "--config", str(cfg), "--output", os.devnull)
        assert code == 0
    # growth was 10 MB when the whole series was made before the first row
    # was written; about 0.1 MB with one block of ticks at a time
    assert peak[100_000] - peak[20_000] < 3, peak


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, which fails every write")
@pytest.mark.parametrize("rows", [R, 4096])
def test_a_write_that_fails_in_a_later_chunk_is_an_input_error(tmp_path, capsys, monkeypatch, rows):
    # ~60 KB of ticks: the file's buffer flushes, and fails, while chunks are being written
    monkeypatch.setattr(mbm.ticks, "BLOCK", rows * TICK_FLOATS)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("[simulate]\nlength = 2000\nseed = 4\n", encoding="utf-8")
    for cpus in (1, 3):  # on three CPUs, the children making later chunks are killed
        monkeypatch.setattr(mbm.cli, "_usable_cpus", lambda: cpus)
        assert main(["simulate", "--config", str(cfg), "--output", "/dev/full"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: cannot write /dev/full: ")
        assert_no_child()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, which fails every write")
def test_a_strict_report_cut_by_a_failing_write_ends_its_line_before_the_error(tmp_path, capsys,
                                                                               monkeypatch):
    # sliding two-tick windows, most of them flagged; chunks of R rows, so
    # messages are written before the file's buffer flushes, and fails
    windows = 200
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(tick_text(windows, "sliding"), encoding="utf-8")
    argv = ["moments", "--input", str(ticks), "--window", "2", "--mode", "sliding", "--order", "4",
            "--method", "market", "--strict"]
    assert main(argv + ["--output", str(tmp_path / "m.json")]) == 3
    report = capsys.readouterr().err
    monkeypatch.setattr(mbm.ticks, "BLOCK", R * 14)
    cut = set()
    for cpus in (1, 3):
        monkeypatch.setattr(mbm.cli, "_usable_cpus", lambda: cpus)
        assert main(argv + ["--output", "/dev/full"]) == 1
        out, err = capsys.readouterr()
        violations, error, end = err.split("\n")
        # the messages of the chunks made before the write failed, then the error's own line
        assert violations.startswith("strict violation: ") and report.startswith(violations + "; ")
        assert error.startswith("input error: cannot write /dev/full: ") and end == ""
        assert 0 < len(window_numbers(out)) < windows
        assert_no_child()
        cut.add((out, err))
    assert len(cut) == 1  # cut at the same chunk on any number of CPUs
