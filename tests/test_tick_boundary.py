"""Tick input that is not a finite decimal number is rejected at the boundary."""

import itertools
import warnings

import numpy as np
import pytest

import mbm.ticks
from mbm.cli import main
from mbm.errors import DataError
from mbm.ticks import TickSeries, TradeTick, _infer_spacing, parse_ticks, window_from_ticks


@pytest.mark.parametrize(
    "row",
    [
        "nan,10,1",  # time NaN slipped past the < 0 and ordering checks
        "1,inf,1",  # price inf gave value = inf
        "1,10,1_0",  # read as 10 by float()
        "1,1e400,1",  # a decimal spelling that overflows to inf
    ],
)
def test_non_finite_or_non_decimal_field_is_input_error_with_line(tmp_path, capsys, row):
    path = tmp_path / "ticks.csv"
    path.write_text(f"time,price,volume\n0,10,1\n{row}\n2,11,1\n", encoding="utf-8")
    assert main(["validate", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "line 3" in err


def test_value_column_nan_is_rejected():
    with pytest.raises(DataError, match="line 2"):
        parse_ticks("time,price,volume,value\n0,10,2,nan\n")


def test_line_numbers_count_blank_lines():
    with pytest.raises(DataError, match="line 4: price"):
        parse_ticks("time,price,volume\n0,10,1\n\n1,-3,1\n")


def test_columns_are_checked_like_ticks():
    with pytest.raises(DataError, match="tick 1: time nan is not finite"):
        TickSeries([0.0, np.nan], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DataError, match="tick 0: value inf is not finite"):
        window_from_ticks([TradeTick(time=0.0, price=1e200, volume=1e200, value=float("inf"))])


def test_fast_and_row_by_row_parse_agree():
    fast = parse_ticks("time,price,volume\n0,10.5,2\n1,11,3e0\n")
    quoted = parse_ticks('time,price,volume\n"0","10.5",2\n1,11,3e0\n')  # csv quoting: row path
    assert fast == quoted
    assert fast.value.tolist() == [21.0, 33.0]


@pytest.mark.parametrize(
    "text, message",
    [
        # |value - inf| <= 1e-9 * inf held for any value, so vwap read 3e-200
        ("time,price,volume,value\n0,1e200,1e200,1\n1,1e200,1e200,5\n",
         "line 2: value 1.0 violates price*volume=inf beyond relative 1e-09"),
        ("time,price,volume\n0,1e200,1e200\n", "line 2: value inf is not finite"),
    ],
    ids=["explicit_value", "default_value"],
)
def test_overflowing_price_times_volume_is_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "ticks.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"input error: {message}\n"


BLOCK = 4  # ticks per block of the checks below: 12 ticks are three blocks


def check(columns, block):
    """The DataError message of TickSeries(*columns) with ticks checked block at a time, or None."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mbm.ticks, "BLOCK", block)
        try:
            TickSeries(*columns)
        except DataError as exc:
            return str(exc)
    return None


def broken(rule: int, i: int, columns):
    """The columns with tick i breaking rule (see ticks._RULE_MESSAGES); None breaks nothing."""
    time, price, volume, value = (c.copy() for c in columns)
    if rule is not None:
        column, bad = ((time, np.nan), (time, -1.0), (price, -1.0), (volume, 0.0),
                       (value, np.inf), (value, 2 * value[i]))[rule]
        column[i] = bad
    return time, price, volume, value


@pytest.mark.parametrize("rule", [None, *range(6)])
def test_tick_checks_in_blocks_report_what_one_block_reports(rule):
    # a rule broken at tick i and a time decrease at tick j, on either side of
    # every block edge, a decrease at a block's first tick included
    n = 3 * BLOCK
    time = np.arange(n, dtype=float)
    columns = (time, np.full(n, 10.0), np.full(n, 2.0), np.full(n, 20.0))
    assert check(columns, BLOCK) is None
    for i, j in itertools.product(range(n), [None, *range(1, n)]):
        time, price, volume, value = broken(rule, i, columns)
        if j is not None:
            time[j] = time[j - 1] - 0.5
        whole = check((time, price, volume, value), n)
        assert check((time, price, volume, value), BLOCK) == whole
        assert (whole is None) == (rule is None and j is None)


def test_spacing_in_blocks_is_the_spacing_of_one_block(monkeypatch):
    n = 3 * BLOCK + 1
    regular = 0.25 * np.arange(n)
    cases = [regular, regular + 1e-12 * (np.arange(n) % 2)]  # inside the 1e-9 tolerance
    for i in range(n):
        off = regular.copy()
        off[i] += 0.1
        cases.append(off)
    whole = [_infer_spacing(time) for time in cases]
    monkeypatch.setattr(mbm.ticks, "BLOCK", BLOCK)
    assert [_infer_spacing(time) for time in cases] == whole
    assert whole[0] == 0.25 and whole[1] == 0.25 + 1e-12 and whole[2:] == [None] * n
