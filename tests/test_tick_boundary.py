"""Tick input that is not a finite decimal number is rejected at the boundary."""

import numpy as np
import pytest

from mbm.cli import main
from mbm.errors import DataError
from mbm.ticks import TickSeries, TradeTick, parse_ticks, window_from_ticks


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
