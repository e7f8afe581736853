"""simulate makes its ticks in blocks of one output chunk, ticks.BLOCK
floats (4096 ticks of 4 floats), and writes each block before it makes the
next. These tests shrink a block to R ticks and check, for R-1, R, R+1 and
2R+1 ticks, that the blocks join to the series generated as one block bit
for bit, that the CLI writes its rendering, and that a tick breaking a tick
rule past the first block is the error it was.
"""

import dataclasses
import itertools
import os

import numpy as np
import pytest

import mbm.ticks
from mbm.cli import main
from mbm.simulate import SimSpec, _ar1, gen_trades, stream_normals, trade_blocks
from mbm.ticks import TICK_FLOATS, render_ticks, row_chunks

ROWS = (3, 7)
COLUMNS = ("time", "price", "volume", "value")

# (price_model, volume_model, phi, pv_correlation); constant prices with a
# correlation draw the price stream for the volumes alone
MODELS = [m for m in itertools.product(("ar1", "constant"), ("lognormal", "constant"),
                                       (0.0, 0.6), (0.0, 0.5))
          if m[0] == "ar1" or m[2] == 0.0]


def sim_spec(length, price_model="ar1", volume_model="lognormal", phi=0.6, rho=0.5, **kw):
    return SimSpec(length=length, seed=11, price_model=price_model, phi=phi, sigma=0.3,
                   volume_model=volume_model, median_volume=40.0, log_sigma=0.4,
                   pv_correlation=rho, **kw)


def bits(series):
    return [getattr(series, c).view(np.uint64).tolist() for c in COLUMNS]


@pytest.mark.parametrize("models", MODELS, ids=lambda m: "-".join(map(str, m)))
@pytest.mark.parametrize("rows", ROWS)
def test_blocks_join_to_the_series_made_in_one_block(monkeypatch, rows, models):
    for length in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
        spec = sim_spec(length, *models)
        whole = gen_trades(spec)  # 4096 rows: one block
        with monkeypatch.context() as patch:
            patch.setattr(mbm.ticks, "BLOCK", rows * TICK_FLOATS)
            blocks = list(trade_blocks(spec))
            joined = gen_trades(spec)
            sizes = [r.stop - r.start for r in row_chunks(length, TICK_FLOATS)]
        assert [len(b) for b in blocks] == sizes and max(sizes) <= rows
        assert [list(itertools.chain(*c)) for c in zip(*map(bits, blocks))] == bits(whole)
        assert bits(joined) == bits(whole) and joined.tick_spacing == whole.tick_spacing


def test_one_block_is_the_documented_generator():
    spec = sim_spec(50)
    eps_p, eps_v = (stream_normals(spec.seed, s, 50) for s in (0, 1))
    price = 10.0 * np.exp(_ar1(0.3 * eps_p, 0.6))
    volume = 40.0 * np.exp(0.4 * (0.5 * eps_p + np.sqrt(1.0 - 0.25) * eps_v))
    assert bits(gen_trades(spec)) == [np.arange(50.0).view(np.uint64).tolist(),
                                      *(c.view(np.uint64).tolist()
                                        for c in (price, volume, price * volume))]


def write_config(tmp_path, spec):
    cfg = tmp_path / "sim.cfg"
    fields = dataclasses.asdict(spec)
    cfg.write_text("[simulate]\n" + "".join(f"{k} = {v!r}\n".replace("'", "")
                                           for k, v in fields.items()), encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize("rows", ROWS)
def test_simulate_writes_the_rendered_series(tmp_path, capsys, monkeypatch, rows):
    spec = sim_spec(2 * rows + 1)
    expected = render_ticks(gen_trades(spec)).encode()
    monkeypatch.setattr(mbm.ticks, "BLOCK", rows * TICK_FLOATS)
    out = tmp_path / "ticks.csv"
    assert main(["simulate", "--config", write_config(tmp_path, spec), "--output", str(out)]) == 0
    assert capsys.readouterr() == (f"simulated ticks={2 * rows + 1} seed=11\n", "")
    assert out.read_bytes() == expected


# seed 19 walks this price past the float maximum first at tick 9, while
# every tick before it is finite
OVERFLOW = dict(length=15, seed=19, base_price=5e307, sigma=1.0, phi=0.6)


def test_the_overflow_spec_first_overflows_past_every_first_block():
    with np.errstate(over="ignore"):
        price = 5e307 * np.exp(_ar1(stream_normals(19, 0, 15), 0.6))
    assert np.flatnonzero(~np.isfinite(price))[0] == 9 > max(ROWS)


@pytest.mark.parametrize("rows", ROWS)
def test_a_bad_tick_past_the_first_block_keeps_the_rows_before_its_block(tmp_path, capsys,
                                                                         monkeypatch, rows):
    spec = SimSpec(**OVERFLOW)
    kept = render_ticks(gen_trades(dataclasses.replace(spec, length=9 // rows * rows)))
    monkeypatch.setattr(mbm.ticks, "BLOCK", rows * TICK_FLOATS)
    out = tmp_path / "ticks.csv"
    out.write_text("an older file\n", encoding="utf-8")
    assert main(["simulate", "--config", write_config(tmp_path, spec), "--output", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "input error: tick 9: price must be positive and finite, got inf\n")
    assert out.read_text(encoding="utf-8") == kept


def test_a_bad_tick_in_the_first_block_leaves_the_output_untouched(tmp_path, capsys):
    spec = SimSpec(length=10, seed=7, base_price=1e300, median_volume=1e10)
    out = tmp_path / "ticks.csv"
    out.write_text("an older file\n", encoding="utf-8")
    assert main(["simulate", "--config", write_config(tmp_path, spec), "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", "input error: tick 0: value inf is not finite\n")
    assert out.read_text(encoding="utf-8") == "an older file\n"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_a_failed_simulate_never_removes_a_device_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mbm.ticks, "BLOCK", 3 * TICK_FLOATS)
    cfg = write_config(tmp_path, SimSpec(**OVERFLOW))
    assert main(["simulate", "--config", cfg, "--output", os.devnull]) == 1
    assert capsys.readouterr().err.startswith("input error: tick 9: ")
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
