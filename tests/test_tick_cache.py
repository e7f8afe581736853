"""The parsed-column cache inside parse_ticks: a hit equals the parse it replaces,
and a missing, bad or untrusted entry costs a parse, never a different result."""

import os
from pathlib import Path

import numpy as np
import pytest

from mbm import ticks
from mbm.errors import DataError
from mbm.ticks import parse_ticks

TEXTS = {
    "three_columns": "time,price,volume\n0,10,2\n1,11.5,3\n2,9.25,1e1\n",
    "four_columns": "time,price,volume,value\n0,10,2,20\n1,11,3,33\n",
    "irregular": "time,price,volume\n0,10,1\n1,11,1\n5,12,1\n",
    "one_tick": "time,price,volume\n0,10,2\n",
}
TEXT = TEXTS["three_columns"]


def entries(cache):
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


@pytest.fixture
def parses(monkeypatch):
    """Count the parses that really read the text."""
    calls = []
    real = ticks._parse_csv

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(ticks, "_parse_csv", counting)
    return calls


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
def test_a_hit_equals_the_parse(text, tick_cache, parses):
    miss = parse_ticks(text)
    assert entries(tick_cache) == [ticks._cache_path(text).name]
    hit = parse_ticks(text)
    assert len(parses) == 1
    assert hit == miss and hit.tick_spacing == miss.tick_spacing
    assert not any(c.flags.writeable for c in (hit.time, hit.price, hit.volume, hit.value))


def test_an_entry_is_private(tick_cache):
    parse_ticks(TEXT)
    assert tick_cache.stat().st_mode & 0o777 == 0o700
    assert ticks._cache_path(TEXT).stat().st_mode & 0o777 == 0o600


def test_a_failed_parse_stores_nothing(tick_cache):
    text = "time,price,volume\n0,10,1\n1,-3,1\n"
    for _ in range(2):
        with pytest.raises(DataError, match=r"^line 3: price must be positive and finite, got -3.0$"):
            parse_ticks(text)
    assert entries(tick_cache) == []


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-8])


def _save(array):
    def write(path):
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, array)
    return write


BAD_ENTRIES = {
    "truncated": _truncated,
    "empty": lambda path: path.write_bytes(b""),
    "not_npy": lambda path: path.write_bytes(b"PK\x03\x04 a zip file"),
    "float32": _save(np.ones((4, 3), dtype=np.float32)),
    "big_endian": _save(np.ones((4, 3), dtype=">f8")),
    "three_rows": _save(np.ones((3, 3))),
    "one_dimensional": _save(np.ones(12)),
    "negative_price": _save(np.array([[0.0, 1, 2], [10, -11, 9.25], [2, 3, 10], [20, -33, 92.5]])),
    "value_identity": _save(np.array([[0.0, 1, 2], [10, 11.5, 9.25], [2, 3, 10], [20, 34.5, 93]])),
    "times_decrease": _save(np.array([[2.0, 1, 0], [10, 11.5, 9.25], [2, 3, 10], [20, 34.5, 92.5]])),
}


@pytest.mark.parametrize("corrupt", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_a_bad_entry_is_a_miss_and_is_overwritten(corrupt, parses):
    expected = parse_ticks(TEXT)
    path = ticks._cache_path(TEXT)
    stored = path.read_bytes()
    corrupt(path)
    assert parse_ticks(TEXT) == expected
    assert len(parses) == 2
    assert path.read_bytes() == stored


def test_a_huge_shape_in_the_header_is_a_miss(parses):
    expected = parse_ticks(TEXT)
    path = ticks._cache_path(TEXT)
    path.write_bytes(path.read_bytes().replace(b"(4, 3)", b"(4, 900000000000)"))
    assert parse_ticks(TEXT) == expected
    assert len(parses) == 2


@pytest.mark.parametrize("mode", [0o770, 0o702, 0o777])
def test_a_directory_others_can_write_is_not_used(mode, tick_cache, parses):
    parse_ticks(TEXT)
    tick_cache.chmod(mode)
    assert ticks._cache_path(TEXT) is None
    parse_ticks(TEXT)
    assert len(parses) == 2


def test_a_directory_of_another_user_is_not_used(tick_cache, parses, monkeypatch):
    parse_ticks(TEXT)
    monkeypatch.setattr(os, "getuid", lambda: tick_cache.stat().st_uid + 1)
    assert ticks._cache_path(TEXT) is None
    parse_ticks(TEXT)
    assert len(parses) == 2


def test_an_unusable_cache_root_gives_the_same_result(tmp_path, monkeypatch):
    expected = parse_ticks(TEXT)
    root = tmp_path / "root"
    root.write_text("a file, so no directory can be made under it\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    assert ticks._cache_path(TEXT) is None
    assert parse_ticks(TEXT) == expected
    with pytest.raises(DataError, match="^line 2: expected 3 fields, got 2$"):
        parse_ticks("time,price,volume\n0,10\n")


def test_a_failed_store_gives_the_same_result(tick_cache, monkeypatch):
    expected = ticks._parse_csv(TEXT)

    def refuse(*args):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(os, "open", refuse)
    assert parse_ticks(TEXT) == expected
    assert entries(tick_cache) == []


def test_a_relative_cache_home_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert ticks._cache_path(TEXT).parent == tmp_path / ".cache" / "mbm" / "ticks"


def test_the_key_holds_the_parser_source_and_numpy_version(tmp_path, monkeypatch):
    key = ticks._cache_path(TEXT)
    assert ticks._cache_path(TEXT) == key
    assert ticks._cache_path(TEXT + "3,8,1\n") != key
    edited = tmp_path / "ticks.py"
    edited.write_bytes(Path(ticks.__file__).read_bytes() + b"# an edit\n")
    with monkeypatch.context() as patch:
        patch.setattr(ticks, "__file__", str(edited))
        assert ticks._cache_path(TEXT) != key
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", np.__version__ + ".post1")
        assert ticks._cache_path(TEXT) != key
    assert ticks._cache_path(TEXT) == key


def test_eviction_keeps_the_byte_budget_and_the_recently_used(tick_cache, parses, monkeypatch):
    texts = [f"time,price,volume\n0,{p},1\n1,{p},2\n" for p in range(10, 16)]
    parse_ticks(texts[0])
    entry = ticks._cache_path(texts[0]).stat().st_size
    monkeypatch.setattr(ticks, "CACHE_BYTES", 3 * entry)
    for text in texts[1:]:
        for path in tick_cache.iterdir():  # strictly older than the next write
            os.utime(path, ns=(path.stat().st_mtime_ns - 10**9,) * 2)
        parse_ticks(texts[0])  # a hit keeps the first entry the most recently used
        parse_ticks(text)
        assert sum(p.stat().st_size for p in tick_cache.iterdir()) <= 3 * entry
    assert entries(tick_cache) == sorted(ticks._cache_path(t).name
                                         for t in (texts[0], texts[-2], texts[-1]))
    assert parses == texts  # the first text was never evicted, so never parsed again
