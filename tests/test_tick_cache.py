"""The parsed-column cache inside parse_ticks: a hit equals the parse it replaces,
and a missing, bad or untrusted entry costs a parse, never a different result."""

import io
import itertools
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


def entry_path(text):
    """Where parse_ticks(text) keeps its entry."""
    return ticks._cache_path([text.encode()])


@pytest.fixture
def parses(monkeypatch):
    """Count the parses that really read the text."""
    calls = []
    real = ticks._parse_csv

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(ticks, "_parse_csv", counting)
    return calls


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
def test_a_hit_equals_the_parse(text, tick_cache, parses):
    miss = parse_ticks(text)
    assert entries(tick_cache) == [entry_path(text).name]
    hit = parse_ticks(text)
    assert len(parses) == 1
    assert hit == miss and hit.tick_spacing == miss.tick_spacing
    assert not any(c.flags.writeable for c in (hit.time, hit.price, hit.volume, hit.value))


def test_an_entry_is_private(tick_cache):
    parse_ticks(TEXT)
    assert tick_cache.stat().st_mode & 0o777 == 0o700
    assert entry_path(TEXT).stat().st_mode & 0o777 == 0o600


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
    path = entry_path(TEXT)
    stored = path.read_bytes()
    corrupt(path)
    assert parse_ticks(TEXT) == expected
    assert len(parses) == 2
    assert path.read_bytes() == stored


def test_a_huge_shape_in_the_header_is_a_miss(parses):
    expected = parse_ticks(TEXT)
    path = entry_path(TEXT)
    path.write_bytes(path.read_bytes().replace(b"(4, 3)", b"(4, 900000000000)"))
    assert parse_ticks(TEXT) == expected
    assert len(parses) == 2


@pytest.mark.parametrize("mode", [0o770, 0o702, 0o777])
def test_a_directory_others_can_write_is_not_used(mode, tick_cache, parses):
    parse_ticks(TEXT)
    tick_cache.chmod(mode)
    assert entry_path(TEXT) is None
    parse_ticks(TEXT)
    assert len(parses) == 2


def test_a_directory_of_another_user_is_not_used(tick_cache, parses, monkeypatch):
    parse_ticks(TEXT)
    monkeypatch.setattr(os, "getuid", lambda: tick_cache.stat().st_uid + 1)
    assert entry_path(TEXT) is None
    parse_ticks(TEXT)
    assert len(parses) == 2


def test_an_unusable_cache_root_gives_the_same_result(tmp_path, monkeypatch):
    expected = parse_ticks(TEXT)
    root = tmp_path / "root"
    root.write_text("a file, so no directory can be made under it\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    assert entry_path(TEXT) is None
    assert parse_ticks(TEXT) == expected
    with pytest.raises(DataError, match="^line 2: expected 3 fields, got 2$"):
        parse_ticks("time,price,volume\n0,10\n")


def test_a_failed_store_gives_the_same_result(tick_cache, monkeypatch):
    expected = ticks._parse_csv(TEXT.encode())

    def refuse(*args):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(os, "open", refuse)
    assert parse_ticks(TEXT) == expected
    assert entries(tick_cache) == []


def test_a_relative_cache_home_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert entry_path(TEXT).parent == tmp_path / ".cache" / "mbm" / "ticks"


def test_the_key_holds_the_parser_source_and_numpy_version(tmp_path, monkeypatch):
    key = entry_path(TEXT)
    assert entry_path(TEXT) == key
    assert entry_path(TEXT + "3,8,1\n") != key
    edited = tmp_path / "ticks.py"
    edited.write_bytes(Path(ticks.__file__).read_bytes() + b"# an edit\n")
    with monkeypatch.context() as patch:
        patch.setattr(ticks, "__file__", str(edited))
        assert entry_path(TEXT) != key
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", np.__version__ + ".post1")
        assert entry_path(TEXT) != key
    assert entry_path(TEXT) == key


def test_eviction_keeps_the_byte_budget_and_the_recently_used(tick_cache, parses, monkeypatch):
    texts = [f"time,price,volume\n0,{p},1\n1,{p},2\n" for p in range(10, 16)]
    parse_ticks(texts[0])
    entry = entry_path(texts[0]).stat().st_size
    monkeypatch.setattr(ticks, "CACHE_BYTES", 3 * entry)
    for text in texts[1:]:
        for path in tick_cache.iterdir():  # strictly older than the next write
            os.utime(path, ns=(path.stat().st_mtime_ns - 10**9,) * 2)
        parse_ticks(texts[0])  # a hit keeps the first entry the most recently used
        parse_ticks(text)
        assert sum(p.stat().st_size for p in tick_cache.iterdir()) <= 3 * entry
    assert entries(tick_cache) == sorted(entry_path(t).name
                                         for t in (texts[0], texts[-2], texts[-1]))
    assert parses == [t.encode() for t in texts]  # the first was never evicted, so parsed once


def test_a_hit_that_cannot_touch_its_entry_is_still_a_hit(parses, monkeypatch):
    expected = parse_ticks(TEXT)

    def refuse(*args, **kwargs):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(os, "utime", refuse)
    assert parse_ticks(TEXT) == expected
    assert len(parses) == 1


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_a_file_read_in_buffers_has_the_line_ends_of_its_text(size):
    for n in range(7):
        for data in map(bytes, itertools.product(b"a\r\n", repeat=n)):
            fh = io.BytesIO(data)
            chunks = list(ticks._lf_chunks(iter(lambda: fh.read(size), b"")))
            # the line ends of a text-mode read, which translates CRLF and CR to LF
            text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None).read()
            assert b"".join(chunks) == b"".join(ticks._lf_chunks([data])) == text.encode()
            assert all(len(chunk) <= size for chunk in chunks)


class Reads(io.BytesIO):
    """A binary file that records the size of each read, and can refuse to seek like a pipe."""

    def __init__(self, data: bytes, seekable: bool = True):
        super().__init__(data)
        self.sizes, self._seekable = [], seekable

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)

    def seekable(self):
        return self._seekable


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_a_file_shares_the_entry_of_its_text_and_a_hit_reads_it_in_buffers(parses, end):
    expected = parse_ticks(TEXT)
    fh = Reads(TEXT.encode().replace(b"\n", end))
    assert parse_ticks(fh) == expected
    assert len(parses) == 1
    assert -1 not in fh.sizes and fh.sizes[-1] == 1 << 16  # the last read found the end


@pytest.mark.parametrize("seekable", [True, False])
def test_a_file_missing_from_the_cache_is_read_once_whole_and_stored(tick_cache, parses, seekable):
    expected = ticks._parse_csv(TEXT.encode())
    parses.clear()
    fh = Reads(TEXT.replace("\n", "\r\n").encode(), seekable)
    assert parse_ticks(fh) == expected
    assert fh.sizes.count(-1) == 1 and (seekable or fh.sizes == [-1])
    assert entries(tick_cache) == [entry_path(TEXT).name]
    assert parse_ticks(Reads(TEXT.encode(), seekable)) == expected
    assert len(parses) == 1  # the second call was a hit


def test_a_cold_parse_of_a_decimal_body_decodes_its_header_line_alone(parses, monkeypatch):
    decoded, decode = [], ticks._decoded
    monkeypatch.setattr(ticks, "_decoded", lambda data, *args: decoded.append(data) or decode(data, *args))
    series = parse_ticks(Reads(TEXT.replace("\n", "\r\n").encode()))
    assert len(parses) == 1 and decoded == [b"time,price,volume\n"]
    assert parse_ticks(TEXT) == series and len(parses) == 1


class Rewritten(Reads):
    """A file that holds TEXT while it is read in buffers and other text when it is read whole."""

    def read(self, size=-1):
        return super().read(size) if size >= 0 else TEXTS["four_columns"].encode()


def test_an_entry_is_keyed_by_the_bytes_parsed_not_those_hashed(tick_cache, parses):
    other = TEXTS["four_columns"]
    assert parse_ticks(Rewritten(TEXT.encode())) == ticks._parse_csv(other.encode())
    assert entries(tick_cache) == [entry_path(other).name]
