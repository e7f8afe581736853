"""Trade tick time-series: parsing, validation, and windowing.

A trade tick is the atom of everything downstream: (time, price, volume,
value) with the identity value = price * volume enforced on ingestion.
A TickSeries holds its ticks as four read-only float64 columns, built by
its one constructor and validated there in one vectorized pass. Windows
are defined by tick COUNT, not wall-clock span; all averaging operators
downstream treat a window as one averaging interval. A Window is a
(series, start, stop) view of the columns. A WindowBatch is count
equal-length windows of a series, (series, first, count, window_len,
step), whose rows it lays out on access as 2-D views of the columns so
that moment kernels can process them all at once; a slice of its rows is
the batch of those windows alone. TradeTick is a plain record
that window_from_ticks reads into a series. parse_ticks keeps the columns
of each text it parses in a private on-disk cache, so a text is parsed
once, and a file whose columns are there is hashed, never read whole.
Rendered outputs are made a chunk of about OUTPUT_FLOATS floats at a time
(row_chunks, framed).
"""

from __future__ import annotations

import io
import os
import re
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

# Relative tolerance for the value = price * volume identity.
VALUE_IDENTITY_RTOL = 1e-9

# Messages of the tick rules, in the order _check_columns checks them; a
# tick breaking several rules reports the first. {0}..{4}: time, price,
# volume, value, price*volume.
_RULE_MESSAGES = (
    "time {0} is not finite",
    "negative time {0}",
    "price must be positive and finite, got {1}",
    "volume must be positive and finite, got {2}",
    "value {3} is not finite",
    "value {3} violates price*volume={4} beyond relative " f"{VALUE_IDENTITY_RTOL:g}",
)

# A decimal number as written in tick-CSV: no inf/nan, no underscores, no hex.
_DECIMAL = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*")
_DECIMAL_BYTES = b"0123456789.eE+-, \t\r\n"


#: Ticks per block of the tick checks, so their temporaries do not grow with the series.
CHECK_TICKS = 1 << 14


def _check_columns(time, price, volume, value, where) -> None:
    """Raise DataError for the first tick that breaks a rule or goes back in time.

    The ticks are checked CHECK_TICKS at a time, in order; where(i) names
    tick i in the message (a CSV line, a tick index).
    """
    n = len(time)
    for lo in range(0, n, CHECK_TICKS):
        hi = min(lo + CHECK_TICKS, n)
        t, p, u, c = time[lo:hi], price[lo:hi], volume[lo:hi], value[lo:hi]
        with np.errstate(invalid="ignore", over="ignore"):
            expected = p * u
            passed = (
                np.isfinite(t),
                t >= 0.0,
                (p > 0.0) & np.isfinite(p),
                (u > 0.0) & np.isfinite(u),
                np.isfinite(c),
                # an overflowing price*volume fails: |value - inf| <= inf would pass
                np.isfinite(expected)
                & (np.abs(c - expected) <= VALUE_IDENTITY_RTOL * np.abs(expected)),
            )
        good = np.logical_and.reduce(passed)
        first = max(lo, 1)  # tick lo is ordered against the last tick of the block before
        ordered = time[first:hi] >= time[first - 1:hi - 1]
        if good.all() and ordered.all():
            continue
        i = lo + int(np.argmin(good)) if not good.all() else hi
        j = first + int(np.argmin(ordered)) if not ordered.all() else hi
        if i <= j:
            rule = next(r for r, ok in enumerate(passed) if not ok[i - lo])
            fields = (float(x[i - lo]) for x in (t, p, u, c, expected))
            raise DataError(f"{where(i)}: {_RULE_MESSAGES[rule].format(*fields)}")
        raise DataError(
            f"{where(j)}: time {float(time[j])} decreases from previous {float(time[j - 1])} "
            "(tick times must be non-decreasing)"
        )


# TradeTick, window_from_ticks and partition_windows stay because the
# benchmark in perfbench/ calls them; the package itself works on columns.
class TradeTick(NamedTuple):
    """One market trade as a plain record; window_from_ticks checks it through TickSeries."""

    time: float
    price: float
    volume: float
    value: float


_TICK_FIELDS = TradeTick._fields


def _frozen_column(values, copy: bool) -> np.ndarray:
    col = (np.array if copy else np.asarray)(values, dtype=float)
    col.setflags(write=False)
    return col


class TickSeries:
    """Ordered trade ticks as read-only float64 columns, with an optional regular spacing.

    The columns are equal-length 1-d arrays; value defaults to
    price*volume. Every tick is checked in one vectorized pass, and where(i)
    names the offending tick in the DataError message. tick_spacing is the
    minimal time division of the series; it is inferred on parse when all
    consecutive time differences agree, else left None. copy=False keeps
    float64 columns as given, for a caller that owns them and writes them no more.
    """

    __slots__ = ("time", "price", "volume", "value", "tick_spacing")

    def __init__(self, time, price, volume, value=None, tick_spacing: float | None = None,
                 *, where=lambda i: f"tick {i}", copy: bool = True):
        if value is None:
            with np.errstate(over="ignore"):  # an overflowing product fails _check_columns
                value = np.multiply(price, volume)
        columns = [_frozen_column(c, copy) for c in (time, price, volume, value)]
        if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
            raise DataError("tick columns must be 1-d and of equal length")
        _check_columns(*columns, where)
        self.time, self.price, self.volume, self.value = columns
        self.tick_spacing = tick_spacing

    def __len__(self):
        return len(self.time)

    def __eq__(self, other):
        if not isinstance(other, TickSeries):
            return NotImplemented
        return self.tick_spacing == other.tick_spacing and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in _TICK_FIELDS
        )

    __hash__ = None

    def __repr__(self):
        return f"TickSeries(<{len(self)} ticks>, tick_spacing={self.tick_spacing!r})"


@dataclass(frozen=True, slots=True)
class WindowBatch:
    """count equal-length windows of a series, laid out on access as (count, window_len) views.

    Window i is the window_len ticks from tick first + i * step: step is
    window_len for disjoint windows and 1 for sliding ones. Row i of the
    read-only views price/volume/value holds its ticks, and center_time[i]
    is its median tick time. Moment kernels take a batch and return one
    result per row; rows(x) lays out a per-tick array x of the ticks(name)
    that the windows cover, such as ticks("price") ** n, so an elementwise
    step runs once per tick. A slice [lo:hi] of the rows is the batch of
    those windows alone, over only the ticks they cover, so a kernel run on
    it works on those ticks alone; its rows have the whole batch's layout
    and ticks, so each reduces to the same bits.
    """

    series: TickSeries
    first: int
    count: int
    window_len: int
    step: int

    def __post_init__(self):
        integral = all(isinstance(v, (int, np.integer))
                       for v in (self.first, self.count, self.window_len, self.step))
        if not (integral and self.first >= 0 and self.count >= 0 and self.window_len >= 1
                and self.step >= 1 and self._span.stop <= len(self.series)):
            where = (f"{self.count} windows of {self.window_len} ticks {self.step} apart "
                     f"from tick {self.first}")
            n = len(self.series)
            raise DataError(f"{where} do not fit in {n} ticks" if integral else
                            f"{where} in {n} ticks: first, count, window_len and step "
                            "must be integers")

    def __len__(self):
        return self.count

    def __getitem__(self, sl: slice) -> WindowBatch:
        """The windows in a slice of rows, over only the ticks they cover."""
        if not isinstance(sl, slice):
            raise TypeError(f"a WindowBatch takes a slice of rows, got {type(sl).__name__}")
        lo, hi, stride = sl.indices(self.count)
        if stride != 1:
            raise ValueError("a span batch is a slice of consecutive rows")
        return WindowBatch(self.series, self.first + lo * self.step, max(0, hi - lo),
                           self.window_len, self.step)

    @property
    def _span(self) -> slice:
        """The ticks of the series that the windows cover."""
        stop = self.first + (self.count - 1) * self.step + self.window_len
        return slice(self.first, stop if self.count else self.first)

    def ticks(self, name: str) -> np.ndarray:
        """The ticks of a column (time, price, volume or value) that the windows cover."""
        return getattr(self.series, name)[self._span]

    def rows(self, x: np.ndarray) -> np.ndarray:
        """x[i * step:i * step + window_len] for each window i, as the rows of one view of a 1-d x."""
        x = np.ascontiguousarray(x)  # a column, a slice of one or a power of one: no copy
        return np.ndarray((self.count, self.window_len), x.dtype, x, 0,
                          (self.step * x.itemsize, x.itemsize))

    price = property(lambda self: self.rows(self.ticks("price")))
    volume = property(lambda self: self.rows(self.ticks("volume")))
    value = property(lambda self: self.rows(self.ticks("value")))

    @property
    def center_time(self) -> np.ndarray:
        """Median tick time of each window."""
        time, mid = self.rows(self.ticks("time")), self.window_len // 2
        return time[:, mid] if self.window_len % 2 else 0.5 * (time[:, mid - 1] + time[:, mid])


@dataclass(frozen=True, slots=True)
class Window:
    """A contiguous run of ticks [start, stop) of a series, forming one averaging interval."""

    series: TickSeries
    start: int
    stop: int

    def __post_init__(self):
        if not 0 <= self.start < self.stop <= len(self.series):
            raise DataError("window must contain at least one tick")

    def __len__(self):
        return self.stop - self.start

    @property
    def center_time(self) -> float:
        """Median tick time."""
        return float(self.batch().center_time[0])

    def batch(self) -> WindowBatch:
        """This window as a one-row WindowBatch of its own ticks, not the whole series."""
        return WindowBatch(self.series, self.start, 1, len(self), 1)


def window_from_ticks(ticks) -> Window:
    """Build a Window over exactly these TradeTick records; its center is the median tick time."""
    series = TickSeries(*np.array(list(ticks), dtype=float).reshape(-1, 4).T)
    return Window(series, 0, len(series))


def parse_ticks(text) -> TickSeries:
    """Parse tick-CSV, given as text or as a binary file of UTF-8 text, into a TickSeries.

    Expected header is ``time,price,volume`` or ``time,price,volume,value``.
    When the value column is absent it is computed as price*volume; when
    present it is validated against that identity (relative 1e-9).
    Fields must be finite decimal numbers (no inf/nan, underscores or hex).
    Raises DataError with the offending line number on any malformed row,
    non-UTF-8 file, non-finite or non-positive price/volume, identity
    violation, or decreasing times. A file's CRLF and CR line ends read as LF.

    The columns of a parse that succeeds are cached in the private directory
    ``$XDG_CACHE_HOME/mbm/ticks`` (default ``~/.cache/mbm/ticks``) under a
    blake2b key of the text's UTF-8 bytes, this module's source and numpy's
    version, so the same text is parsed once; a hit is checked like a parse,
    and any cache fault is a miss, so results and errors never depend on the
    cache. A file that can seek is hashed a buffer at a time before it is
    read, so a hit never holds its text; one that cannot (a pipe) is read
    once. A miss keys its entry by the text it parsed.
    """
    if not isinstance(text, str):
        if text.seekable():
            start = text.tell()
            series = _cached(_cache_path(_lf_chunks(text)))
            if series is not None:
                return series
            text.seek(start)
        text = _decoded(text.read())
    step = 1 << 16  # the text is hashed in slices: no copy of the whole text
    path = _cache_path(text[i:i + step].encode("utf-8", "surrogatepass")
                       for i in range(0, len(text), step))
    series = _cached(path)
    if series is None:
        series = _parse_csv(text)
        if path is not None:
            with suppress(OSError):  # an unwritable cache costs the next call a parse
                _store(path, series)
    return series


def _decoded(data: bytes, what: str = "") -> str:
    """data as UTF-8 text with universal newlines; what ("samples ") prefixes the error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{what}line {line}: not UTF-8 text ({exc.reason})") from None
    if "\r" in text:  # as a text-mode read translates them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _lf_chunks(fh, size: int = 1 << 16):
    """The rest of a binary file a buffer at a time, its line ends read as _decoded reads them."""
    cr = False
    while chunk := fh.read(size):
        if cr and chunk.startswith(b"\n"):
            chunk = chunk[1:]  # the LF of a CRLF cut between two buffers
        cr = chunk.endswith(b"\r")
        yield chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in chunk else chunk


# Byte budget of the tick cache: past it, the least recently used entries go.
CACHE_BYTES = 256 << 20


def _cache_path(chunks) -> Path | None:
    """Where the cache keeps the columns of the text whose UTF-8 bytes are the chunks.

    None without a private cache directory; then no chunk is read.
    """
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # as the XDG spec says, a relative value is ignored
        root = os.path.expanduser("~/.cache")
    directory = Path(root, "mbm", "ticks")
    if not directory.is_absolute() or not hasattr(os, "getuid"):
        return None  # no home directory, or no owner to check
    try:
        from _blake2 import blake2b  # the C hash behind hashlib, without loading OpenSSL

        directory.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        directory.mkdir(mode=0o700, exist_ok=True)
        st = directory.stat()
        key = blake2b(Path(__file__).read_bytes(), digest_size=32)
    except (ImportError, OSError):
        return None
    # entries are trusted only where no one else could have written them
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    key.update(b"\0numpy " + np.__version__.encode() + b"\0")
    for chunk in chunks:
        key.update(chunk)
    return directory / f"{key.hexdigest()}.npy"


def _cached(path: Path | None) -> TickSeries | None:
    """The series stored at path, checked as a parse checks it; None for no path or a bad entry."""
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:  # the .npy reader alone: no pickle, no zip
            columns = np.lib.format.read_array(fh, allow_pickle=False)
        if columns.dtype != np.float64 or columns.ndim != 2 or len(columns) != 4:
            return None
        series = TickSeries(*columns, copy=False)  # no second copy of the loaded columns
    except (OSError, ValueError, MemoryError, DataError):  # MemoryError: a corrupt shape
        return None
    with suppress(OSError):  # a cache that cannot be touched still serves its entries
        os.utime(path)
    series.tick_spacing = _infer_spacing(series.time)
    return series


def _store(path: Path, series: TickSeries) -> None:
    """Write the series' (4, n) columns to path, then evict entries past CACHE_BYTES."""
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "wb") as fh:
            columns = np.stack([series.time, series.price, series.volume, series.value])
            np.lib.format.write_array(fh, columns, allow_pickle=False)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    with os.scandir(path.parent) as it:
        entries = [(entry.stat(follow_symlinks=False), entry.path) for entry in it]
    kept = 0
    for st, name in sorted(entries, key=lambda e: e[0].st_mtime_ns, reverse=True):
        kept += st.st_size
        if kept > CACHE_BYTES:  # the least recently used, as a hit touches its entry
            os.unlink(name)


def _parse_csv(text: str) -> TickSeries:
    if not text:
        raise DataError("empty input: missing header")
    import csv  # only a parse, not a cache hit, reads CSV

    first, _, body = text.partition("\n")
    header = [h.strip().lower() for h in next(csv.reader([first]), [])]
    if header == ["time", "price", "volume"]:
        ncols = 3
    elif header == ["time", "price", "volume", "value"]:
        ncols = 4
    else:
        raise DataError(
            "line 1: header must be 'time,price,volume' or 'time,price,volume,value', "
            f"got {','.join(header)!r}"
        )

    data = _parse_body(body, ncols)
    series = TickSeries(*(data[:, j] for j in range(ncols)),
                        where=lambda i: f"line {_data_line_numbers(body)[i]}")
    series.tick_spacing = _infer_spacing(series.time)
    return series


def _data_rows(body: str):
    """(line number, fields) of each non-blank CSV row after the header."""
    import csv

    for lineno, row in enumerate(csv.reader(io.StringIO(body)), start=2):
        if row and (len(row) > 1 or row[0].strip()):
            yield lineno, row


def _data_line_numbers(body: str) -> list[int]:
    return [lineno for lineno, _ in _data_rows(body)]


def _parse_body(body: str, ncols: int) -> np.ndarray:
    """(rows, ncols) floats of the data rows.

    numpy's C reader takes bodies that hold nothing but decimal numbers;
    anything else is read row by row, which names the first bad line.
    """
    if not body.encode().translate(None, _DECIMAL_BYTES) and body.strip():
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
        if data is not None and data.shape[1] == ncols:
            return data

    rows = []
    for lineno, row in _data_rows(body):
        if len(row) != ncols:
            raise DataError(f"line {lineno}: expected {ncols} fields, got {len(row)}")
        for field in row:
            if not _DECIMAL.fullmatch(field):
                raise DataError(f"line {lineno}: non-numeric field {field!r}; "
                                "expected a finite decimal number")
        rows.append([float(f) for f in row])
    return np.array(rows, dtype=float).reshape(-1, ncols)


def _infer_spacing(time: np.ndarray) -> float | None:
    if len(time) < 2:
        return None
    first = time[1] - time[0]
    if not first > 0.0:
        return None
    for lo in range(0, len(time) - 1, CHECK_TICKS):  # the differences a block at a time
        diffs = np.diff(time[lo:lo + CHECK_TICKS + 1])
        if np.any(np.abs(diffs - first) > 1e-9 * np.maximum(abs(first), np.abs(diffs))):
            return None
    return float(first)


#: Floats per chunk of a rendered output. The CLI formats, prints and writes
#: its outputs a chunk of rows at a time, each chunk about this many floats,
#: so no output's text is held whole.
OUTPUT_FLOATS = 1 << 14


def row_chunks(n: int, floats_per_row: int, max_rows: int | None = None) -> list[slice]:
    """Slices that cover rows 0..n-1 in order, each of at most OUTPUT_FLOATS floats
    when a row formats floats_per_row floats and of at most max_rows rows (one row at least)."""
    step = max(1, min(OUTPUT_FLOATS // floats_per_row, max_rows or n))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def framed(parts, frame: tuple[str, str, str, str]):
    """The text ``head + sep.join(parts) + tail`` as pieces, pulling one part at a time.

    frame is (head, sep, tail, empty); empty is the whole text when there are no parts.
    """
    head, sep, tail, empty = frame
    first = True
    for part in parts:
        yield head if first else sep
        yield part
        first = False
    yield empty if first else tail


_TICK_HEADER = "time,price,volume,value\n"
#: Floats per tick-CSV row.
TICK_FLOATS = len(_TICK_FIELDS)
TICK_CSV = (_TICK_HEADER, "", "", _TICK_HEADER)


def tick_rows(series: TickSeries, rows: slice) -> str:
    """The tick-CSV lines of the ticks in rows, each float written with repr."""
    block = np.column_stack([series.time[rows], series.price[rows], series.volume[rows],
                             series.value[rows]])
    return "%r,%r,%r,%r\n" * len(block) % tuple(block.ravel().tolist())


def render_ticks(series: TickSeries) -> str:
    """Render a TickSeries back to tick-CSV.

    Floats are written with repr (shortest round-trip form), so
    parse_ticks(render_ticks(s)) reproduces s bit-exactly. The text is the
    join of the chunks that ``mbm simulate`` writes.
    """
    parts = (tick_rows(series, rows) for rows in row_chunks(len(series), TICK_FLOATS))
    return "".join(framed(parts, TICK_CSV))


def _window_steps(series: TickSeries, window_len: int, mode: str) -> tuple[int, int]:
    """(windows, ticks from one window's start to the next's), after checking the request."""
    if window_len < 1:
        raise DataError(f"window length must be >= 1, got {window_len}")
    n = len(series)
    if n == 0:
        raise DataError("cannot window an empty series")
    if window_len > n:
        raise DataError(f"window length {window_len} exceeds series length {n}")
    if mode == "disjoint":
        return n // window_len, window_len
    if mode == "sliding":
        return n - window_len + 1, 1
    raise DataError(f"unknown windowing mode {mode!r}")


def partition_windows(series: TickSeries, window_len: int, mode: str = "disjoint") -> list[Window]:
    """Split a series into count-based windows.

    disjoint: floor(len/N) consecutive non-overlapping windows (a trailing
    remainder shorter than N is dropped). sliding: len-N+1 windows stepping
    one tick at a time. Window centers are median tick times.
    """
    count, step = _window_steps(series, window_len, mode)
    return [Window(series, i * step, i * step + window_len) for i in range(count)]


def window_batch(series: TickSeries, window_len: int, mode: str = "disjoint") -> WindowBatch:
    """The windows of partition_windows(series, window_len, mode) as one WindowBatch.

    Its rows are strided views of the columns, nothing copied, and a slice
    of them, batch[lo:hi], is a span batch over only the ticks of those
    windows (see WindowBatch).
    """
    count, step = _window_steps(series, window_len, mode)
    return WindowBatch(series, 0, count, window_len, step)
