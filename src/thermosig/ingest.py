"""Dataset ingestion: CSV reading and writing, channel averaging, gap
filling, passenger spreading, and per-step mode classification.

The on-disk format is a UTF-8 comma CSV with a header. Temperature
channels may repeat (t_in_1..k, t_out_1..m); empty cells mean missing.
The optional passengers column is the anchor column: NaN except on the
rows at the station's hour boundaries, each carrying the count for the
hour ending at that timestamp. spread_anchors, the one spreader, turns
it into per-step counts; the first anchor fixes where every hour starts.

A file is read into a RecordTable, one array per column in file order,
and build_frames turns the table into a FrameSeries on the step grid;
write_records_csv writes a table back, column by column.

parse_csv first reads a complete plain file in one np.loadtxt pass:
every number an f8 field, the timestamp and anchor columns fixed-width
byte fields. numpy's ISO 8601 parser reads the timestamps in
isoformat_utc's whole-second form in one call, datetime.fromisoformat
each other one. The pass returns the table the block reader would, or
declines the file, which the block reader then reads from its first
byte and so names any fault. It declines a quote or NUL, a line over
csv's field limit, a header that is not one plain line, any np.loadtxt
error (a ragged row, an empty or unreadable number, an undecodable
byte), a byte field that fills its width, a timestamp that
datetime.fromisoformat rejects, and a non-finite number, a negative
meter or anchor, or an anchor _float_column faults. A file with a gap
pays the pass up to its first empty number.

The block reader, the reference the one-pass reader is checked against,
reads every file that pass declines. It decodes the file once, and
csv.reader reads its records _BLOCK_ROWS at a time. One converter turns
a block's columns into numbers, as float() and datetime.fromisoformat
read them, before the next block is read, so no more than one block's
cells are ever held as strings. A faulty cell is raised in file order,
after a check that no later line is one csv.reader cannot read, since
that fault is raised first, as when a file was read whole.

Time is kept as int64 microseconds since the epoch, in UTC. A series
stores only its start and step, and time_axis derives every frame's
instant from them. No per-frame datetime is built on the way from a CSV
to an artifact. write_columns writes every CSV artifact, formatting
_BLOCK_ROWS rows a column at a time. isoformat_utc builds each
whole-second instant from its day's text, made once for each distinct
day, and its time of day's digits. A FloatCells formats a column of
numbers: each distinct value of a block once, reusing the string of any
value the previous block held. A column's cells for one block and its
previous block's distinct strings are all that is held.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import HvacMode, StationConstants, require
from .errors import (
    BadNumber,
    BadTimestamp,
    GapTooLong,
    InvalidChannel,
    MisalignedTimestamp,
    MissingColumn,
    NegativeValue,
    OffClockAnchor,
    TooShort,
    UnreadableRow,
    UnsortedAnchors,
    io_errors,
)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
US_PER_S = 1_000_000
US_PER_HOUR = 3600 * US_PER_S
# CSV rows formatted and written at a time: enough to amortize a write,
# few enough that a block's strings stay a small share of memory
_BLOCK_ROWS = 4096
# isoformat_utc's text of a whole-second instant: any digit where the form has a d
_STAMP_FORM = np.frombuffer(b"dddd-dd-ddTdd:dd:dd+00:00", dtype=np.uint8)
_STAMP_DIGITS = _STAMP_FORM == ord("d")
# microseconds since the epoch of datetime's first and last instants
_DATETIME_MICROS = tuple((stamp - datetime(1970, 1, 1)) // _MICROSECOND for stamp in (datetime.min, datetime.max))


@dataclass(frozen=True)
class CsvSchema:
    """Column name map for dataset files. Override names to match a source, a column to a key."""

    timestamp: str = "timestamp"
    indoor_prefix: str = "t_in_"
    outdoor_prefix: str = "t_out_"
    t_water_in: str = "t_water_in"
    t_water_out: str = "t_water_out"
    v_cool_w: str = "v_cool_w"
    e_v: str = "e_v"
    passengers: str = "passengers"

    def __post_init__(self):
        prefixes = ("indoor_prefix", "outdoor_prefix")
        indoor, outdoor = self.indoor_prefix, self.outdoor_prefix
        require(not (indoor.startswith(outdoor) or outdoor.startswith(indoor)), "indoor_prefix",
                f"and outdoor_prefix must not start with one another, got {indoor!r} and {outdoor!r}")
        readers = {}  # each plain name, and the key that names it
        for key in ("timestamp", "t_water_in", "t_water_out", "v_cool_w", "e_v", "passengers"):
            name = getattr(self, key)
            # a header of the name alone, read for each prefix's channels
            other = readers.get(name) or next((p for p in prefixes if _channel_columns([name], getattr(self, p))), None)
            require(other is None, key, f"must not name a column that {other} reads, got {name!r}")
            readers[name] = key


@dataclass(frozen=True)
class ModeRule:
    """Thresholds that decide which plant paths count as active.

    The ventilator is active when e_v exceeds the idle threshold. With
    e_v_idle unset, build_frames resolves it as e_v_idle_fraction of the
    largest e_v observed in the series; classify_mode alone treats the
    unset threshold as zero. The water loop is active when
    v_cool_w * |t_water_in - t_water_out| exceeds water_activity_min.
    """

    e_v_idle: Optional[float] = None
    e_v_idle_fraction: float = 0.01
    water_activity_min: float = 0.0

    def __post_init__(self):
        require(self.e_v_idle is None or self.e_v_idle >= 0, "e_v_idle", f"must be >= 0, got {self.e_v_idle}")
        fraction = self.e_v_idle_fraction
        require(0 <= fraction < 1, "e_v_idle_fraction", f"must be in [0, 1), got {fraction}")
        require(self.water_activity_min >= 0, "water_activity_min", f"must be >= 0, got {self.water_activity_min}")

    def resolve(self, e_v_max: float) -> "ModeRule":
        if self.e_v_idle is not None:
            return self
        return replace(self, e_v_idle=self.e_v_idle_fraction * e_v_max)


RECORD_COLUMNS = ("timestamp", "indoor", "outdoor", "t_water_in", "t_water_out", "v_cool_w", "e_v", "passengers")


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Raw dataset rows in file order, stored as aligned read-only columns.

    timestamp is datetime64[us] in UTC. indoor and outdoor are
    (rows, channels) float64 arrays with one column per t_in_i / t_out_i
    in channel-number order; every other column is float64 with one
    entry a row. NaN marks an empty cell. passengers is the anchor
    column: set only on rows at the station's hour boundaries, it carries
    the count for the hour ending at that timestamp.
    """

    timestamp: np.ndarray
    indoor: np.ndarray
    outdoor: np.ndarray
    t_water_in: np.ndarray
    t_water_out: np.ndarray
    v_cool_w: np.ndarray
    e_v: np.ndarray
    passengers: np.ndarray

    def __post_init__(self):
        rows = len(self.timestamp)
        for name in RECORD_COLUMNS:
            column = np.asarray(getattr(self, name), dtype="datetime64[us]" if name == "timestamp" else float)
            dims = 2 if name in ("indoor", "outdoor") else 1
            if column.ndim != dims or len(column) != rows:
                raise ValueError(f"column {name!r} has shape {column.shape}, expected {rows} rows in {dims} dimensions")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        _require_datetime_years(self.timestamp.view(np.int64))

    def __len__(self) -> int:
        return len(self.timestamp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordTable):
            return NotImplemented
        return np.array_equal(self.timestamp, other.timestamp) and all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in RECORD_COLUMNS[1:]
        )


CHANNELS = ("t_in", "t_out", "n", "t_water_in", "t_water_out", "v_cool_w", "e_v")
# rows: water loop inactive/active; columns: ventilator inactive/active
_MODE_TABLE = np.array(
    [[HvacMode.OFF, HvacMode.NEW_AIR], [HvacMode.REFRIGERATOR, HvacMode.MIXED]], dtype=object
)


@dataclass(frozen=True, eq=False)
class FrameSeries:
    """Frames on a regular grid, stored as aligned read-only columns.

    Frame i sits at start + i * step seconds of absolute time; micros
    holds those instants. Each channel in CHANNELS is
    a float64 array with one entry per frame, and mode holds the frame's
    HvacMode. delta, the indoor temperature change to the next frame, is
    derived: it has one entry fewer than the series, since the final
    frame has no successor.
    """

    start: datetime
    step: float
    t_in: np.ndarray
    t_out: np.ndarray
    n: np.ndarray
    t_water_in: np.ndarray
    t_water_out: np.ndarray
    v_cool_w: np.ndarray
    e_v: np.ndarray
    mode: np.ndarray

    def __post_init__(self):
        length = len(self.t_in)
        for name in (*CHANNELS, "mode"):
            column = np.asarray(getattr(self, name), dtype=object if name == "mode" else float)
            if column.shape != (length,):
                raise ValueError(f"channel {name!r} has shape {column.shape}, expected ({length},)")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if length < 2:
            raise TooShort(length)
        for name in CHANNELS:
            values = getattr(self, name)
            rule, bad = "finite", ~np.isfinite(values)
            if name in ("n", "v_cool_w", "e_v"):
                rule, bad = "finite and nonnegative", bad | (values < 0)
            if bad.any():
                index = int(np.argmax(bad))
                raise InvalidChannel(name, rule, values[index], index)

    @property
    def delta(self) -> np.ndarray:
        return np.diff(self.t_in)

    def __len__(self) -> int:
        return len(self.t_in)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrameSeries):
            return NotImplemented
        return (self.start, self.step) == (other.start, other.step) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in (*CHANNELS, "mode")
        )

    @property
    def micros(self) -> np.ndarray:
        """The UTC instant of each frame, int64 microseconds since the epoch."""
        return time_axis(self.start, self.step, len(self))


def _micros(ts: datetime) -> int:
    """Microseconds since the epoch of ts; a naive ts is UTC, as in a CSV
    timestamp and Scenario.start."""
    return ((ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)) - _EPOCH) // _MICROSECOND


def time_axis(start: datetime, step: float, count: int) -> np.ndarray:
    """int64 microseconds since the epoch of start + i * step seconds,
    i < count: the offset of frame i rounds as timedelta(seconds=i * step)
    does, whole seconds kept apart from the half-even rounded fraction.
    Raises ValueError for an offset that int64 microseconds would wrap."""
    frac, whole = np.modf(np.arange(count) * step)
    # under 2**62 microseconds, the start and the fraction added cannot reach 2**63
    if not (np.abs(whole) < 2**62 // US_PER_S).all():
        raise ValueError(f"{count} steps of {step} s from {start.isoformat()} overflow int64 microseconds")
    return _micros(start) + whole.astype(np.int64) * US_PER_S + np.rint(frac * 1e6).astype(np.int64)


def _require_datetime_years(micros: np.ndarray) -> None:
    """Raise ValueError naming the first instant, int64 microseconds since
    the epoch, that lies outside datetime's years 1-9999: datetime cannot
    read it back, and its year may not have four digits."""
    outside = np.flatnonzero((micros < _DATETIME_MICROS[0]) | (micros > _DATETIME_MICROS[1]))
    if outside.size:
        stamp = np.datetime_as_string(micros[outside[0]].view("datetime64[us]"))
        raise ValueError(f"timestamp {stamp} at index {outside[0]} lies outside datetime's years 1-9999")


def isoformat_utc(micros: np.ndarray) -> list[str]:
    """datetime.isoformat() of each UTC instant, int64 microseconds since
    the epoch: a +00:00 suffix, and the fraction only where it is nonzero.
    Raises ValueError naming the first instant outside datetime's years.

    A whole-second stamp is its day's text, made once for each distinct
    day, followed by its time of day's digits. A stamp with a fraction is
    formatted on its own."""
    micros = np.asarray(micros, dtype=np.int64)
    _require_datetime_years(micros)
    days, clock = np.divmod(micros // US_PER_S, 86400)
    dates, date_index = np.unique(days, return_inverse=True)
    date_text = np.datetime_as_string(dates.astype("datetime64[D]")).astype("U10")
    hours, rest = np.divmod(clock, 3600)
    tens, units = np.divmod(np.stack([hours, *np.divmod(rest, 60)], axis=1), 10)
    # one row of code points a stamp: its day's text, then the form with the clock's digits for its d's
    codes = np.empty((len(micros), len(_STAMP_FORM)), dtype=np.uint32)
    codes[:, :10] = date_text.view(np.uint32).reshape(len(dates), 10)[date_index]
    codes[:, 10:] = _STAMP_FORM[10:]
    codes[:, [11, 14, 17]] = tens + ord("0")
    codes[:, [12, 15, 18]] = units + ord("0")
    text = codes.view("U25").ravel()
    fractional = np.flatnonzero(micros % US_PER_S)
    if not fractional.size:
        return text.tolist()
    text = text.astype(object)
    text[fractional] = np.datetime_as_string(micros[fractional].view("datetime64[us]")).astype(object) + "+00:00"
    return text.tolist()


def _timestamp_micros(cell: str) -> Optional[int]:
    """Microseconds since the epoch, in UTC, of an ISO 8601 cell as
    datetime.fromisoformat reads it stripped, a Z suffix included; naive
    times read as UTC. None when the cell is not a timestamp."""
    try:
        return _micros(datetime.fromisoformat(cell.strip()))
    except ValueError:
        return None


def _canonical_micros(chars: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(micros, found) for a timestamp column given as a (cells, width)
    byte matrix, each cell padded with NULs to the width of at least 25.

    found marks the cells in isoformat_utc's whole-second form,
    YYYY-MM-DDTHH:MM:SS+00:00 with any digits; numpy's ISO 8601 parser
    reads their first 19 bytes, and micros holds the instant there and 0
    elsewhere. None where such a cell is no instant: numpy rejects it, or
    its year is 0000, which numpy reads and datetime has not.
    """
    found = ~chars[:, len(_STAMP_FORM):].any(axis=1)
    chars = chars[:, :len(_STAMP_FORM)]
    found &= (chars[:, _STAMP_DIGITS] - np.uint8(ord("0")) <= 9).all(axis=1)  # wraps around below "0"
    found &= (chars[:, ~_STAMP_DIGITS] == _STAMP_FORM[~_STAMP_DIGITS]).all(axis=1)
    micros = np.zeros(len(chars), dtype=np.int64)
    try:
        seconds = np.ascontiguousarray(chars[found, :19]).view("S19").ravel().astype("datetime64[s]")
        micros[found] = seconds.view(np.int64) * US_PER_S
        _require_datetime_years(micros)  # numpy reads year 0000, which datetime has not
    except ValueError:
        return None
    return micros, found


def _utc(micros: int) -> datetime:
    return _EPOCH + timedelta(microseconds=int(micros))


def _lenient_float(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        return math.inf if cell.strip() else math.nan
    return value if math.isfinite(value) else math.inf


def _float_column(cells: Sequence[str]) -> np.ndarray:
    """float(cell) for each cell: NaN where the cell is blank, inf where it
    holds anything but a finite number."""
    try:
        # numpy converts each str as float() does
        values = np.array(cells, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_lenient_float(cell) if cell else math.nan for cell in cells])


def _channel_columns(header: list[str], prefix: str) -> list[int]:
    found: dict[int, int] = {}
    for idx, name in enumerate(header):
        if name.startswith(prefix) and name[len(prefix):].isdecimal():
            channel = int(name[len(prefix):])
            if channel in found:
                # t_in_1 and t_in_01 name one channel, which must be read once
                first = header[found[channel]]
                alias = "" if first == name else f", channel {channel} as {first!r}"
                raise UnreadableRow(1, f"duplicate column {name!r}{alias}")
            found[channel] = idx
    return [found[channel] for channel in sorted(found)]


def _read_text(path: str) -> str:
    """The decoded text of a dataset file, a leading byte order mark
    removed and line ends kept as they are."""
    with io_errors(path), open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, its line ends counted as csv.reader
        # counts them: \r\n, a bare \r and \n each end one line
        before = data[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise UnreadableRow(line, f"not UTF-8: {exc}") from None


# a physical line, its line end kept: \r\n, a bare \r and \n each end one,
# as io.StringIO(text, newline="") yields them to csv.reader
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")

_Block = tuple[list[Sequence[str]], Sequence[int]]


def _reader_blocks(reader, width: int) -> Iterator[_Block]:
    """(columns, line numbers) of the records reader reads next, up to
    _BLOCK_ROWS records at a time. Blank records are skipped and short ones
    padded with empty cells. A record is numbered by the line it starts
    on; a quoted cell holding a line break puts that line before the one
    the reader stops at."""
    while True:
        rows, numbers, read = [], [], 0
        start = reader.line_num + 1
        try:
            for cells in islice(reader, _BLOCK_ROWS):
                read += 1
                if "".join(cells).strip():
                    rows.append(cells + [""] * (width - len(cells)) if len(cells) < width else cells)
                    numbers.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise UnreadableRow(reader.line_num, str(exc)) from None
        if not read:
            return
        if rows:
            yield list(zip(*rows)), numbers


def _tokenize(text: str) -> tuple[Optional[list[str]], Iterator[_Block]]:
    """The header csv.reader reads from text (None when there is none) and
    the blocks of records after it, read as they are taken."""
    reader = csv.reader(map(re.Match.group, _LINE.finditer(text)))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise UnreadableRow(reader.line_num, str(exc)) from None
    return header, _reader_blocks(reader, len(header or ()))


def _convert_block(block: _Block, header: list[str], timestamp_col: int, float_cols: list[int],
                   nonnegative_cols: list[int]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """(micros, {column: values}) of a block of records, or the error of
    its first faulty row, checked in reading order: the timestamp, each
    number, then the signs of the meters."""
    columns, numbers = block
    cells = columns[timestamp_col]
    micros = [_timestamp_micros(cell) for cell in cells]
    stamps = np.array([0 if value is None else value for value in micros], dtype=np.int64)
    values = {col: _float_column(columns[col]) for col in float_cols}
    faults = np.array([value is None for value in micros])
    for col in float_cols:
        faults |= np.isinf(values[col])
    for col in nonnegative_cols:
        faults |= values[col] < 0
    if faults.any():
        i = int(np.argmax(faults))
        row = numbers[i]
        if micros[i] is None:
            raise BadTimestamp(row, cells[i])
        for col in float_cols:
            if np.isinf(values[col][i]):
                raise BadNumber(row, header[col], columns[col][i])
        col = next(col for col in nonnegative_cols if values[col][i] < 0)
        raise NegativeValue(row, header[col], float(values[col][i]))
    return stamps, values


class _Columns(NamedTuple):
    """The header positions of the columns a dataset file is read for."""

    timestamp: int
    indoor: list[int]
    outdoor: list[int]
    plant: list[int]  # t_water_in, t_water_out, v_cool_w, e_v
    passengers: Optional[int]


def _header_columns(header: list[str], schema: CsvSchema) -> _Columns:
    """Where each column is read in a header of stripped names. Raises
    MissingColumn for an incomplete header and UnreadableRow for one that
    repeats a column it reads."""
    indoor_cols = _channel_columns(header, schema.indoor_prefix)
    outdoor_cols = _channel_columns(header, schema.outdoor_prefix)
    if not indoor_cols:
        raise MissingColumn(schema.indoor_prefix + "1")
    if not outdoor_cols:
        raise MissingColumn(schema.outdoor_prefix + "1")

    positions = {}
    for name in (schema.timestamp, schema.t_water_in, schema.t_water_out, schema.v_cool_w, schema.e_v):
        if name not in header:
            raise MissingColumn(name)
        positions[name] = header.index(name)
    read = {*positions, schema.passengers}
    duplicate = next((name for name, count in Counter(header).items() if count > 1 and name in read), None)
    if duplicate is not None:
        raise UnreadableRow(1, f"duplicate column {duplicate!r}")
    return _Columns(
        timestamp=positions[schema.timestamp],
        indoor=indoor_cols,
        outdoor=outdoor_cols,
        plant=[positions[name] for name in (schema.t_water_in, schema.t_water_out, schema.v_cool_w, schema.e_v)],
        passengers=header.index(schema.passengers) if schema.passengers in header else None,
    )


def _record_table(stamps: np.ndarray, values: dict[int, np.ndarray], columns: _Columns) -> RecordTable:
    """The table of int64 timestamps and each number column's values."""
    water_in, water_out, v_cool_w, e_v = (np.ascontiguousarray(values[col]) for col in columns.plant)
    return RecordTable(
        timestamp=stamps.view("datetime64[us]"),
        indoor=np.column_stack([values[col] for col in columns.indoor]),
        outdoor=np.column_stack([values[col] for col in columns.outdoor]),
        t_water_in=water_in,
        t_water_out=water_out,
        v_cool_w=v_cool_w,
        e_v=e_v,
        passengers=np.full(len(stamps), np.nan) if columns.passengers is None else values[columns.passengers],
    )


# the one-pass reader's byte fields, each a byte wider than the longest cell
# it reads: isoformat_utc's whole-second stamp, and an anchor of 15 characters
_STAMP_BYTES = len(_STAMP_FORM) + 1
_ANCHOR_BYTES = 16
# a file's first line, which ends at its first \r or \n, as for _LINE
_FIRST_LINE = re.compile(rb"[^\r\n]*")


def _lines_within(data: bytes, limit: int) -> bool:
    """Whether no run of data between line feeds is longer than limit
    bytes. Each step skips up to limit bytes to the last line feed among
    them."""
    start = 0
    while len(data) - start > limit:
        end = data.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def _field_bytes(table: np.ndarray, name: str) -> np.ndarray:
    """A byte field of a structured array as a (rows, width) matrix, each
    cell padded with NULs."""
    field, offset = table.dtype.fields[name]
    return table.view(np.uint8).reshape(len(table), table.dtype.itemsize)[:, offset:offset + field.itemsize]


def _loadtxt_table(path: str, schema: CsvSchema) -> Optional[RecordTable]:
    """The table of a complete plain file read in one np.loadtxt pass, or
    None where the pass declines the file (see the module docstring).
    Every number is an f8 field, which np.loadtxt converts as float()
    does or not at all. A column no reader reads is a 1-byte field, which
    np.loadtxt may cut to no effect; it cuts any byte field silently, so a
    timestamp or anchor that fills its field is declined.
    """
    with io_errors(path), open(path, "rb") as handle:
        data = handle.read()
    try:
        header = [name.strip() for name in _FIRST_LINE.match(data).group().decode("utf-8-sig").split(",")]
        columns = _header_columns(header, schema)
    except (UnicodeDecodeError, MissingColumn, UnreadableRow):
        return None
    # np.loadtxt ends a line where csv.reader does, at \r\n, a bare \r or \n, and
    # splits it at its commas as csv.reader does where no quote or NUL is
    if b'"' in data or b"\0" in data or not _lines_within(data, csv.field_size_limit()):
        return None
    del data  # np.loadtxt reads the file itself

    stamp_col, anchor_col = columns.timestamp, columns.passengers
    number_cols = [*columns.indoor, *columns.outdoor, *columns.plant]
    kinds = {stamp_col: f"S{_STAMP_BYTES}", anchor_col: f"S{_ANCHOR_BYTES}", **dict.fromkeys(number_cols, "f8")}
    try:
        with io_errors(path), warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # np.loadtxt warns on a file without rows
            table = np.loadtxt(path, dtype=[(f"c{col}", kinds.get(col, "S1")) for col in range(len(header))],
                               delimiter=",", comments=None, quotechar=None, encoding="utf-8-sig", skiprows=1, ndmin=1)
    except (ValueError, UserWarning):
        return None

    cells = _field_bytes(table, f"c{stamp_col}")
    decoded = None if cells[:, -1].any() else _canonical_micros(cells)
    if decoded is None:
        return None
    stamps, found = decoded
    for i in np.flatnonzero(~found).tolist():
        # np.loadtxt stores a byte field's text as latin-1
        value = _timestamp_micros(table[f"c{stamp_col}"][i].decode("latin-1"))
        if value is None:
            return None
        stamps[i] = value

    values = {col: table[f"c{col}"] for col in number_cols}
    if not all(np.isfinite(column).all() for column in values.values()):
        return None
    if any((values[col] < 0).any() for col in columns.plant[2:]):
        return None
    if anchor_col is not None:
        cells = _field_bytes(table, f"c{anchor_col}")
        rows = np.flatnonzero(cells[:, 0])
        counts = _float_column([cell.decode("latin-1") for cell in table[f"c{anchor_col}"][rows].tolist()])
        if cells[:, -1].any() or np.isinf(counts).any() or (counts < 0).any():
            return None
        values[anchor_col] = np.full(len(table), np.nan)
        values[anchor_col][rows] = counts
    return _record_table(stamps, values, columns)


def parse_csv(path: str, schema: CsvSchema = CsvSchema()) -> RecordTable:
    """Read one dataset file into a RecordTable, rows in file order.

    A leading byte order mark is skipped. Blank rows are skipped and
    short rows padded with empty cells. Raises IoError when the file
    cannot be read, UnreadableRow at the first line that is not UTF-8 or
    not CSV or at a header that repeats a column it reads (t_in_1 and
    t_in_01 name one channel, so they repeat it), and
    MissingColumn for an incomplete header. Otherwise the first faulty
    cell in file order raises BadTimestamp, BadNumber, or
    NegativeValue (for counts and meter channels that must be
    nonnegative), with the line its row starts on; within a row the
    timestamp and the numbers are read before the signs are checked.

    A complete plain file is read in one np.loadtxt pass; any other, and
    any that pass declines, by the block reader from its first byte.
    """
    table = _loadtxt_table(path, schema)
    if table is not None:
        return table
    text = _read_text(path)
    # the header is checked before the records are read, so its faults come first
    header, blocks = _tokenize(text)
    if header is None:
        raise MissingColumn(schema.timestamp)
    header = [name.strip() for name in header]
    columns = _header_columns(header, schema)
    optional_cols = [] if columns.passengers is None else [columns.passengers]
    # in header order, so that a row's first faulty cell is named in file order
    float_cols = sorted([*columns.indoor, *columns.outdoor, *columns.plant, *optional_cols])
    nonnegative_cols = sorted([*columns.plant[2:], *optional_cols])

    # each block's columns are converted before the next block is read; the
    # empty first parts give a file without records its empty columns
    stamp_parts, value_parts = [np.empty(0, dtype=np.int64)], {col: [np.empty(0)] for col in float_cols}
    try:
        for block in blocks:
            stamps, values = _convert_block(block, header, columns.timestamp, float_cols, nonnegative_cols)
            del block  # its cells go before the next block is read
            stamp_parts.append(stamps)
            for col, parts in value_parts.items():
                parts.append(values[col])
    except (BadTimestamp, BadNumber, NegativeValue):
        # a line csv cannot read raises before any cell, wherever it is
        for _ in blocks:
            pass
        raise
    del text  # every block is read, so the text goes before the columns are joined
    return _record_table(np.concatenate(stamp_parts), {col: np.concatenate(parts) for col, parts in value_parts.items()},
                         columns)


class FloatCells:
    """repr of each float, and an empty cell where it is NaN, for the blocks
    of one column, called on each in turn.

    Sensor readings repeat a few values, so each distinct bit pattern of a
    block is formatted once; bits, not float equality, keep -0.0 apart from
    0.0. A value the previous block held reuses that block's string, so only
    new values go through repr. Only the previous block's distinct bit
    patterns and their strings are carried, replaced after every block."""

    def __init__(self):
        self._bits = np.empty(0, dtype=np.int64)
        self._cells = np.empty(0, dtype=object)

    def __call__(self, values: np.ndarray) -> list[str]:
        bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
        cells = np.empty(len(bits), dtype=object)
        new = np.ones(len(bits), dtype=bool)
        if len(self._bits):
            at = np.minimum(np.searchsorted(self._bits, bits), len(self._bits) - 1)
            new = self._bits[at] != bits
            cells[~new] = self._cells[at[~new]]
        cells[new] = [repr(value) if value == value else "" for value in bits[new].view(float).tolist()]
        self._bits, self._cells = bits, cells
        return cells[inverse].tolist()


def write_columns(path: str, header: list[str], columns: list[tuple[Callable, np.ndarray]], terminator: str) -> None:
    """Write a CSV of (format, values) columns, each line ended by terminator:
    the header through csv.writer, which quotes the names that need it, then
    _BLOCK_ROWS rows at a time, each column's cells made by its format, called
    on the column's blocks in order. Those cells never need quoting. Raises
    ValueError if the columns differ in length, and IoError naming the path."""
    lengths = [len(values) for _, values in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of {path} differ in length: {lengths}")
    with io_errors(path), open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator=terminator).writerow(header)
        for lo in range(0, lengths[0], _BLOCK_ROWS):
            block = [format_cells(values[lo:lo + _BLOCK_ROWS]) for format_cells, values in columns]
            handle.write(terminator.join(map(",".join, zip(*block))) + terminator)


def write_records_csv(table: RecordTable, path: str, schema: CsvSchema = CsvSchema()) -> None:
    """Serialize a table back to the dataset format. Inverse of parse_csv."""
    k = table.indoor.shape[1]
    m = table.outdoor.shape[1]

    header = [schema.timestamp]
    header += [f"{schema.indoor_prefix}{i}" for i in range(1, k + 1)]
    header += [f"{schema.outdoor_prefix}{i}" for i in range(1, m + 1)]
    header += [schema.t_water_in, schema.t_water_out, schema.v_cool_w, schema.e_v, schema.passengers]

    floats = [*table.indoor.T, *table.outdoor.T]
    floats += [table.t_water_in, table.t_water_out, table.v_cool_w, table.e_v, table.passengers]
    columns = [(isoformat_utc, table.timestamp.view(np.int64)), *((FloatCells(), values) for values in floats)]
    write_columns(path, header, columns, "\r\n")


def _row_means(block: np.ndarray) -> np.ndarray:
    present = ~np.isnan(block)
    count = present.sum(axis=1)
    total = np.where(present, block, 0.0).sum(axis=1)
    # plain addition rounds like math.fsum for up to two readings, except
    # for the sign of a zero sum
    for row in np.flatnonzero((count > 2) | ((total == 0.0) & (count > 0))):
        total[row] = math.fsum(block[row, present[row]])
    with np.errstate(invalid="ignore"):
        return total / count


def average_channels(table: RecordTable) -> tuple[np.ndarray, np.ndarray]:
    """Collapse redundant sensors to one indoor and one outdoor reading a row.

    Each reading is math.fsum(present) / len(present) over the row's
    nonempty channels, and NaN where the row has none.
    """
    return _row_means(table.indoor), _row_means(table.outdoor)


def spread_anchors(anchors: np.ndarray, start: datetime, step: float) -> np.ndarray:
    """Per-step passenger counts on the grid of start + i * step seconds,
    from an anchor column: NaN except on the rows at hour boundaries H, each
    the count shared by the steps starting in [H-1h, H). The first anchor
    fixes where the station's hours start; an anchor that is not a whole
    number of hours after it raises OffClockAnchor. Values are
    piecewise-linear between anchors (held flat beyond the ends), then
    renormalized per hour so a fully covered hour sums to its count exactly
    under math.fsum, and a partly covered one to its share of it. Without
    anchors every count is zero.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    rows = np.flatnonzero(~np.isnan(anchors))
    if not rows.size:
        return np.zeros(len(anchors))
    grid_us = time_axis(start, step, len(anchors))
    anchor_us, counts = grid_us[rows], anchors[rows]
    off_clock = np.flatnonzero((anchor_us - anchor_us[0]) % US_PER_HOUR)
    if off_clock.size:
        raise OffClockAnchor(_utc(anchor_us[off_clock[0]]), _utc(anchor_us[0]))
    # a step under a microsecond can put two anchor rows on one instant
    unsorted = np.flatnonzero(np.diff(anchor_us) <= 0)
    if unsorted.size:
        raise UnsortedAnchors(_utc(anchor_us[unsorted[0] + 1]))
    negative = np.flatnonzero(counts < 0)
    if negative.size:
        raise ValueError(f"anchor counts must be nonnegative, got {counts[negative[0]]}")

    # seconds since the epoch, as datetime.timestamp() gives them
    anchor_s = anchor_us / 1e6
    raw = np.interp(grid_us / 1e6, anchor_s, counts)

    # hours counted from the first anchor's; a sorted grid puts each hour's steps in one run
    hour = (grid_us - anchor_us[0]) // US_PER_HOUR
    bounds = np.append(np.flatnonzero(np.diff(hour, prepend=hour[0] - 1)), len(grid_us))
    hour_ends = (anchor_us[0] + (hour[bounds[:-1]] + 1) * US_PER_HOUR) / 1e6
    hour_counts = np.interp(hour_ends, anchor_s, counts)

    steps_per_hour = 3600.0 / step
    values = np.zeros(len(grid_us))
    for lo, hi, hour_count in zip(bounds[:-1].tolist(), bounds[1:].tolist(), hour_counts.tolist()):
        target = hour_count * ((hi - lo) / steps_per_hour)
        chunk = raw[lo:hi]
        total = chunk.sum()
        if target == 0.0:
            result = np.zeros(hi - lo)
        elif total > 0.0:
            result = chunk * (target / total)
            # nudge the largest value so the fsum lands on the target exactly
            for _ in range(4):
                gap = target - math.fsum(result.tolist())
                if gap == 0.0:
                    break
                result[int(np.argmax(result))] += gap
        else:
            result = np.full(hi - lo, target / (hi - lo))
        values[lo:hi] = result
    return values


def classify_mode(v_cool_w, t_water_in, t_water_out, e_v, rule: ModeRule = ModeRule()):
    """Decide the plant mode per step from its actuator channels.

    Takes scalars or equally shaped arrays: returns one HvacMode for
    scalars, an object array of HvacMode for arrays. Total and
    deterministic: every channel combination maps to exactly one of the
    four modes.
    """
    idle = rule.e_v_idle if rule.e_v_idle is not None else 0.0
    water_split = np.abs(np.subtract(t_water_in, t_water_out))
    water_active = np.asarray(v_cool_w) * water_split > rule.water_activity_min
    vent_active = np.asarray(e_v) > idle
    return _MODE_TABLE[water_active.astype(int), vent_active.astype(int)]


def _fill_gaps(channel: str, series: np.ndarray, start: datetime, step: float, max_gap: int) -> np.ndarray:
    """Linearly fill interior NaN runs of at most max_gap steps; hold
    values flat over edge runs. Longer runs, and a channel with no
    reading, are an error naming the channel."""
    missing = np.isnan(series)
    if not missing.any():
        return series
    if missing.all():
        raise GapTooLong(channel, start, len(series), max_gap, empty=True)

    # each run opens and closes on a change of the mask: (first, end) pairs
    runs = np.flatnonzero(np.diff(missing, prepend=False, append=False)).reshape(-1, 2)
    lengths = runs[:, 1] - runs[:, 0]
    too_long = np.flatnonzero(lengths > max_gap)
    if too_long.size:
        first = too_long[0]
        at = start + timedelta(seconds=int(runs[first, 0]) * step)
        raise GapTooLong(channel, at, int(lengths[first]), max_gap)

    known = np.flatnonzero(~missing)
    filled = series.copy()
    filled[missing] = np.interp(np.flatnonzero(missing), known, series[known])
    return filled


def build_frames(
    table: RecordTable,
    constants: StationConstants,
    rule: ModeRule = ModeRule(),
    max_gap: int = 5,
) -> FrameSeries:
    """Turn a parsed table into a regular frame series.

    Rows are sorted onto the step grid anchored at the earliest
    timestamp; missing rows become per-channel gaps, and so do rows
    with no indoor or no outdoor reading. Gaps of at most max_gap steps
    are filled (linear inside, nearest at the edges); longer ones raise
    GapTooLong. The passengers column goes onto the grid unfilled, and
    spread_anchors turns its anchors into per-step counts.
    """
    if len(table) < 2:
        raise TooShort(len(table))
    order = np.argsort(table.timestamp, kind="stable")
    micros = table.timestamp[order].astype(np.int64)
    step = constants.step

    # (ts - start).total_seconds() / step: integer microseconds divided once by 1e6
    offset = (micros - micros[0]) / 1e6 / step
    slot = np.rint(offset)
    # sorted offsets round to nondecreasing slots, so a taken slot is the previous row's
    faulty = np.abs(offset - slot) > 1e-9
    faulty[1:] |= slot[1:] == slot[:-1]
    if faulty.any():
        raise MisalignedTimestamp(_utc(micros[np.argmax(faulty)]))
    slot = slot.astype(np.intp)
    n_steps = int(slot[-1]) + 1
    start = _utc(micros[0])

    def on_grid(values: np.ndarray) -> np.ndarray:
        column = np.full(n_steps, np.nan)
        column[slot] = values[order]
        return column

    # every reading and the anchor column go onto the grid alike, one at a
    # time; only the readings are gap-filled
    t_in, t_out = average_channels(table)
    plant = ("t_water_in", "t_water_out", "v_cool_w", "e_v")
    readings = zip(("t_in", "t_out", *plant), (t_in, t_out, *(getattr(table, name) for name in plant)))
    channels = {name: _fill_gaps(name, on_grid(values), start, step, max_gap) for name, values in readings}
    n_per_step = spread_anchors(on_grid(table.passengers), start, step)

    resolved = rule.resolve(float(channels["e_v"].max()))
    mode = classify_mode(
        channels["v_cool_w"], channels["t_water_in"], channels["t_water_out"], channels["e_v"], resolved
    )
    return FrameSeries(start=start, step=step, n=n_per_step, mode=mode, **channels)
