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

parse_csv decodes a file once and cuts the text into columns with one of
two tokenizers. A plain file is split at its line ends and then at its
commas in one pass: it has no quote, NUL or bare carriage return, every
line has the header's number of commas and fits csv's field limit, and
no row is blank, so csv.reader would read each line as that split. Any
other file goes through csv.reader, record by record; it is the
reference the plain split is tested against. Both give the same columns
and line numbers, and everything after them converts whole columns:
numbers as float() reads them, and timestamps in isoformat_utc's
whole-second form as one block of bytes, with every other timestamp
cell read on its own.

Time is kept as int64 microseconds since the epoch, in UTC. A series
stores only its start and step, and time_axis derives every frame's
instant from them. No per-frame datetime is built on the way from a CSV
to an artifact. write_columns writes every CSV artifact, formatting
blocks of rows a column at a time: isoformat_utc for instants and
format_floats for numbers.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .core import HvacMode, StationConstants
from .errors import (
    BadNumber,
    BadTimestamp,
    GapTooLong,
    IoError,
    MisalignedTimestamp,
    MissingColumn,
    NegativeValue,
    OffClockAnchor,
    TooShort,
    UnreadableRow,
    UnsortedAnchors,
)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
US_PER_S = 1_000_000
US_PER_HOUR = 3600 * US_PER_S
# CSV rows formatted and written at a time: enough to amortize a write,
# few enough that a block's strings stay a small share of memory
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class CsvSchema:
    """Column name map for dataset files. Override names to match a source."""

    timestamp: str = "timestamp"
    indoor_prefix: str = "t_in_"
    outdoor_prefix: str = "t_out_"
    t_water_in: str = "t_water_in"
    t_water_out: str = "t_water_out"
    v_cool_w: str = "v_cool_w"
    e_v: str = "e_v"
    passengers: str = "passengers"


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
        if self.e_v_idle is not None and not self.e_v_idle >= 0:
            raise ValueError(f"e_v_idle must be >= 0, got {self.e_v_idle}")
        if not 0 <= self.e_v_idle_fraction < 1:
            raise ValueError(f"e_v_idle_fraction must be in [0, 1), got {self.e_v_idle_fraction}")
        if not self.water_activity_min >= 0:
            raise ValueError(f"water_activity_min must be >= 0, got {self.water_activity_min}")

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
                raise ValueError(f"channel {name!r} must be {rule}, got {values[index]} at index {index}")

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
    does, whole seconds kept apart from the half-even rounded fraction."""
    frac, whole = np.modf(np.arange(count) * step)
    return _micros(start) + whole.astype(np.int64) * US_PER_S + np.rint(frac * 1e6).astype(np.int64)


def isoformat_utc(micros: np.ndarray) -> list[str]:
    """datetime.isoformat() of each UTC instant, int64 microseconds since
    the epoch: a +00:00 suffix, and the fraction only where it is nonzero."""
    stamps = np.asarray(micros, dtype=np.int64).view("datetime64[us]")
    text = np.datetime_as_string(stamps, unit="s").astype(object)
    fractional = np.flatnonzero(stamps.view(np.int64) % US_PER_S)
    if fractional.size:
        text[fractional] = np.datetime_as_string(stamps[fractional], unit="us")
    return (text + "+00:00").tolist()


def _timestamp_micros(cell: str) -> Optional[int]:
    """Microseconds since the epoch, in UTC, of an ISO 8601 cell; naive
    times read as UTC. None when the cell is not a timestamp."""
    text = cell.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        return _micros(datetime.fromisoformat(text))
    except ValueError:
        return None


# isoformat_utc's text of a whole-second instant: any digit where the form has a d
_STAMP_FORM = np.frombuffer(b"dddd-dd-ddTdd:dd:dd+00:00", dtype=np.uint8)
_STAMP_DIGITS = _STAMP_FORM == ord("d")


def _canonical_micros(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(micros, found) for a timestamp column, decoded as a block of bytes.

    found marks the cells that are exactly isoformat_utc's text of a
    whole-second instant, YYYY-MM-DDTHH:MM:SS+00:00 with a valid date and
    time, which datetime.fromisoformat reads as that instant; micros holds
    it there and 0 elsewhere. Nothing is found unless every cell is as
    long as that form.
    """
    count, width = len(cells), len(_STAMP_FORM) + 1
    blob = ("\n".join(cells) + "\n").encode()
    rows = np.frombuffer(blob, dtype=np.uint8)
    # each cell is width - 1 bytes long when the only newlines are the ones ending the rows
    if len(blob) != count * width or blob.count(b"\n") != count or (rows[width - 1::width] != 10).any():
        return np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool)
    chars = rows.reshape(count, width)[:, :-1]
    digits = chars - np.uint8(ord("0"))  # wraps around below "0"
    found = (digits[:, _STAMP_DIGITS] <= 9).all(axis=1)
    found &= (chars[:, ~_STAMP_DIGITS] == _STAMP_FORM[~_STAMP_DIGITS]).all(axis=1)
    year = digits[:, 0:4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, k:k + 2] @ np.array([10, 1]) for k in (5, 8, 11, 14, 17))
    found &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour < 24) & (minute < 60) & (second < 60)
    months = np.where(found, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first_day = months.astype("datetime64[D]").astype(np.int64)
    found &= day <= (months + 1).astype("datetime64[D]").astype(np.int64) - first_day
    seconds = (((first_day + day - 1) * 24 + hour) * 60 + minute) * 60 + second
    return np.where(found, seconds * US_PER_S, 0), found


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
    try:
        values = np.array([float(cell) if cell else math.nan for cell in cells])
        # every NaN came from an empty cell, none from a cell reading "nan"
        if np.count_nonzero(np.isnan(values)) == cells.count(""):
            return values
    except ValueError:
        pass
    return np.array([_lenient_float(cell) for cell in cells])


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
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoError(path, str(exc)) from None
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, its line ends counted as csv.reader
        # counts them: \r\n, a bare \r and \n each end one line
        before = data[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise UnreadableRow(line, f"not UTF-8: {exc}") from None


def _plain_split(text: str) -> Optional[tuple[list[str], list[list[str]], range]]:
    """(header, columns, line numbers) of text split at its line ends and
    commas, or None unless csv.reader reads every line of it as exactly
    that split: no quote, NUL or bare carriage return, no line longer than
    the csv field limit, every line with the header's number of commas, and
    no data line whose first cell is blank (so no row is blank)."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if not lines or not lines[0] or max(map(len, lines)) > csv.field_size_limit():
        return None
    width = lines[0].count(",") + 1
    if (np.fromiter(map(str.count, lines, repeat(",")), dtype=np.int64, count=len(lines)) != width - 1).any():
        return None
    del lines  # cut the cells from the text without keeping the lines too
    cells = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        cells.pop()
    columns = [cells[col::width] for col in range(width, 2 * width)]
    if not all(map(str.strip, columns[0])):
        return None
    return cells[:width], columns, range(2, len(columns[0]) + 2)


def _reader_columns(reader, width: int) -> tuple[list[tuple[str, ...]], list[int]]:
    """(columns, line numbers) of the records csv.reader reads after the
    header. Blank records are skipped and short ones padded with empty
    cells. A record is numbered by the line it starts on, which a quoted
    cell holding a line break puts before the line the reader stops at."""
    rows, numbers = [], []
    start = reader.line_num + 1
    try:
        for cells in reader:
            if "".join(cells).strip():
                rows.append(cells + [""] * (width - len(cells)) if len(cells) < width else cells)
                numbers.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise UnreadableRow(reader.line_num, str(exc)) from None
    return list(zip(*rows)) or [()] * width, numbers


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
    """
    text = _read_text(path)
    split = _plain_split(text)
    if split is None:
        # the header is checked before csv.reader reads on, so its faults come first
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise UnreadableRow(reader.line_num, str(exc)) from None
    else:
        header, columns, numbers = split
    if header is None:
        raise MissingColumn(schema.timestamp)
    header = [name.strip() for name in header]

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
    passenger_col = header.index(schema.passengers) if schema.passengers in header else None
    read = {*positions, schema.passengers}
    duplicate = next((name for name, count in Counter(header).items() if count > 1 and name in read), None)
    if duplicate is not None:
        raise UnreadableRow(1, f"duplicate column {duplicate!r}")
    if split is None:
        columns, numbers = _reader_columns(reader, len(header))

    plant_cols = [positions[name] for name in (schema.t_water_in, schema.t_water_out, schema.v_cool_w, schema.e_v)]
    optional_cols = [] if passenger_col is None else [passenger_col]
    float_cols = [*indoor_cols, *outdoor_cols, *plant_cols, *optional_cols]
    nonnegative_cols = [positions[schema.v_cool_w], positions[schema.e_v], *optional_cols]

    timestamp_col = positions[schema.timestamp]
    stamps, found = _canonical_micros(columns[timestamp_col])
    bad_stamps = np.zeros(len(numbers), dtype=bool)
    for i in np.flatnonzero(~found).tolist():
        micros = _timestamp_micros(columns[timestamp_col][i])
        if micros is None:
            bad_stamps[i] = True
        else:
            stamps[i] = micros
    values = {col: _float_column(columns[col]) for col in float_cols}
    faults = bad_stamps.copy()
    for col in float_cols:
        faults |= np.isinf(values[col])
    for col in nonnegative_cols:
        faults |= values[col] < 0
    if faults.any():
        # the first faulty row, checked in reading order: the timestamp,
        # each number, then the signs of the meters
        i = int(np.argmax(faults))
        row = numbers[i]
        if bad_stamps[i]:
            raise BadTimestamp(row, columns[timestamp_col][i])
        for col in float_cols:
            if np.isinf(values[col][i]):
                raise BadNumber(row, header[col], columns[col][i])
        col = next(col for col in nonnegative_cols if values[col][i] < 0)
        raise NegativeValue(row, header[col], float(values[col][i]))

    water_in, water_out, v_cool_w, e_v = (values[col] for col in plant_cols)
    return RecordTable(
        timestamp=stamps.view("datetime64[us]"),
        indoor=np.column_stack([values[col] for col in indoor_cols]),
        outdoor=np.column_stack([values[col] for col in outdoor_cols]),
        t_water_in=water_in,
        t_water_out=water_out,
        v_cool_w=v_cool_w,
        e_v=e_v,
        passengers=np.full(len(numbers), np.nan) if passenger_col is None else values[passenger_col],
    )


def format_floats(values: np.ndarray) -> list[str]:
    """repr of each float, and an empty cell where it is NaN."""
    return [repr(value) if value == value else "" for value in values.tolist()]


def write_columns(path: str, header: list[str], columns: list[tuple[Callable, np.ndarray]], terminator: str) -> None:
    """Write a CSV of (format, values) columns, each line ended by terminator:
    the header through csv.writer, which quotes the names that need it, then
    _BLOCK_ROWS rows at a time, each column's cells made by its format. Those
    cells never need quoting. Raises IoError naming the path."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator=terminator).writerow(header)
            for lo in range(0, len(columns[0][1]), _BLOCK_ROWS):
                block = [format_cells(values[lo:lo + _BLOCK_ROWS]) for format_cells, values in columns]
                handle.write(terminator.join(map(",".join, zip(*block))) + terminator)
    except OSError as exc:
        raise IoError(path, str(exc)) from None


def write_records_csv(table: RecordTable, path: str, schema: CsvSchema = CsvSchema()) -> None:
    """Serialize a table back to the dataset format. Inverse of parse_csv."""
    if not len(table):
        raise ValueError("cannot serialize an empty record table")
    k = table.indoor.shape[1]
    m = table.outdoor.shape[1]

    header = [schema.timestamp]
    header += [f"{schema.indoor_prefix}{i}" for i in range(1, k + 1)]
    header += [f"{schema.outdoor_prefix}{i}" for i in range(1, m + 1)]
    header += [schema.t_water_in, schema.t_water_out, schema.v_cool_w, schema.e_v, schema.passengers]

    floats = [*table.indoor.T, *table.outdoor.T]
    floats += [table.t_water_in, table.t_water_out, table.v_cool_w, table.e_v, table.passengers]
    columns = [(isoformat_utc, table.timestamp.view(np.int64)), *((format_floats, values) for values in floats)]
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


def _fill_gaps(series: np.ndarray, start: datetime, step: float, max_gap: int) -> np.ndarray:
    """Linearly fill interior NaN runs of at most max_gap steps; hold
    values flat over edge runs. Longer runs are an error."""
    missing = np.isnan(series)
    if not missing.any():
        return series
    if missing.all():
        raise GapTooLong(start, len(series), max_gap)

    # each run opens and closes on a change of the mask: (first, end) pairs
    runs = np.flatnonzero(np.diff(missing, prepend=False, append=False)).reshape(-1, 2)
    lengths = runs[:, 1] - runs[:, 0]
    too_long = np.flatnonzero(lengths > max_gap)
    if too_long.size:
        first = too_long[0]
        at = start + timedelta(seconds=int(runs[first, 0]) * step)
        raise GapTooLong(at, int(lengths[first]), max_gap)

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

    t_in, t_out = average_channels(table)
    plant = ("t_water_in", "t_water_out", "v_cool_w", "e_v")
    columns = np.stack([t_in, t_out, *(getattr(table, name) for name in plant), table.passengers])
    # every reading and the anchor column go onto the grid alike; only the readings are gap-filled
    on_grid = np.full((len(columns), n_steps), np.nan)
    on_grid[:, slot] = columns[:, order]
    *readings, anchors = on_grid
    channels = {
        name: _fill_gaps(column, start, step, max_gap) for name, column in zip(("t_in", "t_out", *plant), readings)
    }
    n_per_step = spread_anchors(anchors, start, step)

    resolved = rule.resolve(float(channels["e_v"].max()))
    mode = classify_mode(
        channels["v_cool_w"], channels["t_water_in"], channels["t_water_out"], channels["e_v"], resolved
    )
    return FrameSeries(start=start, step=step, n=n_per_step, mode=mode, **channels)
