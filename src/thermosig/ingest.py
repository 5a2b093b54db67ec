"""Dataset ingestion: CSV parsing, channel averaging, gap filling,
passenger interpolation, and per-step mode classification.

The on-disk format is a UTF-8 comma CSV with a header. Temperature
channels may repeat (t_in_1..k, t_out_1..m); empty cells mean missing.
The optional passengers column is populated only on hour-boundary rows
and carries the count for the hour ending at that timestamp.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import HvacMode, SensorRecord, StationConstants
from .errors import (
    AllChannelsMissing,
    BadNumber,
    BadTimestamp,
    EmptyAnchors,
    GapTooLong,
    MisalignedTimestamp,
    MissingColumn,
    NegativeValue,
    TooShort,
    UnsortedAnchors,
)


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

    def resolve(self, e_v_max: float) -> "ModeRule":
        if self.e_v_idle is not None:
            return self
        return replace(self, e_v_idle=self.e_v_idle_fraction * e_v_max)


CHANNELS = ("t_in", "t_out", "n", "t_water_in", "t_water_out", "v_cool_w", "e_v")
# rows: water loop inactive/active; columns: ventilator inactive/active
_MODE_TABLE = np.array(
    [[HvacMode.OFF, HvacMode.NEW_AIR], [HvacMode.REFRIGERATOR, HvacMode.MIXED]], dtype=object
)


@dataclass(frozen=True, eq=False)
class FrameSeries:
    """Frames on a regular grid, stored as aligned read-only columns.

    Frame i sits at start + i * step seconds. Each channel in CHANNELS is
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
        for name, rule, bad in (
            *((name, "nonnegative", getattr(self, name) < 0) for name in ("n", "v_cool_w", "e_v")),
            ("t_in", "finite", ~np.isfinite(self.t_in)),
        ):
            if bad.any():
                index = int(np.argmax(bad))
                value = getattr(self, name)[index]
                raise ValueError(f"channel {name!r} must be {rule}, got {value} at index {index}")

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

    def timestamps(self) -> list[datetime]:
        return [self.start + timedelta(seconds=i * self.step) for i in range(len(self))]


def _parse_timestamp(cell: str, row: int) -> datetime:
    text = cell.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise BadTimestamp(row, cell) from None
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _parse_float(cell: str, row: int, column: str) -> Optional[float]:
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise BadNumber(row, column, cell) from None
    if not math.isfinite(value):
        raise BadNumber(row, column, cell)
    return value


def _channel_columns(header: list[str], prefix: str) -> list[int]:
    found = []
    for idx, name in enumerate(header):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            found.append((int(name[len(prefix):]), idx))
    return [idx for _, idx in sorted(found)]


def parse_csv(path: str, schema: CsvSchema = CsvSchema()) -> list[SensorRecord]:
    """Read one dataset file into sensor records, in file order.

    Raises MissingColumn for an incomplete header, BadTimestamp or
    BadNumber with the offending physical row number, and NegativeValue
    for counts and meter channels that must be nonnegative.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(schema.timestamp) from None
        header = [name.strip() for name in header]

        indoor_cols = _channel_columns(header, schema.indoor_prefix)
        outdoor_cols = _channel_columns(header, schema.outdoor_prefix)
        if not indoor_cols:
            raise MissingColumn(schema.indoor_prefix + "1")
        if not outdoor_cols:
            raise MissingColumn(schema.outdoor_prefix + "1")

        positions = {}
        for name in (
            schema.timestamp,
            schema.t_water_in,
            schema.t_water_out,
            schema.v_cool_w,
            schema.e_v,
        ):
            if name not in header:
                raise MissingColumn(name)
            positions[name] = header.index(name)
        passenger_col = header.index(schema.passengers) if schema.passengers in header else None

        records = []
        for row_number, cells in enumerate(reader, start=2):
            if not cells or all(not cell.strip() for cell in cells):
                continue
            if len(cells) < len(header):
                cells = cells + [""] * (len(header) - len(cells))

            ts = _parse_timestamp(cells[positions[schema.timestamp]], row_number)
            indoor = tuple(
                _parse_float(cells[i], row_number, header[i]) for i in indoor_cols
            )
            outdoor = tuple(
                _parse_float(cells[i], row_number, header[i]) for i in outdoor_cols
            )
            t_water_in = _parse_float(
                cells[positions[schema.t_water_in]], row_number, schema.t_water_in
            )
            t_water_out = _parse_float(
                cells[positions[schema.t_water_out]], row_number, schema.t_water_out
            )
            v_cool_w = _parse_float(cells[positions[schema.v_cool_w]], row_number, schema.v_cool_w)
            e_v = _parse_float(cells[positions[schema.e_v]], row_number, schema.e_v)
            passengers = None
            if passenger_col is not None:
                passengers = _parse_float(cells[passenger_col], row_number, schema.passengers)

            for column, value in (
                (schema.v_cool_w, v_cool_w),
                (schema.e_v, e_v),
                (schema.passengers, passengers),
            ):
                if value is not None and value < 0:
                    raise NegativeValue(row_number, column, value)

            records.append(
                SensorRecord(
                    timestamp=ts,
                    indoor=indoor,
                    outdoor=outdoor,
                    t_water_in=t_water_in,
                    t_water_out=t_water_out,
                    v_cool_w=v_cool_w,
                    e_v=e_v,
                    passengers=passengers,
                )
            )
    return records


def _format_cell(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def write_records_csv(records: Sequence[SensorRecord], path: str, schema: CsvSchema = CsvSchema()) -> None:
    """Serialize records back to the dataset format. Inverse of parse_csv."""
    if not records:
        raise ValueError("cannot serialize an empty record list")
    k = len(records[0].indoor)
    m = len(records[0].outdoor)
    for record in records:
        if len(record.indoor) != k or len(record.outdoor) != m:
            raise ValueError("records disagree on channel counts")

    header = [schema.timestamp]
    header += [f"{schema.indoor_prefix}{i}" for i in range(1, k + 1)]
    header += [f"{schema.outdoor_prefix}{i}" for i in range(1, m + 1)]
    header += [schema.t_water_in, schema.t_water_out, schema.v_cool_w, schema.e_v, schema.passengers]

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for record in records:
            row = [record.timestamp.astimezone(timezone.utc).isoformat()]
            row += [_format_cell(v) for v in record.indoor]
            row += [_format_cell(v) for v in record.outdoor]
            row += [
                _format_cell(record.t_water_in),
                _format_cell(record.t_water_out),
                _format_cell(record.v_cool_w),
                _format_cell(record.e_v),
                _format_cell(record.passengers),
            ]
            writer.writerow(row)


def _mean_or_none(values: Iterable[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return math.fsum(present) / len(present)


def average_channels(record: SensorRecord) -> tuple[float, float]:
    """Collapse redundant sensors to one indoor and one outdoor reading."""
    t_in = _mean_or_none(record.indoor)
    if t_in is None:
        raise AllChannelsMissing("indoor")
    t_out = _mean_or_none(record.outdoor)
    if t_out is None:
        raise AllChannelsMissing("outdoor")
    return t_in, t_out


def _floor_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def interpolate_passengers(
    hourly: Sequence[tuple[datetime, float]],
    grid: Sequence[datetime],
    step: Optional[float] = None,
) -> list[float]:
    """Spread hourly passenger counts over the step grid.

    An anchor at hour boundary H carries the count for the hour ending
    at H, so the grid steps starting in [H-1h, H) share it. Values are
    piecewise-linear between anchors (held flat beyond the ends), then
    renormalized per hour so the values of a fully covered hour sum to
    that hour's anchor count exactly (under math.fsum). Hours only
    partially covered by the grid get a proportional share.

    Args:
        hourly: (timestamp, count) anchors, strictly increasing in time.
        grid: step start timestamps, sorted and uniformly spaced.
        step: grid spacing in seconds; inferred from the grid when None.

    Returns:
        One nonnegative count per grid step.
    """
    if not hourly:
        raise EmptyAnchors()
    for (prev_ts, _), (next_ts, _) in zip(hourly, hourly[1:]):
        if next_ts <= prev_ts:
            raise UnsortedAnchors(next_ts)
    for _, count in hourly:
        if count < 0:
            raise ValueError(f"anchor counts must be nonnegative, got {count}")
    if not grid:
        return []
    if step is None:
        if len(grid) < 2:
            raise ValueError("cannot infer the step from a single-point grid")
        step = (grid[1] - grid[0]).total_seconds()
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    for prev_ts, next_ts in zip(grid, grid[1:]):
        if abs((next_ts - prev_ts).total_seconds() - step) > 1e-9:
            raise ValueError("grid timestamps must be uniformly spaced")

    anchor_s = np.array([ts.timestamp() for ts, _ in hourly])
    counts = np.array([float(count) for _, count in hourly])
    grid_s = np.array([ts.timestamp() for ts in grid])
    raw = np.interp(grid_s, anchor_s, counts)

    # group steps by the hour boundary that ends their hour
    buckets: dict[datetime, list[int]] = {}
    for idx, ts in enumerate(grid):
        buckets.setdefault(_floor_hour(ts) + timedelta(hours=1), []).append(idx)

    steps_per_hour = 3600.0 / step
    values = np.zeros(len(grid))
    for bucket_end, indices in buckets.items():
        hour_count = float(np.interp(bucket_end.timestamp(), anchor_s, counts))
        target = hour_count * (len(indices) / steps_per_hour)
        chunk = raw[indices]
        total = chunk.sum()
        if target == 0.0:
            result = np.zeros(len(indices))
        elif total > 0.0:
            result = chunk * (target / total)
            # nudge the largest value so the fsum lands on the target exactly
            for _ in range(4):
                gap = target - math.fsum(result.tolist())
                if gap == 0.0:
                    break
                result[int(np.argmax(result))] += gap
        else:
            result = np.full(len(indices), target / len(indices))
        values[indices] = result
    return [float(v) for v in values]


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


def _fill_gaps(series: np.ndarray, grid: Sequence[datetime], max_gap: int) -> np.ndarray:
    """Linearly fill interior NaN runs of at most max_gap steps; hold
    values flat over edge runs. Longer runs are an error."""
    missing = np.isnan(series)
    if not missing.any():
        return series
    if missing.all():
        raise GapTooLong(grid[0], len(series), max_gap)

    idx = 0
    n = len(series)
    while idx < n:
        if not missing[idx]:
            idx += 1
            continue
        run_start = idx
        while idx < n and missing[idx]:
            idx += 1
        run_len = idx - run_start
        if run_len > max_gap:
            raise GapTooLong(grid[run_start], run_len, max_gap)

    known = np.flatnonzero(~missing)
    filled = series.copy()
    filled[missing] = np.interp(np.flatnonzero(missing), known, series[known])
    return filled


def build_frames(
    records: Sequence[SensorRecord],
    constants: StationConstants,
    rule: ModeRule = ModeRule(),
    max_gap: int = 5,
) -> FrameSeries:
    """Turn parsed records into a regular frame series.

    Records are sorted onto the step grid anchored at the earliest
    timestamp; missing rows become per-channel gaps. Gaps of at most
    max_gap steps are filled (linear inside, nearest at the edges);
    longer ones raise GapTooLong. Passenger counts come from the hourly
    anchors present in the records, or zero when there are none.
    """
    if len(records) < 2:
        raise TooShort(len(records))
    ordered = sorted(records, key=lambda record: record.timestamp)
    start = ordered[0].timestamp
    step = constants.step

    slots: dict[int, SensorRecord] = {}
    for record in ordered:
        offset = (record.timestamp - start).total_seconds() / step
        slot = round(offset)
        if abs(offset - slot) > 1e-9:
            raise MisalignedTimestamp(record.timestamp)
        if slot in slots:
            raise MisalignedTimestamp(record.timestamp)
        slots[slot] = record

    n_steps = max(slots) + 1
    if n_steps < 2:
        raise TooShort(n_steps)
    grid = [start + timedelta(seconds=i * step) for i in range(n_steps)]

    channels = {
        name: np.full(n_steps, np.nan)
        for name in ("t_in", "t_out", "t_water_in", "t_water_out", "v_cool_w", "e_v")
    }
    anchors: list[tuple[datetime, float]] = []
    for slot, record in slots.items():
        t_in = _mean_or_none(record.indoor)
        t_out = _mean_or_none(record.outdoor)
        for name, value in (
            ("t_in", t_in),
            ("t_out", t_out),
            ("t_water_in", record.t_water_in),
            ("t_water_out", record.t_water_out),
            ("v_cool_w", record.v_cool_w),
            ("e_v", record.e_v),
        ):
            if value is not None:
                channels[name][slot] = value
        if record.passengers is not None:
            anchors.append((record.timestamp, record.passengers))

    for name in channels:
        channels[name] = _fill_gaps(channels[name], grid, max_gap)

    if anchors:
        n_per_step = interpolate_passengers(anchors, grid, step=step)
    else:
        n_per_step = [0.0] * n_steps

    resolved = rule.resolve(float(channels["e_v"].max()))
    mode = classify_mode(
        channels["v_cool_w"], channels["t_water_in"], channels["t_water_out"], channels["e_v"], resolved
    )
    return FrameSeries(start=start, step=step, n=n_per_step, mode=mode, **channels)
