"""CSV parsing, gap filling, passenger interpolation, mode classing,
and frame assembly."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from thermosig import (
    HvacMode,
    ModeRule,
    SensorRecord,
    StationConstants,
    average_channels,
    build_frames,
    classify_mode,
    interpolate_passengers,
    parse_csv,
    write_records_csv,
)
from thermosig.errors import (
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
from thermosig.ingest import CHANNELS, FrameSeries

T0 = datetime(2021, 6, 1, 9, 0, tzinfo=timezone.utc)
CONSTANTS = StationConstants(step=60.0)


def _ts(minutes: float) -> datetime:
    return T0 + timedelta(minutes=minutes)


def _grid(count: int, start: datetime = T0, step_minutes: float = 1.0):
    return [start + timedelta(minutes=i * step_minutes) for i in range(count)]


def _record(minutes: float, t_in=27.0, t_out=33.0, t_water_in=12.0,
            t_water_out=7.0, v_cool_w=0.4, e_v=0.0, passengers=None):
    return SensorRecord(
        timestamp=_ts(minutes),
        indoor=(t_in,) if not isinstance(t_in, tuple) else t_in,
        outdoor=(t_out,) if not isinstance(t_out, tuple) else t_out,
        t_water_in=t_water_in,
        t_water_out=t_water_out,
        v_cool_w=v_cool_w,
        e_v=e_v,
        passengers=passengers,
    )


class TestParseCsv:
    HEADER = "timestamp,t_in_1,t_in_2,t_out_1,t_water_in,t_water_out,v_cool_w,e_v,passengers"

    def _write(self, tmp_path, body: str) -> str:
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + "\n" + body, encoding="utf-8")
        return str(path)

    def test_happy_path(self, tmp_path):
        path = self._write(
            tmp_path,
            "2021-06-01T09:00:00Z,27.0,27.4,33.0,12.0,7.0,0.4,0.0,\n"
            "2021-06-01T09:01:00+00:00,27.1,,33.1,12.0,7.0,0.4,125.0,60\n",
        )
        records = parse_csv(path)
        assert len(records) == 2
        first, second = records
        assert first.timestamp == datetime(2021, 6, 1, 9, 0, tzinfo=timezone.utc)
        assert first.indoor == (27.0, 27.4)
        assert first.outdoor == (33.0,)
        assert first.passengers is None
        assert second.indoor == (27.1, None)
        assert second.e_v == 125.0
        assert second.passengers == 60.0

    def test_naive_timestamps_read_as_utc(self, tmp_path):
        path = self._write(tmp_path, "2021-06-01T09:00:00,27,27,33,12,7,0.4,0,\n")
        assert parse_csv(path)[0].timestamp.tzinfo == timezone.utc

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write(
            tmp_path,
            "2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,\n"
            "\n"
            ",,,,,,,,\n"
            "2021-06-01T09:01:00Z,27,27,33,12,7,0.4,0,\n",
        )
        assert len(parse_csv(path)) == 2

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("timestamp,t_in_1,t_out_1,t_water_in,t_water_out,v_cool_w\nx\n")
        with pytest.raises(MissingColumn) as err:
            parse_csv(str(path))
        assert err.value.column == "e_v"

    def test_missing_indoor_channels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("timestamp,t_out_1,t_water_in,t_water_out,v_cool_w,e_v\n")
        with pytest.raises(MissingColumn):
            parse_csv(str(path))

    def test_bad_timestamp_reports_physical_row(self, tmp_path):
        path = self._write(
            tmp_path,
            "2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,\n"
            "not-a-time,27,27,33,12,7,0.4,0,\n",
        )
        with pytest.raises(BadTimestamp) as err:
            parse_csv(path)
        # header is line 1, so the second data row is line 3
        assert err.value.row == 3

    def test_bad_number_reports_row_and_column(self, tmp_path):
        path = self._write(tmp_path, "2021-06-01T09:00:00Z,27,27,33,12,7,oops,0,\n")
        with pytest.raises(BadNumber) as err:
            parse_csv(path)
        assert (err.value.row, err.value.column) == (2, "v_cool_w")

    def test_non_finite_number_rejected(self, tmp_path):
        path = self._write(tmp_path, "2021-06-01T09:00:00Z,nan,27,33,12,7,0.4,0,\n")
        with pytest.raises(BadNumber):
            parse_csv(path)

    @pytest.mark.parametrize("row,column", [
        ("2021-06-01T09:00:00Z,27,27,33,12,7,-0.4,0,", "v_cool_w"),
        ("2021-06-01T09:00:00Z,27,27,33,12,7,0.4,-1,", "e_v"),
        ("2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,-5", "passengers"),
    ])
    def test_negative_meters_rejected(self, tmp_path, row, column):
        with pytest.raises(NegativeValue) as err:
            parse_csv(self._write(tmp_path, row + "\n"))
        assert err.value.column == column

    def test_negative_temperatures_allowed(self, tmp_path):
        path = self._write(tmp_path, "2021-06-01T09:00:00Z,-5,27,-12,12,7,0.4,0,\n")
        record = parse_csv(path)[0]
        assert record.indoor[0] == -5.0
        assert record.outdoor[0] == -12.0


class TestWriteRoundTrip:
    def test_parse_write_parse_is_identity(self, tmp_path):
        records = [
            _record(0.0, t_in=(27.0, None), passengers=None),
            _record(1.0, t_in=(27.123456789012345, 26.9), e_v=125.0, passengers=60.0),
            _record(2.0, t_in=(None, 26.5), t_water_in=None, v_cool_w=0.0),
        ]
        path = str(tmp_path / "out.csv")
        write_records_csv(records, path)
        assert parse_csv(path) == records

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_records_csv([], str(tmp_path / "out.csv"))

    def test_ragged_channels_rejected(self, tmp_path):
        records = [_record(0.0), _record(1.0, t_in=(27.0, 28.0))]
        with pytest.raises(ValueError, match="channel counts"):
            write_records_csv(records, str(tmp_path / "out.csv"))


class TestAverageChannels:
    def test_means_ignore_missing(self):
        record = _record(0.0, t_in=(26.0, None, 28.0), t_out=(33.0,))
        assert average_channels(record) == (27.0, 33.0)

    def test_all_indoor_missing(self):
        with pytest.raises(AllChannelsMissing) as err:
            average_channels(_record(0.0, t_in=(None, None)))
        assert err.value.side == "indoor"


class TestInterpolatePassengers:
    def test_flat_hours_sum_exactly(self):
        anchors = [(_ts(60), 600.0), (_ts(120), 600.0)]
        values = interpolate_passengers(anchors, _grid(120))
        assert math.fsum(values[:60]) == 600.0
        assert math.fsum(values[60:]) == 600.0
        assert all(v == pytest.approx(10.0) for v in values)

    def test_ramp_hour_sums_exactly(self):
        # counts climb 0 -> 120 across the second hour
        anchors = [(_ts(60), 0.0), (_ts(120), 120.0)]
        values = interpolate_passengers(anchors, _grid(120))
        assert math.fsum(values[:60]) == 0.0
        assert math.fsum(values[60:]) == 120.0
        assert values[60] == 0.0
        assert values[-1] > values[61]

    def test_single_anchor_spreads_over_its_hour(self):
        values = interpolate_passengers([(_ts(60), 5.0)], _grid(60))
        assert math.fsum(values) == 5.0
        assert max(values) == pytest.approx(min(values))

    def test_partial_hour_gets_proportional_share(self):
        # only the second half of the hour is on the grid
        values = interpolate_passengers([(_ts(60), 600.0)], _grid(30, start=_ts(30)))
        assert math.fsum(values) == 300.0

    def test_flat_hold_beyond_last_anchor(self):
        values = interpolate_passengers([(_ts(60), 60.0)], _grid(180))
        assert math.fsum(values) == pytest.approx(180.0)

    def test_count_step_jump_falls_back_to_uniform(self):
        # zero counts until one minute before the boundary, then a jump:
        # the raw shape is identically zero, the hour total is not
        anchors = [(_ts(59), 0.0), (_ts(60), 60.0)]
        values = interpolate_passengers(anchors, _grid(59))
        assert math.fsum(values) > 0.0
        assert max(values[:-1]) == min(values[:-1])

    def test_conservation_over_random_anchor_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            counts = rng.integers(0, 5000, size=6)
            anchors = [(_ts(60 * (h + 1)), float(c)) for h, c in enumerate(counts)]
            values = interpolate_passengers(anchors, _grid(360))
            for hour, count in enumerate(counts):
                assert math.fsum(values[hour * 60:(hour + 1) * 60]) == float(count)

    def test_empty_anchor_list_rejected(self):
        with pytest.raises(EmptyAnchors):
            interpolate_passengers([], _grid(10))

    def test_unsorted_anchors_rejected(self):
        anchors = [(_ts(120), 10.0), (_ts(60), 10.0)]
        with pytest.raises(UnsortedAnchors):
            interpolate_passengers(anchors, _grid(10))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            interpolate_passengers([(_ts(60), -1.0)], _grid(10))

    def test_irregular_grid_rejected(self):
        grid = [_ts(0), _ts(1), _ts(3)]
        with pytest.raises(ValueError, match="uniformly spaced"):
            interpolate_passengers([(_ts(60), 10.0)], grid)

    def test_empty_grid_is_empty(self):
        assert interpolate_passengers([(_ts(60), 10.0)], []) == []


class TestClassifyMode:
    def test_four_quadrants(self):
        assert classify_mode(0.4, 12.0, 7.0, 125.0) is HvacMode.MIXED
        assert classify_mode(0.4, 12.0, 7.0, 0.0) is HvacMode.REFRIGERATOR
        assert classify_mode(0.0, 12.0, 7.0, 125.0) is HvacMode.NEW_AIR
        assert classify_mode(0.0, 12.0, 7.0, 0.0) is HvacMode.OFF

    def test_arrays_classify_per_step(self):
        modes = classify_mode(
            np.array([0.4, 0.4, 0.0, 0.0]),
            np.full(4, 12.0),
            np.full(4, 7.0),
            np.array([125.0, 0.0, 125.0, 0.0]),
        )
        assert modes.tolist() == [HvacMode.MIXED, HvacMode.REFRIGERATOR, HvacMode.NEW_AIR, HvacMode.OFF]

    def test_flow_without_temperature_split_is_inactive(self):
        # water circulating but not exchanging heat
        assert classify_mode(0.4, 7.0, 7.0, 0.0) is HvacMode.OFF

    def test_idle_threshold_is_exclusive(self):
        rule = ModeRule(e_v_idle=10.0)
        assert classify_mode(0.0, 7.0, 7.0, 10.0, rule) is HvacMode.OFF
        assert classify_mode(0.0, 7.0, 7.0, 10.1, rule) is HvacMode.NEW_AIR

    def test_resolve_scales_threshold_from_series_maximum(self):
        rule = ModeRule(e_v_idle_fraction=0.02).resolve(e_v_max=500.0)
        assert rule.e_v_idle == 10.0
        # an explicit threshold survives resolution untouched
        fixed = ModeRule(e_v_idle=3.0).resolve(e_v_max=500.0)
        assert fixed.e_v_idle == 3.0


class TestBuildFrames:
    def test_interior_hole_fills_linearly(self):
        records = [
            _record(0, t_in=30.0),
            _record(1, t_in=None),
            _record(2, t_in=None),
            _record(3, t_in=None),
            _record(4, t_in=34.0),
        ]
        series = build_frames(records, CONSTANTS)
        assert series.t_in.tolist() == [30.0, 31.0, 32.0, 33.0, 34.0]
        assert series.delta.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_missing_rows_become_gaps(self):
        # the minute-2 row is absent entirely; every channel interpolates
        records = [_record(0, t_in=30.0), _record(1, t_in=31.0), _record(3, t_in=33.0)]
        series = build_frames(records, CONSTANTS)
        assert len(series) == 4
        assert series.t_in[2] == 32.0

    def test_edge_gap_holds_nearest_value(self):
        records = [_record(0, t_in=None), _record(1, t_in=28.0), _record(2, t_in=29.0)]
        series = build_frames(records, CONSTANTS)
        assert series.t_in[0] == 28.0

    def test_gap_longer_than_limit_raises(self):
        records = [_record(0, t_in=30.0), _record(7, t_in=31.0)]
        with pytest.raises(GapTooLong) as err:
            build_frames(records, CONSTANTS, max_gap=5)
        assert err.value.length == 6
        assert err.value.at == _ts(1)

    def test_longer_limit_accepts_the_same_gap(self):
        records = [_record(0, t_in=30.0), _record(7, t_in=31.0)]
        series = build_frames(records, CONSTANTS, max_gap=6)
        assert len(series) == 8

    def test_too_few_records(self):
        with pytest.raises(TooShort):
            build_frames([_record(0)], CONSTANTS)

    def test_off_grid_timestamp_rejected(self):
        records = [_record(0), _record(0.5)]
        with pytest.raises(MisalignedTimestamp):
            build_frames(records, CONSTANTS)

    def test_duplicate_timestamp_rejected(self):
        records = [_record(0), _record(1), _record(1)]
        with pytest.raises(MisalignedTimestamp):
            build_frames(records, CONSTANTS)

    def test_unordered_records_are_sorted_onto_the_grid(self):
        records = [_record(2, t_in=29.0), _record(0, t_in=27.0), _record(1, t_in=28.0)]
        series = build_frames(records, CONSTANTS)
        assert series.start == _ts(0)
        assert series.t_in.tolist() == [27.0, 28.0, 29.0]

    def test_mode_threshold_resolved_from_observed_maximum(self):
        # max e_v is 500, so the default 1% threshold is 5: the 4.9 row idles
        records = [
            _record(0, v_cool_w=0.0, t_water_in=7.0, e_v=500.0),
            _record(1, v_cool_w=0.0, t_water_in=7.0, e_v=4.9),
            _record(2, v_cool_w=0.0, t_water_in=7.0, e_v=6.0),
        ]
        series = build_frames(records, CONSTANTS)
        assert series.mode.tolist() == [HvacMode.NEW_AIR, HvacMode.OFF, HvacMode.NEW_AIR]

    def test_passenger_anchors_drive_per_step_counts(self):
        records = [_record(float(m)) for m in range(61)]
        records[60] = _record(60.0, passengers=60.0)
        series = build_frames(records, CONSTANTS)
        counts = series.n.tolist()
        assert math.fsum(counts[:60]) == 60.0

    def test_no_anchors_means_empty_station(self):
        series = build_frames([_record(0), _record(1)], CONSTANTS)
        assert series.n.tolist() == [0.0, 0.0]


class TestFrameSeries:
    def test_timestamps_follow_the_grid(self):
        series = build_frames([_record(0), _record(1), _record(2)], CONSTANTS)
        assert series.timestamps() == [_ts(0), _ts(1), _ts(2)]

    def test_columns_are_read_only(self):
        series = build_frames([_record(0), _record(1)], CONSTANTS)
        with pytest.raises(ValueError):
            series.t_in[0] = 0.0

    def test_channel_lengths_must_agree(self):
        good = build_frames([_record(0), _record(1)], CONSTANTS)
        columns = {name: getattr(good, name) for name in (*CHANNELS, "mode")}
        columns["e_v"] = columns["e_v"][:1]
        with pytest.raises(ValueError, match="'e_v'"):
            FrameSeries(start=good.start, step=good.step, **columns)
