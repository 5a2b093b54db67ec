"""CSV parsing, gap filling, passenger spreading, mode classing,
and frame assembly."""

import math
import re
import time
import tracemalloc
import warnings
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermosig import (
    HvacMode,
    ModeRule,
    RecordTable,
    StationConstants,
    average_channels,
    build_frames,
    classify_mode,
    parse_csv,
    spread_anchors,
    write_records_csv,
)
from thermosig import ingest
from thermosig.core import FieldError
from thermosig.errors import (
    BadNumber,
    BadTimestamp,
    GapTooLong,
    InvalidChannel,
    IoError,
    MisalignedTimestamp,
    MissingColumn,
    NegativeValue,
    OffClockAnchor,
    ThermosigError,
    TooShort,
    UnreadableRow,
    UnsortedAnchors,
)
from thermosig.ingest import (
    CHANNELS,
    CsvSchema,
    FloatCells,
    FrameSeries,
    _canonical_micros,
    _timestamp_micros,
    _tokenize,
    isoformat_utc,
    time_axis,
    write_columns,
)

T0 = datetime(2021, 6, 1, 9, 0, tzinfo=timezone.utc)
CONSTANTS = StationConstants(step=60.0)
PLUS_0530 = timezone(timedelta(hours=5, minutes=30))


def _ts(minutes: float) -> datetime:
    return T0 + timedelta(minutes=minutes)


def _record(minutes: float, t_in=27.0, t_out=33.0, t_water_in=12.0,
            t_water_out=7.0, v_cool_w=0.4, e_v=0.0, passengers=None) -> dict:
    """One table row; None marks an empty cell, a tuple several channels."""
    return {
        "timestamp": np.datetime64(T0.replace(tzinfo=None), "us") + np.timedelta64(round(minutes * 60e6), "us"),
        "indoor": t_in if isinstance(t_in, tuple) else (t_in,),
        "outdoor": t_out if isinstance(t_out, tuple) else (t_out,),
        "t_water_in": t_water_in,
        "t_water_out": t_water_out,
        "v_cool_w": v_cool_w,
        "e_v": e_v,
        "passengers": passengers,
    }


def _table(records: list[dict]) -> RecordTable:
    """A RecordTable holding the given _record rows in order."""
    def column(name):
        return np.array([row[name] for row in records], dtype=float)
    return RecordTable(
        timestamp=[row["timestamp"] for row in records],
        **{name: column(name) for name in ("indoor", "outdoor", "t_water_in", "t_water_out", "v_cool_w", "e_v", "passengers")},
    )


def _written_table(rows: int = 10 * 4096) -> RecordTable:
    """rows minutes of readings as the simulator writes them, an anchor an hour."""
    rng = np.random.default_rng(501)
    return RecordTable(
        timestamp=np.datetime64("2021-06-01T00:00", "us") + np.arange(rows) * np.timedelta64(60, "s"),
        indoor=26 + rng.integers(-30, 30, (rows, 1)) * 0.1,
        outdoor=31 + rng.normal(0, 2, (rows, 1)),
        t_water_in=7 + rng.integers(0, 20, rows) * 0.1,
        t_water_out=np.full(rows, 12.0),
        v_cool_w=rng.uniform(0, 0.5, rows),
        e_v=np.zeros(rows),
        passengers=np.where(np.arange(rows) % 60 == 0, rng.integers(0, 900, rows), np.nan),
    )


class TestCsvSchema:
    @pytest.mark.parametrize("overrides, field, other", [
        # the flow column read as e_v too
        ({"e_v": "v_cool_w"}, "e_v", "v_cool_w"),
        ({"passengers": "timestamp"}, "passengers", "timestamp"),
        # a plain column read as a channel too
        ({"passengers": "t_in_3"}, "passengers", "indoor_prefix"),
        ({"timestamp": "t_out_07"}, "timestamp", "outdoor_prefix"),
        # the outdoor sensors read as indoor ones
        ({"indoor_prefix": "t_out_"}, "indoor_prefix", "outdoor_prefix"),
        ({"outdoor_prefix": "t_in_"}, "indoor_prefix", "outdoor_prefix"),
        ({"indoor_prefix": "t_"}, "indoor_prefix", "outdoor_prefix"),
    ])
    def test_a_column_read_twice_is_rejected_at_its_key(self, overrides, field, other):
        with pytest.raises(FieldError, match=f"^{field} .*{other}") as err:
            CsvSchema(**overrides)
        assert err.value.field == field

    def test_distinct_names_pass(self):
        schema = CsvSchema(timestamp="time", indoor_prefix="in_", outdoor_prefix="out_", passengers="riders_1")
        assert schema.passengers == "riders_1"


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
        table = parse_csv(path)
        assert len(table) == 2
        assert table.timestamp.tolist() == [datetime(2021, 6, 1, 9, 0), datetime(2021, 6, 1, 9, 1)]
        assert table.indoor.shape == (2, 2)
        assert table.indoor[0].tolist() == [27.0, 27.4]
        assert table.outdoor[:, 0].tolist() == [33.0, 33.1]
        assert math.isnan(table.passengers[0])
        assert table.indoor[1, 0] == 27.1 and math.isnan(table.indoor[1, 1])
        assert table.e_v[1] == 125.0
        assert table.passengers[1] == 60.0

    def test_naive_timestamps_read_as_utc(self, tmp_path):
        path = self._write(
            tmp_path,
            "2021-06-01T09:00:00,27,27,33,12,7,0.4,0,\n"
            "2021-06-01T11:01:00+02:00,27,27,33,12,7,0.4,0,\n",
        )
        assert parse_csv(path).timestamp.tolist() == [datetime(2021, 6, 1, 9, 0), datetime(2021, 6, 1, 9, 1)]

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

    def test_empty_file_misses_the_timestamp(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(MissingColumn) as err:
            parse_csv(str(path))
        assert err.value.column == "timestamp"

    def test_missing_outdoor_channels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("timestamp,t_in_1,t_water_in,t_water_out,v_cool_w,e_v\n")
        with pytest.raises(MissingColumn) as err:
            parse_csv(str(path))
        assert err.value.column == "t_out_1"

    def test_missing_indoor_channels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("timestamp,t_out_1,t_water_in,t_water_out,v_cool_w,e_v\n")
        with pytest.raises(MissingColumn):
            parse_csv(str(path))

    def test_non_decimal_channel_suffix_is_ignored(self, tmp_path):
        # "²".isdigit() holds, but int("²") fails
        path = tmp_path / "data.csv"
        path.write_text("timestamp,t_in_1,t_in_²,t_out_1,t_water_in,t_water_out,v_cool_w,e_v\n"
                        "2021-06-01T09:00:00Z,27,99,33,12,7,0.4,0\n", encoding="utf-8")
        assert parse_csv(str(path)).indoor.tolist() == [[27.0]]

    @pytest.mark.parametrize("name", ["timestamp", "t_in_1", "t_out_1", "t_water_in", "e_v", "passengers"])
    def test_duplicated_read_column_rejected(self, tmp_path, name):
        # before, a second e_v or passengers column was ignored and a second t_in_1 averaged in
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + f",{name},notes,notes\n"
                        "2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,5,999,a,b\n", encoding="utf-8")
        with pytest.raises(UnreadableRow, match=f"duplicate column '{name}'") as err:
            parse_csv(str(path))
        assert err.value.row == 1

    @pytest.mark.parametrize("first, alias", [("t_in_1", "t_in_01"), ("t_out_1", "t_out_001")])
    def test_aliased_channel_rejected(self, tmp_path, first, alias):
        # before, t_in_1 = 27 and t_in_01 = 99 were averaged in as channel 1
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + f",{alias}\n"
                        "2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,5,99\n", encoding="utf-8")
        with pytest.raises(UnreadableRow, match=f"duplicate column '{alias}', channel 1 as '{first}'") as err:
            parse_csv(str(path))
        assert err.value.row == 1

    def test_duplicated_unread_column_allowed(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + ",notes,notes\n"
                        "2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,5,a,b\n", encoding="utf-8")
        assert len(parse_csv(str(path))) == 1

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
        table = parse_csv(path)
        assert table.indoor[0, 0] == -5.0
        assert table.outdoor[0, 0] == -12.0

    @pytest.mark.parametrize("body,error,row,column", [
        # a fault on an earlier row wins over any fault on a later one
        ("2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,\n"
         "2021-06-01T09:01:00Z,27,27,33,12,7,0.4,-1,\n"
         "not-a-time,27,27,33,12,7,0.4,0,\n", NegativeValue, 3, "e_v"),
        ("2021-06-01T09:00:00Z,27,27,33,12,7,oops,0,\n"
         "2021-06-01T09:01:00Z,bad,27,33,12,7,0.4,0,\n", BadNumber, 2, "v_cool_w"),
        # within a row: the timestamp, the numbers in column order, then the signs
        ("2021-06-01T09:00:00Z,27,bad,33,12,7,oops,0,\n", BadNumber, 2, "t_in_2"),
        ("yesterday,27,bad,33,12,7,0.4,0,\n", BadTimestamp, 2, None),
        ("2021-06-01T09:00:00Z,27,27,33,12,7,-0.4,oops,\n", BadNumber, 2, "e_v"),
        ("2021-06-01T09:00:00Z,27,27,33,12,7,-0.4,-1,-5\n", NegativeValue, 2, "v_cool_w"),
        # an empty cell is missing, a nan cell is bad
        ("2021-06-01T09:00:00Z,27,,33,nan,7,0.4,0,\n", BadNumber, 2, "t_water_in"),
        ("2021-06-01T09:00:00Z,nan,27,33,,7,0.4,0,\n", BadNumber, 2, "t_in_1"),
    ], ids=["negative-row-before-bad-timestamp", "row-beats-column", "indoor-before-v_cool_w",
            "timestamp-first", "numbers-before-signs", "signs-in-order", "nan-after-empty", "nan-before-empty"])
    def test_first_fault_in_file_order_wins(self, tmp_path, body, error, row, column):
        path = self._write(tmp_path, body)
        # in blocks of one and two rows, faults fall on both sides of a block boundary
        for block_rows in (1, 2, 4096):
            with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows), pytest.raises(error) as err:
                parse_csv(path)
            assert err.value.row == row
            assert getattr(err.value, "column", None) == column

    @pytest.mark.parametrize("row,error", [
        ("2021-06-01T09:00:00Z,abc,xyz,33,12,7,0.4", BadNumber),
        ("2021-06-01T09:00:00Z,-1,27,33,12,7,-0.4", NegativeValue),
    ], ids=["numbers", "signs"])
    def test_first_fault_in_a_reordered_header(self, tmp_path, row, error):
        # e_v comes before the temperatures and v_cool_w here, so the file's
        # column order is not the schema's
        path = tmp_path / "data.csv"
        path.write_text("timestamp,e_v,t_in_1,t_out_1,t_water_in,t_water_out,v_cool_w\n" + row + "\n",
                        encoding="utf-8")
        with pytest.raises(error) as err:
            parse_csv(str(path))
        assert (err.value.row, err.value.column) == (2, "e_v")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", "abc"])
    def test_bad_cell_after_empty_cells(self, tmp_path, cell):
        # a column that cannot be read whole is read cell by cell: an empty or
        # whitespace-only cell is missing, any other that is not a finite number bad
        blanks = ["", " ", "", "\t"]
        body = "".join(f"2021-06-01T09:0{i}:00Z,27,{blank},33,12,7,0.4,0,\n" for i, blank in enumerate(blanks))
        path = self._write(tmp_path, body + f"2021-06-01T09:04:00Z,27,{cell},33,12,7,0.4,0,\n")
        for block_rows in (1, 2, 4096):
            with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows), pytest.raises(BadNumber) as err:
                parse_csv(path)
            assert (err.value.row, err.value.column) == (6, "t_in_2")
            assert repr(cell) in str(err.value)
        assert np.isnan(parse_csv(self._write(tmp_path, body)).indoor[:, 1]).all()

    def test_traced_peak_stays_under_4_5_times_the_file_size(self, tmp_path):
        # ten blocks of rows as the simulator writes them; the quoted header,
        # and an empty cell in a hundred, send the same rows through csv.reader
        table = _written_table()
        plain = tmp_path / "plain.csv"
        write_records_csv(table, str(plain))
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(b'"timestamp"' + plain.read_bytes()[len(b"timestamp"):])
        indoor = table.indoor.copy()
        indoor[::100] = np.nan
        gaps = tmp_path / "gaps.csv"
        write_records_csv(replace(table, indoor=indoor), str(gaps))
        for path, expected in ((plain, table), (quoted, table), (gaps, replace(table, indoor=indoor))):
            tracemalloc.start()
            try:
                parsed = parse_csv(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert parsed == expected
            assert peak < 4.5 * path.stat().st_size

    def test_written_files_take_the_one_pass_reader(self, reference_csv, tmp_path):
        # a decline would leave every result alike and only the time worse
        written = tmp_path / "written.csv"
        write_records_csv(_written_table(), str(written))
        for path in (reference_csv, str(written)):
            with mock.patch.object(ingest, "_read_text", wraps=ingest._read_text) as block_reader:
                table = parse_csv(path)
            block_reader.assert_not_called()
            with mock.patch.object(ingest, "_loadtxt_table", return_value=None):
                assert parse_csv(path) == table

    @pytest.mark.parametrize("bad_line", [3, 400])
    def test_non_utf8_byte_names_its_line(self, tmp_path, bad_line):
        # line 400 lies past the first 8 KiB the text layer decodes
        rows = [f"2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,{i}\n".encode() for i in range(2, 500)]
        rows[bad_line - 2] = rows[bad_line - 2].replace(b"27", b"2\xff7", 1)
        path = tmp_path / "data.csv"
        path.write_bytes((self.HEADER + "\n").encode() + b"".join(rows))
        with pytest.raises(UnreadableRow, match="not UTF-8") as err:
            parse_csv(str(path))
        assert err.value.row == bad_line

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_non_utf8_byte_line_counts_every_line_end(self, tmp_path, line_end):
        # a BOM, then the bad byte on line 3; a bad number there is named by csv.reader's count
        rows = [f"2021-06-01T09:0{i}:00Z,27,27,33,12,7,0.4,0,".encode() for i in range(4)]
        path = tmp_path / "data.csv"
        for cell, error in ((b"2\xff7", UnreadableRow), (b"2x7", BadNumber)):
            lines = [self.HEADER.encode(), rows[0], rows[1].replace(b"27", cell, 1), *rows[2:]]
            path.write_bytes(b"\xef\xbb\xbf" + line_end.encode().join(lines) + line_end.encode())
            with pytest.raises(error) as err:
                parse_csv(str(path))
            assert err.value.row == 3

    def test_oversized_field_names_its_line(self, tmp_path):
        body = "2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,\n" + "2021-06-01T09:01:00Z," + "7" * 131073 + ",27,33,12,7,0.4,0,\n"
        with pytest.raises(UnreadableRow, match="field limit") as err:
            parse_csv(self._write(tmp_path, body))
        assert err.value.row == 3

    def test_oversized_quoted_header_field_names_line_1(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('"' + "x" * 131073 + '",' + self.HEADER + "\n")
        with pytest.raises(UnreadableRow, match="field limit") as err:
            parse_csv(str(path))
        assert err.value.row == 1

    @pytest.mark.parametrize("block_rows", [1, 2, 4096])
    @pytest.mark.parametrize("header", ["timestamp", '"timestamp"'], ids=["plain", "quoted"])
    def test_oversized_field_beats_an_earlier_bad_cell(self, tmp_path, monkeypatch, block_rows, header):
        # csv.reader's faults come before any cell's, however far into the file
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        body = ("2021-06-01T09:00:00Z,27,27,33,12,7,oops,0,\n" + "2021-06-01T09:01:00Z,27,27,33,12,7,0.4,0,\n" * 3
                + "2021-06-01T09:05:00Z," + "7" * 131073 + ",27,33,12,7,0.4,0,\n")
        path = self._write(tmp_path, body)
        Path(path).write_text(header + Path(path).read_text()[len("timestamp"):])
        with pytest.raises(UnreadableRow, match="field limit") as err:
            parse_csv(path)
        assert err.value.row == 6

    def test_byte_order_mark_is_skipped(self, tmp_path):
        body = "2021-06-01T09:00:00Z,27,27,33,12,7,0.4,0,\n"
        plain = parse_csv(self._write(tmp_path, body))
        path = tmp_path / "excel.csv"
        path.write_text(self.HEADER + "\n" + body, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_csv(str(path)) == plain

    @pytest.mark.parametrize("name", ["absent.csv", "directory"])
    def test_unopenable_file_is_io_error(self, tmp_path, name):
        (tmp_path / "directory").mkdir()
        path = str(tmp_path / name)
        with pytest.raises(IoError) as err:
            parse_csv(path)
        assert err.value.path == path

    @pytest.mark.parametrize("fault,error,column", [
        ("2021-06-01T09:02:00Z,27,27,33,12,7,oops,0,", BadNumber, "v_cool_w"),
        ("not-a-time,27,27,33,12,7,0.4,0,", BadTimestamp, None),
    ])
    def test_row_after_a_quoted_line_break_names_its_own_line(self, tmp_path, fault, error, column):
        # the first record spans lines 2 and 3, so the faulty one starts on line 4
        body = '2021-06-01T09:00:00Z,"27\n",27,33,12,7,0.4,0,\n' + fault + "\n"
        with pytest.raises(error) as err:
            parse_csv(self._write(tmp_path, body))
        assert err.value.row == 4
        assert getattr(err.value, "column", None) == column


HEADER_NAMES = ("timestamp", "t_in_1", "t_in_2", "t_out_1", "t_water_in", "t_water_out", "v_cool_w", "e_v", "passengers")
PLAIN_HEADER = ",".join(HEADER_NAMES)
# csv.reader reads "timestamp" as timestamp, and the quote keeps the file off the one-pass reader
QUOTED_HEADER = PLAIN_HEADER.replace("timestamp", '"timestamp"', 1)
VALID_NUMBERS = ["27", "0.4", "12.5", "0", "1e3", "7", "", "33.25"]
ODD_NUMBERS = ["-2.5", "nan", "inf", "-inf", "oops", " ", " 4 ", "1_0", "\u22123", "2\x007", "١٢", "7\u2028", "\x0b7\x85"]
STAMPS = [
    "2021-06-01T09:00:00+00:00", "2021-06-01T09:01:00+00:00", "2021-06-01T09:00:00.500000+00:00",
    "2021-06-01T09:00:00Z", "2021-06-01T11:00:00+02:00", "2021-06-01T09:00:00", "2021-06-01 09:00:00+00:00",
    " 2021-06-01T09:00:00+00:00", "2021-02-30T09:00:00+00:00", "0000-01-01T00:00:00+00:00",
    "2021-06-01T24:00:00+00:00", "not-a-time", "",
]


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


_cells = st.sampled_from(VALID_NUMBERS * 3 + ODD_NUMBERS) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
_stamps = st.sampled_from(STAMPS) | st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31), timezones=st.just(timezone.utc)
).map(datetime.isoformat)


@st.composite
def _lines(draw) -> str:
    """One physical line or quoted record of a dataset body, line end included."""
    kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "commas", "short", "long", "quoted"]))
    if kind in ("blank", "spaces", "commas"):
        text = {"blank": "", "spaces": "  ", "commas": " ," * 8}[kind]
    else:
        width = draw(st.integers(1, 8) if kind == "short" else st.integers(10, 11) if kind == "long" else st.just(9))
        cells = [draw(_stamps), *(draw(_cells) for _ in range(width - 1))]
        if kind == "quoted":
            at = draw(st.integers(0, width - 1))
            cells[at] = _quote(cells[at] + draw(st.sampled_from(["", "\n", "\r\n", ","])))
        text = ",".join(cells)
    return text + draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r\n", "\r"]))


def _outcome(path: str):
    """What parse_csv makes of a file: the table, or the fault it names."""
    try:
        return parse_csv(path)
    except (BadNumber, BadTimestamp, NegativeValue, MissingColumn, UnreadableRow) as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)


class TestTokenizers:
    """A file under the plain header, read one-pass first, and under the
    quoted header, which only csv.reader reads, gives the same reading."""

    @settings(deadline=None)
    @given(bom=st.booleans(), lines=st.lists(_lines(), max_size=6), final_newline=st.booleans())
    # a plain file, which the one-pass reader reads, and the same file with a gap
    @example(False, ["2021-06-01T09:00:00+00:00,27,27.5,33,12,7,0.4,0,\n",
                     "2021-06-01T09:01:00+00:00,27,26,33,12,7,0.4,125,60\n"], True)
    @example(False, ["2021-06-01T09:00:00+00:00,27,27.5,33,12,7,0.4,0,\n",
                     "2021-06-01T09:01:00+00:00,27,,33,12,7,0.4,125,60\n"], True)
    # each file below is declined by the one-pass reader
    @example(False, ['2021-06-01T09:00:00+00:00,"27\n",27,33,12,7,0.4,0,\n',
                     "2021-06-01T09:01:00+00:00,27,27,33,12,7,oops,0,\n"], True)
    @example(False, ["2021-06-01T09:00:00+00:00,27,27,33,12,7,0.4,0,\n", "\n",
                     "2021-06-01T09:01:00+00:00,27,27,33,12,7,0.4,0,\n"], True)
    @example(False, ["2021-06-01T09:00:00+00:00,27,27,33,12,7,0.4,0,\n", "  \n", " , , , , , , , ,\n"], True)
    @example(False, ["2021-06-01T09:00:00+00:00,27,27,33\n"], True)
    @example(False, ["2021-06-01T09:00:00+00:00,27,27,33,12,7,0.4,0,,extra\n"], True)
    @example(False, ["2021-06-01T09:00:00+00:00,27,27,33,12,7,0.4,0,\r",
                     "not-a-time,27,27,33,12,7,0.4,0,\r"], True)
    @example(False, ["2021-06-01T09:00:00+00:00,2\x007,27,33,12,7,0.4,0,\n"], True)
    @example(True, ["2021-06-01T09:00:00Z,27,27,33,12,7,0.4,-1,\r\n"], False)
    @example(False, [], True)
    @example(False, [], False)
    # in blocks of one or two lines, a short row comes a block after a bad cell
    @example(False, ["2021-06-01T09:00:00+00:00,27,27,33,12,7,0.4,0,\n",
                     "2021-06-01T09:01:00+00:00,27,27,33,12,7,oops,0,\n",
                     "2021-06-01T09:02:00+00:00,27,27,33,12,7,0.4,0,\n",
                     "2021-06-01T09:03:00+00:00,27,27,33\n"], True)
    # a cell's fault comes after a line that csv.reader cannot read, wherever that is
    @example(False, ["2021-06-01T09:00:00+00:00,27,27,33,12,7,oops,0,\n",
                     "2021-06-01T09:01:00+00:00,27,27,33,12,7,0.4,0,\n",
                     "2021-06-01T09:02:00+00:00,27," + "7" * 131073 + ",33,12,7,0.4,0,\n"], True)
    def test_plain_header_reads_as_quoted_header(self, tmp_path_factory, bom, lines, final_newline):
        body = "".join(lines)
        if not final_newline:
            body = body.rstrip("\r\n")
        directory = tmp_path_factory.mktemp("tokenizers")
        # in blocks of one and two lines, blank, short and long rows and
        # faults fall on both sides of a block boundary
        for block_rows in (1, 2, 4096):
            outcomes = []
            for header in (PLAIN_HEADER, QUOTED_HEADER):
                path = directory / "data.csv"
                path.write_bytes(("\ufeff" if bom else "").encode() + (header + "\n" + body).encode())
                with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
                    outcomes.append(_outcome(str(path)))
            assert outcomes[0] == outcomes[1]

    def test_plain_file_reads_as_csv_records_with_their_line_numbers(self):
        header, blocks = _tokenize(PLAIN_HEADER + "\r\n2021-06-01T09:00:00Z,27,, 3,12,7,0.4,0,\r\n"
                                   "2021-06-01T09:01:00Z,28,1,33,12,7,0.4,0,5")
        (columns, numbers), = blocks
        assert header == list(HEADER_NAMES)
        assert [column[1] for column in columns] == ["2021-06-01T09:01:00Z", "28", "1", "33", "12", "7", "0.4", "0", "5"]
        assert columns[3] == (" 3", "33")
        assert list(numbers) == [2, 3]

    @given(st.lists(_stamps, max_size=8))
    @example(["2021-06-01T09:00:00+00:00", "9999-12-31T23:59:59+00:00", "0001-01-01T00:00:00+00:00"])
    @example(["2021-06-01T09:00:00+00:00", "2021-06-01T09:00:00+00:001"])
    @example(["2021-06-01T11:00:00+02:00", "2021-06-01T09:00:00-00:00"])
    @example(["2024-02-29T00:00:00+00:00", "2023-02-29T00:00:00+00:00", "2021-04-31T00:00:00+00:00"])
    @example(["0000-01-01T00:00:00+00:00", "2021-06-01T24:00:00+00:00", "2021-06-01T09:60:00+00:00"])
    # a stamp with a byte after it fills its field, and a longer cell is cut to fill it
    @example(["2021-06-01T09:00:00+00:00x", "021-06-01T09:00:00+00:00"])
    @example(["2021-06-01T09:00:00+00:00\n2021-06-01T09:01:00+00:00", "", "x" * 24])
    def test_canonical_micros_match_fromisoformat(self, cells):
        def padded(column):
            # NUL-padded S26 byte fields, as the one-pass reader holds them; a
            # longer cell is cut to fill its field, which no timestamp does
            return np.array([cell.encode() for cell in column], dtype="S26").view(np.uint8).reshape(-1, 26)

        def of_the_form(cell):
            return re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\+00:00", cell) is not None

        decoded = _canonical_micros(padded(cells))
        if decoded is None:
            # a column is declined only for a cell of the form that fromisoformat rejects
            assert any(of_the_form(cell) and _timestamp_micros(cell) is None for cell in cells)
        else:
            micros, found = decoded
            for cell, value, hit in zip(cells, micros.tolist(), found.tolist()):
                assert hit or not of_the_form(cell)
                if hit:
                    assert value == _timestamp_micros(cell)
                    assert isoformat_utc(np.array([value])) == [cell]
        # a column in the written form is decoded whole
        written = [cell for cell in cells if len(cell) == 25 and _timestamp_micros(cell) is not None
                   and isoformat_utc(np.array([_timestamp_micros(cell)])) == [cell]]
        decoded = _canonical_micros(padded(written))
        assert decoded is not None
        micros, found = decoded
        assert found.all()
        assert micros.tolist() == [_timestamp_micros(cell) for cell in written]


# layouts of the one-pass reader's files: as written, the anchor column
# inside a row or absent, and a column no reader reads
LAYOUTS = [
    PLAIN_HEADER,
    "t_in_1,timestamp,passengers,t_out_1,t_water_in,t_water_out,v_cool_w,e_v",
    "timestamp,t_in_1,t_out_1,t_water_in,t_water_out,v_cool_w,e_v",
    PLAIN_HEADER + ",note",
]
_whole_seconds = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31), timezones=st.just(timezone.utc)
).map(lambda t: t.replace(microsecond=0).isoformat())
_readings = st.floats(min_value=0.0, allow_infinity=False).map(repr) | st.integers(0, 10**20).map(str)
_counts = st.sampled_from([""] * 4) | st.integers(0, 5000).map(str) | st.integers(0, 5000).map("{}.0".format)


@st.composite
def _plain_files(draw) -> tuple[str, list[str]]:
    """A header from LAYOUTS and lines of its width, line ends included;
    one cell or line end in forty is odd."""
    header = draw(st.sampled_from(LAYOUTS))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        cells = []
        for name in header.split(","):
            odd = draw(st.integers(0, 39)) == 0
            if name == "timestamp":
                cells.append(draw(st.sampled_from(STAMPS) if odd else _whole_seconds))
            elif name == "passengers":
                cells.append(draw(st.sampled_from(ODD_NUMBERS + ["-1", "1" * 17]) if odd else _counts))
            elif name == "note":
                cells.append(draw(st.text("ab ,", max_size=3) if odd else st.sampled_from(["", "a"])))
            else:
                cells.append(draw(st.sampled_from(ODD_NUMBERS + ["", "1e400"]) if odd else _readings))
        odd = draw(st.integers(0, 39)) == 0
        lines.append(",".join(cells) + draw(st.sampled_from(["\r", "\n\n", "\n  \n"]) if odd else st.sampled_from(["\n", "\r\n"])))
    return header, lines


WRITTEN_ROW = "2021-06-01T09:00:00+00:00,27.5,27,33,12,7,0.4,0,"


class TestOnePassReader:
    """np.loadtxt's one pass reads each file as the block reader does, or declines it."""

    @settings(deadline=None)
    @given(bom=st.booleans(), file=_plain_files())
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "\r\n", "2021-06-01T09:01:00+00:00,27,1e-3,33,12,7,0.4,0,120.0\r\n"]))
    @example(True, (PLAIN_HEADER, [WRITTEN_ROW + "\n"]))  # a byte order mark
    @example(False, (PLAIN_HEADER, []))  # a header-only file
    @example(False, (PLAIN_HEADER, ["\n", "\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "\r", WRITTEN_ROW + "\r"]))  # bare carriage returns
    # each file below is declined, or read with a stamp on its own
    @example(False, (PLAIN_HEADER, ['2021-06-01T09:00:00+00:00,"27",27,33,12,7,0.4,0,\n']))  # a quote
    @example(False, (PLAIN_HEADER + ",note", [WRITTEN_ROW + ',"\n', WRITTEN_ROW + ',"\n']))  # one quoted record
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("27.5", "2\x007") + "\n"]))  # NULs
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "5\x00\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("27.5", "0." + "0" * 131072 + "1") + "\n"]))  # over-long
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "\n", WRITTEN_ROW[:-3] + "\n"]))  # ragged rows
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + ",\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "\n", ",,,,,,,,\n"]))  # an all-commas blank row
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("27.5", "") + "\n"]))  # an empty number
    @example(False, (LAYOUTS[1], ["27,2021-06-01T09:00:00+00:00,,33,12,7,0.4,\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("27.5", "1_0") + "\n"]))  # float() reads these
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("27.5", "١٢") + "\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("27.5", "nan") + "\n"]))  # non-finite numbers
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("27.5", "inf") + "\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "nan\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace(",0.4,", ",-0.4,") + "\n"]))  # a negative meter
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "-1\n"]))  # a negative anchor
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "  \n", WRITTEN_ROW + " 7 \n"]))  # blank and padded anchors
    @example(False, (PLAIN_HEADER, [" " + WRITTEN_ROW + "\n"]))  # an over-width stamp
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("09:00:00+00:00", "17:00:00.500000+08:00") + "\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "1" * 17 + "\n"]))  # an over-width anchor
    @example(False, (PLAIN_HEADER + ",note", [WRITTEN_ROW + "," + "x" * 40 + "\n"]))  # an over-width unread field
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("+00:00", "Z") + "\n"]))  # stamps read one by one
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("09:00:00+00:00", "17:00:00+08:00") + "\n"]))
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("2021", "2021-13", 1) + "\n"]))  # a bad stamp
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "\n", "0000-01-01T00:00:00+00:00" + WRITTEN_ROW[25:] + "\n"]))  # year 0000
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW.replace("2021-06-01", "2023-02-29", 1) + "\n"]))  # no such day
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "\n"] * 3 + [WRITTEN_ROW.replace("27.5", "") + "\n"]))  # a last-row gap
    @example(False, (PLAIN_HEADER, [WRITTEN_ROW + "\n", WRITTEN_ROW[25:] + "\n"]))  # an empty stamp
    @example(False, (PLAIN_HEADER.replace("t_in_2", "t_in_1"), [WRITTEN_ROW + "\n"]))  # a bad header
    @example(False, (PLAIN_HEADER.replace("e_v", "e_w"), [WRITTEN_ROW + "\n"]))
    def test_one_pass_reads_as_the_block_reader(self, tmp_path_factory, bom, file):
        header, lines = file
        path = tmp_path_factory.mktemp("one-pass") / "data.csv"
        path.write_bytes(("\ufeff" if bom else "").encode() + (header + "\n" + "".join(lines)).encode())
        for block_rows in (1, 4096):
            with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # np.loadtxt warns on a file without rows
                    one_pass = _outcome(str(path))
                with mock.patch.object(ingest, "_loadtxt_table", return_value=None):
                    assert _outcome(str(path)) == one_pass

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\n"], ids=["cr", "crlf", "lf"])
    def test_lines_end_where_csv_reader_ends_them(self, tmp_path, end):
        path = tmp_path / "data.csv"
        rows = [PLAIN_HEADER, WRITTEN_ROW, WRITTEN_ROW.replace("09:00", "09:01") + "5"]
        path.write_bytes((end.join(rows) + end).encode())
        one_pass = ingest._loadtxt_table(str(path), ingest.CsvSchema())
        assert one_pass is not None and len(one_pass) == 2
        with mock.patch.object(ingest, "_loadtxt_table", return_value=None):
            assert parse_csv(str(path)) == one_pass


class TestWriteRoundTrip:
    def test_parse_write_parse_is_identity(self, tmp_path):
        table = _table([
            _record(0.0, t_in=(27.0, None), passengers=None),
            _record(1.0, t_in=(27.123456789012345, 26.9), e_v=125.0, passengers=60.0),
            _record(2.0, t_in=(None, 26.5), t_water_in=None, v_cool_w=0.0),
        ])
        path = str(tmp_path / "out.csv")
        write_records_csv(table, path)
        assert parse_csv(path) == table

    def test_timestamps_written_as_isoformat(self, tmp_path):
        stamps = [_ts(0), _ts(1) + timedelta(microseconds=1), _ts(2) + timedelta(seconds=0.5)]
        table = _table([_record(0), _record(1), _record(2)])
        table = RecordTable(**{**vars(table), "timestamp": [ts.replace(tzinfo=None) for ts in stamps]})
        path = tmp_path / "out.csv"
        write_records_csv(table, str(path))
        cells = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert cells == [ts.isoformat() for ts in stamps]
        assert parse_csv(str(path)) == table

    def test_header_only_file_round_trips(self, tmp_path):
        source = tmp_path / "in.csv"
        source.write_text(TestParseCsv.HEADER + "\n")
        table = parse_csv(str(source))
        assert len(table) == 0
        path = str(tmp_path / "out.csv")
        write_records_csv(table, path)
        assert parse_csv(path) == table


# values that repeat, kept as an array so that the NaN payloads reach FloatCells
_FLOAT_POOL = np.concatenate([
    # NaNs of both signs, quiet and signalling, with payloads
    np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000, 0xFFF00000DEADBEEF],
             dtype=np.uint64).view(float),
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308],
    [0.1, 27.1, -3.5, 1e16, 123456.789, 26.999999999999996],
])


class TestFormatFloats:
    @settings(deadline=None)
    @given(
        size=st.integers(1, 4100),
        pool=st.lists(st.sampled_from(range(len(_FLOAT_POOL))), min_size=1, max_size=len(_FLOAT_POOL), unique=True),
        seed=st.integers(0, 2**32 - 1),
        strided=st.booleans(),
    )
    def test_matches_repr_of_each_cell(self, size, pool, seed, strided):
        drawn = np.random.default_rng(seed).choice(_FLOAT_POOL[pool], size=size * (2 if strided else 1))
        values = drawn[::2] if strided else drawn
        assert FloatCells()(values) == [repr(value) if value == value else "" for value in values.tolist()]

    def test_signed_zeros_and_nan_in_one_block(self, tmp_path):
        path = tmp_path / "out.csv"
        write_columns(str(path), ["x"], [(FloatCells(), np.array([0.0, -0.0, math.nan, -0.0, 0.0]))], "\n")
        assert path.read_text().splitlines() == ["x", "0.0", "-0.0", "", "-0.0", "0.0"]


# whole-second instants near day, leap-day and year edges, and datetime's
# first and last days, kept a few seconds inside its range; the last two
# hold a different digit in each place of the time of day
_STAMP_EDGES = np.array([ingest._micros(stamp) for stamp in (
    datetime(2020, 2, 28, 23, 59, 58), datetime(2020, 2, 29, 23, 59, 57), datetime(2019, 12, 31, 23, 59, 59),
    datetime(2000, 2, 29, 12), datetime(2021, 6, 1), datetime(1969, 12, 31, 23, 59, 59),
    datetime(1, 1, 1, 0, 0, 3), datetime(9999, 12, 31, 23, 59, 56),
    datetime(2021, 10, 17, 13, 47, 29), datetime(1987, 3, 8, 20, 16, 35),
)], dtype=np.int64)


# instants outside datetime's years 1-9999, which no CSV reader reads back
_OUT_OF_RANGE = ["10000-01-01T00:00", "0000-12-31T23:59:59.999999", "NaT"]


class TestWriteColumns:
    @settings(deadline=None)
    @given(
        blocks=st.sampled_from([1, 7, 4096]).flatmap(lambda size: st.tuples(st.just(size), st.integers(1, 2 * size + 3))),
        pool=st.lists(st.sampled_from(range(len(_FLOAT_POOL))), min_size=1, max_size=len(_FLOAT_POOL), unique=True),
        seed=st.integers(0, 2**32 - 1),
        zeros_at_edges=st.booleans(),
        fractions=st.booleans(),
    )
    def test_matches_repr_and_isoformat_across_blocks(self, tmp_path_factory, blocks, pool, seed, zeros_at_edges,
                                                      fractions):
        block_rows, rows = blocks
        rng = np.random.default_rng(seed)
        # values drawn from a small pool, so that most recur in later blocks
        values = rng.choice(_FLOAT_POOL[pool], size=(2, rows))
        if zeros_at_edges:
            for lo in range(block_rows, rows, block_rows):
                values[:, lo - 1], values[:, lo] = (0.0, -0.0) if lo // block_rows % 2 else (-0.0, 0.0)
        micros = rng.choice(_STAMP_EDGES, size=rows) + rng.integers(-3, 4, size=rows) * ingest.US_PER_S
        if fractions:
            micros += rng.choice([0, 1, 500_000, 999_999], size=rows)
        path = tmp_path_factory.mktemp("writer") / "out.csv"
        columns = [(isoformat_utc, micros), (ingest.FloatCells(), values[0]), (ingest.FloatCells(), values[1][::-1])]
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            write_columns(str(path), ["timestamp", "a", "b"], columns, "\n")

        def cell(value: float) -> str:
            return repr(value) if value == value else ""

        expected = [
            f"{(ingest._EPOCH + timedelta(microseconds=stamp)).isoformat()},{cell(a)},{cell(b)}"
            for stamp, a, b in zip(micros.tolist(), values[0].tolist(), values[1][::-1].tolist())
        ]
        assert path.read_text().splitlines() == ["timestamp,a,b", *expected]

    @pytest.mark.parametrize("stamp", _OUT_OF_RANGE)
    def test_isoformat_rejects_instants_outside_datetimes_years(self, stamp):
        micros = np.array([0, np.datetime64(stamp, "us").view(np.int64)])
        with pytest.raises(ValueError, match=re.escape(f"{np.datetime64(stamp, 'us')} at index 1")):
            isoformat_utc(micros)
        edges = [datetime.min, datetime.max, datetime.max.replace(microsecond=0)]
        assert isoformat_utc(np.array([ingest._micros(edge) for edge in edges])) == [
            edge.replace(tzinfo=timezone.utc).isoformat() for edge in edges
        ]

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3)])
    def test_columns_of_unequal_length_raise(self, tmp_path, lengths):
        path = tmp_path / "out.csv"
        columns = [(FloatCells(), np.zeros(length)) for length in lengths]
        with pytest.raises(ValueError, match=r"\[3, 2\]|\[2, 3\]"):
            write_columns(str(path), ["a", "b"], columns, "\n")
        assert not path.exists()


class TestRecordTable:
    def test_equality_treats_empty_cells_alike(self):
        assert _table([_record(0, t_in=None)]) == _table([_record(0, t_in=None)])
        assert _table([_record(0, t_in=None)]) != _table([_record(0, t_in=27.0)])
        assert _table([_record(0)]) != _table([_record(1)])

    def test_columns_must_share_the_row_count(self):
        columns = vars(_table([_record(0), _record(1)]))
        with pytest.raises(ValueError, match="'e_v'"):
            RecordTable(**{**columns, "e_v": columns["e_v"][:1]})
        with pytest.raises(ValueError, match="'indoor'"):
            RecordTable(**{**columns, "indoor": columns["indoor"][:, 0]})

    @pytest.mark.parametrize("stamp", _OUT_OF_RANGE)
    def test_timestamps_outside_datetimes_years_rejected(self, stamp):
        # write_records_csv would write such a stamp in a form parse_csv rejects
        columns = vars(_table([_record(0), _record(1), _record(2)]))
        timestamp = columns["timestamp"].copy()
        timestamp[1] = np.datetime64(stamp, "us")
        with pytest.raises(ValueError, match=re.escape(f"{np.datetime64(stamp, 'us')} at index 1")):
            RecordTable(**{**columns, "timestamp": timestamp})


class TestAverageChannels:
    def test_means_ignore_missing(self):
        t_in, t_out = average_channels(_table([_record(0.0, t_in=(26.0, None, 28.0), t_out=(33.0,))]))
        assert (t_in.tolist(), t_out.tolist()) == ([27.0], [33.0])

    def test_means_match_fsum_bit_for_bit(self):
        rows = [(0.1, 0.2, 0.3), (0.1, None, 0.3), (None, 0.7, None), (0.3, 0.6, None),
                (1e16, 1.0, -1e16), (-0.0, None, None), (0.1, 0.2, 0.3)]
        t_in, _ = average_channels(_table([_record(i, t_in=row) for i, row in enumerate(rows)]))
        # the fsum mean of three channels is not what plain addition gives
        assert t_in[0] == 0.19999999999999998 != (0.1 + 0.2 + 0.3) / 3
        for mean, row in zip(t_in.tolist(), rows):
            present = [value for value in row if value is not None]
            assert mean.hex() == (math.fsum(present) / len(present)).hex()
        # a zero sum with no empty cell added in keeps math.fsum's sign
        t_in, t_out = average_channels(_table([_record(0, t_in=(-0.0, -0.0), t_out=-0.0)]))
        assert (t_in[0].hex(), t_out[0].hex()) == ((math.fsum([-0.0, -0.0]) / 2).hex(), math.fsum([-0.0]).hex())

    def test_row_without_indoor_reading_is_a_gap(self):
        records = [_record(0, t_in=(30.0, 30.0)), _record(1, t_in=(None, None)), _record(2, t_in=(32.0, None))]
        t_in, t_out = average_channels(_table(records))
        assert math.isnan(t_in[1]) and t_out[1] == 33.0
        assert build_frames(_table(records), CONSTANTS).t_in.tolist() == [30.0, 31.0, 32.0]


def _reference_interpolation(anchors, grid, step):
    """spread_anchors written plainly on datetimes: the station's hours
    start at the first anchor, and each step joins the boundary that ends
    its hour."""
    rows = [i for i, count in enumerate(anchors) if not math.isnan(count)]
    first = grid[rows[0]]
    anchor_s = np.array([grid[i].timestamp() for i in rows])
    counts = np.array([anchors[i] for i in rows])
    raw = np.interp(np.array([ts.timestamp() for ts in grid]), anchor_s, counts)
    buckets = {}
    for idx, ts in enumerate(grid):
        buckets.setdefault(first + timedelta(hours=(ts - first) // timedelta(hours=1) + 1), []).append(idx)
    values = np.zeros(len(grid))
    for bucket_end, indices in buckets.items():
        hour_count = float(np.interp(bucket_end.timestamp(), anchor_s, counts))
        target = hour_count * (len(indices) / (3600.0 / step))
        chunk = raw[indices]
        total = chunk.sum()
        if target == 0.0:
            result = np.zeros(len(indices))
        elif total > 0.0:
            result = chunk * (target / total)
            for _ in range(4):
                gap = target - math.fsum(result.tolist())
                if gap == 0.0:
                    break
                result[int(np.argmax(result))] += gap
        else:
            result = np.full(len(indices), target / len(indices))
        values[indices] = result
    return [float(v) for v in values]


def _anchor_column(count: int, anchors: dict) -> np.ndarray:
    """A passengers column of count rows: NaN except on the given rows."""
    column = np.full(count, np.nan)
    for row, value in anchors.items():
        column[row] = value
    return column


class TestSpreadAnchors:
    """spread_anchors, the one spreader of the passengers anchor column."""

    def test_flat_hours_sum_exactly(self):
        values = spread_anchors(_anchor_column(121, {60: 600.0, 120: 600.0}), T0, 60.0).tolist()
        assert math.fsum(values[:60]) == 600.0
        assert math.fsum(values[60:120]) == 600.0
        assert all(v == pytest.approx(10.0) for v in values)

    def test_ramp_hour_sums_exactly(self):
        # counts climb 0 -> 120 across the second hour
        values = spread_anchors(_anchor_column(121, {60: 0.0, 120: 120.0}), T0, 60.0).tolist()
        assert math.fsum(values[:60]) == 0.0
        assert math.fsum(values[60:120]) == 120.0
        assert values[60] == 0.0
        assert values[119] > values[61]

    def test_single_anchor_spreads_over_its_hour(self):
        values = spread_anchors(_anchor_column(61, {60: 5.0}), T0, 60.0).tolist()
        assert math.fsum(values[:60]) == 5.0
        assert max(values) == pytest.approx(min(values))

    def test_partial_hour_gets_proportional_share(self):
        # only the second half of the hour is on the grid
        values = spread_anchors(_anchor_column(31, {30: 600.0}), _ts(30), 60.0).tolist()
        assert math.fsum(values[:30]) == 300.0

    def test_flat_hold_beyond_last_anchor(self):
        values = spread_anchors(_anchor_column(180, {60: 60.0}), T0, 60.0).tolist()
        assert math.fsum(values) == pytest.approx(180.0)

    def test_count_step_jump_falls_back_to_uniform(self):
        # one step an hour: the hour ending at the 60 starts on the 0, so
        # its raw shape is zero while its total is not
        values = spread_anchors(np.array([math.nan, 0.0, 60.0]), T0, 3600.0).tolist()
        assert values == [0.0, 60.0, 60.0]

    def test_conservation_over_random_anchor_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            counts = rng.integers(0, 5000, size=6)
            values = spread_anchors(_anchor_column(361, dict(zip(range(60, 361, 60), counts))), T0, 60.0).tolist()
            for hour, count in enumerate(counts):
                assert math.fsum(values[hour * 60:(hour + 1) * 60]) == float(count)

    @pytest.mark.parametrize("start,step,count,first", [
        (T0 + timedelta(minutes=17, seconds=30), 60.0, 400, 12),
        (datetime(2021, 6, 1, 9, 10, tzinfo=PLUS_0530), 60.0, 400, 50),
        (datetime(2021, 6, 1, 9, 10), 60.0, 400, 50),
        (T0 + timedelta(minutes=17), 120.0, 250, 7),
    ], ids=["mid-hour", "plus-0530", "naive", "step-120"])
    def test_matches_the_per_hour_reference(self, start, step, count, first):
        rng = np.random.default_rng(5)
        # anchors every hour from the first, some hours silent
        rows = range(first, count, round(3600 / step))
        anchors = _anchor_column(count, {row: float(rng.integers(0, 3) * rng.integers(0, 900)) for row in rows})
        aware = start if start.tzinfo else start.replace(tzinfo=timezone.utc)
        grid = [aware + timedelta(seconds=i * step) for i in range(count)]
        assert spread_anchors(anchors, start, step).tolist() == _reference_interpolation(anchors, grid, step)

    @settings(max_examples=150, deadline=None)
    @given(
        step=st.sampled_from([60.0, 120.0, 3600.0]),
        zone=st.sampled_from([timezone.utc, PLUS_0530]),
        start_us=st.integers(min_value=0, max_value=86_400_000_000 - 1),
        first=st.integers(min_value=0, max_value=59),
        hours=st.lists(st.none() | st.integers(min_value=0, max_value=20000), min_size=1, max_size=6),
        tail=st.integers(min_value=0, max_value=70),
    )
    def test_random_anchor_columns_match_the_reference(self, step, zone, start_us, first, hours, tail):
        per_hour = round(3600 / step)
        first %= per_hour
        count = first + (len(hours) - 1) * per_hour + 1 + tail
        anchors = _anchor_column(count, {first + h * per_hour: float(c) for h, c in enumerate(hours) if c is not None})
        start = datetime(2021, 6, 1, tzinfo=zone) + timedelta(microseconds=start_us)
        values = spread_anchors(anchors, start, step).tolist()
        if np.isnan(anchors).all():
            assert values == [0.0] * count
            return
        grid = [start + timedelta(seconds=i * step) for i in range(count)]
        assert values == _reference_interpolation(anchors, grid, step)
        # every hour wholly on the grid sums back to the anchor that ends it
        for row in np.flatnonzero(~np.isnan(anchors)).tolist():
            if row >= per_hour:
                assert math.fsum(values[row - per_hour:row]) == anchors[row]

    def test_no_anchors_give_zero_counts(self):
        assert spread_anchors(np.full(10, np.nan), T0, 60.0).tolist() == [0.0] * 10

    def test_unsorted_anchors_rejected(self):
        # a step under a microsecond puts the first two rows on one instant
        with pytest.raises(UnsortedAnchors) as err:
            spread_anchors(_anchor_column(3, {0: 10.0, 1: 10.0}), T0, 1e-7)
        assert err.value.at == T0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            spread_anchors(_anchor_column(61, {60: -1.0}), T0, 60.0)

    def test_empty_grid_is_empty(self):
        assert spread_anchors(np.zeros(0), T0, 60.0).tolist() == []


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
        series = build_frames(_table(records), CONSTANTS)
        assert series.t_in.tolist() == [30.0, 31.0, 32.0, 33.0, 34.0]
        assert series.delta.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_missing_rows_become_gaps(self):
        # the minute-2 row is absent entirely; every channel interpolates
        records = [_record(0, t_in=30.0), _record(1, t_in=31.0), _record(3, t_in=33.0)]
        series = build_frames(_table(records), CONSTANTS)
        assert len(series) == 4
        assert series.t_in[2] == 32.0

    def test_edge_gap_holds_nearest_value(self):
        records = [_record(0, t_in=None), _record(1, t_in=28.0), _record(2, t_in=29.0)]
        series = build_frames(_table(records), CONSTANTS)
        assert series.t_in[0] == 28.0

    def test_gap_longer_than_limit_raises(self):
        records = [_record(0, t_in=30.0), _record(7, t_in=31.0)]
        with pytest.raises(GapTooLong) as err:
            build_frames(_table(records), CONSTANTS, max_gap=5)
        assert err.value.length == 6
        assert err.value.at == _ts(1)

    def test_first_overlong_run_is_reported(self):
        missing = {2, 3, *range(6, 13), *range(15, 24)}
        records = [_record(m, t_in=None if m in missing else 30.0) for m in range(26)]
        with pytest.raises(GapTooLong) as err:
            build_frames(_table(records), CONSTANTS, max_gap=5)
        assert (err.value.at, err.value.length) == (_ts(6), 7)

    def test_overlong_edge_run_is_reported(self):
        records = [_record(m, t_out=None if m < 6 else 33.0) for m in range(9)]
        with pytest.raises(GapTooLong) as err:
            build_frames(_table(records), CONSTANTS, max_gap=5)
        assert (err.value.at, err.value.length) == (_ts(0), 6)

    def test_gap_names_its_channel(self):
        records = [_record(m, e_v=None if 1 <= m <= 6 else 0.0) for m in range(9)]
        with pytest.raises(GapTooLong, match="^channel 'e_v': gap of 6 steps") as err:
            build_frames(_table(records), CONSTANTS, max_gap=5)
        assert (err.value.channel, err.value.at, err.value.length) == ("e_v", _ts(1), 6)

    def test_empty_channel_has_no_reading(self):
        # 3 missing steps are within max_gap, but there is nothing to fill them from
        records = [_record(m, t_water_in=None) for m in range(3)]
        with pytest.raises(GapTooLong, match="^channel 't_water_in' has no reading") as err:
            build_frames(_table(records), CONSTANTS)
        assert err.value.channel == "t_water_in"

    def test_longer_limit_accepts_the_same_gap(self):
        records = [_record(0, t_in=30.0), _record(7, t_in=31.0)]
        series = build_frames(_table(records), CONSTANTS, max_gap=6)
        assert len(series) == 8

    def test_overflowing_channel_mean_is_a_channel_error(self):
        # two readings near the float maximum sum to inf
        records = [_record(0, t_in=(1e308, 1e308)), _record(1, t_in=(27.0, 27.0))]
        with pytest.raises(InvalidChannel, match="channel 't_in' must be finite, got inf at index 0") as err:
            build_frames(_table(records), CONSTANTS)
        assert isinstance(err.value, ThermosigError)

    def test_too_few_records(self):
        with pytest.raises(TooShort):
            build_frames(_table([_record(0)]), CONSTANTS)

    def test_off_grid_timestamp_rejected(self):
        records = [_record(0), _record(0.5)]
        with pytest.raises(MisalignedTimestamp):
            build_frames(_table(records), CONSTANTS)

    def test_duplicate_timestamp_rejected(self):
        records = [_record(0), _record(1), _record(1)]
        with pytest.raises(MisalignedTimestamp):
            build_frames(_table(records), CONSTANTS)

    def test_unordered_records_are_sorted_onto_the_grid(self):
        records = [_record(2, t_in=29.0), _record(0, t_in=27.0), _record(1, t_in=28.0)]
        series = build_frames(_table(records), CONSTANTS)
        assert series.start == _ts(0)
        assert series.t_in.tolist() == [27.0, 28.0, 29.0]

    def test_mode_threshold_resolved_from_observed_maximum(self):
        # max e_v is 500, so the default 1% threshold is 5: the 4.9 row idles
        records = [
            _record(0, v_cool_w=0.0, t_water_in=7.0, e_v=500.0),
            _record(1, v_cool_w=0.0, t_water_in=7.0, e_v=4.9),
            _record(2, v_cool_w=0.0, t_water_in=7.0, e_v=6.0),
        ]
        series = build_frames(_table(records), CONSTANTS)
        assert series.mode.tolist() == [HvacMode.NEW_AIR, HvacMode.OFF, HvacMode.NEW_AIR]

    def test_passenger_anchors_drive_per_step_counts(self):
        records = [_record(float(m)) for m in range(61)]
        records[60] = _record(60.0, passengers=60.0)
        series = build_frames(_table(records), CONSTANTS)
        counts = series.n.tolist()
        assert math.fsum(counts[:60]) == 60.0

    def test_no_anchors_means_empty_station(self):
        series = build_frames(_table([_record(0), _record(1)]), CONSTANTS)
        assert series.n.tolist() == [0.0, 0.0]


    def test_anchor_off_the_station_clock_rejected(self):
        # 01:00Z fixes the hours; 02:30Z is a stray cell half an hour off them
        records = [_record(float(m)) for m in range(-480, -389)]
        records[0] = _record(-480.0, passengers=30.0)
        records[90] = _record(-390.0, passengers=45.0)
        with pytest.raises(OffClockAnchor) as err:
            build_frames(_table(records), CONSTANTS)
        assert err.value.at == datetime(2021, 6, 1, 2, 30, tzinfo=timezone.utc)
        assert "2021-06-01T02:30:00+00:00" in str(err.value)


class TestFrameSeries:
    def test_columns_are_read_only(self):
        series = build_frames(_table([_record(0), _record(1)]), CONSTANTS)
        with pytest.raises(ValueError):
            series.t_in[0] = 0.0

    def test_channel_lengths_must_agree(self):
        good = build_frames(_table([_record(0), _record(1)]), CONSTANTS)
        columns = {name: getattr(good, name) for name in (*CHANNELS, "mode")}
        columns["e_v"] = columns["e_v"][:1]
        with pytest.raises(ValueError, match="'e_v'"):
            FrameSeries(start=good.start, step=good.step, **columns)


def _stepped_isoformat(start: datetime, step: float, count: int) -> list[str]:
    """The frame instants written plainly: one timedelta step per frame."""
    return [(start + timedelta(seconds=i * step)).astimezone(timezone.utc).isoformat() for i in range(count)]


MINUS_0300 = timezone(timedelta(hours=-3))


class TestTimeAxis:
    @settings(max_examples=300, deadline=None)
    @given(
        instant=st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 1)),
        zone=st.sampled_from([timezone.utc, PLUS_0530, MINUS_0300]),
        step=st.sampled_from([0.1, 1 / 3, 59.9999995]) | st.floats(min_value=1e-6, max_value=3600.0),
        count=st.integers(min_value=1, max_value=300),
    )
    @example(datetime(1, 1, 2, 0, 0, 0, 250000), MINUS_0300, 1 / 3, 300)
    @example(datetime(1, 1, 2, 3, 4, 5, 999999), PLUS_0530, 59.9999995, 300)
    @example(datetime(9999, 12, 1, 23, 59, 59, 1), PLUS_0530, 0.1, 300)
    @example(datetime(9999, 12, 1, 7, 13, 0, 250000), MINUS_0300, 59.9999995, 300)
    @example(datetime(2012, 6, 30, 23, 13, 0, 250000), timezone(timedelta(hours=8)), 30.0, 300)
    def test_isoformat_of_the_axis_matches_timedelta_steps(self, instant, zone, step, count):
        start = instant.replace(tzinfo=timezone.utc).astimezone(zone)
        assert isoformat_utc(time_axis(start, step, count)) == _stepped_isoformat(start, step, count)

    @pytest.mark.parametrize("step", [1e300, 1e13])
    def test_offsets_past_int64_microseconds_raise(self, step):
        # 1e13 once wrapped around to the year -265646
        with pytest.raises(ValueError, match="overflow int64 microseconds"):
            time_axis(T0, step, 200)

    def test_naive_start_is_utc_whatever_the_local_zone(self, monkeypatch):
        columns = {name: [1.0, 1.0] for name in CHANNELS}
        try:
            # a POSIX zone string needs no zone database: local time is UTC+05:30
            monkeypatch.setenv("TZ", "IST-05:30")
            time.tzset()
            assert time.timezone == -19800
            naive = FrameSeries(start=datetime(2021, 6, 1), step=60.0, mode=[HvacMode.OFF] * 2, **columns)
            assert naive.micros.tolist() == time_axis(datetime(2021, 6, 1, tzinfo=timezone.utc), 60.0, 2).tolist()
            assert isoformat_utc(naive.micros)[0] == "2021-06-01T00:00:00+00:00"
        finally:
            monkeypatch.undo()
            time.tzset()

    def test_series_instants_follow_the_start_and_step(self):
        series = build_frames(_table([_record(0), _record(1), _record(2)]), CONSTANTS)
        assert series.micros.tolist() == [(ts - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)
                                          for ts in (_ts(0), _ts(1), _ts(2))]
