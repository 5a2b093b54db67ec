"""Synthetic station generator: profiles, controller behavior, noise,
and the CSV round trip back through ingestion."""

import json
import math
from dataclasses import asdict
from datetime import datetime

import numpy as np
import pytest

from thermosig import (
    CsvSchema,
    HvacMode,
    HvacPlant,
    NoiseModel,
    OutdoorProfile,
    PassengerProfile,
    Scenario,
    StationConstants,
    balance_target,
    build_frames,
    emit_csv,
    load,
    parse_csv,
    simulate,
    supply,
)
from thermosig.core import from_json
from thermosig.errors import DivergedState
from thermosig.synth import IdentifiabilityWarning


def _one_day(**overrides) -> Scenario:
    base = dict(duration_steps=1441)
    base.update(overrides)
    return Scenario(**base)


class TestOutdoorProfile:
    def test_peak_and_trough(self):
        profile = OutdoorProfile(mean=31.0, amplitude=6.0, peak_hour=15.0)
        assert profile.temperature(15.0) == pytest.approx(37.0)
        assert profile.temperature(3.0) == pytest.approx(25.0)
        assert profile.temperature(9.0) == pytest.approx(31.0)


class TestPassengerProfile:
    def test_weekday_counts_conserve_the_daily_total(self):
        counts = PassengerProfile(daily_total=40000).hourly_counts()
        assert sum(counts) == 40000
        assert len(counts) == 24
        assert min(counts) >= 0

    def test_weekday_rush_hours_dominate(self):
        counts = PassengerProfile(daily_total=40000).hourly_counts()
        assert counts[8] > counts[12]
        assert counts[18] > counts[14]
        assert counts[8] > counts[2]

    def test_weekend_plateau(self):
        counts = PassengerProfile(kind="weekend", daily_total=12000).hourly_counts()
        assert sum(counts) == 12000
        # open hours share the flow evenly, off hours get almost nothing
        assert abs(counts[10] - counts[15]) <= 1
        assert counts[2] < counts[10] / 10

    def test_conservation_over_random_totals(self):
        rng = np.random.default_rng(13)
        for total in rng.integers(0, 100000, size=50):
            assert sum(PassengerProfile(daily_total=int(total)).hourly_counts()) == total

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            PassengerProfile(kind="holiday")


class TestHvacPlant:
    def test_schedule(self):
        plant = HvacPlant(on_hour=5.0, off_hour=23.0)
        assert plant.in_schedule(5.0)
        assert plant.in_schedule(12.0)
        assert not plant.in_schedule(23.0)
        assert not plant.in_schedule(2.0)

    def test_schedule_wraps_midnight(self):
        plant = HvacPlant(on_hour=22.0, off_hour=6.0)
        assert plant.in_schedule(23.5)
        assert plant.in_schedule(3.0)
        assert not plant.in_schedule(12.0)

    def test_stage_supply_rounds_up_to_whole_stages(self):
        plant = HvacPlant(refrigerator_max=9000.0, refrigerator_stages=10)
        assert plant.stage_supply(1.0) == 900.0
        assert plant.stage_supply(900.0) == 900.0
        assert plant.stage_supply(901.0) == 1800.0
        assert plant.stage_supply(50000.0) == 9000.0
        assert plant.stage_supply(0.0) == 0.0
        assert plant.stage_supply(-5.0) == 0.0


class TestNoiseModel:
    def test_zero_noise_is_identity(self):
        values = np.array([26.04, 26.06, 27.0])
        out = NoiseModel().apply(values, np.random.default_rng(0))
        assert out.tolist() == values.tolist()

    def test_quantization_rounds_to_the_grid(self):
        values = np.array([26.04, 26.06, -0.07])
        out = NoiseModel(temp_quantization=0.1).apply(values, np.random.default_rng(0))
        assert out == pytest.approx([26.0, 26.1, -0.1])

    def test_gaussian_is_seed_reproducible(self):
        values = np.zeros(100)
        noise = NoiseModel(temp_std=0.05)
        a = noise.apply(values, np.random.default_rng(42))
        b = noise.apply(values, np.random.default_rng(42))
        assert a.tolist() == b.tolist()
        assert a.std() > 0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(temp_std=-0.1)


class TestSimulate:
    def test_deterministic_for_a_seed(self):
        scenario = _one_day(noise=NoiseModel(temp_std=0.05, temp_quantization=0.1))
        first, anchors_a = simulate(scenario)
        second, anchors_b = simulate(scenario)
        assert first == second
        assert np.array_equal(anchors_a, anchors_b, equal_nan=True)

    def test_noiseless_frames_close_the_energy_balance(self):
        scenario = _one_day()
        series, _ = simulate(scenario)
        l_total, _, _ = load(series, scenario.theta_true, scenario.constants)
        supplied = supply(series, scenario.theta_true, scenario.constants)[0]
        residuals = np.abs(l_total[:-1] - supplied[:-1] - balance_target(series, scenario.constants))
        scale = np.abs(l_total[:-1]).max()
        assert residuals.max() <= 1e-9 * scale

    def test_plant_stays_off_outside_the_schedule(self):
        series, _ = simulate(_one_day())
        # the start is in UTC, so the UTC hour is the station's hour
        hour = series.micros // 3_600_000_000 % 24
        off_hours = (hour < 5) | (hour >= 23)
        assert off_hours.any()
        assert (series.mode[off_hours] == HvacMode.OFF).all()
        assert (series.e_v[off_hours] == 0.0).all() and (series.v_cool_w[off_hours] == 0.0).all()

    def test_per_step_counts_match_the_hourly_anchors(self):
        scenario = _one_day()
        series, anchors = simulate(scenario)
        counts = series.n.tolist()
        steps_per_hour = int(3600 / scenario.constants.step)
        for end in np.flatnonzero(~np.isnan(anchors)).tolist():
            if end >= steps_per_hour:
                covered = counts[end - steps_per_hour:end]
                assert math.fsum(covered) == anchors[end]

    @pytest.mark.parametrize("beta_v", [0.0, 1e-120])
    def test_fan_that_moves_no_air_leaves_the_demand_to_the_chiller(self, beta_v):
        # cooling from the first step, with outdoor air usefully cooler than the zone;
        # the fan's need is a division by zero or overflows a float
        scenario = _one_day(
            constants=StationConstants(c=1.21, m_z=12000.0, t_p=37.0, beta_v=beta_v, step=60.0),
            outdoor=OutdoorProfile(mean=20.0),
            hvac=HvacPlant(on_hour=0.0, off_hour=23.0),
            initial_t_in=30.0,
        )
        series, _ = simulate(scenario)
        assert series.e_v[0] == scenario.hvac.e_v_max
        assert series.mode[0] == HvacMode.MIXED
        l_total, _, _ = load(series, scenario.theta_true, scenario.constants)
        supplied = supply(series, scenario.theta_true, scenario.constants)[0]
        residuals = np.abs(l_total[:-1] - supplied[:-1] - balance_target(series, scenario.constants))
        assert residuals.max() <= 1e-9 * np.abs(l_total[:-1]).max()

    def test_divergence_is_detected(self):
        # an empty, hot station with the plant disabled relaxes toward the
        # outdoor temperature, which sits past the plausible ceiling
        scenario = _one_day(
            duration_steps=500,
            outdoor=OutdoorProfile(mean=75.0, amplitude=0.0),
            passengers=PassengerProfile(daily_total=0),
            hvac=HvacPlant(on_hour=0.0, off_hour=0.0),
        )
        with pytest.raises(DivergedState):
            simulate(scenario)

    def test_empty_station_is_flagged_unidentifiable(self):
        # with no passengers the first regressor column is identically zero
        scenario = _one_day(passengers=PassengerProfile(daily_total=0))
        with pytest.warns(IdentifiabilityWarning):
            simulate(scenario)

    def test_grid_missing_hour_rows_warns(self):
        scenario = _one_day(
            duration_steps=100,
            constants=StationConstants(c=1.21, m_z=12000.0, beta_v=100.0, step=70.0),
        )
        with pytest.warns(UserWarning, match="hour boundary"):
            series, anchors = simulate(scenario)
        assert len(anchors) == len(series) and np.isnan(anchors).all()
        assert (series.n == 0.0).all()


class TestCsvRoundTrip:
    def test_noiseless_round_trip_is_bit_exact(self, reference_run, reference_frames):
        series, _, _ = reference_run
        assert reference_frames.start == series.start
        assert reference_frames.step == series.step
        assert reference_frames == series

    @pytest.mark.parametrize("offset", ["+00:00", "+05:30", "+05:45", "-03:00"])
    def test_noisy_round_trip_is_bit_exact(self, offset, tmp_path):
        # away from whole-hour offsets the station's hours start off the UTC hour
        scenario = _one_day(
            start=datetime(2021, 6, 1, tzinfo=datetime.strptime(offset, "%z").tzinfo),
            noise=NoiseModel(temp_std=0.05, temp_quantization=0.1),
            seed=9,
        )
        series, anchors = simulate(scenario)
        path = str(tmp_path / "noisy.csv")
        emit_csv(series, anchors, path)
        rebuilt = build_frames(parse_csv(path), scenario.constants)
        assert rebuilt == series
        steps_per_hour = int(3600 / scenario.constants.step)
        ends = np.flatnonzero(~np.isnan(anchors)).tolist()
        assert len(ends) == 24
        for end in ends:
            assert math.fsum(rebuilt.n[end - steps_per_hour:end].tolist()) == anchors[end]

    def test_header_names_that_need_quoting_round_trip(self, tmp_path):
        # a comma, quotes and a newline in the names: csv quoting must carry them
        schema = CsvSchema(timestamp='time, "utc"', e_v="e_v\n(kW)")
        scenario = _one_day(seed=9)
        series, anchors = simulate(scenario)
        path = str(tmp_path / "quoted.csv")
        emit_csv(series, anchors, path, schema)
        assert build_frames(parse_csv(path, schema), scenario.constants) == series


class TestScenarioSerialization:
    def test_round_trip(self):
        scenario = Scenario(
            duration_steps=100,
            seed=5,
            noise=NoiseModel(temp_std=0.05, temp_quantization=0.1),
            hvac=HvacPlant(setpoint=25.0),
        )
        text = json.dumps({**asdict(scenario), "start": scenario.start.isoformat()})
        assert from_json(Scenario, json.loads(text), "scenario") == scenario

    def test_defaults_fill_missing_sections(self):
        assert from_json(Scenario, {"seed": 3}, "scenario") == Scenario(seed=3)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            from_json(Scenario, {"sedd": 3}, "scenario")

    def test_reference_run_is_identifiable(self, reference_run):
        _, _, identifiability = reference_run
        assert identifiability == []
