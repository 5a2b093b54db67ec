"""Validation behavior of the shared value types."""

import dataclasses
import math
from datetime import datetime, timezone
from typing import Optional

import pytest

from thermosig import (
    FrameSeries,
    HvacMode,
    StationConstants,
    Theta,
    theta_is_feasible,
)
from thermosig.core import FieldError, from_json
from thermosig.synth import HvacPlant, NoiseModel


class TestStationConstants:
    def test_thermal_mass_is_c_times_m_z(self):
        constants = StationConstants(c=1210.0, m_z=10000.0)
        assert constants.thermal_mass == 1210.0 * 10000.0

    def test_defaults_are_valid(self):
        StationConstants()

    @pytest.mark.parametrize("overrides", [
        {"c": 0.0},
        {"c": -1.0},
        {"m_z": 0.0},
        {"step": 0.0},
        {"beta_v": -0.1},
        {"t_p": 25.0},   # below any plausible body temperature
        {"t_p": 45.0},
    ])
    def test_rejects_unphysical_values(self, overrides):
        with pytest.raises(ValueError):
            StationConstants(**overrides)

    @pytest.mark.parametrize("cls, field", [
        (StationConstants, "beta_v"),
        (HvacPlant, "e_v_max"),
        (HvacPlant, "refrigerator_max"),
        (HvacPlant, "water_delta_t"),
        (NoiseModel, "temp_std"),
        (NoiseModel, "temp_quantization"),
    ])
    def test_nan_is_rejected_at_its_field(self, cls, field):
        # a check written as "x < 0" lets NaN through: NoiseModel(temp_std=nan) meant no noise
        with pytest.raises(FieldError, match=f"^{field} must be") as err:
            cls(**{field: math.nan})
        assert err.value.field == field

    def test_frozen(self):
        constants = StationConstants()
        with pytest.raises(dataclasses.FrozenInstanceError):
            constants.c = 1.0


class TestFrame:
    """Per-frame values, checked once when a FrameSeries is built."""

    def _series(self, **overrides):
        # two frames; each override replaces the second frame's value
        base = dict(
            t_in=27.0, t_out=33.0, n=10.0,
            t_water_in=12.0, t_water_out=7.0, v_cool_w=0.4, e_v=0.0,
            mode=HvacMode.REFRIGERATOR,
        )
        columns = {name: [value, value] for name, value in base.items()}
        columns["t_in"][1] = 27.01
        for name, value in overrides.items():
            columns[name][1] = value
        return FrameSeries(start=datetime(2021, 6, 1, tzinfo=timezone.utc), step=60.0, **columns)

    def test_valid_frame(self):
        series = self._series()
        assert series.delta.tolist() == [27.01 - 27.0]
        assert series.mode.tolist() == [HvacMode.REFRIGERATOR] * 2

    def test_delta_may_be_none(self):
        # the final frame has no successor, so the derived delta stops short of it
        assert len(self._series().delta) == len(self._series()) - 1

    @pytest.mark.parametrize("overrides", [
        {"n": -1.0},
        {"v_cool_w": -0.1},
        {"e_v": -5.0},
        {"t_in": float("nan")},
        {"t_in": float("inf")},
        # NaN passes a "< 0" check, and the other channels were not checked at all
        {"n": float("nan")},
        {"v_cool_w": float("nan")},
        {"e_v": float("nan")},
        {"e_v": float("inf")},
        {"t_out": float("nan")},
        {"t_out": -float("inf")},
        {"t_water_in": float("nan")},
        {"t_water_out": float("inf")},
    ])
    def test_rejects_bad_values(self, overrides):
        (channel,) = overrides
        with pytest.raises(ValueError, match=f"{channel!r}.* at index 1"):
            self._series(**overrides)


class TestTheta:
    def test_feasible(self):
        assert theta_is_feasible(Theta(c_p=100.0, alpha=50.0, beta_ac=2000.0))
        # beta_ac is allowed to sit exactly on its bound
        assert theta_is_feasible(Theta(c_p=1.0, alpha=1.0, beta_ac=0.0))

    @pytest.mark.parametrize("triple", [
        (0.0, 50.0, 2000.0),
        (100.0, 0.0, 2000.0),
        (-1.0, 50.0, 2000.0),
        (100.0, 50.0, -1e-9),
    ])
    def test_infeasible(self, triple):
        assert not theta_is_feasible(Theta(*triple))

    def test_infeasible_values_are_still_constructible(self):
        # the type itself does not enforce the constraint set; the fit does
        theta = Theta(c_p=-1.0, alpha=0.0, beta_ac=-3.0)
        assert theta.c_p == -1.0


class TestFromJson:
    """The one decoder from parsed JSON to the package's dataclasses."""

    def test_numbers_are_kept_as_given(self):
        constants = from_json(StationConstants, {"c": 1, "m_z": 12000.5}, "constants")
        assert constants == StationConstants(c=1, m_z=12000.5)
        assert type(constants.c) is int

    def test_omitted_keys_take_the_defaults(self):
        assert from_json(StationConstants, {}, "constants") == StationConstants()

    def test_nested_sections_enums_and_optionals(self):
        @dataclasses.dataclass(frozen=True)
        class Holder:
            constants: StationConstants = StationConstants()
            modes: frozenset[HvacMode] = frozenset()
            start: Optional[datetime] = datetime(2021, 6, 1)

        decoded = from_json(
            Holder, {"constants": {"step": 30.0}, "modes": ["off", "mixed"], "start": None}, "holder"
        )
        assert decoded == Holder(StationConstants(step=30.0), frozenset({HvacMode.OFF, HvacMode.MIXED}), None)
        later = from_json(Holder, {"start": "2021-06-02T05:30:00+05:30"}, "holder").start
        assert later == datetime(2021, 6, 2, tzinfo=timezone.utc)

    @pytest.mark.parametrize("cls, raw, message", [
        (StationConstants, [], "config.x must be an object"),
        (StationConstants, {"cc": 1.0}, r"unknown config.x keys: \['cc'\]"),
        (StationConstants, {"step": True}, "config.x.step must be a finite number, got True"),
        (StationConstants, {"step": "60"}, "config.x.step must be a finite number, got '60'"),
        (StationConstants, {"step": None}, "config.x.step must be a finite number, got None"),
        # Python's json reads these, and a range check like "temp_std < 0" lets NaN through
        (StationConstants, {"step": float("nan")}, "config.x.step must be a finite number, got nan"),
        (StationConstants, {"m_z": float("inf")}, "config.x.m_z must be a finite number, got inf"),
        (StationConstants, {"step": 0}, "^config.x.step must be positive$"),
        (Theta, {"c_p": 1.0}, "bad config.x: .*missing 2 required"),
        # a range check that raises FieldError is reported at its field
        (StationConstants, {"beta_v": -1.0}, "^config.x.beta_v must be nonnegative$"),
    ])
    def test_rejections_name_the_key_path(self, cls, raw, message):
        with pytest.raises(ValueError, match=message):
            from_json(cls, raw, "config.x")
