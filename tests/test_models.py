"""Load, supply, and balance formulas against hand-computed values."""

from datetime import datetime, timezone

import numpy as np
import pytest

from thermosig import (
    FrameSeries,
    HvacMode,
    StationConstants,
    Theta,
    balance_target,
    fan_airflow,
    load,
    supply,
)

CONSTANTS = StationConstants(c=1210.0, m_z=10000.0, t_p=37.0, beta_v=30.0, step=60.0)
THETA = Theta(c_p=2.0, alpha=5.0, beta_ac=100.0)


def _series(**overrides):
    """Two equal frames, but for t_in, which rises by a delta of 0.01."""
    base = dict(
        t_in=27.0, t_out=33.0, n=10.0,
        t_water_in=12.0, t_water_out=7.0, v_cool_w=0.4, e_v=8.0,
        mode=HvacMode.REFRIGERATOR,
    )
    base.update(overrides)
    columns = {name: [value, value] for name, value in base.items()}
    columns["t_in"][1] += 0.01
    return FrameSeries(start=datetime(2021, 6, 1, tzinfo=timezone.utc), step=60.0, **columns)


class TestFanAirflow:
    def test_cube_root_law(self):
        # 8 ** (1/3) = 2, so airflow = 2 * beta_v
        assert fan_airflow(8.0, beta_v=30.0) == pytest.approx(60.0, rel=1e-12)

    def test_zero_power_zero_flow(self):
        assert fan_airflow(0.0, beta_v=30.0) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="e_v"):
            fan_airflow(-1.0, beta_v=30.0)

    def test_array_matches_scalar_calls(self):
        e_v = np.random.default_rng(8).uniform(0.0, 5000.0, size=200)
        assert fan_airflow(e_v, 30.0).tolist() == [fan_airflow(value, 30.0) for value in e_v.tolist()]

    def test_eightfold_power_doubles_flow(self):
        rng = np.random.default_rng(7)
        for e_v in rng.uniform(0.01, 5000.0, size=200):
            ratio = fan_airflow(8.0 * e_v, 30.0) / fan_airflow(e_v, 30.0)
            assert ratio == pytest.approx(2.0, rel=1e-12)


class TestLoad:
    def test_hand_example(self):
        # passenger part: 2 * 10 * (37 - 27) = 200
        # environment part: 5 * (33 - 27) = 30
        total, pil, eil = load(_series(), THETA, CONSTANTS)
        assert pil[0] == pytest.approx(200.0)
        assert eil[0] == pytest.approx(30.0)
        assert total[0] == pytest.approx(230.0)

    def test_empty_station_has_no_passenger_load(self):
        _, pil, _ = load(_series(n=0.0), THETA, CONSTANTS)
        assert pil[0] == 0.0

    def test_environment_load_flips_sign_when_outside_is_cooler(self):
        _, _, eil = load(_series(t_out=20.0), THETA, CONSTANTS)
        assert eil[0] == pytest.approx(5.0 * (20.0 - 27.0))


class TestSupply:
    def test_refrigerator_hand_example(self):
        # (12 - 7) * 0.4 * 100 = 200
        breakdown = supply(_series(), THETA, CONSTANTS)
        assert breakdown.refrigerator_part[0] == pytest.approx(200.0)
        assert breakdown.new_air_part[0] == 0.0
        assert breakdown.total[0] == pytest.approx(200.0)

    def test_off_supplies_nothing(self):
        breakdown = supply(_series(mode=HvacMode.OFF), THETA, CONSTANTS)
        assert breakdown.total[0] == 0.0

    def test_new_air_hand_example(self):
        # airflow = 30 * 8**(1/3) = 60; supply = 1210 * 60 * (27 - 25) = 145200
        breakdown = supply(_series(mode=HvacMode.NEW_AIR, t_out=25.0), THETA, CONSTANTS)
        assert breakdown.new_air_part[0] == pytest.approx(145200.0, rel=1e-12)
        assert breakdown.refrigerator_part[0] == 0.0

    def test_mixed_sums_both_paths(self):
        mixed = supply(_series(mode=HvacMode.MIXED, t_out=25.0), THETA, CONSTANTS)
        new_air = supply(_series(mode=HvacMode.NEW_AIR, t_out=25.0), THETA, CONSTANTS)
        refrigerator = supply(_series(), THETA, CONSTANTS)
        assert mixed.total[0] == pytest.approx(new_air.new_air_part[0] + refrigerator.refrigerator_part[0])

    def test_warm_intake_warns_instead_of_clamping(self):
        # intake at 33 C against a 27 C zone: negative supply, kept as is
        with pytest.warns(RuntimeWarning, match="intake warmer"):
            breakdown = supply(_series(mode=HvacMode.NEW_AIR), THETA, CONSTANTS)
        assert breakdown.new_air_part[0] < 0


class TestBalanceTarget:
    def test_hand_example(self):
        # 1210 * 10000 * 0.01 = 121000
        assert balance_target(_series(), CONSTANTS).tolist() == pytest.approx([121000.0])

    def test_final_frame_has_no_target(self):
        series = _series()
        assert len(balance_target(series, CONSTANTS)) == len(series) - 1
