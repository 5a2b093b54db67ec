"""Load, supply, and energy balance models over a frame series.

Each model takes the whole series and returns one value per frame, or
per frame with a delta for the balance target. Sign conventions: loads
heat the zone and are positive when they do; supplies remove heat and
are positive when they do. The balance says load minus supply equals
thermal mass times the step temperature change.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import HvacMode, StationConstants, Theta
from .ingest import FrameSeries


@dataclass(frozen=True)
class SupplyBreakdown:
    """Cooling supplied per step, split by path."""

    new_air_part: np.ndarray
    refrigerator_part: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.new_air_part + self.refrigerator_part


def fan_airflow(e_v, beta_v: float):
    """Airflow moved by the ventilator from its energy draw.

    Affinity law for a fan: flow scales with the cube root of power, so
    airflow = beta_v * e_v ** (1/3). Units follow beta_v. Takes a scalar
    or an array and returns the same.
    """
    e_v = np.asarray(e_v, dtype=float)
    if (e_v < 0).any():
        raise ValueError(f"e_v must be nonnegative, got {e_v.min()}")
    airflow = beta_v * np.cbrt(e_v)
    return float(airflow) if airflow.ndim == 0 else airflow


def load(
    series: FrameSeries, theta: Theta, constants: StationConstants
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thermal load on the zone per frame.

    Returns (l_total, l_passenger, l_environment) where the passenger
    part is c_p * n * (t_p - t_in) and the environment part collects
    every outdoor-coupled path into alpha * (t_out - t_in).
    """
    l_pil = theta.c_p * series.n * (constants.t_p - series.t_in)
    l_eil = theta.alpha * (series.t_out - series.t_in)
    return l_pil + l_eil, l_pil, l_eil


def supply(series: FrameSeries, theta: Theta, constants: StationConstants) -> SupplyBreakdown:
    """Cooling supplied by the plant per frame, per its mode.

    New air removes heat by moving outdoor air through the zone:
    c * fan_airflow(e_v) * (t_in - t_out). Negative when the intake is
    warmer than the zone; emitted as-is with a diagnostic warning since
    clamping would hide an inconsistent mode label.
    The refrigerator part is (t_water_in - t_water_out) * v_cool_w *
    beta_ac, positive when the return water is warmer than the supply.
    """
    vent = np.isin(series.mode, (HvacMode.NEW_AIR, HvacMode.MIXED))
    water = np.isin(series.mode, (HvacMode.REFRIGERATOR, HvacMode.MIXED))
    airflow = fan_airflow(series.e_v, constants.beta_v)
    new_air = np.where(vent, constants.c * airflow * (series.t_in - series.t_out), 0.0)
    if (new_air < 0).any():
        warnings.warn(
            "new air supply is negative: intake warmer than the zone "
            "while the ventilation path is active",
            RuntimeWarning,
            stacklevel=2,
        )
    refrigerator = np.where(
        water, (series.t_water_in - series.t_water_out) * series.v_cool_w * theta.beta_ac, 0.0
    )
    return SupplyBreakdown(new_air_part=new_air, refrigerator_part=refrigerator)


def balance_target(series: FrameSeries, constants: StationConstants) -> np.ndarray:
    """Right-hand side of the step energy balance, c * m_z * delta, for
    every frame but the last."""
    return constants.thermal_mass * series.delta
