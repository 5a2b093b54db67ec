"""Load, supply, and energy balance terms.

The balance of one step says load minus supply equals thermal mass times
the step temperature change. Each of its terms is written once, as an
elementwise function that takes Python floats or numpy arrays and gives
the same bits on both: load_terms, new_air_supply and
refrigerator_supply. load and supply evaluate them over a whole frame
series, regression.assemble takes them at unit coefficients as its rows,
and synth.simulate calls them once a step. Sign conventions: loads heat
the zone and are positive when they do; supplies remove heat and are
positive when they do.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import HvacMode, StationConstants, Theta
from .ingest import FrameSeries

# the modes that run each supply path: the fan, and the chiller's water loop
VENT_MODES = frozenset({HvacMode.NEW_AIR, HvacMode.MIXED})
WATER_MODES = frozenset({HvacMode.REFRIGERATOR, HvacMode.MIXED})


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


def load_terms(c_p, alpha, n, t_in, t_out, t_p):
    """(passenger, environment) loads: c_p * n * (t_p - t_in), and
    alpha * (t_out - t_in), which collects every outdoor-coupled path."""
    return c_p * n * (t_p - t_in), alpha * (t_out - t_in)


def new_air_supply(e_v, t_in, t_out, constants: StationConstants):
    """Heat removed by moving outdoor air through the zone:
    c * fan_airflow(e_v) * (t_in - t_out)."""
    return constants.c * fan_airflow(e_v, constants.beta_v) * (t_in - t_out)


def refrigerator_supply(beta_ac, t_water_in, t_water_out, v_cool_w):
    """Heat removed by the chiller loop: (t_water_in - t_water_out) *
    v_cool_w * beta_ac, positive when the return water is warmer."""
    return (t_water_in - t_water_out) * v_cool_w * beta_ac


def load(
    series: FrameSeries, theta: Theta, constants: StationConstants
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thermal load on the zone per frame: (l_total, l_passenger,
    l_environment)."""
    l_pil, l_eil = load_terms(theta.c_p, theta.alpha, series.n, series.t_in, series.t_out, constants.t_p)
    return l_pil + l_eil, l_pil, l_eil


def supply(
    series: FrameSeries, theta: Theta, constants: StationConstants
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cooling supplied by the plant per frame, per its mode: (total,
    new_air, refrigerator), each path zero where its mode is inactive.

    New air is negative when the intake is warmer than the zone; it is
    emitted as-is with a diagnostic warning since clamping would hide an
    inconsistent mode label.
    """
    vent = np.isin(series.mode, tuple(VENT_MODES))
    water = np.isin(series.mode, tuple(WATER_MODES))
    new_air = np.where(vent, new_air_supply(series.e_v, series.t_in, series.t_out, constants), 0.0)
    if (new_air < 0).any():
        warnings.warn(
            "new air supply is negative: intake warmer than the zone "
            "while the ventilation path is active",
            RuntimeWarning,
            stacklevel=2,
        )
    refrigerator = np.where(
        water, refrigerator_supply(theta.beta_ac, series.t_water_in, series.t_water_out, series.v_cool_w), 0.0
    )
    return new_air + refrigerator, new_air, refrigerator


def balance_target(series: FrameSeries, constants: StationConstants) -> np.ndarray:
    """Right-hand side of the step energy balance, c * m_z * delta, for
    every frame but the last."""
    return constants.thermal_mass * series.delta
