"""Synthetic station generator with known ground truth.

The simulator integrates the zone energy balance forward with a chosen
coefficient triple, a diurnal outdoor profile, commuter passenger flows,
and a staged thermostat controller, then emits the same CSV layout the
ingestion code reads. The controller deliberately tracks the load
imperfectly (hysteresis, discrete chiller stages, actuator caps), since
a perfectly tracking plant would leave the coefficients identifiable
only up to scale.

Sensor noise touches only the emitted temperature channels; the latent
state, actuator channels, and passenger counts stay exact. The hourly
anchors are the CSV's passengers column, and the per-step counts come
from spread_anchors(anchors, scenario.start, step), the call build_frames
makes with the CSV's first timestamp, so a round trip through the CSV
reproduces the frames bit for bit whatever the start's UTC offset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional

import numpy as np

from .core import StationConstants, Theta
from .errors import DivergedState, EmptySystem
from .ingest import (
    US_PER_HOUR,
    US_PER_S,
    CsvSchema,
    FrameSeries,
    ModeRule,
    RecordTable,
    classify_mode,
    spread_anchors,
    time_axis,
    write_records_csv,
)
from .models import load_terms, new_air_supply, refrigerator_supply
from .regression import assemble

T_IN_FLOOR = -20.0
T_IN_CEILING = 60.0
CORRELATION_LIMIT = 0.99


class IdentifiabilityWarning(UserWarning):
    """The generated regressor columns are close to collinear."""


@dataclass(frozen=True)
class OutdoorProfile:
    """Sinusoidal outdoor temperature with a daily period."""

    mean: float = 31.0
    amplitude: float = 6.0
    peak_hour: float = 15.0

    def temperature(self, hour_of_day: float) -> float:
        return self.mean + self.amplitude * math.cos(
            2.0 * math.pi * (hour_of_day - self.peak_hour) / 24.0
        )


@dataclass(frozen=True)
class PassengerProfile:
    """Daily passenger flow shape.

    Weekdays concentrate the flow in two rush peaks; weekends spread it
    almost uniformly across the open hours.
    """

    kind: str = "weekday"
    daily_total: int = 2000
    morning_peak_hour: float = 8.0
    evening_peak_hour: float = 18.0
    peak_width_hours: float = 1.5
    base_weight: float = 0.05
    open_hour: int = 8
    close_hour: int = 20

    def __post_init__(self):
        if self.kind not in ("weekday", "weekend"):
            raise ValueError(f"kind must be 'weekday' or 'weekend', got {self.kind!r}")
        if self.daily_total < 0:
            raise ValueError("daily_total must be nonnegative")
        if not (self.peak_width_hours > 0 and self.peak_width_hours**2 > 0):
            raise ValueError(f"peak_width_hours must be positive, its square too, got {self.peak_width_hours}")
        if not self.base_weight >= 0:
            raise ValueError(f"base_weight must be nonnegative, got {self.base_weight}")
        if not math.fsum(self.hourly_weights()) > 0:
            raise ValueError("the hourly weights must have a positive total")

    def hourly_weights(self) -> list[float]:
        weights = []
        for hour in range(24):
            center = hour + 0.5
            if self.kind == "weekday":
                spread = 2.0 * self.peak_width_hours**2
                weight = (
                    math.exp(-((center - self.morning_peak_hour) ** 2) / spread)
                    + math.exp(-((center - self.evening_peak_hour) ** 2) / spread)
                    + self.base_weight
                )
            else:
                weight = 1.0 if self.open_hour <= hour < self.close_hour else self.base_weight
            weights.append(weight)
        return weights

    def hourly_counts(self) -> list[int]:
        """Integer passenger count per hour of one day.

        Largest-remainder allocation, so the 24 counts sum to
        daily_total exactly.
        """
        weights = self.hourly_weights()
        total_weight = math.fsum(weights)
        quotas = [self.daily_total * w / total_weight for w in weights]
        counts = [math.floor(q) for q in quotas]
        leftover = self.daily_total - sum(counts)
        fractions = np.array([q - c for q, c in zip(quotas, counts)])
        for hour in np.argsort(-fractions, kind="stable")[:leftover]:
            counts[int(hour)] += 1
        return counts


@dataclass(frozen=True)
class HvacPlant:
    """Thermostat schedule, capacities, and water loop parameters.

    The controller engages cooling above setpoint + deadband and
    releases it below setpoint - deadband. While engaged it asks for the
    current load plus recovery_fraction of the remaining error per step,
    prefers outdoor air whenever it is usefully cooler than the zone,
    and serves the rest from a chiller that only runs on whole stages.
    """

    on_hour: float = 5.0
    off_hour: float = 23.0
    setpoint: float = 26.0
    deadband: float = 1.0
    recovery_fraction: float = 0.15
    e_v_max: float = 1300.0
    e_v_min_fraction: float = 0.05
    refrigerator_max: float = 9000.0
    refrigerator_stages: int = 10
    water_delta_t: float = 5.0
    water_supply_temp: float = 7.0
    new_air_min_advantage: float = 3.0

    def __post_init__(self):
        if self.e_v_max < 0 or self.refrigerator_max < 0:
            raise ValueError("capacities must be nonnegative")
        if not 0 < self.e_v_min_fraction <= 1:
            raise ValueError("e_v_min_fraction must be in (0, 1]")
        if self.refrigerator_stages < 1:
            raise ValueError("need at least one chiller stage")
        if self.water_delta_t <= 0:
            raise ValueError("water_delta_t must be positive")

    def in_schedule(self, hour_of_day: float) -> bool:
        if self.on_hour <= self.off_hour:
            return self.on_hour <= hour_of_day < self.off_hour
        return hour_of_day >= self.on_hour or hour_of_day < self.off_hour

    def stage_supply(self, demand: float) -> float:
        """Chiller output for a demand: whole stages, rounded up, capped."""
        if demand <= 0 or self.refrigerator_max == 0:
            return 0.0
        stage = self.refrigerator_max / self.refrigerator_stages
        return min(math.ceil(demand / stage) * stage, self.refrigerator_max)


@dataclass(frozen=True)
class NoiseModel:
    """Sensor corruption for emitted temperature channels."""

    temp_std: float = 0.0
    temp_quantization: float = 0.0

    def __post_init__(self):
        if self.temp_std < 0 or self.temp_quantization < 0:
            raise ValueError("noise parameters must be nonnegative")

    def apply(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noisy = values
        if self.temp_std > 0:
            noisy = noisy + rng.normal(0.0, self.temp_std, size=len(values))
        if self.temp_quantization > 0:
            noisy = np.round(noisy / self.temp_quantization) * self.temp_quantization
        return noisy


@dataclass(frozen=True)
class Scenario:
    """Complete description of one synthetic run.

    The defaults form the reference scenario: a three day weekday run at
    minute resolution (plus one closing row so the last hour keeps its
    anchor) around the coefficient triple (100, 50, 2000). Its energy
    convention is kilojoules per step, hence c = 1.21 rather than the
    joule-scale library default.
    """

    duration_steps: int = 4321
    start: datetime = datetime(2021, 6, 1, tzinfo=timezone.utc)
    seed: int = 0
    theta_true: Theta = Theta(c_p=100.0, alpha=50.0, beta_ac=2000.0)
    constants: StationConstants = StationConstants(
        c=1.21, m_z=12000.0, t_p=37.0, beta_v=100.0, step=60.0
    )
    outdoor: OutdoorProfile = OutdoorProfile()
    passengers: PassengerProfile = PassengerProfile()
    hvac: HvacPlant = HvacPlant()
    noise: NoiseModel = NoiseModel()
    initial_t_in: Optional[float] = None

    def __post_init__(self):
        if self.duration_steps < 2:
            raise ValueError("duration_steps must be at least 2")
        if self.start.tzinfo is None:
            object.__setattr__(self, "start", self.start.replace(tzinfo=timezone.utc))


def _hour_of_day(local_us: np.ndarray) -> np.ndarray:
    """ts.hour + ts.minute / 60 + ts.second / 3600 + ts.microsecond / 3.6e9
    of each wall-clock time, given as int64 microseconds."""
    hour, rest = np.divmod(local_us % (24 * US_PER_HOUR), US_PER_HOUR)
    minute, rest = np.divmod(rest, 60 * US_PER_S)
    second, microsecond = np.divmod(rest, US_PER_S)
    return hour + minute / 60.0 + second / 3600.0 + microsecond / 3.6e9


def _hourly_anchors(scenario: Scenario, local_us: np.ndarray) -> np.ndarray:
    """The anchor column: NaN except on the grid rows after the first that
    sit on a wall-clock hour H, which carry the count for [H-1h, H)."""
    anchors = np.full(len(local_us), np.nan)
    rows = np.flatnonzero(local_us[1:] % US_PER_HOUR == 0) + 1
    day_counts = np.array(scenario.passengers.hourly_counts(), dtype=float)
    anchors[rows] = day_counts[(local_us[rows] // US_PER_HOUR - 1) % 24]
    return anchors


def simulate(scenario: Scenario) -> tuple[FrameSeries, np.ndarray]:
    """Integrate the scenario forward and return frames plus the anchor
    column, one float a step, as emit_csv writes it.

    The latent indoor temperature evolves by
        T(i+1) = T(i) + (load - supply) / (c * m_z)
    with load and supply the term functions of `models` evaluated on the
    latent state, one call each a step. Emitted frames carry the noisy
    sensor view of the temperatures; frame deltas are differences of the
    emitted indoor channel, exactly what a consumer re-derives from the
    CSV.

    Steps are absolute time; clock times (the hour of day, the hourly
    anchors) read the start's UTC offset throughout.

    Raises DivergedState if the latent temperature leaves a plausible
    range, and warns with IdentifiabilityWarning when the refrigerator
    rows it generates are too collinear to pin the coefficients down.
    """
    constants = scenario.constants
    theta = scenario.theta_true
    plant = scenario.hvac
    n_steps = scenario.duration_steps
    grid = time_axis(scenario.start, constants.step, n_steps)
    local_us = grid + scenario.start.utcoffset() // timedelta(microseconds=1)

    anchors = _hourly_anchors(scenario, local_us)
    n_per_step = spread_anchors(anchors, scenario.start, constants.step)
    if scenario.passengers.daily_total > 0 and np.isnan(anchors).all():
        warnings.warn(
            "no grid row falls on an hour boundary; passenger counts are all zero",
            UserWarning,
            stacklevel=2,
        )
    hours = _hour_of_day(local_us).tolist()
    n_list = n_per_step.tolist()

    e_v_min = plant.e_v_min_fraction * plant.e_v_max

    latent_t = np.empty(n_steps)
    t_out_series = np.empty(n_steps)
    water_in_series = np.empty(n_steps)
    water_out_series = np.full(n_steps, plant.water_supply_temp, dtype=float)
    v_cool_series = np.empty(n_steps)
    e_v_series = np.empty(n_steps)

    temperature = scenario.initial_t_in if scenario.initial_t_in is not None else plant.setpoint
    cooling_on = False
    for i in range(n_steps):
        latent_t[i] = temperature
        hour = hours[i]
        t_out = scenario.outdoor.temperature(hour)
        t_out_series[i] = t_out

        l_pil, l_eil = load_terms(theta.c_p, theta.alpha, n_list[i], temperature, t_out, constants.t_p)
        load_total = l_pil + l_eil

        error = temperature - plant.setpoint
        if not plant.in_schedule(hour):
            cooling_on = False
        elif cooling_on and error < -plant.deadband:
            cooling_on = False
        elif not cooling_on and error > plant.deadband:
            cooling_on = True

        # the ventilation path is active exactly when classify_mode says so under e_v_idle=0
        e_v = 0.0
        supply_na = 0.0
        supply_ref = 0.0
        if cooling_on:
            demand = max(load_total + constants.thermal_mass * error * plant.recovery_fraction, 0.0)
            advantage = temperature - t_out
            if demand > 0 and advantage >= plant.new_air_min_advantage and plant.e_v_max > 0:
                try:
                    e_v_needed = (demand / (constants.c * advantage) / constants.beta_v) ** 3
                except (ZeroDivisionError, OverflowError):
                    # no fan power serves it: air that moves no heat, or a need past the float range
                    e_v_needed = math.inf
                e_v = min(max(e_v_needed, e_v_min), plant.e_v_max)
                supply_na = new_air_supply(e_v, temperature, t_out, constants)
                if e_v < e_v_needed:
                    # the fan is at its cap; the chiller serves the rest
                    supply_ref = plant.stage_supply(demand - supply_na)
            elif demand > 0:
                supply_ref = plant.stage_supply(demand)

        v_cool = 0.0
        water_in = plant.water_supply_temp
        if supply_ref > 0 and theta.beta_ac > 0:
            v_cool = supply_ref / (theta.beta_ac * plant.water_delta_t)
            water_in = plant.water_supply_temp + plant.water_delta_t
        v_cool_series[i], water_in_series[i], e_v_series[i] = v_cool, water_in, e_v
        supply_total = supply_na + refrigerator_supply(theta.beta_ac, water_in, plant.water_supply_temp, v_cool)

        temperature = temperature + (load_total - supply_total) / constants.thermal_mass
        if not (T_IN_FLOOR <= temperature <= T_IN_CEILING):
            raise DivergedState(i, temperature)

    rng = np.random.default_rng(scenario.seed)
    emitted_t_in = scenario.noise.apply(latent_t, rng)
    emitted_t_out = scenario.noise.apply(t_out_series, rng)
    emitted_water_in = scenario.noise.apply(water_in_series, rng)
    emitted_water_out = scenario.noise.apply(water_out_series, rng)

    series = FrameSeries(
        start=scenario.start,
        step=constants.step,
        t_in=emitted_t_in,
        t_out=emitted_t_out,
        n=n_per_step,
        t_water_in=emitted_water_in,
        t_water_out=emitted_water_out,
        v_cool_w=v_cool_series,
        e_v=e_v_series,
        mode=classify_mode(v_cool_series, water_in_series, water_out_series, e_v_series, ModeRule(e_v_idle=0.0)),
    )

    _warn_if_collinear(series, constants)
    return series, anchors


def _warn_if_collinear(series: FrameSeries, constants: StationConstants) -> None:
    try:
        matrix = assemble(series, constants).rows
    except EmptySystem:
        return
    if len(matrix) < 3:
        return
    for first, second in ((0, 1), (0, 2), (1, 2)):
        x = matrix[:, first]
        y = matrix[:, second]
        if x.std() == 0.0 or y.std() == 0.0:
            correlation = 1.0
        else:
            correlation = abs(float(np.corrcoef(x, y)[0, 1]))
        if correlation > CORRELATION_LIMIT:
            warnings.warn(
                f"regressor columns {first} and {second} have correlation "
                f"{correlation:.4f}; the fit may not be identifiable",
                IdentifiabilityWarning,
                stacklevel=3,
            )


def emit_csv(
    series: FrameSeries,
    anchors: np.ndarray,
    path: str,
    schema: CsvSchema = CsvSchema(),
) -> None:
    """Write the series in the dataset CSV layout, one indoor and one
    outdoor channel, with the anchor column as the passengers column."""
    table = RecordTable(
        timestamp=series.micros.view("datetime64[us]"),
        indoor=series.t_in[:, None],
        outdoor=series.t_out[:, None],
        t_water_in=series.t_water_in,
        t_water_out=series.t_water_out,
        v_cool_w=series.v_cool_w,
        e_v=series.e_v,
        passengers=anchors,
    )
    write_records_csv(table, path, schema)

