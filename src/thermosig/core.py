"""Core value types shared by every stage of the pipeline.

All types here are immutable: constants, coefficients and signatures get
passed between ingestion, model evaluation, and fitting code without
defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class HvacMode(Enum):
    """Operating regime of the station cooling plant for one step."""

    NEW_AIR = "new_air"
    REFRIGERATOR = "refrigerator"
    MIXED = "mixed"
    OFF = "off"


@dataclass(frozen=True)
class StationConstants:
    """Physical constants of one station.

    c is the volumetric heat capacity of air, in energy units per cubic
    metre per kelvin. The energy unit is a convention shared by the whole
    dataset; loads, supplies, and e_v must all use the same one.
    m_z is the conditioned air volume, t_p the passenger body temperature,
    beta_v the fan affinity coefficient mapping e_v**(1/3) to airflow,
    and step the sample interval in seconds.
    """

    c: float = 1210.0
    m_z: float = 10000.0
    t_p: float = 37.0
    beta_v: float = 30.0
    step: float = 60.0

    def __post_init__(self):
        if not (self.c > 0 and self.m_z > 0 and self.step > 0):
            raise ValueError("c, m_z, and step must be positive")
        if self.beta_v < 0:
            raise ValueError("beta_v must be nonnegative")
        if not (30.0 <= self.t_p <= 40.0):
            raise ValueError(f"t_p={self.t_p} outside plausible body temperature range")

    @property
    def thermal_mass(self) -> float:
        """Energy needed to raise the whole zone by one kelvin (c * m_z)."""
        return self.c * self.m_z


@dataclass(frozen=True)
class Theta:
    """Identified coefficient triple.

    beta_ac is stored positive; formulas that need the negative sign on
    the water column apply it explicitly.
    """

    c_p: float
    alpha: float
    beta_ac: float


def theta_is_feasible(theta: Theta) -> bool:
    """Constraint set of the fit: c_p > 0, alpha > 0, beta_ac >= 0."""
    return theta.c_p > 0 and theta.alpha > 0 and theta.beta_ac >= 0


@dataclass(frozen=True, eq=False)
class LoadSignature:
    """Per-frame load decomposition for the frames that have a delta.

    All series are read-only float arrays of one length. residual is the
    closure of the energy balance: l_total - supply - thermal_mass * delta
    per frame.
    """

    l_total: np.ndarray
    l_passenger: np.ndarray
    l_environment: np.ndarray
    supply: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        names = ("l_total", "l_passenger", "l_environment", "supply", "residual")
        for name in names:
            column = np.asarray(getattr(self, name), dtype=float)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if len({getattr(self, name).shape for name in names}) != 1:
            raise ValueError("signature series must all share one length")
        # math.isclose(l_total, l_passenger + l_environment, rel_tol=1e-12, abs_tol=1e-9) per frame
        parts = self.l_passenger + self.l_environment
        tolerance = np.maximum(1e-12 * np.maximum(np.abs(self.l_total), np.abs(parts)), 1e-9)
        if not ((self.l_total == parts) | (np.abs(self.l_total - parts) <= tolerance)).all():
            raise ValueError("l_total must equal l_passenger + l_environment")
