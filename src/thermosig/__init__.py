"""Thermal load signature identification for subway station HVAC data."""

from .core import (
    HvacMode,
    StationConstants,
    Theta,
    theta_is_feasible,
)
from .ingest import (
    CsvSchema,
    FrameSeries,
    ModeRule,
    RecordTable,
    average_channels,
    build_frames,
    classify_mode,
    parse_csv,
    spread_anchors,
    write_records_csv,
)
from .models import balance_target, fan_airflow, load, supply
from .regression import (
    FitResult,
    GridSpec,
    RegressionSystem,
    assemble,
    best_beta,
    grid_fit,
    integrate,
    objective,
)
from .synth import (
    HvacPlant,
    NoiseModel,
    OutdoorProfile,
    PassengerProfile,
    Scenario,
    emit_csv,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "HvacMode",
    "StationConstants",
    "Theta",
    "theta_is_feasible",
    "CsvSchema",
    "FrameSeries",
    "ModeRule",
    "RecordTable",
    "average_channels",
    "build_frames",
    "classify_mode",
    "parse_csv",
    "spread_anchors",
    "write_records_csv",
    "balance_target",
    "fan_airflow",
    "load",
    "supply",
    "FitResult",
    "GridSpec",
    "RegressionSystem",
    "assemble",
    "best_beta",
    "grid_fit",
    "integrate",
    "objective",
    "HvacPlant",
    "NoiseModel",
    "OutdoorProfile",
    "PassengerProfile",
    "Scenario",
    "emit_csv",
    "simulate",
    "__version__",
]
