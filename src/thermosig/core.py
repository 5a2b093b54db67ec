"""Core value types shared by every stage of the pipeline.

All types here are immutable: constants and coefficients get passed
between ingestion, model evaluation, and fitting code without defensive
copies. from_json is the one decoder from parsed JSON to any of the
package's frozen dataclasses.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, is_dataclass
from datetime import datetime
from enum import Enum


class FieldError(ValueError):
    """A value out of range for one dataclass field; from_json names its key path."""

    def __init__(self, field: str, rule: str):
        self.field = field
        super().__init__(f"{field} {rule}")


def require(ok: bool, field: str, rule: str) -> None:
    """Raise FieldError(field, rule) unless ok; write ok so that NaN fails it (x >= 0, not not x < 0)."""
    if not ok:
        raise FieldError(field, rule)


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
        for name in ("c", "m_z", "step"):
            require(getattr(self, name) > 0, name, "must be positive")
        require(self.beta_v >= 0, "beta_v", "must be nonnegative")
        require(30.0 <= self.t_p <= 40.0, "t_p", f"must be a body temperature in [30, 40], got {self.t_p}")

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


# the JSON value types a scalar field takes, and their name; a bool is no int here
_JSON_TYPES = {float: ((int, float), "a finite number"), int: ((int,), "an integer"), str: ((str,), "a string")}


def from_json(cls, raw, where: str):
    """The dataclass cls from a parsed JSON object, nested dataclasses
    decoded in turn. Omitted keys take their default; unknown keys, and
    values that do not fit the field's type hint, raise ValueError naming
    the key path (where.key.key). A float takes a finite JSON number,
    kept as given; an int an integer, never a boolean; a str a string; a
    datetime an ISO 8601 string; an Enum one of its values; a frozenset a
    list; an Optional also null. A range check of __post_init__ that
    raises FieldError raises "<where>.<field> ..."; a check across
    fields, or a required key left out, raises "bad <where>: ...".
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be an object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    kwargs = {name: _decode(hints[name], value, f"{where}.{name}") for name, value in raw.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}.{exc}" if isinstance(exc, FieldError) else f"bad {where}: {exc}") from None


def _decode(hint, value, where: str):
    if typing.get_origin(hint) is typing.Union:
        if value is None:
            return None
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if is_dataclass(hint):
        return from_json(hint, value, where)
    if typing.get_origin(hint) is frozenset:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return frozenset(_decode(typing.get_args(hint)[0], item, f"{where}[{i}]") for i, item in enumerate(value))
    if issubclass(hint, Enum):
        choices = [member.value for member in hint]
        if value not in choices:
            raise ValueError(f"{where} must be one of {choices}, got {value!r}")
        return hint(value)
    if hint is datetime:
        try:
            return datetime.fromisoformat(value)
        except (TypeError, ValueError):
            raise ValueError(f"{where} must be an ISO 8601 string, got {value!r}") from None
    accepted, name = _JSON_TYPES[hint]
    # json reads NaN and Infinity, which JSON itself does not have
    if type(value) not in accepted or (type(value) is float and not math.isfinite(value)):
        raise ValueError(f"{where} must be {name}, got {value!r}")
    return value
