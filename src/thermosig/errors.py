"""Exception types raised across the package.

Every error carries enough context (row numbers, column names, timestamps)
to locate the offending input without re-running the pipeline.
"""

from __future__ import annotations

from datetime import datetime


class ThermosigError(Exception):
    """Base class for all package errors."""


class ConfigError(ThermosigError):
    """Run configuration is missing, malformed, or inconsistent."""


class IngestError(ThermosigError):
    """Base class for dataset ingestion errors."""


class MissingColumn(IngestError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column missing from header: {column!r}")


class UnreadableRow(IngestError):
    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class BadTimestamp(IngestError):
    def __init__(self, row: int, value: str):
        self.row = row
        self.value = value
        super().__init__(f"row {row}: unparseable timestamp {value!r}")


class BadNumber(IngestError):
    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: unparseable number {value!r}")


class NegativeValue(IngestError):
    def __init__(self, row: int, column: str, value: float):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: negative value {value}")


class UnsortedAnchors(IngestError):
    def __init__(self, at: datetime):
        self.at = at
        super().__init__(f"passenger anchors not strictly increasing at {at.isoformat()}")


class OffClockAnchor(IngestError):
    def __init__(self, at: datetime, first: datetime):
        self.at = at
        self.first = first
        super().__init__(
            f"passenger anchor at {at.isoformat()} is not a whole number of hours "
            f"after the first anchor at {first.isoformat()}"
        )


class MisalignedTimestamp(IngestError):
    def __init__(self, at: datetime):
        self.at = at
        super().__init__(f"timestamp {at.isoformat()} is not on the step grid")


class GapTooLong(IngestError):
    def __init__(self, at: datetime, length: int, max_gap: int):
        self.at = at
        self.length = length
        self.max_gap = max_gap
        super().__init__(
            f"gap of {length} steps at {at.isoformat()} exceeds fillable maximum of {max_gap}"
        )


class TooShort(IngestError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"need at least 2 frames, got {count}")


class RegressionError(ThermosigError):
    """Base class for system assembly and fitting errors."""


class EmptySystem(RegressionError):
    def __init__(self):
        super().__init__("no frames matched the mode filter; nothing to fit")


class NonPositiveDenominator(RegressionError):
    def __init__(self):
        super().__init__("objective denominator is not positive and finite for this theta")


class DegenerateColumn(RegressionError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"regressor column {column!r} is identically zero")


class NoFeasiblePoint(RegressionError):
    def __init__(self):
        super().__init__("no grid cell has a positive, finite objective denominator")


class DivergedState(ThermosigError):
    def __init__(self, step: int, temperature: float):
        self.step = step
        self.temperature = temperature
        super().__init__(
            f"simulated indoor temperature {temperature:.2f} C at step {step} "
            f"left the plausible range"
        )


class IoError(ThermosigError):
    """Filesystem failure while reading or writing an artifact."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")
