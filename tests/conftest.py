"""Shared fixtures: the reference scenario simulated once per session,
plus its CSV round trip through the ingestion pipeline. Also the "ci"
hypothesis profile, a deeper run chosen with --hypothesis-profile=ci."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import settings

from thermosig import Scenario, build_frames, parse_csv, simulate
from thermosig.synth import IdentifiabilityWarning

# tests that set their own max_examples keep it under this profile too
settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def reference_scenario() -> Scenario:
    return Scenario()


@pytest.fixture(scope="session")
def reference_run(reference_scenario):
    """(series, anchors, warnings raised) for the noiseless reference."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IdentifiabilityWarning)
        series, anchors = simulate(reference_scenario)
    identifiability = [w for w in caught if issubclass(w.category, IdentifiabilityWarning)]
    return series, anchors, identifiability


@pytest.fixture(scope="session")
def reference_csv(reference_run, tmp_path_factory) -> str:
    from thermosig import emit_csv

    series, anchors, _ = reference_run
    path = tmp_path_factory.mktemp("reference") / "dataset.csv"
    emit_csv(series, anchors, str(path))
    return str(path)


@pytest.fixture(scope="session")
def reference_frames(reference_csv, reference_scenario):
    """The reference dataset as a consumer sees it: re-read from disk."""
    records = parse_csv(reference_csv)
    return build_frames(records, reference_scenario.constants)
