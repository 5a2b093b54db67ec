"""Acceptance suite: one test per release criterion, each printing a
single [PASS]/[FAIL] verdict line.

Criteria 1, 3, 4, 5, and 9 run against the reference scenario (the
Scenario defaults); the rest are self-contained property checks.
"""

import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np

from thermosig import (
    GridSpec,
    NoiseModel,
    RegressionSystem,
    Theta,
    assemble,
    balance_target,
    best_beta,
    fan_airflow,
    grid_fit,
    integrate,
    load,
    objective,
    simulate,
    spread_anchors,
    supply,
)
from thermosig.cli import EXIT_OK, main

TRUTH = Theta(c_p=100.0, alpha=50.0, beta_ac=2000.0)


def _criterion(number: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number}: {description}"


def _coefficient_errors(estimate: Theta, truth: Theta = TRUTH) -> dict:
    return {
        name: abs(getattr(estimate, name) - getattr(truth, name)) / abs(getattr(truth, name))
        for name in ("c_p", "alpha", "beta_ac")
    }


def test_criterion_1_exact_recovery_within_budget(reference_run, reference_frames, reference_scenario):
    """A noiseless reference run, re-read from disk, is solved exactly on
    a linear 200 x 200 grid inside the 60 second budget."""
    _, _, identifiability = reference_run
    system = integrate(assemble(reference_frames, reference_scenario.constants))

    grid = GridSpec(spacing="linear")  # 200 cells per axis, 2 refinement passes
    started = time.perf_counter()
    with warnings.catch_warnings():
        # alpha = 50 sits exactly on the lowest axis point, so the
        # boundary flag fires; that is the flag doing its job
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = grid_fit(system, grid=grid, use_integrated=True)
    elapsed = time.perf_counter() - started

    conditions = [
        identifiability == [],
        (fit.theta.c_p, fit.theta.alpha) == (TRUTH.c_p, TRUTH.alpha),
        abs(fit.theta.beta_ac - TRUTH.beta_ac) / TRUTH.beta_ac <= 1e-6,
        fit.relative_error <= 1e-9,
        fit.hit_bound,  # honest: the true alpha is the axis' first point
        elapsed <= 60.0,
    ]
    _criterion(
        1,
        f"noiseless reference recovered exactly, c_p={fit.theta.c_p:g} "
        f"alpha={fit.theta.alpha:g} beta_ac={fit.theta.beta_ac:.6f}, "
        f"relative_error={fit.relative_error:.2e}, {elapsed:.1f}s of 60s",
        all(conditions),
    )


def test_criterion_2_inner_solve_matches_exhaustive_scan():
    """On 1000 random systems the closed-form beta is never beaten by a
    scan over every breakpoint, and the clamp at zero gets exercised."""
    rng = np.random.default_rng(2024)
    worst_slack = 0.0
    clamped = 0
    for _ in range(1000):
        n_rows = int(rng.integers(2, 51))
        rows = np.column_stack([
            rng.uniform(0.1, 50.0, n_rows),
            rng.uniform(0.1, 20.0, n_rows),
            rng.uniform(-5.0, 5.0, n_rows),
        ])
        if not (rows[:, 2] != 0.0).any():
            rows[0, 2] = 1.0
        targets = rng.normal(0.0, 200.0, n_rows)
        system = RegressionSystem(rows=rows, targets=targets)
        c_p = float(rng.uniform(0.1, 20.0))
        alpha = float(rng.uniform(0.1, 20.0))

        residual = c_p * rows[:, 0] + alpha * rows[:, 1] - targets
        nonzero = rows[:, 2] != 0.0
        candidates = {0.0} | {
            max(r, 0.0) for r in (residual[nonzero] / rows[:, 2][nonzero]).tolist()
        }

        def numerator(beta):
            return float(np.abs(residual - beta * rows[:, 2]).sum())

        beta = best_beta(c_p, alpha, system)
        if beta == 0.0:
            clamped += 1
        scan_best = min(numerator(b) for b in candidates)
        slack = numerator(beta) - scan_best
        worst_slack = max(worst_slack, slack / max(scan_best, 1.0))

    _criterion(
        2,
        f"closed-form inner solve optimal on 1000 random systems "
        f"(worst slack {worst_slack:.2e}, {clamped} clamped at zero)",
        worst_slack <= 1e-9 and clamped >= 1,
    )


def test_criterion_3_integration_beats_raw_under_sensor_noise(reference_scenario):
    """Ten noisy trials (0.1 C quantization, 0.05 C jitter): the
    integrated fit stays within 25% per coefficient and is not worse
    than the raw fit on at least eight."""
    grid = GridSpec(cells=80, refinement_passes=2)
    noise = NoiseModel(temp_std=0.05, temp_quantization=0.1)
    wins = 0
    worst_integrated = 0.0
    for seed in range(10):
        scenario = replace(reference_scenario, seed=seed, noise=noise)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series, _ = simulate(scenario)
            system = integrate(assemble(series, scenario.constants))
            raw = _coefficient_errors(grid_fit(system, grid=grid, use_integrated=False).theta)
            integ = _coefficient_errors(grid_fit(system, grid=grid, use_integrated=True).theta)
        if all(integ[k] <= raw[k] for k in integ):
            wins += 1
        worst_integrated = max(worst_integrated, max(integ.values()))

    _criterion(
        3,
        f"integrated fit within 25% on all 10 noisy trials "
        f"(worst {worst_integrated * 100:.1f}%) and not worse than raw on "
        f"{wins}/10 (need 8)",
        worst_integrated <= 0.25 and wins >= 8,
    )


def test_criterion_4_energy_balance_closes_on_reingested_data(reference_frames, reference_scenario):
    """Load minus supply equals thermal mass times the step delta on
    every frame of the re-ingested noiseless reference."""
    constants = reference_scenario.constants
    # every frame but the last has a delta
    l_total, _, _ = load(reference_frames, TRUTH, constants)
    supplied = supply(reference_frames, TRUTH, constants).total
    residual = l_total[:-1] - supplied[:-1] - balance_target(reference_frames, constants)
    worst = float(np.abs(residual).max())
    scale = float(np.abs(l_total[:-1]).max())
    _criterion(
        4,
        f"balance residual {worst:.2e} within 1e-9 of the load scale {scale:.0f}",
        worst <= 1e-9 * scale,
    )


def test_criterion_5_objective_is_exact_and_unit_invariant(reference_frames, reference_scenario):
    """The misfit vanishes at the true coefficients and is bit-identical
    under power-of-two unit rescaling of the whole system."""
    system = integrate(assemble(reference_frames, reference_scenario.constants))
    at_truth_raw = objective(TRUTH, system, use_integrated=False)
    at_truth_integrated = objective(TRUTH, system, use_integrated=True)

    rng = np.random.default_rng(55)
    invariant = True
    for _ in range(20):
        n_rows = int(rng.integers(3, 40))
        rows = np.column_stack([
            rng.uniform(0.5, 50.0, n_rows),
            rng.uniform(0.5, 20.0, n_rows),
            rng.uniform(-5.0, 5.0, n_rows),
        ])
        targets = rng.normal(0.0, 100.0, n_rows)
        theta = Theta(*rng.uniform(0.5, 10.0, 3))
        base = objective(theta, RegressionSystem(rows=rows, targets=targets))
        for k in (2.0, 0.25, 2.0**20, 2.0**-20):
            scaled = RegressionSystem(rows=rows * k, targets=targets * k)
            invariant &= objective(theta, scaled) == base

    _criterion(
        5,
        f"objective at truth {at_truth_raw:.2e} raw / {at_truth_integrated:.2e} "
        f"integrated (bound 1e-12), power-of-two unit rescale exact",
        at_truth_raw <= 1e-12 and at_truth_integrated <= 1e-12 and invariant,
    )


def test_criterion_6_passenger_interpolation_conserves_counts():
    """For 100 random anchor sets every fully covered hour's per-step
    counts sum back to the anchor exactly."""
    from datetime import datetime, timezone

    start = datetime(2021, 6, 1, 9, 0, tzinfo=timezone.utc)
    rng = np.random.default_rng(66)
    exact = True
    nonnegative = True
    for _ in range(100):
        counts = rng.integers(0, 20000, size=6)
        # a 361-row grid, so the 15:00 anchor sits on a row
        anchors = np.full(361, np.nan)
        anchors[60::60] = counts
        values = spread_anchors(anchors, start, 60.0).tolist()
        nonnegative &= min(values) >= 0.0
        for hour, count in enumerate(counts):
            exact &= math.fsum(values[hour * 60:(hour + 1) * 60]) == float(count)

    _criterion(
        6,
        "hourly counts conserved exactly over 100 random anchor sets",
        exact and nonnegative,
    )


def test_criterion_7_fan_affinity_law():
    """Eightfold ventilator power doubles the modeled airflow."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        e_v = float(rng.uniform(1e-6, 1e5))
        beta_v = float(rng.uniform(0.1, 500.0))
        ratio = fan_airflow(8.0 * e_v, beta_v) / fan_airflow(e_v, beta_v)
        worst = max(worst, abs(ratio - 2.0) / 2.0)
    _criterion(
        7,
        f"8x power gives 2x airflow within {worst:.2e} (bound 1e-12)",
        worst <= 1e-12,
    )


def test_criterion_8_decomposition_tracks_the_dominant_load(tmp_path):
    """An almost empty station decomposes as environment-dominant, a
    crowded temperate one as passenger-dominant, end to end via the CLI."""
    constants = {"c": 1.21, "m_z": 12000.0, "t_p": 37.0, "beta_v": 100.0, "step": 60.0}

    def run(name: str, daily_total: int) -> dict:
        scenario = {
            "duration_steps": 1441,
            "constants": constants,
            "passengers": {"daily_total": daily_total},
        }
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"constants": constants, "scenario": scenario}))
        sim_dir = tmp_path / name
        assert main(["simulate", "--config", str(config), "--out", str(sim_dir)]) == EXIT_OK
        sig_dir = tmp_path / f"{name}_sig"
        code = main([
            "signature", "--config", str(config),
            "--dataset", str(sim_dir / "dataset.csv"),
            "--theta", str(sim_dir / "truth.json"),
            "--out", str(sig_dir),
        ])
        assert code == EXIT_OK
        return json.loads((sig_dir / "summary.json").read_text())["shares"]

    envelope = run("envelope", daily_total=100)
    crowded = run("crowded", daily_total=4000)
    conditions = [
        envelope["environment_share"] > envelope["passenger_share"],
        crowded["passenger_share"] > crowded["environment_share"],
    ]
    _criterion(
        8,
        f"environment share {envelope['environment_share']:.2f} dominates the "
        f"quiet station, passenger share {crowded['passenger_share']:.2f} the "
        f"crowded one",
        all(conditions),
    )


def test_criterion_9_results_independent_of_thread_count(reference_csv, tmp_path, monkeypatch):
    """The fit artifacts are byte-identical for 1, 4, and 8 worker
    threads."""
    constants = {"c": 1.21, "m_z": 12000.0, "t_p": 37.0, "beta_v": 100.0, "step": 60.0}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "constants": constants,
        "grid": {"cells": 60, "refinement_passes": 2},
    }))

    artifacts = []
    for threads in ("1", "4", "8"):
        monkeypatch.setenv("THERMOSIG_THREADS", threads)
        out = tmp_path / f"threads_{threads}"
        code = main(["fit", "--config", str(config), "--dataset", reference_csv,
                     "--out", str(out)])
        assert code == EXIT_OK
        artifacts.append(
            ((out / "fit.json").read_bytes(), (out / "error_surface.csv").read_bytes())
        )

    identical = artifacts[0] == artifacts[1] == artifacts[2]
    _criterion(9, "fit.json and error_surface.csv byte-identical across 1/4/8 threads", identical)
