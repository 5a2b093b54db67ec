"""Command line front end.

Subcommands: simulate (write a synthetic dataset with its ground truth),
fit (identify coefficients from a dataset), signature (decompose the
load series under a given theta), and eval (compare raw and integrated
fits against a known truth).

Exit codes: 0 success, 1 missing files or other IO failures, 2 bad
configuration, 3 empty or degenerate inputs. Outputs are deterministic:
running a command twice on the same inputs produces identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .core import HvacMode, StationConstants, Theta, from_json
from .errors import ConfigError, IoError, RegressionError, ThermosigError
from .ingest import (
    CsvSchema, FrameSeries, ModeRule, build_frames, format_floats, isoformat_utc, parse_csv, time_axis, write_columns
)
from .models import balance_target, load, supply
from .regression import FitResult, GridSpec, RegressionSystem, assemble, grid_fit, integrate, objective
from .synth import Scenario, emit_csv, simulate

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs beyond its file arguments."""

    constants: StationConstants = StationConstants()
    schema: CsvSchema = CsvSchema()
    mode_rule: ModeRule = ModeRule()
    grid: GridSpec = GridSpec()
    mode_filter: frozenset[HvacMode] = frozenset({HvacMode.REFRIGERATOR})
    scenario: Optional[Scenario] = None
    out_dir: str = "."
    max_gap: int = 5

    def __post_init__(self):
        if self.max_gap < 0:
            raise ValueError(f"max_gap must be >= 0, got {self.max_gap}")


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise IoError(path, str(exc)) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_config(path: str) -> RunConfig:
    data = _read_json(path)
    try:
        return from_json(RunConfig, data, "config")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _thread_count() -> int:
    raw = os.environ.get("THERMOSIG_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"THERMOSIG_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"THERMOSIG_THREADS must be positive, got {threads}")
    return threads


def _write_json(path: str, payload: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise IoError(path, str(exc)) from None


def _ensure_out_dir(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(out_dir, str(exc)) from None


def _theta_from(data, path: str) -> Theta:
    """The theta section of a parsed fit.json or truth.json, decoded by
    from_json; integer coefficients read back as floats."""
    try:
        theta = from_json(Theta, data["theta"], "theta")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: missing or malformed theta: {exc}") from None
    return Theta(float(theta.c_p), float(theta.alpha), float(theta.beta_ac))


def _load_frames(config: RunConfig, dataset: str) -> FrameSeries:
    table = parse_csv(dataset, config.schema)
    return build_frames(table, config.constants, rule=config.mode_rule, max_gap=config.max_gap)


def _system(config: RunConfig, series: FrameSeries) -> RegressionSystem:
    return integrate(assemble(series, config.constants, config.mode_filter))


def _dataset_entry(series: FrameSeries) -> dict:
    """truth.json's description of the dataset, which eval checks key by key."""
    start = isoformat_utc(time_axis(series.start, series.step, 1))[0]
    return {"rows": len(series), "start": start, "step": series.step}


def _fit_payload(result: FitResult) -> dict:
    return {
        "theta": asdict(result.theta),
        "relative_error": result.relative_error,
        "grid": asdict(result.grid),
        "mode_frames_used": result.mode_frames_used,
        "used_integration": result.used_integration,
        "hit_bound": result.hit_bound,
    }


def cmd_simulate(config: RunConfig, out_dir: str) -> None:
    """Write dataset.csv and truth.json for the configured scenario."""
    if config.scenario is None:
        raise ConfigError("simulate needs a 'scenario' section in the config")
    scenario = config.scenario
    series, anchors = simulate(scenario)
    _ensure_out_dir(out_dir)
    dataset_path = os.path.join(out_dir, "dataset.csv")
    emit_csv(series, anchors, dataset_path, config.schema)
    _write_json(
        os.path.join(out_dir, "truth.json"),
        {
            "theta": asdict(scenario.theta_true),
            "constants": asdict(scenario.constants),
            "dataset": _dataset_entry(series),
        },
    )
    print(f"wrote {dataset_path} ({len(series)} rows) and truth.json")


def cmd_fit(config: RunConfig, dataset: str, out_dir: str, use_integrated: bool) -> FitResult:
    """Fit the dataset and write fit.json plus the initial error surface."""
    series = _load_frames(config, dataset)
    result = grid_fit(
        _system(config, series),
        grid=config.grid,
        use_integrated=use_integrated,
        threads=_thread_count(),
    )
    _ensure_out_dir(out_dir)
    _write_json(os.path.join(out_dir, "fit.json"), _fit_payload(result))

    write_columns(
        os.path.join(out_dir, "error_surface.csv"),
        ["c_p", "alpha", "beta_ac", "objective"],
        [(format_floats, column) for column in result.surface.T],
        "\n",
    )
    print(
        f"fit: c_p={result.theta.c_p:g} alpha={result.theta.alpha:g} "
        f"beta_ac={result.theta.beta_ac:g} relative_error={result.relative_error:.6g}"
    )
    return result


def cmd_signature(config: RunConfig, dataset: str, theta_path: str, out_dir: str) -> None:
    """Decompose the dataset's load under theta; write signature.csv and
    summary.json, one row per frame that has a delta."""
    theta = _theta_from(_read_json(theta_path), theta_path)
    series = _load_frames(config, dataset)
    l_total, l_pil, l_eil = (column[:-1] for column in load(series, theta, config.constants))
    supplied = supply(series, theta, config.constants)[0][:-1]
    signature = {
        "l_total": l_total,
        "l_passenger": l_pil,
        "l_environment": l_eil,
        "supply": supplied,
        "residual": l_total - supplied - balance_target(series, config.constants),
    }

    relative_error = None
    try:
        relative_error = objective(theta, _system(config, series), use_integrated=True)
    except RegressionError:
        pass

    _ensure_out_dir(out_dir)
    write_columns(
        os.path.join(out_dir, "signature.csv"),
        ["timestamp", "mode", *signature],
        [
            (isoformat_utc, series.micros[:-1]),
            # _value_ is the plain attribute; Enum.value is a Python-level property
            (lambda modes: [mode._value_ for mode in modes.tolist()], series.mode[:-1]),
            *((format_floats, column) for column in signature.values()),
        ],
        "\n",
    )

    # builtin sum over Python floats in frame order, not the pairwise np.sum
    sums = {name: sum(column.tolist()) for name, column in signature.items() if name != "residual"}
    shares = {}
    if sums["l_total"] != 0.0:
        shares = {
            "passenger_share": sums["l_passenger"] / sums["l_total"],
            "environment_share": sums["l_environment"] / sums["l_total"],
        }
    _write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "frames": len(series) - 1,
            "theta": asdict(theta),
            "totals": sums,
            "shares": shares or None,
            "integrated_relative_error": relative_error,
        },
    )
    print(f"wrote signature.csv ({len(series) - 1} frames) and summary.json")


def _coefficient_errors(estimate: Theta, truth: Theta) -> dict:
    errors = {}
    for name in ("c_p", "alpha", "beta_ac"):
        est = getattr(estimate, name)
        true = getattr(truth, name)
        # relative where the truth is nonzero, absolute otherwise
        errors[name] = abs(est - true) / abs(true) if true != 0 else abs(est - true)
    return errors


def cmd_eval(config: RunConfig, dataset: str, truth_path: str, out_dir: str) -> None:
    """Fit the dataset both ways and compare against the known truth."""
    truth_data = _read_json(truth_path)
    theta_true = _theta_from(truth_data, truth_path)

    series = _load_frames(config, dataset)
    described = truth_data.get("dataset")
    if described is not None:
        if not isinstance(described, dict):
            raise ConfigError(f"{truth_path}: 'dataset' must be an object, got {described!r}")
        if not all(described.get(key) == value for key, value in _dataset_entry(series).items()):
            raise ConfigError(
                f"{truth_path} describes a different dataset "
                f"(rows/start/step do not match {dataset})"
            )

    system = _system(config, series)
    threads = _thread_count()
    raw_fit = grid_fit(system, grid=config.grid, use_integrated=False, threads=threads)
    integrated_fit = grid_fit(system, grid=config.grid, use_integrated=True, threads=threads)

    raw_errors = _coefficient_errors(raw_fit.theta, theta_true)
    integrated_errors = _coefficient_errors(integrated_fit.theta, theta_true)
    not_worse = all(integrated_errors[k] <= raw_errors[k] for k in raw_errors)

    _ensure_out_dir(out_dir)
    _write_json(
        os.path.join(out_dir, "eval.json"),
        {
            "theta_true": asdict(theta_true),
            "raw": {
                "theta": asdict(raw_fit.theta),
                "relative_error": raw_fit.relative_error,
                "coefficient_errors": raw_errors,
            },
            "integrated": {
                "theta": asdict(integrated_fit.theta),
                "relative_error": integrated_fit.relative_error,
                "coefficient_errors": integrated_errors,
            },
            "integrated_not_worse": not_worse,
        },
    )
    print(f"wrote eval.json (integrated_not_worse={not_worse})")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermosig",
        description="Identify and decompose the thermal load signature of a station",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=False, theta=None):
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        if dataset:
            p.add_argument("--dataset", required=True, help="input dataset CSV")
        if theta:
            p.add_argument("--theta", required=True, help=theta)
        p.add_argument("--out", default=None, help="output directory (default: config out_dir or '.')")

    common(sub.add_parser("simulate", help="generate a synthetic dataset with known truth"))
    fit = sub.add_parser("fit", help="identify the coefficient triple from a dataset")
    common(fit, dataset=True)
    fit.add_argument(
        "--raw",
        action="store_true",
        help="fit on the raw step balance instead of the prefix-summed one",
    )
    common(
        sub.add_parser("signature", help="decompose the load series under a given theta"),
        dataset=True,
        theta="fit.json or truth.json supplying the theta",
    )
    common(
        sub.add_parser("eval", help="compare raw and integrated fits against a known truth"),
        dataset=True,
        theta="truth.json written by simulate",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = args.out or config.out_dir
        if args.command == "simulate":
            cmd_simulate(config, out_dir)
        elif args.command == "fit":
            cmd_fit(config, args.dataset, out_dir, use_integrated=not args.raw)
        elif args.command == "signature":
            cmd_signature(config, args.dataset, args.theta, out_dir)
        elif args.command == "eval":
            cmd_eval(config, args.dataset, args.theta, out_dir)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ThermosigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
