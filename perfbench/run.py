#!/usr/bin/env python3
"""End-to-end benchmark of the thermosig command line.

A run generates a dataset from `--seed` with `thermosig simulate`, then
drives one workload's commands through `thermosig.cli.main`, in this
process, as a closed loop: the next command starts when the previous one
returns. It keeps starting passes until `--seconds` would be exceeded, and
checks every command's outputs. The first pass warms up and is not timed.
With `--trace 1` plain and traced passes
alternate; a traced pass swaps the functions `thermosig.cli` imported for
timing wrappers (see tracing.py) and the run reports per-layer metrics.

Run it from the repository root:

    python3 perfbench/run.py --workload ref3d --seed 1 --seconds 55 --trace 0

The lines before the last describe the run: host, sizes, every metric with
its unit, sample count and the seed. The last line is one JSON object,
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every output check passed. Work files, the
results and the spans go to .perfbench/<workload>-seed<seed>-trace<0|1>/.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from tracing import Tracer, duration, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# the reference scenario of the acceptance suite, with criterion 3's sensor noise
CONSTANTS = {"c": 1.21, "m_z": 12000.0, "t_p": 37.0, "beta_v": 100.0, "step": 60.0}
THETA_TRUE = {"c_p": 100.0, "alpha": 50.0, "beta_ac": 2000.0}
NOISE = {"temp_std": 0.05, "temp_quantization": 0.1}
COEFFICIENTS = ("c_p", "alpha", "beta_ac")

SETUP_REPEATS = 5
MIN_PASSES = 3
# what a fresh `thermosig` process pays before its command runs
IMPORT_PROBE = "import time; t = time.perf_counter(); import thermosig.cli; print(time.perf_counter() - t)"


@dataclass(frozen=True)
class Workload:
    """One dataset size, grid and thread count, and the commands run on it.

    Each pass runs `fit_command` (`fit`, or `eval` for raw and integrated
    fits against the truth) and then `signature` on the resulting theta
    (fit.json, or truth.json after eval), `signatures` times in a row.
    """

    name: str
    steps: int
    cells: int
    passes: int
    threads: int
    fit_command: str
    # repeats of the short signature command per pass, so that its median rests on enough samples
    signatures: int
    # criterion 3's coefficient error bound, where the grid is criterion 3's. A fit
    # over it is reported as a finding, not as a failure: some seeds exceed it
    coef_bound: Optional[float]

    def config(self, seed: int) -> dict:
        return {
            "constants": CONSTANTS,
            "grid": {"cells": self.cells, "spacing": "log", "refinement_passes": self.passes},
            "scenario": {
                "duration_steps": self.steps,
                "seed": seed,
                "constants": CONSTANTS,
                "theta_true": THETA_TRUE,
                "noise": NOISE,
            },
        }

    def cells_per_pass(self) -> int:
        fits = 2 if self.fit_command == "eval" else 1
        return fits * self.cells**2 * (self.passes + 1)


WORKLOADS = {
    workload.name: workload
    for workload in (
        # acceptance-size dataset on criterion 3's grid: the grid fit is ~97% of fit_s
        Workload("ref3d", 4321, 80, 2, 1, "fit", 5, 0.25),
        # 30 days on a coarse grid: parse, frames, the models loop and artifacts dominate
        Workload("month30d", 43201, 12, 1, 1, "fit", 2, None),
        # ref3d through eval: raw fits sort unordered ratios, and both fits use the pool.
        # Not in BENCHMARK.json (see README.md); run it by name
        Workload("ref3d-eval", 4321, 80, 2, 2, "eval", 5, 0.25),
    )
}

END_TO_END = {"setup_s": "s", "fit_s": "s", "signature_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "synth.simulate_s": "s",
    "synth.emit_csv_s": "s",
    "synth.steps": "count",
    "ingest.parse_csv_s": "s",
    "ingest.build_frames_s": "s",
    "ingest.records": "count",
    "ingest.rows_per_s": "1/s",
    "regression.assemble_s": "s",
    "regression.integrate_s": "s",
    "regression.objective_s": "s",
    "regression.system_rows": "count",
    "regression.grid_fit_s": "s",
    "regression.cells": "count",
    "regression.cell_rows_per_s": "1/s",
    "regression.grid_fit_1t_s": "s",
    "regression.thread_speedup": "x",
    "regression.relative_error": "1",
    "regression.coef_err_max": "1",
    "models.calls": "count",
    "models.decompose_s": "s",
    "cli.fit.self_s": "s",
    "cli.signature.self_s": "s",
    "cli.artifact_bytes": "B",
    "trace.overhead_s": "s",
}
# reported beside the metrics above, but not compared across commits: the
# accuracy numbers vary from seed to seed by more than the largest allowed
# bound (0.25), and the failed share is 0 in every passing run
EXTRA_UNITS = {"objective": "1", "coef_err_max": "1", "coef_err_max_raw": "1", "ops_failed_frac": "1"}


class SetupFailed(Exception):
    """The dataset could not be generated, so there is nothing to measure."""


def load_package():
    """Import `thermosig.cli` from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("thermosig.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"thermosig was imported from {cli.__file__}, not from {SRC}")
    return cli


def fresh_import_seconds() -> float:
    """Seconds to import `thermosig.cli` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        return float(probe.stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        raise SetupFailed(f"importing thermosig in a new interpreter failed: {exc}") from None


def host_info() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def coefficient_errors(estimate, truth) -> dict:
    # the same expression as `thermosig eval`, so eval.json can be compared exactly
    return {
        name: abs(getattr(estimate, name) - getattr(truth, name)) / abs(getattr(truth, name))
        for name in COEFFICIENTS
    }


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload on one seed: set-up, the closed loop, checks and metrics."""

    def __init__(self, cli, workload: Workload, seed: int, workdir: Path):
        from thermosig import core, ingest, regression

        self.cli = cli
        self.core = core
        self.ingest = ingest
        self.regression = regression
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        self.data = workdir / "data"
        self.out = workdir / "out"
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.findings: list[str] = []
        self.digests: dict[str, str] = {}
        self.command_seconds: dict[str, list[float]] = defaultdict(list)
        self.setup_seconds: list[float] = []
        self.pass_walls: dict[bool, list[float]] = {False: [], True: []}
        self.artifact_bytes: list[int] = []
        self.traced_setups: list[str] = []
        self.traced_passes: list[str] = []
        self.accuracy: dict[str, float] = {}

    # -- commands ---------------------------------------------------------

    def _invoke(self, argv: list[str], traced: bool) -> tuple[Optional[int], float]:
        with redirect_stdout(io.StringIO()):
            if not traced:
                start = perf_counter()
                code = self.cli.main(argv)
                return code, perf_counter() - start
            with self.tracer.installed(self.cli), self.tracer.span("cli." + argv[0]) as span:
                code = self.cli.main(argv)
            return code, duration(span)

    def command(self, argv: list[str], out: Path, check: Callable[[], list[str]], traced: bool) -> float:
        """Run one CLI command, check its outputs, return its wall time."""
        argv = [argv[0], "--config", str(self.config_path), *argv[1:], "--out", str(out)]
        gc.collect()
        self.attempted += 1
        elapsed = float("nan")
        try:
            code, elapsed = self._invoke(argv, traced)
            problems = check() if code == 0 else [f"exit code {code}"]
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += 1
            for problem in problems:
                message = f"{argv[0]}: {problem}"
                self.failures.append(message)
                print(message, file=sys.stderr)
        return elapsed

    def same_bytes(self, directory: Path, *names: str) -> list[str]:
        problems = []
        for name in names:
            digest = _digest(directory / name)
            first = self.digests.setdefault(name, digest)
            if digest != first:
                problems.append(f"{name} differs from the first repeat of this run")
        return problems

    # -- output checks ----------------------------------------------------

    def check_simulate(self) -> list[str]:
        return self.same_bytes(self.data, "dataset.csv", "truth.json")

    def check_objective(self, label: str, reported: float, theta, integrated: bool) -> list[str]:
        expected = self.regression.objective(theta, self.system, use_integrated=integrated)
        if reported != expected:
            return [f"{label}: relative_error {reported!r} != recomputed objective {expected!r}"]
        return []

    def record_accuracy(self, label: str, theta, relative_error: float) -> None:
        errors = coefficient_errors(theta, self.truth)
        worst = max(errors.values())
        self.accuracy["objective"] = relative_error
        self.accuracy["coef_err_max"] = worst
        bound = self.workload.coef_bound
        finding = f"{label}: coefficient errors {errors} exceed criterion 3's bound {bound}"
        if bound is not None and worst > bound and finding not in self.findings:
            self.findings.append(finding)

    def check_fit(self) -> list[str]:
        problems = self.same_bytes(self.out, "fit.json", "error_surface.csv")
        fit = json.loads((self.out / "fit.json").read_text(encoding="utf-8"))
        theta = self.core.Theta(**fit["theta"])
        reported = fit["relative_error"]
        problems += self.check_objective("fit.json", reported, theta, integrated=True)
        lines = (self.out / "error_surface.csv").read_text(encoding="utf-8").splitlines()[1:]
        surface_min = min(float(line.rsplit(",", 1)[1]) for line in lines)
        if not reported <= surface_min:
            problems.append(f"fit.json: relative_error {reported!r} above the surface minimum {surface_min!r}")
        self.fit_theta = theta
        self.record_accuracy("fit.json", theta, reported)
        return problems

    def check_eval(self) -> list[str]:
        problems = self.same_bytes(self.out, "eval.json")
        data = json.loads((self.out / "eval.json").read_text(encoding="utf-8"))
        for key, integrated in (("raw", False), ("integrated", True)):
            part = data[key]
            theta = self.core.Theta(**part["theta"])
            problems += self.check_objective(f"eval.json {key}", part["relative_error"], theta, integrated)
            errors = coefficient_errors(theta, self.truth)
            if part["coefficient_errors"] != errors:
                problems.append(f"eval.json {key}: coefficient_errors {part['coefficient_errors']} != {errors}")
        self.accuracy["coef_err_max_raw"] = max(data["raw"]["coefficient_errors"].values())
        integrated = data["integrated"]
        self.fit_theta = self.core.Theta(**integrated["theta"])
        self.record_accuracy("eval.json integrated", self.fit_theta, integrated["relative_error"])
        return problems

    def check_signature(self) -> list[str]:
        problems = self.same_bytes(self.out, "signature.csv", "summary.json")
        rows = unbalanced = 0
        with open(self.out / "signature.csv", newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                rows += 1
                if float(row["l_total"]) != float(row["l_passenger"]) + float(row["l_environment"]):
                    unbalanced += 1
        if unbalanced:
            problems.append(f"signature.csv: {unbalanced} rows where l_total != l_passenger + l_environment")
        if rows != self.frames_with_delta:
            problems.append(f"signature.csv: {rows} rows, expected {self.frames_with_delta}")
        return problems

    # -- phases -----------------------------------------------------------

    def setup(self, trace: bool) -> None:
        """Write the config, then SETUP_REPEATS times import thermosig in a new
        interpreter and simulate the dataset (with --trace 1, as many traced
        simulate runs besides). Rebuild the regression system the checks
        compare against."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.config_path.write_text(json.dumps(self.workload.config(self.seed), indent=2), encoding="utf-8")
        for index in range(SETUP_REPEATS * (2 if trace else 1)):
            traced = trace and index % 2 == 1
            self.tracer.trace_id = f"simulate#{index}"
            elapsed = self.command(["simulate"], self.data, self.check_simulate, traced)
            if traced:
                self.traced_setups.append(self.tracer.trace_id)
            else:
                self.setup_seconds.append(fresh_import_seconds() + elapsed)
        if self.failed:
            raise SetupFailed("simulate failed")

        truth = json.loads((self.data / "truth.json").read_text(encoding="utf-8"))
        self.truth = self.core.Theta(**truth["theta"])
        config = self.cli.load_config(str(self.config_path))
        records = self.ingest.parse_csv(str(self.data / "dataset.csv"), config.schema)
        series = self.ingest.build_frames(records, config.constants, rule=config.mode_rule, max_gap=config.max_gap)
        self.frames_with_delta = len(series) - 1
        self.grid = config.grid
        self.system = self.regression.integrate(
            self.regression.assemble(series, config.constants, config.mode_filter)
        )
        del records, series

    def run_pass(self, index: int, traced: bool, timed: bool = True) -> None:
        self.tracer.trace_id = f"pass#{index}"
        dataset = ["--dataset", str(self.data / "dataset.csv")]
        truth = str(self.data / "truth.json")
        if self.workload.fit_command == "fit":
            fit_s = self.command(["fit", *dataset], self.out, self.check_fit, traced)
            theta = str(self.out / "fit.json")
        else:
            fit_s = self.command(["eval", *dataset, "--theta", truth], self.out, self.check_eval, traced)
            theta = truth
        signature = ["signature", *dataset, "--theta", theta]
        signature_s = [
            self.command(signature, self.out, self.check_signature, traced) for _ in range(self.workload.signatures)
        ]
        if not timed:
            return
        self.pass_walls[traced].append(fit_s + sum(signature_s))
        if traced:
            self.traced_passes.append(self.tracer.trace_id)
        else:
            self.command_seconds["fit"].append(fit_s)
            self.command_seconds["signature"] += signature_s
        self.artifact_bytes.append(sum(path.stat().st_size for path in self.out.iterdir()))

    def loop(self, seconds: float, trace: bool) -> None:
        """Closed loop of passes, after an untimed warm-up pass; a pass starts
        only if it should end within `seconds`, after the minimum number of
        passes."""
        start = perf_counter()
        self.run_pass(-1, traced=False, timed=False)
        index = 0
        while True:
            began = perf_counter()
            self.run_pass(index, traced=trace and index % 2 == 1)
            index += 1
            last = perf_counter() - began
            if index >= MIN_PASSES * (2 if trace else 1) and perf_counter() - start + last > seconds:
                return

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """name -> (value, samples)."""
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        fits = self.command_seconds["fit"]
        signatures = self.command_seconds["signature"]
        return {
            "setup_s": (statistics.median(self.setup_seconds), len(self.setup_seconds)),
            "fit_s": (statistics.median(fits), len(fits)),
            "signature_s": (statistics.median(signatures), len(signatures)),
            "peak_rss_mb": (rss_kib / 1024.0, 1),
        }

    def extras(self) -> dict[str, tuple[float, int]]:
        values = {name: (value, 1) for name, value in self.accuracy.items()}
        values["ops_failed_frac"] = (self.failed / self.attempted, self.attempted)
        return values

    def per_layer(self) -> dict[str, tuple[float, int]]:
        """Medians over the traced passes (and traced simulate runs for synth)."""
        sims = [layer_totals(self.tracer.of_trace(t)) for t in self.traced_setups]
        passes = [layer_totals(self.tracer.of_trace(t)) for t in self.traced_passes]

        def median(rows, key):
            return statistics.median(row.get(key, 0) for row in rows), len(rows)

        def ratio(rows, numerator, *denominators):
            return statistics.median(row.get(numerator, 0) / sum(row[d] for d in denominators) for row in rows), len(rows)

        metrics = {
            "synth.simulate_s": median(sims, "synth.simulate_s"),
            "synth.emit_csv_s": median(sims, "synth.emit_csv_s"),
            "synth.steps": median(sims, "synth.simulate.steps"),
            "ingest.parse_csv_s": median(passes, "ingest.parse_csv_s"),
            "ingest.build_frames_s": median(passes, "ingest.build_frames_s"),
            "ingest.records": median(passes, "ingest.parse_csv.records"),
            "ingest.rows_per_s": ratio(passes, "ingest.parse_csv.records", "ingest.parse_csv_s", "ingest.build_frames_s"),
            "regression.assemble_s": median(passes, "regression.assemble_s"),
            "regression.integrate_s": median(passes, "regression.integrate_s"),
            "regression.objective_s": median(passes, "regression.objective_s"),
            "regression.system_rows": median(passes, "regression.assemble.rows"),
            "regression.grid_fit_s": median(passes, "regression.grid_fit_s"),
            "regression.cells": median(passes, "regression.grid_fit.cells"),
            "regression.cell_rows_per_s": ratio(passes, "regression.grid_fit.cell_rows", "regression.grid_fit_s"),
            "models.calls": median(passes, "models.calls"),
            "models.decompose_s": median(passes, "models_s"),
            "cli.fit.self_s": median(passes, f"cli.{self.workload.fit_command}.self_s"),
            "cli.signature.self_s": median(passes, "cli.signature.self_s"),
            "cli.artifact_bytes": (statistics.median(self.artifact_bytes), len(self.artifact_bytes)),
            "regression.relative_error": (self.accuracy["objective"], 1),
            "regression.coef_err_max": (self.accuracy["coef_err_max"], 1),
            "trace.overhead_s": (
                statistics.median(self.pass_walls[True]) - statistics.median(self.pass_walls[False]),
                len(self.pass_walls[True]),
            ),
        }
        integrated = [
            duration(span)
            for trace_id in self.traced_passes
            for span in self.tracer.of_trace(trace_id)
            if span["name"] == "regression.grid_fit" and span["counts"]["integrated"]
        ]
        own = (statistics.median(integrated), len(integrated))
        if self.workload.threads == 1:
            single, threaded = own, self.direct_fit(2)
        else:
            single, threaded = self.direct_fit(1), own
        metrics["regression.grid_fit_1t_s"] = single
        metrics["regression.thread_speedup"] = (single[0] / threaded[0], min(single[1], threaded[1]))
        return metrics

    def direct_fit(self, threads: int) -> tuple[float, int]:
        """The integrated grid fit once at `threads` threads, the other side
        of the thread speed-up from the workload's own thread count; its theta
        must match the command's (criterion 9)."""
        self.attempted += 1
        start = perf_counter()
        fit = self.regression.grid_fit(self.system, grid=self.grid, use_integrated=True, threads=threads)
        elapsed = perf_counter() - start
        if fit.theta != self.fit_theta:
            self.failed += 1
            message = f"grid_fit at {threads} threads gave {fit.theta}, the command gave {self.fit_theta}"
            self.failures.append(message)
            print(message, file=sys.stderr)
        return elapsed, 1


def run(cli, workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Measure one workload; return the result object and the report lines."""
    previous = os.environ.get("THERMOSIG_THREADS")
    os.environ["THERMOSIG_THREADS"] = str(workload.threads)
    bench = Run(cli, workload, seed, workdir)
    try:
        bench.setup(trace)
        bench.loop(seconds, trace)
        if trace:
            measured = bench.per_layer()
            units = PER_LAYER
        else:
            measured = bench.end_to_end()
            units = END_TO_END
    finally:
        if previous is None:
            os.environ.pop("THERMOSIG_THREADS", None)
        else:
            os.environ["THERMOSIG_THREADS"] = previous
    if trace:
        bench.tracer.write(workdir / "spans.jsonl")
    extras = bench.extras()
    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_info(),
        "THERMOSIG_THREADS": workload.threads,
        "fit_command": workload.fit_command,
        "steps": workload.steps,
        "system_rows": len(bench.system),
        "cells_per_pass": workload.cells_per_pass(),
    }
    lines = [
        f"# perfbench workload={workload.name} seed={seed} trace={int(trace)} seconds={seconds}",
        "# host " + " ".join(f"{key}={value}" for key, value in meta["host"].items()),
        f"# THERMOSIG_THREADS={workload.threads} fit_command={workload.fit_command} steps={workload.steps} "
        f"system_rows={meta['system_rows']} cells_per_pass={meta['cells_per_pass']}",
    ]
    for name, (value, samples) in measured.items():
        lines.append(f"{name} = {value!r} {units[name]} (n={samples}, seed={seed})")
    for name, (value, samples) in extras.items():
        lines.append(f"# {name} = {value!r} {EXTRA_UNITS[name]} (n={samples}, seed={seed})")
    lines += [f"# finding: {message}" for message in bench.findings]
    lines += [f"# failed: {message}" for message in bench.failures]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in measured.items()},
    }
    record = {
        "meta": meta,
        "result": result,
        "samples": {name: samples for name, (_, samples) in measured.items()},
        "command_seconds": {"setup": bench.setup_seconds, **bench.command_seconds},
        "extras": {name: value for name, (value, _) in extras.items()},
        "findings": bench.findings,
        "failures": bench.failures,
    }
    (workdir / "results.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        cli = load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import thermosig from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        outcome = run(cli, workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
