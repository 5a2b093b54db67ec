#!/usr/bin/env python3
"""Fast self-test of the benchmark.

Runs every workload's code path, plain and traced, on a one-day scenario and
a 6-cell grid, and checks that each run passes its output checks and prints
exactly the metrics BENCHMARK.json lists, with the same units. It also
checks that the output checks catch a changed fit.json and an unbalanced
signature.csv row. Run it from the repository root; it exits 0 when all of
this holds:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

TINY = {"steps": 1441, "cells": 6, "passes": 1}


def tampered_outputs_fail(cli) -> list[str]:
    """Change fit.json and signature.csv after a pass; the checks must object."""
    bench = run.Run(cli, replace(run.WORKLOADS["ref3d"], **TINY), 0, run.WORK / "selftest-tampered")
    bench.setup(False)
    bench.run_pass(0, False)
    problems = []
    fit_path = bench.out / "fit.json"
    fit = json.loads(fit_path.read_text(encoding="utf-8"))
    fit["relative_error"] *= 1.5
    fit_path.write_text(json.dumps(fit), encoding="utf-8")
    if not any("recomputed objective" in problem for problem in bench.check_fit()):
        problems.append("a changed relative_error in fit.json passed the checks")
    signature_path = bench.out / "signature.csv"
    header, first, *rest = signature_path.read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) + 1.0)
    signature_path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
    if not any("l_total" in problem for problem in bench.check_signature()):
        problems.append("an unbalanced signature.csv row passed the checks")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        trace: {metric["name"]: metric["unit"] for metric in spec[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    problems = []
    unknown = {workload["name"] for workload in spec["workloads"]} - set(run.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json lists workloads run.py does not have: {sorted(unknown)}")

    cli = run.load_package()
    for name, workload in run.WORKLOADS.items():
        for trace in (False, True):
            workdir = run.WORK / f"selftest-{name}-trace{int(trace)}"
            result = run.run(cli, replace(workload, **TINY), 0, 0, trace, workdir)["result"]
            printed = {metric: value["unit"] for metric, value in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{label}: output checks failed, see {workdir / 'results.json'}")
            if printed != expected[trace]:
                problems.append(f"{label}: printed {printed}, BENCHMARK.json lists {expected[trace]}")
            print(f"{label}: attempted={result['attempted']} failed={result['failed']}")

    problems += tampered_outputs_fail(cli)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
