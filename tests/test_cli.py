"""Command line behavior: artifacts, determinism, and exit codes."""

import functools
import hashlib
import inspect
import json
import math
import operator
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import thermosig.cli
import thermosig.ingest
import thermosig.regression
from thermosig.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_IO, EXIT_OK, load_config, main

CONSTANTS = {"c": 1.21, "m_z": 12000.0, "t_p": 37.0, "beta_v": 100.0, "step": 60.0}
SCENARIO = {"duration_steps": 1441, "constants": CONSTANTS}
GRID = {"cells": 60, "spacing": "log", "refinement_passes": 2}


def _write_config(path, **sections) -> str:
    payload = {"constants": CONSTANTS, "grid": GRID}
    payload.update(sections)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def day_run(tmp_path_factory):
    """One simulated day, generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cli_day")
    config = _write_config(root / "config.json", scenario=SCENARIO)
    out = root / "sim"
    assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
    return SimpleNamespace(
        root=root,
        config=config,
        dataset=str(out / "dataset.csv"),
        truth=str(out / "truth.json"),
    )


class TestSimulate:
    def test_artifacts_and_truth_content(self, day_run):
        truth = json.loads(open(day_run.truth, encoding="utf-8").read())
        assert truth["theta"] == {"c_p": 100.0, "alpha": 50.0, "beta_ac": 2000.0}
        assert truth["dataset"]["rows"] == 1441
        assert truth["dataset"]["step"] == 60.0
        with open(day_run.dataset, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
        assert header[0] == "timestamp"
        assert "passengers" in header

    def test_missing_scenario_section(self, day_run, tmp_path):
        config = _write_config(tmp_path / "c.json")
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == EXIT_CONFIG


class TestFit:
    def test_recovers_the_planted_coefficients(self, day_run):
        out = day_run.root / "fit"
        code = main(["fit", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--out", str(out)])
        assert code == EXIT_OK
        fit = json.loads((out / "fit.json").read_text())
        assert fit["used_integration"] is True
        assert fit["theta"]["c_p"] == pytest.approx(100.0, rel=0.05)
        assert fit["theta"]["alpha"] == pytest.approx(50.0, rel=0.05)
        assert fit["theta"]["beta_ac"] == pytest.approx(2000.0, rel=0.05)
        surface_lines = (out / "error_surface.csv").read_text().splitlines()
        assert surface_lines[0] == "c_p,alpha,beta_ac,objective"
        assert len(surface_lines) == GRID["cells"] ** 2 + 1

    def test_outputs_are_byte_deterministic(self, day_run):
        outs = [day_run.root / "det_a", day_run.root / "det_b"]
        for out in outs:
            assert main(["fit", "--config", day_run.config, "--dataset", day_run.dataset,
                         "--out", str(out)]) == EXIT_OK
        for name in ("fit.json", "error_surface.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_thread_count_does_not_change_the_bytes(self, day_run, monkeypatch):
        payloads = []
        for threads in ("1", "4"):
            monkeypatch.setenv("THERMOSIG_THREADS", threads)
            out = day_run.root / f"threads_{threads}"
            assert main(["fit", "--config", day_run.config, "--dataset", day_run.dataset,
                         "--out", str(out)]) == EXIT_OK
            payloads.append((out / "fit.json").read_bytes())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("value", ["0", "abc", "-2"])
    def test_bad_thread_env_is_a_config_error(self, day_run, monkeypatch, value):
        monkeypatch.setenv("THERMOSIG_THREADS", value)
        out = day_run.root / "threads_bad"
        code = main(["fit", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--out", str(out)])
        assert code == EXIT_CONFIG


class TestSignature:
    def test_truth_theta_closes_the_balance(self, day_run):
        out = day_run.root / "signature"
        code = main(["signature", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", day_run.truth, "--out", str(out)])
        assert code == EXIT_OK

        summary = json.loads((out / "summary.json").read_text())
        assert summary["frames"] == 1440
        shares = summary["shares"]
        assert shares["passenger_share"] + shares["environment_share"] == pytest.approx(1.0)
        assert summary["integrated_relative_error"] <= 1e-9

        rows = (out / "signature.csv").read_text().splitlines()[1:]
        assert len(rows) == 1440
        l_total = [abs(float(line.split(",")[2])) for line in rows]
        residuals = [abs(float(line.split(",")[6])) for line in rows]
        assert max(residuals) <= 1e-9 * max(l_total)

    def test_totals_add_each_frame_in_order_from_zero(self, day_run, tmp_path):
        out = tmp_path / "signature"
        assert main(["signature", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", day_run.truth, "--out", str(out)]) == EXIT_OK
        header, *rows = (line.split(",") for line in (out / "signature.csv").read_text().splitlines())
        totals = json.loads((out / "summary.json").read_text())["totals"]
        assert sorted(totals) == ["l_environment", "l_passenger", "l_total", "supply"]
        for name, total in totals.items():
            column = [float(row[header.index(name)]) for row in rows]
            assert total == functools.reduce(operator.add, column, 0.0)

    def test_frame_order_sum_is_not_compensated(self):
        # Python 3.12's sum() gives 2.0 here; 3.11's, and the summary's, 0.0
        column = [0.1] * 10 + [1e16, 1.0, -1e16]
        assert thermosig.cli._frame_order_sum(np.array(column)) == functools.reduce(operator.add, column, 0.0) == 0.0
        assert math.copysign(1.0, thermosig.cli._frame_order_sum(np.array([-0.0, -0.0]))) == 1.0

    def test_non_positive_denominator_writes_null(self, day_run, tmp_path):
        # a negative c_p makes the modeled load negative; the objective is then undefined
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"theta": {"c_p": -100.0, "alpha": 50.0, "beta_ac": 2000.0}}))
        out = tmp_path / "signature"
        code = main(["signature", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", str(theta), "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["integrated_relative_error"] is None

    def test_accepts_a_fit_result_as_theta_source(self, day_run):
        fit_out = day_run.root / "fit_for_signature"
        assert main(["fit", "--config", day_run.config, "--dataset", day_run.dataset, "--out", str(fit_out)]) == EXIT_OK
        out = day_run.root / "signature_from_fit"
        code = main(["signature", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", str(fit_out / "fit.json"), "--out", str(out)])
        assert code == EXIT_OK

    def test_block_size_does_not_change_the_bytes(self, day_run, monkeypatch):
        def run_all(out):
            config = ["--config", day_run.config, "--out", str(out)]
            dataset = ["--dataset", str(out / "dataset.csv")]
            assert main(["simulate", *config]) == EXIT_OK
            assert main(["fit", *config, *dataset]) == EXIT_OK
            assert main(["signature", *config, *dataset, "--theta", str(out / "truth.json")]) == EXIT_OK

        run_all(day_run.root / "default-blocks")
        # blocks of 7: 1441 dataset rows, 3600 surface rows and 1440 signature
        # rows each end on a short block
        monkeypatch.setattr(thermosig.ingest, "_BLOCK_ROWS", 7)
        run_all(day_run.root / "short-blocks")
        for name in ("dataset.csv", "error_surface.csv", "signature.csv", "summary.json"):
            assert (day_run.root / "short-blocks" / name).read_bytes() == (
                day_run.root / "default-blocks" / name
            ).read_bytes()


class TestEval:
    def test_compares_raw_and_integrated(self, day_run):
        out = day_run.root / "eval"
        code = main(["eval", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", day_run.truth, "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "eval.json").read_text())
        assert report["theta_true"]["c_p"] == 100.0
        for side in ("raw", "integrated"):
            assert set(report[side]["coefficient_errors"]) == {"c_p", "alpha", "beta_ac"}
        # the data is noiseless, so both variants land close and the
        # integrated one must not lose
        assert report["integrated_not_worse"] is True

    def test_rejects_truth_for_a_different_dataset(self, day_run, tmp_path):
        truth = json.loads(open(day_run.truth, encoding="utf-8").read())
        truth["dataset"]["rows"] = 9999
        tampered = tmp_path / "truth.json"
        tampered.write_text(json.dumps(truth))
        code = main(["eval", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", str(tampered), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_rejects_truth_with_a_different_start_or_step(self, day_run, tmp_path):
        text = open(day_run.truth, encoding="utf-8").read()
        step = json.loads(text)["dataset"]["step"]
        for key, value in (("start", "2000-01-01T00:00:00+00:00"), ("step", step + 1)):
            truth = json.loads(text)
            truth["dataset"][key] = value
            tampered = tmp_path / f"truth_{key}.json"
            tampered.write_text(json.dumps(truth))
            code = main(["eval", "--config", day_run.config, "--dataset", day_run.dataset,
                         "--theta", str(tampered), "--out", str(tmp_path)])
            assert code == EXIT_CONFIG, key


class TestExitCodes:
    def test_truth_dataset_entry_must_be_an_object(self, day_run, tmp_path):
        truth = json.loads(open(day_run.truth, encoding="utf-8").read())
        truth["dataset"] = "x"
        tampered = tmp_path / "truth.json"
        tampered.write_text(json.dumps(truth))
        code = main(["eval", "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", str(tampered), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_missing_dataset_is_io(self, day_run, tmp_path):
        code = main(["fit", "--config", day_run.config,
                     "--dataset", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert code == EXIT_IO

    def test_missing_config_is_io(self, tmp_path):
        code = main(["fit", "--config", str(tmp_path / "absent.json"),
                     "--dataset", "x.csv", "--out", str(tmp_path)])
        assert code == EXIT_IO

    def test_invalid_json_config(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["fit", "--config", str(config), "--dataset", "x.csv",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"gird": {}}))
        assert main(["fit", "--config", str(config), "--dataset", "x.csv",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_bad_section_value(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"grid": {"cells": 0}}))
        assert main(["fit", "--config", str(config), "--dataset", "x.csv",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mode_filter", 5),
            ("mode_filter", "refrigerator"),
            ("mode_filter", ["refrigerator", "freezer"]),
            ("out_dir", None),
            ("max_gap", 2.7),
            ("max_gap", -1),
            ("max_gap", True),
            # values that crashed a later stage with a traceback
            ("grid.cells", 2.5),
            ("grid.refinement_passes", 1.5),
            ("mode_rule.e_v_idle", "x"),
            ("mode_rule.e_v_idle_fraction", "x"),
            ("scenario.theta_true.c_p", "100"),
            ("scenario.passengers.daily_total", 20.5),
            ("scenario.outdoor.mean", "x"),
            # values that were silently coerced
            ("scenario.duration_steps", 2.7),
            ("scenario.constants.step", True),
            ("scenario.seed", "7"),
            ("scenario.initial_t_in", "26"),
            ("scenario.hvac.refrigerator_stages", 2.5),
            # reported as a missing column of the dataset
            ("schema.timestamp", 5),
            # read by json as a float, then silently meaning "no noise" or "never idle"
            ("scenario.noise.temp_std", float("nan")),
            ("mode_rule.e_v_idle", float("nan")),
            # out of range: a misleading EmptySystem, a silently moved fit, or a traceback
            ("mode_rule.e_v_idle", -1),
            ("mode_rule.e_v_idle_fraction", -0.1),
            ("mode_rule.e_v_idle_fraction", 1.0),
            ("mode_rule.water_activity_min", -1),
            ("scenario.passengers.peak_width_hours", 0),
            ("scenario.passengers.peak_width_hours", 1e-200),
            ("scenario.passengers.base_weight", -0.5),
            ("scenario.passengers", {"kind": "weekend", "base_weight": 0, "open_hour": 8, "close_hour": 8}),
            # out of range, once reported as "bad <section>: ..." with no key path
            ("constants.m_z", 0),
            ("constants.t_p", 20),
            ("grid.c_p_min", 2000.0),
            ("scenario.hvac.e_v_max", -1),
            ("scenario.hvac.refrigerator_stages", 0),
            ("scenario.noise.temp_std", -1),
            # a square that overflowed, ending in a traceback
            ("scenario.passengers.morning_peak_hour", 1e300),
            ("scenario.passengers.evening_peak_hour", 1e300),
            ("scenario.passengers.peak_width_hours", 1e300),
            # one column read under two keys: the flow as e_v, the outdoor sensors as indoor
            ("schema.e_v", "v_cool_w"),
            ("schema.indoor_prefix", "t_out_"),
        ],
    )
    def test_bad_config_value(self, key, value, tmp_path, capsys):
        # a dotted key nests: "grid.cells" is {"grid": {"cells": value}}
        payload = value
        for name in reversed(key.split(".")):
            payload = {name: payload}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(payload))
        assert main(["fit", "--config", str(config), "--dataset", "x.csv",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, grid", [
        ("c_p_max", {"c_p_max": 1e-320, "cells": 4}),
        ("c_p_max", {"c_p_max": 4e-323, "cells": 200, "spacing": "linear"}),
        ("alpha_max", {"alpha_max": 4e-323, "cells": 200, "spacing": "linear"}),
    ], ids=["log", "linear-c_p", "linear-alpha"])
    def test_grid_whose_default_minimum_underflows(self, key, grid, day_run, tmp_path, capsys):
        # once a traceback: geomspace refused the 0 on the log axis, and the
        # linear axis's 0 came back as an infeasible fit
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({"grid": grid}))
        assert main(["fit", "--config", str(config), "--dataset", day_run.dataset,
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"grid.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, code", [
        # a stage too small to count in a float, once an OverflowError traceback
        ({"duration_steps": 2000, "hvac": {"refrigerator_max": 1e-300, "refrigerator_stages": 1000000000}}, EXIT_OK),
        # noise that overflows the emitted indoor channel, once a ValueError traceback
        ({"duration_steps": 200, "noise": {"temp_std": 1e308}}, EXIT_DEGENERATE),
        ({"duration_steps": 200, "noise": {"temp_quantization": 1e-320}}, EXIT_DEGENERATE),
    ], ids=["tiny-stage", "temp-std", "temp-quantization"])
    def test_extreme_scenario_runs_or_names_its_channel(self, scenario, code, tmp_path, capsys):
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps({"scenario": scenario}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == code
        assert ("channel 't_in' must be finite" in capsys.readouterr().err) == (code == EXIT_DEGENERATE)

    @pytest.mark.parametrize("step", [1e300, 1e13])
    def test_run_past_datetimes_range_names_its_length(self, step, tmp_path, capsys):
        # the time axis once wrapped around: exit 3 on unsorted anchors at 1e300,
        # and at 1e13 a dataset.csv whose third row fit rejects (year -265646)
        config = tmp_path / "long.json"
        config.write_text(json.dumps({"scenario": {"duration_steps": 200, "constants": {"step": step}}}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == EXIT_CONFIG
        assert "config.scenario.duration_steps" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "dataset.csv").exists()

    @pytest.mark.parametrize("command", ["signature", "eval"])
    def test_undecodable_theta_file_is_config(self, command, day_run, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_bytes(b'{"theta": "\xff"}')
        assert main([command, "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", str(theta), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert str(theta) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["signature", "eval"])
    @pytest.mark.parametrize("key, value", [("c_p", True), ("alpha", "50"), ("beta_ac", float("nan")), ("gamma", 1.0)])
    def test_mistyped_theta_is_config(self, command, key, value, day_run, tmp_path, capsys):
        truth = json.loads(Path(day_run.truth).read_text(encoding="utf-8"))
        truth["theta"][key] = value
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(truth), encoding="utf-8")
        assert main([command, "--config", day_run.config, "--dataset", day_run.dataset,
                     "--theta", str(theta), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, artifact", [("signature", "summary.json"), ("eval", "eval.json")])
    def test_integer_theta_reads_as_floats(self, command, artifact, day_run, tmp_path):
        truth = json.loads(Path(day_run.truth).read_text(encoding="utf-8"))
        truth["theta"] = {name: int(value) for name, value in truth["theta"].items()}
        theta = tmp_path / "truth.json"
        theta.write_text(json.dumps(truth), encoding="utf-8")
        for source, out in ((day_run.truth, tmp_path / "floats"), (str(theta), tmp_path / "integers")):
            assert main([command, "--config", day_run.config, "--dataset", day_run.dataset,
                         "--theta", source, "--out", str(out)]) == EXIT_OK
        assert (tmp_path / "integers" / artifact).read_bytes() == (tmp_path / "floats" / artifact).read_bytes()

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        config = tmp_path / "config.json"
        config.write_text(block, encoding="utf-8")
        loaded = load_config(str(config))
        assert loaded.scenario.duration_steps == 4321
        assert loaded.scenario.noise.temp_quantization == 0.1
        assert loaded.grid.cells == 200

    @pytest.mark.parametrize("artifact", ["dataset.csv", "error_surface.csv", "signature.csv", "fit.json", "summary.json"])
    def test_failed_write_is_io(self, artifact, day_run, tmp_path, capsys):
        fit = ["fit", "--dataset", day_run.dataset]
        signature = ["signature", "--dataset", day_run.dataset, "--theta", day_run.truth]
        argv = {
            "dataset.csv": ["simulate"],
            "error_surface.csv": fit,
            "signature.csv": signature,
            "fit.json": fit,
            "summary.json": signature,
        }[artifact]
        # a directory where the artifact should go makes its open fail
        blocked = tmp_path / artifact
        blocked.mkdir()
        assert main([*argv, "--config", day_run.config, "--out", str(tmp_path)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"io error: {blocked}: ")

    def test_out_naming_a_file_is_io(self, day_run, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main(["fit", "--config", day_run.config, "--dataset", day_run.dataset, "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"io error: {out}: ")

    def test_dataset_without_active_cooling_is_degenerate(self, tmp_path):
        # a plant that never switches on leaves nothing to fit against
        scenario = {
            "duration_steps": 1441,
            "constants": CONSTANTS,
            "outdoor": {"mean": 20.0, "amplitude": 0.0},
            "hvac": {"on_hour": 0.0, "off_hour": 0.0},
        }
        config = _write_config(tmp_path / "off.json", scenario=scenario)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        code = main(["fit", "--config", config, "--dataset", str(out / "dataset.csv"),
                     "--out", str(tmp_path / "fit")])
        assert code == EXIT_DEGENERATE

    def test_negative_new_air_advantage_is_config(self, tmp_path, capsys):
        # the controller would cool with outdoor air warmer than the zone
        scenario = {"duration_steps": 1441, "constants": CONSTANTS, "hvac": {"new_air_min_advantage": -10.0}}
        config = _write_config(tmp_path / "warm_air.json", scenario=scenario)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        assert "new_air_min_advantage" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflowed_load_is_degenerate(self, day_run, tmp_path, capsys):
        # 1e306 passengers an hour overflow every cell's summed load to inf,
        # which once reported a fit with relative_error 0
        lines = Path(day_run.dataset).read_text(encoding="utf-8").splitlines()
        column = lines[0].split(",").index("passengers")
        # 181 rows from 05:00, while the plant cools
        window = [line.split(",") for line in lines[301:482]]
        for cells in window:
            if cells[column]:
                cells[column] = "1e306"
        dataset = tmp_path / "overflow.csv"
        dataset.write_text("\n".join([lines[0], *(",".join(cells) for cells in window)]) + "\n", encoding="utf-8")
        code = main(["fit", "--config", day_run.config, "--dataset", str(dataset), "--out", str(tmp_path / "fit")])
        assert code == EXIT_DEGENERATE
        assert "NoFeasiblePoint" in capsys.readouterr().err


class TestGoldenOutputs:
    """A noisy day through every command gives the artifact bytes recorded
    before frames became columns (numpy 2.4.6)."""

    SHA256 = {
        "dataset.csv": "dd8757e5bb84731675f67235f97cca52e407c770c7e2a6117f2c360be5884c3a",
        "fit.json": "07fe6cc23500ba1dcc094d1c6a2bea588c6f3cdef27cfab0cb9d91d16f639d81",
        "error_surface.csv": "06e8dff6df421705d491f5c464f38025b796c847fb4e93a1906776ac03bd8df6",
        "signature.csv": "cc31150c50d7092462962440d5976f53f5947a62d6d2142c9cc3090278615912",
        "summary.json": "5468c75c2d1136afce784894f0fc6e066c0ccfc45fdd8fdb9d300d3324ae9e53",
        "eval.json": "867e4ce0c4c109d90f4c5d003aca25d342534d4d243a3389edd2523174f581cd",
    }

    def test_artifacts_match_recorded_hashes(self, tmp_path):
        scenario = dict(SCENARIO, seed=3, noise={"temp_std": 0.05, "temp_quantization": 0.1})
        config = _write_config(
            tmp_path / "config.json",
            grid={"cells": 6, "refinement_passes": 1},
            scenario=scenario,
        )
        common = ["--config", config, "--out", str(tmp_path)]
        dataset = ["--dataset", str(tmp_path / "dataset.csv")]
        with warnings.catch_warnings():
            # the raw fit of eval lands on the coarse grid's boundary
            warnings.simplefilter("ignore", RuntimeWarning)
            for argv in (
                ["simulate"],
                ["fit", *dataset],
                ["signature", *dataset, "--theta", str(tmp_path / "fit.json")],
                ["eval", *dataset, "--theta", str(tmp_path / "truth.json")],
            ):
                assert main([*argv, *common]) == EXIT_OK
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.SHA256
        }
        assert digests == self.SHA256

    # start, step, steps, and sha256 recorded while frames still stepped one datetime at a time
    AWKWARD_CLOCKS = {
        # quarter-second stamps: no row sits on an hour, so no passenger anchors
        "plus0800-quarter-second": ("2012-07-01T07:13:00.250000+08:00", 30.0, 2881, {
            "dataset.csv": "57b4f2450e9fe8bb7e4fc375e874ad7fd594e933a76702cd71d07d979b7c34a9",
            "signature.csv": "0675c1e3e23ff5503ccf0ed5aa46ef052dd1c9bd93ecfef823486fa0e1a90a71",
            "summary.json": "caa2d89254e997989b6e3823385b03681d9bd5c35fc04441b8dfe763fc7e03d5",
        }),
        # local hours fall on the half hour in UTC, and ingestion spreads the counts on them
        "plus0530": ("2012-07-01T09:10:00+05:30", 60.0, 1441, {
            "dataset.csv": "b48c643c3645cae87c7a898d3b40781830490a54b3788ef1bdb897c58c1a8eb4",
            "signature.csv": "51e8f7f9749473fff69f107dcc11766eb832c85f39d70fe752c15a3eff10737a",
            "summary.json": "92b331de567a164302a468666246d5d73fc8b21d12fdcbbaf8b06aac2c55be29",
        }),
    }

    @pytest.mark.parametrize("clock", sorted(AWKWARD_CLOCKS))
    def test_awkward_clocks_match_recorded_hashes(self, clock, tmp_path):
        start, step, steps, expected = self.AWKWARD_CLOCKS[clock]
        constants = dict(CONSTANTS, step=step)
        scenario = {
            "duration_steps": steps,
            "start": start,
            "seed": 3,
            "constants": constants,
            "noise": {"temp_std": 0.05, "temp_quantization": 0.1},
        }
        config = _write_config(
            tmp_path / "config.json",
            constants=constants,
            grid={"cells": 6, "refinement_passes": 1},
            scenario=scenario,
        )
        common = ["--config", config, "--out", str(tmp_path)]
        dataset = ["--dataset", str(tmp_path / "dataset.csv")]
        with warnings.catch_warnings():
            # no anchors leave c_p unidentifiable, and that fit lands on the grid's boundary
            warnings.simplefilter("ignore")
            for argv in (
                ["simulate"],
                ["fit", *dataset],
                ["signature", *dataset, "--theta", str(tmp_path / "fit.json")],
            ):
                assert main([*argv, *common]) == EXIT_OK
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
        assert digests == expected


class TestBenchmarkContract:
    """perfbench/tracing.py times a run by swapping these names in
    thermosig.cli, unpacks simulate's result and reads grid_fit's
    arguments by name."""

    TRACED = (
        "simulate", "emit_csv", "parse_csv", "build_frames", "assemble", "integrate",
        "grid_fit", "objective", "load", "supply", "balance_target",
    )

    def test_traced_names_are_cli_attributes(self):
        missing = [name for name in self.TRACED if not callable(getattr(thermosig.cli, name, None))]
        assert missing == []

    def test_simulate_returns_the_series_and_its_anchors(self):
        scenario = thermosig.cli.Scenario(duration_steps=181)
        series, anchors = thermosig.cli.simulate(scenario)
        assert isinstance(series, thermosig.cli.FrameSeries)
        assert len(series) == scenario.duration_steps
        assert len(anchors) == len(series)
        assert anchors[~np.isnan(anchors)].tolist() == [float(c) for c in scenario.passengers.hourly_counts()[:3]]

    def test_emit_csv_keeps_its_traced_parameters(self):
        parameters = inspect.signature(thermosig.cli.emit_csv).parameters
        assert list(parameters) == ["series", "anchors", "path", "schema"]

    def test_grid_fit_keeps_its_traced_parameters(self):
        parameters = inspect.signature(thermosig.cli.grid_fit).parameters
        assert {"system", "grid", "use_integrated"} <= set(parameters)

    def test_objective_keeps_its_integrated_keyword(self):
        assert "use_integrated" in inspect.signature(thermosig.regression.objective).parameters

    def test_raw_objective_ignores_the_attached_sums(self):
        # perfbench's check_objective scores raw fits on an integrated system
        regression = thermosig.regression
        rng = np.random.default_rng(41)
        system = regression.RegressionSystem(rng.uniform(0.5, 2.0, (50, 3)), rng.uniform(0.0, 1.0, 50))
        theta = thermosig.Theta(2.0, 3.0, 0.5)
        integrated = regression.integrate(system)
        assert regression.objective(theta, integrated, use_integrated=False) == regression.objective(theta, system)

    def test_parse_csv_length_counts_data_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "timestamp,t_in_1,t_out_1,t_water_in,t_water_out,v_cool_w,e_v\n"
            "2021-06-01T00:00:00Z,27,33,12,7,0.4,0\n"
            "\n"
            ",,,,,,\n"
            "2021-06-01T00:01:00Z,27,33,12,7,0.4\n",
            encoding="utf-8",
        )
        assert len(thermosig.cli.parse_csv(str(path))) == 2

    def test_build_frames_takes_the_parsed_table(self, day_run):
        config = thermosig.cli.load_config(day_run.config)
        table = thermosig.cli.parse_csv(day_run.dataset, config.schema)
        series = thermosig.cli.build_frames(table, config.constants, rule=config.mode_rule, max_gap=config.max_gap)
        assert isinstance(series, thermosig.cli.FrameSeries)
        assert len(table) == len(series) == 1441
