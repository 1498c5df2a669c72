import json

import numpy as np
import pytest

import gyrocal
from builders import IDENTITY, run_python, simulated_log
from gyrocal.cli import main
from gyrocal.estimator import calibrate
from gyrocal.session_io import SessionLog, write_session_log


@pytest.fixture
def session_log_path(tmp_path):
    path = tmp_path / "session.csv"
    _, sim, truth = simulated_log(13, path, full_scale=245.0, device="bench", noise_sigma=0.15)
    return path, sim, truth


def write_params(path, values):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(values, handle)
    return path


class TestSimulate:
    def test_writes_artifacts_and_repeats_bitwise(self, tmp_path, capsys):
        config = tmp_path / "campaign.yaml"
        config.write_text(
            "noise_levels: [0.03]\n"
            "misalignment_range: [0.0, 0.0]\n"
            "n_param_sets: 2\n"
            "n_sims_per_set: 2\n"
            "n_test_rates: 20\n",
            encoding="utf-8",
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--seed", "5",
                     "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(config), "--seed", "5",
                     "--out", str(out_b)]) == 0
        for name in ("summary.json", "replicates_sigma_0.03.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        summary = json.loads((out_a / "summary.json").read_text(encoding="utf-8"))
        assert summary["rng_seed"] == 5
        assert "0.03" in summary["campaigns"]

    def test_zero_noise_config_all_errors_tiny(self, tmp_path):
        config = tmp_path / "quiet.yaml"
        config.write_text(
            "noise_sigma: 0.0\n"
            "misalignment_range: [0.0, 0.0]\n"
            "n_param_sets: 2\n"
            "n_sims_per_set: 2\n"
            "n_test_rates: 20\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        stats = summary["campaigns"]["0.0"]["parameter_errors"]
        for name in ("k_x", "k_y", "k_z", "b_x", "b_y", "b_z"):
            assert abs(stats[name]["min"]) < 1e-9
            assert abs(stats[name]["max"]) < 1e-9

    @staticmethod
    def _strict_summary(tmp_path, text):
        """The one campaign level of a 2x2 run of ``text``, read from a
        ``summary.json`` that may hold no NaN or infinity token."""
        config = tmp_path / "campaign.yaml"
        config.write_text(text + "n_param_sets: 2\nn_sims_per_set: 2\nn_test_rates: 10\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0

        def refuse(token):
            raise AssertionError(f"summary.json holds {token}")

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                             parse_constant=refuse)
        (level,) = summary["campaigns"].values()
        return level

    def test_all_failed_campaign_summary_is_null(self, tmp_path):
        # A 5 degree turn fails every replicate: no statistic has a value.
        level = self._strict_summary(tmp_path, "rotation_angle: 5.0\n")
        assert level["n_replicates"] == 0 and level["n_failures"] == 4
        for stats in (*level["parameter_errors"].values(), level["test_set"]):
            assert set(stats.values()) == {None}

    def test_exact_test_set_has_no_rms_reduction(self, tmp_path):
        # An identity truth without noise reads its test rates exactly, so
        # every RMS before correction is 0 and no reduction can be taken.
        level = self._strict_summary(
            tmp_path, "scale_range: [1, 1]\nbias_range: [0, 0]\nmisalignment_range: [0, 0]\n"
                      "noise_sigma: 0\n")
        assert level["n_replicates"] == 4
        assert level["test_set"]["median_pre_rms"] == 0.0
        assert level["test_set"]["median_rms_reduction"] is None
        for stats in level["parameter_errors"].values():
            assert None not in stats.values()

    def test_bad_config_reports_and_fails(self, tmp_path, capsys):
        config = tmp_path / "broken.yaml"
        config.write_text("noise_sgima: 0.03\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "noise_sgima" in capsys.readouterr().err

    def test_nonfinite_noise_sigma_fails(self, tmp_path, capsys):
        config = tmp_path / "nan.yaml"
        config.write_text("noise_sigma: .nan\nn_param_sets: 1\nn_sims_per_set: 1\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad simulation config" in err and "noise_sigma must be finite" in err
        assert not out.exists()

    def test_repeated_noise_level_fails(self, tmp_path, capsys):
        # Each level writes its own CSV and summary entry; a repeat would
        # silently overwrite the first run's.
        config = tmp_path / "twice.yaml"
        config.write_text("noise_levels: [0.03, 0.15, 0.03]\nn_param_sets: 1\n"
                          "n_sims_per_set: 1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad simulation config" in err and "noise_levels must not repeat" in err
        assert not out.exists()

    @pytest.mark.parametrize("text,seed_args,message", [
        ("rng_seed: -1\n", [], "rng_seed must be non-negative, got -1"),
        ("", ["--seed", "-1"], "rng_seed must be non-negative, got -1"),
        ("static_duration: 1.0e+300\nsample_rate: 1.0e+10\n", [],
         "static_duration 1e+300 s at 10000000000.0 Hz overflows the sample count"),
        ("bias_range: [-1.0e+308, 1.0e+308]\n", [],
         "bias_range must be a well-ordered range of finite width, got (-1e+308, 1e+308)"),
        ("rotation_angle: 1.0e+200\n", [],
         "rotation_angle 1e+200 has a square that is not finite"),
        pytest.param(f"sample_rate: {10 ** 400}\n", [],
                     f"sample_rate is too large for a float, got {10 ** 400}",
                     id="400-digit sample_rate"),
        ("1: 2\n", [], "unknown simulation config keys: 1"),
    ])
    def test_unusable_config_reported(self, tmp_path, capsys, text, seed_args, message):
        config = tmp_path / "bad.yaml"
        config.write_text(text + "n_param_sets: 1\nn_sims_per_set: 1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), *seed_args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: bad simulation config: {message}\n"
        assert not out.exists()

    def test_session_block_too_large_reported(self, tmp_path, capsys):
        # The dimension check refuses this size before any memory is taken.
        config = tmp_path / "huge.yaml"
        config.write_text(f"n_test_rates: {10 ** 20}\nn_param_sets: 1\nn_sims_per_set: 1\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad simulation config: cannot hold 1 session(s) of 300 "
                              f"still, 500 turn and {10 ** 20} test samples: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_refused_config_leaves_no_new_directory(self, tmp_path, capsys, existing):
        config = tmp_path / "huge.yaml"
        config.write_text(f"n_test_rates: {10 ** 20}\nn_param_sets: 1\nn_sims_per_set: 1\n",
                          encoding="utf-8")
        if existing:
            (tmp_path / "new").mkdir()
        out = tmp_path / "new" / "nested"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bad simulation config: cannot hold")
        assert not out.exists()
        assert (tmp_path / "new").exists() == existing

    def test_unwritable_out_reported(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "small.yaml"
        config.write_text("n_param_sets: 1\nn_sims_per_set: 1\nn_test_rates: 5\n",
                          encoding="utf-8")
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        campaigns = []
        monkeypatch.setattr(gyrocal.simulator, "run_monte_carlo", campaigns.append)
        assert main(["simulate", "--config", str(config), "--out", str(blocker / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert campaigns == []  # before any campaign runs


class TestCalibrate:
    def test_json_output_matches_library(self, session_log_path, capsys):
        path, sim, truth = session_log_path
        assert main(["calibrate", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = calibrate(sim.session, noise_sigma=0.15)
        for key, value in expected.as_dict().items():
            assert payload[key] == value  # bitwise, repr round trip
        assert payload["units"]["bias"] == "deg/s"
        diag = payload["diagnostics"]
        assert diag["device"] == "bench"
        assert diag["saturated_samples"] >= 0
        assert len(diag["rotations"]) == 3
        corrected = sim.session.corrected_sums(expected.biases)
        assert diag["condition_number"] == pytest.approx(np.linalg.cond(corrected * corrected),
                                                         rel=1e-12)

    def test_out_flag_writes_file(self, session_log_path, tmp_path, capsys):
        path, _, _ = session_log_path
        out = tmp_path / "params.json"
        assert main(["calibrate", str(path), "--out", str(out)]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(out.read_text(encoding="utf-8"))
        assert stdout_payload == file_payload

    def test_motion_during_static_stage_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        static = rng.normal(0.0, 5.0, size=(300, 3))  # clearly not still
        turns = [np.zeros((500, 3)) for _ in range(3)]
        for axis, block in enumerate(turns):
            block[:, axis] = 72.0
        path = tmp_path / "moved.csv"
        write_session_log(path, SessionLog.from_arrays(static, turns, 100.0))
        assert main(["calibrate", str(path), "--noise-sigma", "0.15"]) == 1
        assert "static" in capsys.readouterr().err
        # a NaN sigma must not switch the stillness guard off
        assert main(["calibrate", str(path), "--noise-sigma", "nan"]) == 1
        assert "noise_sigma" in capsys.readouterr().err

    def test_rotation_angle_with_infinite_square_reported(self, session_log_path, capsys):
        # The fit squares the angle; the log is refused, not a traceback.
        path, _, _ = session_log_path
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("# rotation_angle: 360.0", "# rotation_angle: 1e200"),
                        encoding="utf-8")
        assert main(["calibrate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: rotation_angle 1e+200 has a square that is not finite\n"
        assert captured.out == ""

    def test_unwritable_out_reported(self, session_log_path, tmp_path, capsys):
        path, _, _ = session_log_path
        target = tmp_path / "missing_dir" / "x.json"
        assert main(["calibrate", str(path), "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert str(target) in captured.err
        assert captured.out == ""

    def test_motion_threshold_is_not_an_option(self, session_log_path):
        path, _, _ = session_log_path
        with pytest.raises(SystemExit) as info:
            main(["calibrate", str(path), "--motion-threshold", "5"])
        assert info.value.code == 2

    def test_second_call_inherits_no_options(self, session_log_path, tmp_path, capsys):
        # One parser serves every main() call in a process; each call
        # must start again from the defaults.
        path, sim, _ = session_log_path
        out = tmp_path / "params.json"
        assert main(["calibrate", str(path), "--noise-sigma", "0.01", "--out", str(out)]) == 1
        assert "static" in capsys.readouterr().err  # a 0.15 deg/s still stage is too noisy
        assert not out.exists()
        assert main(["calibrate", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not out.exists()
        assert payload["k_x"] == calibrate(sim.session, noise_sigma=0.15).as_dict()["k_x"]

    def test_handler_rebound_after_parser_built_runs(self, session_log_path, monkeypatch,
                                                     capsys):
        path, _, _ = session_log_path
        assert main(["calibrate", str(path)]) == 0  # builds the parser
        calls = []
        monkeypatch.setattr("gyrocal.cli.cmd_calibrate", lambda args: calls.append(args.log) or 7)
        assert main(["calibrate", str(path)]) == 7
        assert calls == [str(path)]

    def test_undecodable_byte_reported(self, session_log_path, capsys):
        path, _, _ = session_log_path
        data = path.read_bytes()
        at = data.index(b"rotate:y")
        path.write_bytes(data[:at] + b"\xb5" + data[at:])
        line = data[:at].count(b"\n") + 1
        assert main(["calibrate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: line {line}: byte 0xb5 is not UTF-8 (invalid start "
                                "byte); session logs are UTF-8 text\n")
        assert captured.out == ""

    def test_non_ascii_device_read_in_c_locale(self, tmp_path):
        # The log is UTF-8 whatever the locale says the default encoding is.
        path = tmp_path / "session.csv"
        simulated_log(13, path, device="Gyro\u2122 \u00b5", noise_sigma=0.15)
        proc = run_python("-m", "gyrocal", "calibrate", str(path),
                          LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        assert proc.stderr == ""
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["diagnostics"]["device"] == "Gyro\u2122 \u00b5"

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["calibrate", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_import_leaves_yaml_unloaded(self):
        # only simulate reads YAML; calibrate should not pay to import it
        code = "import sys, gyrocal.cli; sys.exit('yaml' in sys.modules)"
        proc = run_python("-c", code)
        assert proc.returncode == 0


class TestCompare:
    def test_difference_column_and_threshold_marks(self, tmp_path, capsys):
        a = write_params(tmp_path / "a.json", {
            "k_x": 1.0, "k_y": 1.0, "k_z": 1.0,
            "b_x": 0.0, "b_y": 0.0, "b_z": 0.0,
        })
        b = write_params(tmp_path / "b.json", {
            "k_x": 1.05, "k_y": 1.0, "k_z": 1.0,
            "b_x": 0.0, "b_y": -0.002, "b_z": 0.0,
        })
        assert main(["compare", str(a), str(b), "--threshold", "0.03"]) == 0
        out = capsys.readouterr().out
        lines = {line.split()[0]: line for line in out.splitlines()[1:] if line}
        assert "0.0500" in lines["k_x"] and "*" in lines["k_x"]
        assert "-0.0020" in lines["b_y"] and "*" not in lines["b_y"]
        assert "1 difference(s) above threshold" in out

    def test_identical_inputs_all_zero(self, tmp_path, capsys):
        values = {"k_x": 1.1, "k_y": 0.9, "k_z": 1.0,
                  "b_x": 0.5, "b_y": -0.5, "b_z": 2.0}
        a = write_params(tmp_path / "a.json", values)
        b = write_params(tmp_path / "b.json", values)
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "all differences within threshold" in out
        for line in out.splitlines()[1:7]:
            assert "0.0000" in line

    def test_missing_field_reported(self, tmp_path, capsys):
        a = write_params(tmp_path / "a.json", {"k_x": 1.0})
        b = write_params(tmp_path / "b.json", {
            "k_x": 1.0, "k_y": 1.0, "k_z": 1.0,
            "b_x": 0.0, "b_y": 0.0, "b_z": 0.0,
        })
        assert main(["compare", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "k_y" in err

    @pytest.mark.parametrize("field,value,problem", [
        ("k_x", float("nan"), "must be finite"),
        ("b_z", float("inf"), "must be finite"),
        ("k_y", 0.0, "scale factors must be positive"),
        ("k_z", -1.0, "scale factors must be positive"),
    ])
    def test_invalid_parameter_reported_with_path(self, tmp_path, capsys, field, value,
                                                 problem):
        good = write_params(tmp_path / "good.json", IDENTITY)
        bad = write_params(tmp_path / "bad.json", {**IDENTITY, field: value})
        for argv in ([str(good), str(bad)], [str(bad), str(good)]):
            assert main(["compare", *argv]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {bad}: ")
            assert problem in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("field,value,spelled", [
        ("k_x", True, "true"),
        ("b_x", False, "false"),
        ("k_y", "1_0", '"1_0"'),
        ("b_z", " 2 ", '" 2 "'),
        ("b_y", "zero", '"zero"'),
        ("b_x", [0.0], "[0.0]"),
        ("k_z", None, "null"),
        ("k_x", {"value": 1.0}, '{"value": 1.0}'),
    ])
    def test_field_that_is_not_a_json_number_refused(self, tmp_path, capsys, field, value,
                                                     spelled):
        # float() would read each of these strings, and a bool as 0 or 1.
        good = write_params(tmp_path / "good.json", IDENTITY)
        bad = write_params(tmp_path / "bad.json", {**IDENTITY, field: value})
        for argv in ([str(good), str(bad)], [str(bad), str(good)]):
            assert main(["compare", *argv]) == 1
            captured = capsys.readouterr()
            assert captured.err == (f"error: {bad}: field {field!r} must be a JSON number, "
                                    f"got {spelled}\n")
            assert captured.out == ""

    def test_integer_too_large_for_a_float_refused(self, tmp_path, capsys):
        good = write_params(tmp_path / "good.json", IDENTITY)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(IDENTITY).replace('"b_y": 0.0', '"b_y": 1' + "0" * 400),
                       encoding="utf-8")
        assert main(["compare", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: field 'b_y' is too large for a float\n"
        assert captured.out == ""

    @pytest.mark.parametrize("content,problem", [
        (b'{"k_x": 1.0,', "Expecting property name enclosed in double quotes: "
                          "line 1 column 13 (char 12)"),
        (b'{"k_x": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'\xff{"k_x": 1.0}', "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["truncated", "5000 digits", "not utf-8"])
    def test_unparsable_file_named(self, tmp_path, capsys, content, problem):
        good = write_params(tmp_path / "good.json", IDENTITY)
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for argv in ([str(good), str(bad)], [str(bad), str(good)]):
            assert main(["compare", *argv]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {bad}: {problem}")
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    def test_integer_fields_read_as_their_floats(self, tmp_path, capsys):
        ints = write_params(tmp_path / "ints.json",
                            {"k_x": 1, "k_y": 2, "k_z": 1, "b_x": 0, "b_y": -3, "b_z": 0})
        floats = write_params(tmp_path / "floats.json",
                              {"k_x": 1.0, "k_y": 2.0, "k_z": 1.0,
                               "b_x": 0.0, "b_y": -3.0, "b_z": 0.0})
        assert main(["compare", str(floats), str(ints), "--threshold", "0"]) == 0
        out = capsys.readouterr().out
        assert "all differences within threshold 0" in out
        assert "-3.0000" in out

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "-0.001"])
    def test_bad_threshold_rejected(self, tmp_path, capsys, threshold):
        a = write_params(tmp_path / "a.json", IDENTITY)
        assert main(["compare", str(a), str(a), "--threshold", threshold]) == 1
        captured = capsys.readouterr()
        assert "threshold must be finite and non-negative" in captured.err
        assert captured.out == ""

    def test_zero_threshold_flags_any_difference(self, tmp_path, capsys):
        a = write_params(tmp_path / "a.json", IDENTITY)
        b = write_params(tmp_path / "b.json", {**IDENTITY, "b_z": 1e-9})
        assert main(["compare", str(a), str(b), "--threshold", "0"]) == 0
        assert "1 difference(s) above threshold 0" in capsys.readouterr().out


class TestVerify:
    def test_doe_suite_passes(self, capsys):
        assert main(["verify", "--suite", "doe"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 4

    def test_observability_suite_passes(self, capsys):
        assert main(["verify", "--suite", "observability"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 3

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "allan"])
        assert info.value.code == 2
