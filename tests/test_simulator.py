import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import numpy_generator, run_python, stack_views
from gyrocal import estimator, simulator
from gyrocal.estimator import calibrate
from gyrocal.model import CalibrationError, CalibrationParams, ObservationArrays
from gyrocal.simulator import (
    CampaignReport,
    GroundTruth,
    SimulationConfig,
    bezier_profile,
    run_monte_carlo,
    sample_ground_truth,
    simulate_session,
)

QUICK = dict(n_param_sets=2, n_sims_per_set=3, n_test_rates=50)


class TestSimulationConfig:
    def test_defaults_are_valid(self):
        config = SimulationConfig()
        assert config.static_samples == 300
        assert config.rotation_samples == 500

    @pytest.mark.parametrize("field,value", [
        ("scale_range", (1.2, 0.8)),
        ("scale_range", (0.0, 1.2)),
        ("bias_range", (-1e308, 1e308)),
        ("noise_sigma", -0.1),
        ("sample_rate", 0.0),
        ("rotation_angle", -360.0),
        ("n_param_sets", 0),
    ])
    def test_invalid_settings_rejected(self, field, value):
        with pytest.raises(CalibrationError):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [
        "noise_sigma", "sample_rate", "static_duration", "rotation_duration",
        "rotation_angle", "n_param_sets", "n_sims_per_set", "n_test_rates", "rng_seed",
    ])
    def test_nonfinite_settings_rejected(self, field, value):
        with pytest.raises(CalibrationError) as info:
            SimulationConfig(**{field: value})
        assert str(info.value).startswith(f"{field} must be finite")

    @pytest.mark.parametrize("field,overrides", [
        ("static_duration", dict(static_duration=0.01)),
        ("static_duration", dict(static_duration=0.004)),
        ("rotation_duration", dict(rotation_duration=0.01)),
        ("rotation_duration", dict(rotation_duration=1.0, sample_rate=1.4)),
    ])
    def test_stage_of_fewer_than_two_samples_rejected(self, field, overrides):
        # One sample has no standard deviation, so the stillness guard
        # would compare NaN and never fire; no sample has no summary.
        with pytest.raises(CalibrationError, match=f"^{field} .* a stage needs at least 2"):
            SimulationConfig(noise_sigma=0.15, n_param_sets=1, n_sims_per_set=2,
                             n_test_rates=5, **overrides)

    def test_two_sample_stages_accepted(self):
        config = SimulationConfig(static_duration=0.02, rotation_duration=0.02,
                                  n_param_sets=1, n_sims_per_set=2, n_test_rates=5)
        assert (config.static_samples, config.rotation_samples) == (2, 2)
        report = run_monte_carlo(config)
        assert len(report.indices) + len(report.failures) == 2

    @pytest.mark.parametrize("field", ["static_duration", "rotation_duration"])
    def test_overflowing_sample_count_rejected(self, field):
        # duration * rate is inf, which round() cannot turn into an int.
        with pytest.raises(CalibrationError,
                           match=f"^{field} 1e\\+300 s at 10000000000.0 Hz overflows"):
            SimulationConfig(sample_rate=1e10, **{field: 1e300})

    @pytest.mark.parametrize("seed", [-1, -2 ** 64])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(CalibrationError, match=f"rng_seed must be non-negative, got {seed}"):
            SimulationConfig(rng_seed=seed)

    @pytest.mark.parametrize("field", ["n_param_sets", "n_sims_per_set"])
    def test_counts_below_2_to_the_32(self, field):
        with pytest.raises(CalibrationError,
                           match=f"^{field} must be below 2\\*\\*32, got {2 ** 32}$"):
            SimulationConfig(**{field: 2 ** 32})
        assert getattr(SimulationConfig(**{field: 2 ** 32 - 1}), field) == 2 ** 32 - 1

    def test_huge_integer_seed_accepted(self):
        # An int is always finite, even one too large to convert to a float.
        config = SimulationConfig(rng_seed=2 ** 1100, n_param_sets=1, n_sims_per_set=1,
                                  n_test_rates=5)
        assert len(run_monte_carlo(config).indices) == 1

    def test_from_mapping_round_trip(self):
        config = SimulationConfig.from_mapping({
            "noise_sigma": 0.15,
            "scale_range": [0.9, 1.1],
            "n_param_sets": 4,
            "rng_seed": 11,
        })
        assert config.noise_sigma == 0.15
        assert config.scale_range == (0.9, 1.1)
        assert config.n_param_sets == 4
        assert config.rng_seed == 11

    @pytest.mark.parametrize("build", [SimulationConfig.from_mapping,
                                       lambda mapping: SimulationConfig(**mapping)])
    @pytest.mark.parametrize("key", ["n_param_sets", "n_sims_per_set", "n_test_rates",
                                     "rng_seed"])
    @pytest.mark.parametrize("value", [2.7, 5.9, True, False])
    def test_fractional_and_bool_counts_rejected(self, build, key, value):
        with pytest.raises(CalibrationError, match=f"{key} must be a whole number"):
            build({key: value})

    def test_whole_float_counts_become_ints(self):
        config = SimulationConfig.from_mapping({"n_param_sets": 4.0, "rng_seed": 7.0})
        assert config.n_param_sets == 4 and type(config.n_param_sets) is int
        assert config.rng_seed == 7 and type(config.rng_seed) is int

    @pytest.mark.parametrize("mapping,outcome", [
        ({"noise_sigma": True}, "CalibrationError: noise_sigma must be a number, got True"),
        ({"sample_rate": False}, "CalibrationError: sample_rate must be a number, got False"),
        ({"scale_range": (True, 1.2)}, "CalibrationError: scale_range must be a number, got True"),
        ({"n_param_sets": True}, "CalibrationError: n_param_sets must be a whole number, got True"),
        ({"scale_range": (0.8, 1.2, 9)},
         "CalibrationError: scale_range must hold exactly two bounds, got (0.8, 1.2, 9)"),
        ({"bias_range": [1.0]}, "CalibrationError: bias_range must hold exactly two bounds"),
        ({"scale_range": "12"}, "CalibrationError: scale_range must hold exactly two bounds"),
        ({"scale_range": 1.0}, "CalibrationError: scale_range must hold exactly two bounds"),
        ({"noise_sigma": "0.15"}, "noise_sigma=0.15,"),
        ({"n_param_sets": "4"}, "n_param_sets=4,"),
        ({"bias_range": ["-1", "1e0"]}, "bias_range=(-1.0, 1.0),"),
        ({"noise_sigma": "0.1.5"}, "CalibrationError: noise_sigma must be a number, got '0.1.5'"),
        ({"sample_rate": 10 ** 400}, "CalibrationError: sample_rate is too large for a float"),
        ({"scale_range": (0.9, -10 ** 400)}, "CalibrationError: scale_range is too large"),
        ({"rng_seed": 2 ** 1100}, f"rng_seed={2 ** 1100})"),
        ({"n_sims_per_set": 10 ** 400}, "CalibrationError: n_sims_per_set must be below 2**32"),
        ({"noise_sigma": 0}, "noise_sigma=0.0,"),
        ({"sample_rate": 200}, "sample_rate=200.0,"),
        ({"misalignment_range": [0, 0]}, "misalignment_range=(0.0, 0.0),"),
        ({"n_param_sets": 4.0, "rng_seed": 7}, "n_param_sets=4,"),
        ({"rotation_angle": 1e200},
         "CalibrationError: rotation_angle 1e+200 has a square that is not finite"),
    ])
    def test_constructor_and_from_mapping_agree(self, mapping, outcome):
        # One conversion serves both builders: the same config, field types
        # included, or the same CalibrationError.
        def built(make):
            try:
                config = make()
            except CalibrationError as exc:
                return f"CalibrationError: {exc}"
            for name, value in dataclasses.asdict(config).items():
                if name.endswith("_range"):
                    assert type(value) is tuple and list(map(type, value)) == [float, float]
                else:
                    assert type(value) is (int if name[:2] == "n_" or name == "rng_seed" else float)
            return repr(config)

        direct = built(lambda: SimulationConfig(**mapping))
        assert direct == built(lambda: SimulationConfig.from_mapping(mapping))
        assert outcome in direct

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(CalibrationError) as info:
            SimulationConfig.from_mapping({"noise_sgima": 0.15})
        assert "noise_sgima" in str(info.value)


class TestSampleGroundTruth:
    def test_collapsed_ranges_are_deterministic(self):
        config = SimulationConfig(scale_range=(0.8, 0.8), bias_range=(2.0, 2.0),
                                  misalignment_range=(0.0, 0.0))
        truth = sample_ground_truth(config, np.random.default_rng(0))
        np.testing.assert_allclose(truth.params.scales, [0.8, 0.8, 0.8])
        np.testing.assert_allclose(truth.params.biases, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(truth.misalignment, np.eye(3))

    def test_draws_stay_inside_ranges(self):
        config = SimulationConfig()
        rng = np.random.default_rng(123)
        scales = []
        for _ in range(10_000):
            truth = sample_ground_truth(config, rng)
            scales.append(truth.params.scales)
            assert np.all(truth.params.scales >= 0.8)
            assert np.all(truth.params.scales <= 1.2)
            assert np.all(np.abs(truth.params.biases) <= 5.0)
            off = truth.misalignment - np.diag(np.diag(truth.misalignment))
            assert np.all(np.abs(off) <= 0.10)
            assert np.all(np.diag(truth.misalignment) == 1.0)
        assert abs(np.mean(scales) - 1.0) < 0.01

    def test_caller_matrix_stays_writable(self):
        # The truth freezes its own copy, not the matrix it was given.
        coupling = np.eye(3)
        truth = GroundTruth(CalibrationParams.identity(), coupling)
        coupling[0, 1] = 0.5
        assert truth.misalignment[0, 1] == 0.0 and not truth.misalignment.flags.writeable

    def test_same_seed_same_truth(self):
        config = SimulationConfig()
        a = sample_ground_truth(config, np.random.default_rng(7))
        b = sample_ground_truth(config, np.random.default_rng(7))
        assert a.params == b.params
        np.testing.assert_array_equal(a.misalignment, b.misalignment)


class TestBezierProfile:
    def test_integral_hits_turn_angle(self):
        config = SimulationConfig()
        rng = np.random.default_rng(31)
        for _ in range(1000):
            trace = bezier_profile(rng, config)
            integrated = trace.sum() / config.sample_rate
            assert abs(integrated - 360.0) < 1e-9

    def test_rates_stay_positive(self):
        config = SimulationConfig()
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert np.all(bezier_profile(rng, config) > 0.0)

    def test_flat_control_points_give_constant_rate(self):
        config = SimulationConfig()

        class FlatRng:  # every control ordinate at 0.5 + 1.0 * 0.8 = 1.3 times nominal
            def random(self, size):
                return np.full(size, 0.8)

        trace = bezier_profile(FlatRng(), config)
        np.testing.assert_allclose(trace, 72.0, rtol=1e-12)

    def test_trace_past_the_float_range_refused(self):
        # 3 times a control ordinate near 1e308 deg/s overflows. The traces
        # are computed under errstate: neither path warns, and both refuse.
        config = SimulationConfig(rotation_angle=1e150, rotation_duration=1e-158,
                                  sample_rate=1e159, static_duration=1e-158, noise_sigma=0.0)
        with pytest.raises(CalibrationError, match=r"^rotation_angle 1e\+150 over 1e-158 s at "
                                                   r"1e\+159 Hz gives a speed trace that is not "
                                                   r"finite$"):
            bezier_profile(np.random.default_rng(0), config)
        rng = np.random.default_rng(1)
        with pytest.raises(CalibrationError, match=r"^rotation sum must be finite, got .*nan"):
            simulate_session(sample_ground_truth(config, rng), config, rng)

    def test_seed_reproducibility(self):
        config = SimulationConfig()
        a = bezier_profile(np.random.default_rng(9), config)
        b = bezier_profile(np.random.default_rng(9), config)
        np.testing.assert_array_equal(a, b)


class TestSimulateSession:
    def test_noiseless_identity_truth_reads_zero_at_rest(self):
        config = SimulationConfig(noise_sigma=0.0, misalignment_range=(0.0, 0.0),
                                  scale_range=(1.0, 1.0), bias_range=(0.0, 0.0))
        rng = np.random.default_rng(2)
        truth = sample_ground_truth(config, rng)
        sim = simulate_session(truth, config, rng)
        np.testing.assert_array_equal(sim.static_raw, 0.0)

    def test_noiseless_recovery(self):
        config = SimulationConfig(noise_sigma=0.0, misalignment_range=(0.0, 0.0))
        rng = np.random.default_rng(21)
        for _ in range(20):
            truth = sample_ground_truth(config, rng)
            est = calibrate(simulate_session(truth, config, rng).session)
            np.testing.assert_allclose(est.scales, truth.params.scales, atol=1e-9)
            np.testing.assert_allclose(est.biases, truth.params.biases, atol=1e-9)

    @given(sample_rate=st.floats(min_value=20.0, max_value=1000.0),
           rotation_duration=st.floats(min_value=1.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_noiseless_recovery_at_any_rate_and_duration(self, sample_rate, rotation_duration):
        # The turn is scaled to the angle with the sample period, the step
        # the stage summary integrates with, so a duration that is not a
        # whole number of samples leaves no scale error.
        config = SimulationConfig(noise_sigma=0.0, misalignment_range=(0.0, 0.0),
                                  sample_rate=sample_rate,
                                  rotation_duration=rotation_duration, n_test_rates=1)
        rng = np.random.default_rng(21)
        truth = sample_ground_truth(config, rng)
        est = calibrate(simulate_session(truth, config, rng).session)
        np.testing.assert_allclose(est.scales, truth.params.scales, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(est.biases, truth.params.biases, rtol=0.0, atol=1e-9)

    def test_static_noise_level_matches_sigma(self):
        config = SimulationConfig(noise_sigma=0.15, misalignment_range=(0.0, 0.0),
                                  static_duration=100.0)  # 10k samples
        rng = np.random.default_rng(4)
        truth = sample_ground_truth(config, rng)
        sim = simulate_session(truth, config, rng)
        measured = np.std(sim.static_raw, axis=0, ddof=1)
        np.testing.assert_allclose(measured, 0.15, rtol=0.10)

    def test_session_too_large_to_hold_refused(self):
        # 10**20 turn samples: the dimension check refuses them before any
        # memory is taken. A campaign holds no samples, so it runs this config.
        config = SimulationConfig(rotation_duration=1.0e18, n_param_sets=1, n_sims_per_set=1)
        with pytest.raises(CalibrationError, match=f"^cannot hold a session of 300 still and "
                                                   f"{10 ** 20} turn samples: "):
            simulate_session(sample_ground_truth(config, np.random.default_rng(0)), config,
                             np.random.default_rng(1))
        report = run_monte_carlo(config)
        assert len(report.indices) + len(report.failures) == 1

    def test_cross_coupling_leaks_into_other_axes(self):
        config = SimulationConfig(noise_sigma=0.0, misalignment_range=(0.05, 0.05),
                                  scale_range=(1.0, 1.0), bias_range=(0.0, 0.0))
        rng = np.random.default_rng(6)
        truth = sample_ground_truth(config, rng)
        sim = simulate_session(truth, config, rng)
        x_turn = sim.rotation_raw[0]
        assert np.max(np.abs(x_turn[:, 1])) > 1.0  # projection of the x rate


class TestRunMonteCarlo:
    def test_campaign_is_deterministic(self):
        config = SimulationConfig(rng_seed=3, **QUICK)
        a = run_monte_carlo(config)
        b = run_monte_carlo(config)
        np.testing.assert_array_equal(a.parameter_errors(), b.parameter_errors())
        assert a.summary() == b.summary()

    def test_noiseless_campaign_errors_vanish(self):
        config = SimulationConfig(noise_sigma=0.0, misalignment_range=(0.0, 0.0),
                                  rng_seed=1, **QUICK)
        report = run_monte_carlo(config)
        assert not report.failures
        assert np.max(np.abs(report.parameter_errors())) < 1e-9

    def test_failures_counted_not_fatal(self):
        # a 0.5 degree "turn" never clears the motion guard
        config = SimulationConfig(rotation_angle=0.5, rng_seed=2, **QUICK)
        report = run_monte_carlo(config)
        assert len(report.failures) == 6
        assert report.indices.shape == (0, 2) and report.estimate.shape == (0, 6)
        summary = report.summary()
        assert summary["n_failures"] == 6
        assert summary["parameter_errors"]["k_x"]["median"] is None

    @pytest.mark.parametrize("overrides,message", [
        (dict(noise_sigma=1e300), "standard deviation must be nonnegative, got inf"),
        (dict(scale_range=(1e-310, 2e-310)), "rotation sum must be finite, got np.float64(inf)"),
    ])
    def test_summaries_that_overflow_stop_the_campaign(self, overrides, message):
        # The campaign's stage summaries are refused as from_samples' are;
        # the campaign names the noise level that overflowed.
        config = SimulationConfig(n_param_sets=1, n_sims_per_set=2, n_test_rates=5, **overrides)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CalibrationError) as info:
                run_monte_carlo(config)
            with pytest.raises(CalibrationError) as single:
                simulate_session(sample_ground_truth(config, np.random.default_rng(0)), config,
                                 np.random.default_rng(1))
        assert str(single.value) == message
        assert str(info.value) == (f"noise level {config.noise_sigma!r}: its stage summaries "
                                   f"overflowed the float range: {message}")

    def test_campaign_too_large_to_hold_refused(self):
        # 2**62 replicates: the dimension check refuses the draw blocks
        # before any memory is taken, and before the per-set draw loop.
        config = SimulationConfig(n_param_sets=2 ** 31, n_sims_per_set=2 ** 31)
        with pytest.raises(CalibrationError,
                           match=f"^cannot hold a campaign of {2 ** 62} replicates: "):
            run_monte_carlo(config)

    def test_rms_reduction_skips_rows_read_exactly(self):
        report = CampaignReport(SimulationConfig(**QUICK), np.zeros((3, 2), dtype=int),
                                np.ones((3, 6)), np.ones((3, 6)), np.array([0.0, 2.0, 4.0]),
                                np.ones(3), failures=())
        test_set = report.summary()["test_set"]
        assert test_set["median_rms_reduction"] == 0.625  # median of 1 - 1/2 and 1 - 1/4
        assert test_set["improved_fraction"] == 2 / 3
        assert test_set["median_pre_rms"] == 2.0

    def test_improvement_direction_with_cross_coupling(self):
        # full truth ranges including coupling: correction still helps
        config = SimulationConfig(noise_sigma=0.03, rng_seed=8,
                                  n_param_sets=5, n_sims_per_set=10,
                                  n_test_rates=200)
        summary = run_monte_carlo(config).summary()
        assert summary["test_set"]["improved_fraction"] >= 0.99

    def test_coupling_shift_matches_prediction(self):
        # uniform coupling c on every off-diagonal: k_hat = k / sqrt(1 + 2 c^2)
        c = 0.05
        config = SimulationConfig(noise_sigma=0.0, misalignment_range=(c, c),
                                  rng_seed=5, n_param_sets=3, n_sims_per_set=1,
                                  n_test_rates=10)
        report = run_monte_carlo(config)
        assert not report.failures
        factor = 1.0 / np.sqrt(1.0 + 2.0 * c ** 2)
        assert len(report.estimate) == 3
        np.testing.assert_allclose(
            report.estimate[:, :3], report.truth[:, :3] * factor, rtol=1e-9)
        np.testing.assert_allclose(report.estimate[:, 3:], report.truth[:, 3:], atol=1e-9)

    @pytest.mark.parametrize("make_report", [
        pytest.param(lambda: _quick_campaign(360.0), id="360.0"),
        # A 0.5 degree turn fails every replicate: a header-only file.
        pytest.param(lambda: _quick_campaign(0.5), id="0.5"),
        # Set 0's truth changes between rows, and its last row keeps the
        # truth but not the pre_rms.
        pytest.param(lambda: _hand_built_report(
            [_TRUTH, _TRUTH_2, _TRUTH, _TRUTH], [0.5, 0.5, 0.5, 0.7]), id="truth_differs_in_set"),
        # 0.0 == -0.0 and nan != nan, yet each row keeps its own bits.
        pytest.param(lambda: _hand_built_report(
            [_ZEROS, _NEGATIVE_ZERO, _ZEROS, _NAN, _NAN, _ZEROS],
            [0.0, 0.0, -0.0, math.nan, math.nan, -0.0]), id="signed_zero_and_nan"),
    ])
    def test_csv_bytes_match_csv_module(self, tmp_path, make_report):
        report = make_report()
        path = tmp_path / "replicates.csv"
        report.write_replicates_csv(path)
        names = [f"{p}_{a}" for p in ("k", "b") for a in "xyz"]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["set_index", "replicate_index"]
                        + [f"{kind}_{n}" for kind in ("true", "est") for n in names]
                        + ["pre_rms", "post_rms"])
        for index, truth, estimate, pre, post in zip(
                report.indices.tolist(), report.truth.tolist(), report.estimate.tolist(),
                report.pre_rms.tolist(), report.post_rms.tolist()):
            writer.writerow([*index, *map(repr, truth + estimate + [pre, post])])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_csv_export_round_trips(self, tmp_path):
        config = SimulationConfig(rng_seed=3, **QUICK)
        report = run_monte_carlo(config)
        path = tmp_path / "replicates.csv"
        report.write_replicates_csv(path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(report.indices)
        assert float(rows[0]["est_k_x"]) == report.estimate[0, 0]
        assert float(rows[0]["pre_rms"]) == report.pre_rms[0]
        # The errors are est - true of each row, recovered bit for bit.
        names = [f"{p}_{a}" for p in ("k", "b") for a in "xyz"]
        errors = np.array([[float(row[f"est_{n}"]) - float(row[f"true_{n}"]) for n in names]
                           for row in rows])
        assert errors.tobytes() == report.parameter_errors().tobytes()


# A child caps its own address space at its size after import plus a
# margin in MB: an array after the guarded allocation then fails to fit.
_MEMORY_CHILD = """import resource, sys
import numpy as np
from gyrocal import cli, simulator
from gyrocal.model import CalibrationError
with open("/proc/self/status", encoding="ascii") as status:
    size_kb = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
margin_mb, *campaign = sys.argv[1:]
limit = (size_kb + int(margin_mb) * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
if campaign:
    config_path, out = campaign
    sys.exit(cli.main(["simulate", "--config", config_path, "--out", out]))
config = simulator.SimulationConfig(sample_rate=1e6, noise_sigma=0.15)
rng = np.random.default_rng(0)
try:
    simulator.simulate_session(simulator.sample_ground_truth(config, rng), config, rng)
except CalibrationError as exc:
    print(exc)
"""


@pytest.mark.parametrize("case", ["campaign", "session"])
def test_memory_outgrown_after_the_draws_is_refused(tmp_path, case):
    # The campaign's draw blocks fit in 300 MB and its later arrays do not;
    # the session's readings fit in 500 MB and its speed traces do not.
    if case == "campaign":
        config, out = tmp_path / "campaign.yaml", tmp_path / "out"
        config.write_text("noise_levels: [0.03, 0.15]\nmisalignment_range: [0.0, 0.0]\n"
                          "n_param_sets: 10\nn_sims_per_set: 100000\n", encoding="utf-8")
        proc = run_python("-W", "error", "-c", _MEMORY_CHILD, "300", str(config), str(out),
                          OPENBLAS_NUM_THREADS="1")
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith("error: bad simulation config: cannot hold a campaign of "
                                      "1000000 replicates: ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()
    else:
        proc = run_python("-W", "error", "-c", _MEMORY_CHILD, "500", OPENBLAS_NUM_THREADS="1")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("cannot hold a session of 3000000 still and 5000000 turn "
                                      "samples: ")


def _quick_campaign(rotation_angle):
    report = run_monte_carlo(SimulationConfig(rotation_angle=rotation_angle, rng_seed=3, **QUICK))
    assert len(report.indices) == (6 if rotation_angle == 360.0 else 0)
    return report


_TRUTH = [1.0, 1.1, 0.9, 0.2, -0.3, 0.1]
_TRUTH_2 = [1.0, 1.1, 0.95, 0.2, -0.3, 0.1]
_ZEROS = [0.0] * 6
_NEGATIVE_ZERO = [0.0] * 4 + [-0.0, 0.0]
_NAN = [math.nan] + [0.0] * 5


def _hand_built_report(truth, pre_rms):
    """A report of one truth set with a row per ``truth`` row, rows that no
    campaign gives."""
    truth, pre_rms = np.array(truth), np.array(pre_rms)
    n = len(pre_rms)
    estimate = truth + np.linspace(-1e-3, 1e-3, 6 * n).reshape(n, 6)
    indices = np.column_stack([np.zeros(n, dtype=int), np.arange(n)])
    return CampaignReport(SimulationConfig(**QUICK), indices, truth, estimate, pre_rms,
                          pre_rms / 3.0, failures=())


def _iqr(errors):
    q1, q3 = np.quantile(errors, [0.25, 0.75], axis=0)
    return q3 - q1


class TestCampaignMatchesSessionsInDistribution:
    """A campaign replicate fits stage summaries drawn from their exact
    distributions, so its fit is distributed as ``calibrate`` of a
    :func:`simulate_session` session. On the same 20 truths, 500 campaign
    replicates per truth are set against 50 per-sample sessions per truth
    (``fit_batch`` of their stack is ``calibrate`` of each)."""

    SETS, PER_SET, SESSIONS = 20, 500, 50

    def _config(self, **overrides):
        return SimulationConfig(static_duration=1.0, rotation_duration=2.0, rng_seed=2027,
                                n_param_sets=self.SETS, n_sims_per_set=self.PER_SET, **overrides)

    def _sessions(self, config):
        """The per-sample sessions, set by set, and their truths ``(k, b)``."""
        views, truths = [], []
        for set_index in range(self.SETS):
            truth = sample_ground_truth(config, numpy_generator(config.rng_seed, (0, set_index)))
            rng = np.random.default_rng([config.rng_seed, set_index])
            views += [simulate_session(truth, config, rng).session for _ in range(self.SESSIONS)]
            truths += [[*truth.params.scales, *truth.params.biases]] * self.SESSIONS
        return stack_views(views), np.array(truths)

    @pytest.mark.parametrize("misalignment_range", [(0.0, 0.0), (-0.10, 0.10)])
    @pytest.mark.parametrize("sigma", [0.03, 0.15])
    def test_errors_match_per_sample_sessions(self, sigma, misalignment_range):
        # Each parameter's error std and IQR agree. For normal errors the std
        # ratio's standard error is sqrt(1/2000 + 1/20000) = 0.023 and the
        # IQR ratio's 1.17 sqrt(1/1000 + 1/10000) = 0.039, so the bounds,
        # 0.10 and 0.16, are over 4 of them. Each truth's mean error, which
        # carries the coupling's shift of the scales, agrees within 5 of its
        # standard errors.
        config = self._config(noise_sigma=sigma, misalignment_range=misalignment_range)
        report = run_monte_carlo(config)
        views, truths = self._sessions(config)
        fit = estimator.fit_batch(views, noise_sigma=sigma)
        assert not report.failures and not any(fit.errors)
        campaign = report.parameter_errors()
        per_sample = np.column_stack([fit.scales, fit.biases]) - truths
        for ratio, bound in ((campaign.std(axis=0) / per_sample.std(axis=0), 0.10),
                             (_iqr(campaign) / _iqr(per_sample), 0.16)):
            assert np.all(np.abs(ratio - 1.0) <= bound), ratio
        by_set = [errors.reshape(self.SETS, -1, 6) for errors in (campaign, per_sample)]
        standard_error = np.sqrt(sum(errors.var(axis=1, ddof=1) / errors.shape[1]
                                     for errors in by_set))
        shift = by_set[0].mean(axis=1) - by_set[1].mean(axis=1)
        assert np.all(np.abs(shift) <= 5.0 * standard_error)

    def test_still_stds_match_per_sample_sessions(self, monkeypatch):
        # The share of replicates whose still std trips a 1.03 sigma
        # stillness guard reads the chi-square draws. Its standard error is
        # at most 0.5 sqrt(1/1000 + 1/10000) = 0.017, and the bound 0.07 is
        # over 4 of them.
        config = self._config(noise_sigma=0.03)
        monkeypatch.setattr(estimator, "STILLNESS_STD_FACTOR", 1.03)
        tripped = len(run_monte_carlo(config).failures) / (self.SETS * self.PER_SET)
        views, _ = self._sessions(config)
        per_sample = np.mean((views.static_stds > 1.03 * 0.03).any(axis=1))
        assert 0.3 < per_sample < 0.9
        assert tripped == pytest.approx(per_sample, abs=0.07)


class TestCampaignDeterminism:
    """A replicate's draws come from its own stream, so no row depends on
    how many replicates share its truth set or on the other levels run
    beside it."""

    def test_rows_do_not_depend_on_replicates_per_set(self, monkeypatch):
        # At 1.03 noise sigmas the stillness guard fails about half the rows.
        monkeypatch.setattr(estimator, "STILLNESS_STD_FACTOR", 1.03)
        small, large = (run_monte_carlo(SimulationConfig(rng_seed=12, noise_sigma=0.15,
                                                         n_param_sets=30, n_sims_per_set=per_set))
                        for per_set in (4, 7))
        assert small.failures and len(small.indices)
        rows = {tuple(index): row for row, index in enumerate(large.indices.tolist())}
        matching = [rows[tuple(index)] for index in small.indices.tolist()]
        for column in ("indices", "truth", "estimate", "pre_rms", "post_rms"):
            assert getattr(small, column).tobytes() == getattr(large, column)[matching].tobytes()
        assert small.failures == tuple(f for f in large.failures if f[1] < 4)

    @pytest.mark.parametrize("levels", [[0.0, 0.03], [0.15, 0.0, 0.03], [0.03, 0.15]])
    def test_levels_equal_separate_runs(self, monkeypatch, levels):
        monkeypatch.setattr(estimator, "STILLNESS_STD_FACTOR", 1.03)
        base = SimulationConfig(rng_seed=8, n_param_sets=3, n_sims_per_set=7)
        configs = [dataclasses.replace(base, noise_sigma=level) for level in levels]
        for config, report in zip(configs, simulator._run_levels(configs), strict=True):
            alone = run_monte_carlo(config)
            assert report.config is config
            for column in ("indices", "truth", "estimate", "pre_rms", "post_rms"):
                assert getattr(report, column).tobytes() == getattr(alone, column).tobytes()
            assert report.failures == alone.failures
            assert bool(report.failures) == (config.noise_sigma > 0.0)

    @given(sample_rate=st.floats(min_value=20.0, max_value=1000.0),
           static_duration=st.floats(min_value=0.5, max_value=10.0),
           rotation_duration=st.floats(min_value=1.0, max_value=10.0))
    @example(sample_rate=97.3, static_duration=3.01, rotation_duration=5.37)  # 292.873, 522.501
    @settings(max_examples=50, deadline=None)
    def test_noiseless_campaign_at_any_rate_and_duration(self, sample_rate, static_duration,
                                                         rotation_duration):
        config = SimulationConfig(noise_sigma=0.0, misalignment_range=(0.0, 0.0),
                                  sample_rate=sample_rate, static_duration=static_duration,
                                  rotation_duration=rotation_duration, rng_seed=21,
                                  n_param_sets=3, n_sims_per_set=2)
        report = run_monte_carlo(config)
        assert not report.failures
        assert np.max(np.abs(report.parameter_errors())) < 1e-9

    def test_rows_do_not_depend_on_truth_set_count(self):
        small, large = (run_monte_carlo(SimulationConfig(rng_seed=12, noise_sigma=0.15,
                                                         n_param_sets=sets, n_sims_per_set=3))
                        for sets in (2, 5))
        assert not small.failures and not large.failures
        for column in ("indices", "truth", "estimate", "pre_rms", "post_rms"):
            assert getattr(small, column).tobytes() == getattr(large, column)[:6].tobytes()


def _campaign_views(monkeypatch, configs):
    """``_run_levels(configs)`` and the stage-summary view it fits at each
    level, in order."""
    views = []

    def recording(view, **kwargs):
        views.append(view)
        return estimator.fit_batch(view, **kwargs)

    monkeypatch.setattr(simulator, "fit_batch", recording)
    return simulator._run_levels(configs), views


def _clean_sums(truth, config):
    """Turn i's noiseless sum on sensor axis l, ``M[l, i] theta / k_l -
    b_l n / rate``, as ``(3, 3)`` turns by sensor axes."""
    turn_duration = config.rotation_samples / config.sample_rate
    return (truth.misalignment.T * config.rotation_angle / truth.params.scales
            - truth.params.biases * turn_duration)


@pytest.fixture(scope="class", params=[0.03, 0.15])
def one_truth_campaign(request):
    """The config, truth and stage-summary view of a 20,000-replicate
    campaign on one truth set, at each noise level."""
    config = SimulationConfig(rng_seed=31, noise_sigma=request.param, n_param_sets=1,
                              n_sims_per_set=TestCampaignStageSummaries.REPLICATES)
    with pytest.MonkeyPatch.context() as patch:
        _, (view,) = _campaign_views(patch, [config])
    truth = sample_ground_truth(config, numpy_generator(config.rng_seed, (0, 0)))
    return config, truth, view


class TestCampaignStageSummaries:
    """The stage summaries a campaign draws have their exact white-noise
    distributions. With N_s = 300 still and n = 500 turn samples, a still
    mean is normal about ``-b`` with std ``sigma / sqrt(N_s)``, a still
    variance is ``sigma²`` times a chi-square over its ``N_s - 1`` degrees
    of freedom, a turn sum is normal about its noiseless sum with std
    ``sigma sqrt(n) / rate``, and all 15 are independent. Over 20,000
    replicates a std ratio's standard error is about 1/200, so its bound
    0.025 is 5 of them, and a mean is held to 5 of its standard errors."""

    REPLICATES = 20_000

    def test_still_means(self, one_truth_campaign):
        config, truth, view = one_truth_campaign
        spread = config.noise_sigma / math.sqrt(config.static_samples)
        errors = view.static_means + truth.params.biases
        assert np.all(np.abs(errors.mean(axis=0)) <= 5.0 * spread / math.sqrt(self.REPLICATES))
        np.testing.assert_allclose(errors.std(axis=0) / spread, 1.0, rtol=0.0, atol=0.025)

    def test_still_variances(self, one_truth_campaign):
        config, _, view = one_truth_campaign
        degrees = config.static_samples - 1
        ratio = view.static_stds ** 2 / config.noise_sigma ** 2  # chi-square / degrees
        spread = math.sqrt(2.0 / degrees)
        assert np.all(np.abs(ratio.mean(axis=0) - 1.0)
                      <= 5.0 * spread / math.sqrt(self.REPLICATES))
        np.testing.assert_allclose(ratio.std(axis=0) / spread, 1.0, rtol=0.0, atol=0.025)

    def test_turn_sums(self, one_truth_campaign):
        config, truth, view = one_truth_campaign
        spread = config.noise_sigma * math.sqrt(config.rotation_samples) / config.sample_rate
        errors = view.sums - _clean_sums(truth, config)
        assert np.all(np.abs(errors.mean(axis=0)) <= 5.0 * spread / math.sqrt(self.REPLICATES))
        np.testing.assert_allclose(errors.std(axis=0) / spread, 1.0, rtol=0.0, atol=0.025)

    def test_summaries_are_uncorrelated(self, one_truth_campaign):
        # 105 pairs: each correlation's standard error is 1/sqrt(20000).
        _, _, view = one_truth_campaign
        columns = np.column_stack([view.static_means, view.static_stds ** 2,
                                   view.sums.reshape(self.REPLICATES, 9)])
        correlation = np.corrcoef(columns, rowvar=False)
        off_diagonal = correlation[~np.eye(15, dtype=bool)]
        assert np.max(np.abs(off_diagonal)) <= 4.5 / math.sqrt(self.REPLICATES)


class TestCampaignMatchesSessionsWithoutNoise:
    """At sigma 0 a replicate's stage summaries are its session's, up to
    rounding, so its fit is ``calibrate`` of the :func:`simulate_session`
    session for its truth, coupling and all; a whole number of samples or
    not. A guard that reads no noise refuses both with one message."""

    @pytest.mark.parametrize("overrides", [{}, dict(sample_rate=97.3, static_duration=3.01,
                                                     rotation_duration=5.37)],
                             ids=["whole", "fractional"])
    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_views_and_fits_match_sessions(self, monkeypatch, seed, overrides):
        config = SimulationConfig(rng_seed=seed, noise_sigma=0.0,
                                  misalignment_range=(-0.10, 0.10), n_param_sets=3,
                                  n_sims_per_set=2, **overrides)
        (report,), (view,) = _campaign_views(monkeypatch, [config])
        assert not report.failures
        for row, (set_index, replicate_index) in enumerate(report.indices.tolist()):
            truth = sample_ground_truth(config, numpy_generator(seed, (0, set_index)))
            rng = np.random.default_rng([seed, set_index, replicate_index])
            session = simulate_session(truth, config, rng).session
            np.testing.assert_array_equal(view.static_means[row], -truth.params.biases)
            np.testing.assert_array_equal(view.static_stds[row], 0.0)
            np.testing.assert_allclose(session.static_means, view.static_means[row],
                                       rtol=1e-14, atol=1e-14)
            # A mean of equal samples may miss them by an ulp, so their
            # std reads a few ulps of the bias, not 0.
            np.testing.assert_allclose(session.static_stds, 0.0, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(session.sums, view.sums[row], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(session.durations, view.durations, rtol=0.0, atol=0.0)
            estimate = calibrate(session)
            np.testing.assert_allclose(report.estimate[row],
                                       [*estimate.scales, *estimate.biases],
                                       rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.03])
    def test_motion_guard_failures_match_sessions(self, noise_sigma):
        # A 0.5 degree turn never clears the 10 degree motion guard.
        config = SimulationConfig(rotation_angle=0.5, noise_sigma=noise_sigma, rng_seed=4,
                                  n_param_sets=2, n_sims_per_set=3)
        report = run_monte_carlo(config)
        assert len(report.indices) == 0 and len(report.failures) == 6
        for set_index, replicate_index, message in report.failures:
            truth = sample_ground_truth(config, numpy_generator(4, (0, set_index)))
            rng = np.random.default_rng([4, set_index, replicate_index])
            with pytest.raises(CalibrationError) as info:
                calibrate(simulate_session(truth, config, rng).session,
                          noise_sigma=noise_sigma or None)
            assert str(info.value) == message
            assert message.startswith("every rotation stage integrates below 10 degrees")


class TestExpectedRms:
    """A replicate's ``pre_rms`` and ``post_rms`` are the expected RMS
    error over the test set's distribution, so a 10^5-rate sample of the
    same replicate's test set scores within 1% of them. An asymmetric
    range gives the rates a nonzero mean."""

    @pytest.mark.parametrize("test_rate_range", [(-180.0, 180.0), (-60.0, 240.0)])
    @pytest.mark.parametrize("misalignment_range", [(0.0, 0.0), (-0.10, 0.10)])
    @pytest.mark.parametrize("sigma", [0.03, 0.15])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_a_sampled_test_set(self, seed, sigma, misalignment_range, test_rate_range):
        config = SimulationConfig(noise_sigma=sigma, misalignment_range=misalignment_range,
                                  test_rate_range=test_rate_range, rng_seed=seed,
                                  n_param_sets=1, n_sims_per_set=1)
        report = run_monte_carlo(config)
        truth = sample_ground_truth(config, numpy_generator(seed, (0, 0)))
        rng = np.random.default_rng(seed)
        rates = rng.uniform(*test_rate_range, size=(100_000, 3))
        readings = (rates @ truth.misalignment.T / truth.params.scales - truth.params.biases
                    + rng.normal(0.0, sigma, size=rates.shape))
        scales, biases = report.estimate[0, :3], report.estimate[0, 3:]
        for corrected, expected in ((readings, report.pre_rms[0]),
                                    (scales * (readings + biases), report.post_rms[0])):
            sampled = np.sqrt(np.mean((corrected - rates) ** 2))
            assert sampled == pytest.approx(expected, rel=0.01)


def _numpy_seeded_replicate(config, set_index, replicate_index):
    """The truth, fit and scores of one campaign replicate, rebuilt from
    the two generators numpy builds for its set's keys ``(0, s)`` and
    ``(1, s)``: the first draws the truth, then a block of 12 standard
    normals per replicate, 3 for the still means and 9 for the turn sums
    (turns x, y, z; sensor axes x, y, z); the second a block of 3
    chi-squares of ``N_s - 1`` degrees of freedom per replicate. Row
    ``replicate_index`` of the blocks gives the stage summaries, then
    ``calibrate`` of their view. Returns ``(truth, estimate, pre_rms,
    post_rms)``."""
    per_set = config.n_sims_per_set
    rng = numpy_generator(config.rng_seed, (0, set_index))
    truth = sample_ground_truth(config, rng)
    normals = rng.standard_normal((per_set, 12))[replicate_index]
    chi_square = numpy_generator(config.rng_seed, (1, set_index)).chisquare(
        config.static_samples - 1, (per_set, 3))[replicate_index]
    mean_normals, sum_normals = normals[:3], normals[3:].reshape(3, 3)
    sigma, rate, angle = config.noise_sigma, config.sample_rate, config.rotation_angle
    n_static, n_rot = config.static_samples, config.rotation_samples
    scales, biases = truth.params.scales, truth.params.biases
    view = ObservationArrays(
        -biases + sigma / math.sqrt(n_static) * mean_normals,
        np.sqrt(sigma * sigma * chi_square / (n_static - 1)),
        n_static / rate,
        (truth.misalignment.T * angle / scales - biases * (n_rot / rate))
        + sigma * math.sqrt(n_rot) / rate * sum_normals,
        np.full(3, n_rot / rate), np.full(3, angle ** 2))
    estimate = calibrate(view, noise_sigma=sigma if sigma > 0.0 else None)
    true_row = np.concatenate([scales, biases])[None]
    fitted = np.concatenate([estimate.scales, estimate.biases])[None]
    pre, post = (simulator._expected_rms(config, true_row, truth.misalignment[None], row)[0]
                 for row in (simulator._IDENTITY_ROW, fitted))
    return truth, estimate, pre, post


class TestSpawnKeyStreams:
    """The campaign's rows equal the fits of stage summaries drawn from the
    generators numpy builds for each truth set's two spawn keys. numpy is
    the oracle, so a numpy release that changed its seeding or its draws
    fails here by name."""

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.15])
    def test_campaign_rows_match_numpy_seeded_draws(self, noise_sigma):
        config = SimulationConfig(rng_seed=23, noise_sigma=noise_sigma, n_param_sets=3,
                                  n_sims_per_set=7)
        report = run_monte_carlo(config)
        assert not report.failures
        for row in (0, 10, 20):
            truth, estimate, pre, post = _numpy_seeded_replicate(
                config, *report.indices[row].tolist())
            assert report.truth[row].tolist() == [*truth.params.scales, *truth.params.biases]
            assert report.estimate[row].tolist() == [*estimate.scales, *estimate.biases]
            assert (report.pre_rms[row], report.post_rms[row]) == (pre, post)

    @pytest.mark.parametrize("seed", [2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 1100],
                             ids=["2**32-1", "2**32", "2**64", "2**1100"])
    def test_word_boundary_seeds_match_numpy(self, seed):
        # 1, 2, 3 and 35 seed words: the seed reaches SeedSequence whole,
        # never cut to one machine word.
        config = SimulationConfig(rng_seed=seed, noise_sigma=0.15, n_param_sets=2,
                                  n_sims_per_set=3)
        report = run_monte_carlo(config)
        for row in (0, 5):
            truth, estimate, _, _ = _numpy_seeded_replicate(config, *report.indices[row].tolist())
            assert report.truth[row].tolist() == [*truth.params.scales, *truth.params.biases]
            assert report.estimate[row].tolist() == [*estimate.scales, *estimate.biases]
