import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import numpy_generator
from gyrocal import estimator, simulator
from gyrocal.estimator import calibrate
from gyrocal.model import CalibrationError, CalibrationParams, ObservationArrays
from gyrocal.simulator import (
    REPLICATE_BLOCK,
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
    def test_indices_fit_one_spawn_key_word(self, field):
        # Each set and replicate index is hashed as one uint32 word.
        with pytest.raises(CalibrationError,
                           match=f"{field} must be below 2\\*\\*32, .* one 32-bit word"):
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
            def random(self, out):
                out[...] = 0.8
                return out

        trace = bezier_profile(FlatRng(), config)
        np.testing.assert_allclose(trace, 72.0, rtol=1e-12)

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
        # The block's stage summaries are from_samples', refusals included.
        config = SimulationConfig(n_param_sets=1, n_sims_per_set=2, n_test_rates=5, **overrides)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CalibrationError) as info:
                run_monte_carlo(config)
            with pytest.raises(CalibrationError) as single:
                simulate_session(sample_ground_truth(config, np.random.default_rng(0)), config,
                                 np.random.default_rng(1))
        assert str(info.value) == str(single.value) == message

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

    @pytest.mark.parametrize("rotation_angle", [360.0, 0.5])
    def test_csv_bytes_match_csv_module(self, tmp_path, rotation_angle):
        # A 0.5 degree turn fails every replicate: a header-only file.
        config = SimulationConfig(rotation_angle=rotation_angle, rng_seed=3, **QUICK)
        report = run_monte_carlo(config)
        assert len(report.indices) == (6 if rotation_angle == 360.0 else 0)
        path = tmp_path / "replicates.csv"
        report.write_replicates_csv(path)
        names = [f"{p}_{a}" for p in ("k", "b") for a in "xyz"]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["set_index", "replicate_index"]
                        + [f"{kind}_{n}" for kind in ("true", "est", "err") for n in names]
                        + ["pre_rms", "post_rms"])
        for index, truth, estimate, pre, post in zip(
                report.indices.tolist(), report.truth.tolist(), report.estimate.tolist(),
                report.pre_rms.tolist(), report.post_rms.tolist()):
            errors = (np.array(estimate) - np.array(truth)).tolist()
            writer.writerow([*index, *map(repr, truth + estimate + errors + [pre, post])])
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


def _single_session_outcome(truth, config, rng):
    """What ``calibrate`` and the test-set scoring give for one replicate
    simulated on its own from ``rng``: ``(estimate, pre_rms, post_rms)`` or
    the error text."""
    sim = simulate_session(truth, config, rng)
    guard = config.noise_sigma if config.noise_sigma > 0.0 else None
    try:
        estimate = calibrate(sim.session, noise_sigma=guard)
    except CalibrationError as exc:
        return str(exc)
    pre = float(np.sqrt(np.mean((sim.test_measurements - sim.test_rates) ** 2)))
    corrected = estimate.scales * (sim.test_measurements + estimate.biases)
    post = float(np.sqrt(np.mean((corrected - sim.test_rates) ** 2)))
    return estimate, pre, post


def _assert_campaign_matches_single_sessions(config):
    report = run_monte_carlo(config)
    rows = {tuple(index): row for row, index in enumerate(report.indices.tolist())}
    failures = {(s, r): message for s, r, message in report.failures}
    assert len(rows) + len(failures) == config.n_param_sets * config.n_sims_per_set
    for set_index in range(config.n_param_sets):
        truth = sample_ground_truth(config, numpy_generator(config.rng_seed, (0, set_index)))
        for replicate_index in range(config.n_sims_per_set):
            key = (set_index, replicate_index)
            expected = _single_session_outcome(
                truth, config, numpy_generator(config.rng_seed, (1, *key)))
            if isinstance(expected, str):
                assert failures[key] == expected
                continue
            estimate, pre, post = expected
            row = rows[key]
            # bitwise float equality
            assert report.truth[row].tolist() == [*truth.params.scales, *truth.params.biases]
            assert report.estimate[row].tolist() == [*estimate.scales, *estimate.biases]
            assert report.pre_rms[row] == pre
            assert report.post_rms[row] == post
    return report


def _straddling_blocks(config, block):
    """The (set, replicate) keys of each block of ``block`` flat rows that
    holds rows of more than one truth set."""
    keys = [(s, r) for s in range(config.n_param_sets) for r in range(config.n_sims_per_set)]
    chunks = (keys[i:i + block] for i in range(0, len(keys), block))
    return [chunk for chunk in chunks if len({s for s, _ in chunk}) > 1]


class TestCampaignMatchesSingleSessions:
    """Blocked campaign replicates equal ``calibrate(simulate_session(...))``
    bit for bit, however the blocks fall across truth sets. Cross-coupling
    is on unless a test says otherwise, so every truth set, and with it
    every row of a block that spans sets, has its own coupling matrix."""

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_seeds_with_cross_coupling(self, seed):
        # 3 x 7 rows: the first block spans all three sets, the last is partial.
        config = SimulationConfig(rng_seed=seed, noise_sigma=0.15, n_param_sets=3,
                                  n_sims_per_set=7, n_test_rates=40)
        assert _straddling_blocks(config, REPLICATE_BLOCK)
        report = _assert_campaign_matches_single_sessions(config)
        assert not report.failures

    def test_noiseless(self):
        config = SimulationConfig(rng_seed=4, noise_sigma=0.0, n_param_sets=2,
                                  n_sims_per_set=11, n_test_rates=40)
        report = _assert_campaign_matches_single_sessions(config)
        assert not report.failures

    def test_motion_guard_failures(self):
        config = SimulationConfig(rotation_angle=0.5, rng_seed=2, n_param_sets=2,
                                  n_sims_per_set=6, n_test_rates=40)
        report = _assert_campaign_matches_single_sessions(config)
        assert len(report.failures) == 12
        assert "no usable rotation" in report.failures[0][2]

    def test_stillness_guard_failures(self, monkeypatch):
        # At one noise sigma each axis's static std trips the guard about
        # half the time, so blocks mix failed and fitted replicates.
        monkeypatch.setattr(estimator, "STILLNESS_STD_FACTOR", 1.0)
        config = SimulationConfig(noise_sigma=0.03, rng_seed=6, n_param_sets=2,
                                  n_sims_per_set=9, n_test_rates=40)
        report = _assert_campaign_matches_single_sessions(config)
        assert report.failures and len(report.indices)
        assert all("static stage shows motion" in f[2] for f in report.failures)

    @pytest.mark.parametrize("per_set", [4, 7])
    @pytest.mark.parametrize("block", [1, 3, 5, 16])
    def test_blocks_across_truth_sets(self, monkeypatch, block, per_set):
        # 3 sets: at every size but 1 some block spans two sets, and with
        # per_set 7 the last block is partial at every size but 1.
        monkeypatch.setattr(simulator, "REPLICATE_BLOCK", block)
        config = SimulationConfig(rng_seed=30 + block, noise_sigma=0.15, n_param_sets=3,
                                  n_sims_per_set=per_set, n_test_rates=40)
        assert bool(_straddling_blocks(config, block)) == (block > 1)
        report = _assert_campaign_matches_single_sessions(config)
        assert not report.failures

    @pytest.mark.parametrize("block", [3, 5, 16])
    def test_mixed_failures_across_set_boundaries(self, monkeypatch, block):
        # At 1.03 noise sigmas the stillness guard rejects about half the
        # replicates.
        monkeypatch.setattr(estimator, "STILLNESS_STD_FACTOR", 1.03)
        monkeypatch.setattr(simulator, "REPLICATE_BLOCK", block)
        config = SimulationConfig(noise_sigma=0.03, rng_seed=6, n_param_sets=3,
                                  n_sims_per_set=7, n_test_rates=40)
        report = _assert_campaign_matches_single_sessions(config)
        failed = {(s, r) for s, r, _ in report.failures}
        # Some block spans two sets and holds both failed and fitted rows.
        assert any(0 < sum(key in failed for key in chunk) < len(chunk)
                   for chunk in _straddling_blocks(config, block))

    @pytest.mark.parametrize("block", [1, 3, 5, 16])
    def test_block_size_never_changes_results(self, monkeypatch, block):
        # Reference blocks of 2; per_set 4 and 7 put the set boundaries at
        # different places in the blocks, and a stillness factor of 1.03
        # mixes failed and fitted rows.
        for per_set in (4, 7):
            for stillness in (estimator.STILLNESS_STD_FACTOR, 1.03):
                monkeypatch.setattr(estimator, "STILLNESS_STD_FACTOR", stillness)
                config = SimulationConfig(rng_seed=12, noise_sigma=0.03, n_param_sets=3,
                                          n_sims_per_set=per_set, n_test_rates=40)
                monkeypatch.setattr(simulator, "REPLICATE_BLOCK", 2)
                reference = run_monte_carlo(config)
                monkeypatch.setattr(simulator, "REPLICATE_BLOCK", block)
                report = run_monte_carlo(config)
                for column in ("indices", "truth", "estimate", "pre_rms", "post_rms"):
                    np.testing.assert_array_equal(getattr(report, column),
                                                  getattr(reference, column))
                assert report.failures == reference.failures
                assert len(report.indices) + len(report.failures) == 3 * per_set


def _numpy_state(seed, key):
    state = numpy_generator(seed, key).bit_generator.state["state"]
    return state["state"], state["inc"]


_INDEX = st.integers(0, 2 ** 32 - 1)


class TestSpawnKeyStates:
    """The campaign's generator states equal those numpy's own
    ``SeedSequence`` seeds ``PCG64`` with, row for row, and its rows equal
    sessions drawn from generators numpy builds. numpy is the oracle, so a
    numpy release that changed its seeding fails here by name."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 128 - 1), keys=st.one_of(
        st.lists(st.tuples(st.just(0), _INDEX), min_size=1, max_size=6),
        st.lists(st.tuples(st.just(1), _INDEX, _INDEX), min_size=1, max_size=6),
    ))
    def test_states_match_numpy(self, seed, keys):
        assert list(simulator._pcg64_states(seed, keys)) == [_numpy_state(seed, k) for k in keys]

    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 1100],
                             ids=["0", "2**32-1", "2**32", "2**1100"])
    def test_word_boundary_seeds_and_indices(self, seed):
        # 1, 1, 2 and 35 seed words: 2**1100 overfills the 4-word pool.
        edge = 2 ** 32 - 1
        for keys in ([(0, s) for s in (0, 1, edge)],
                     [(1, s, r) for s in (0, edge) for r in (0, 7, edge)]):
            states = list(simulator._pcg64_states(seed, np.array(keys)))
            assert states == [_numpy_state(seed, key) for key in keys]

    def test_campaign_rows_match_numpy_seeded_sessions(self):
        config = SimulationConfig(rng_seed=23, noise_sigma=0.15, n_param_sets=3,
                                  n_sims_per_set=7, n_test_rates=40)
        report = run_monte_carlo(config)
        assert not report.failures
        for row in (0, 10, 20):
            s, r = report.indices[row].tolist()
            truth = sample_ground_truth(config, numpy_generator(config.rng_seed, (0, s)))
            estimate, pre, post = _single_session_outcome(
                truth, config, numpy_generator(config.rng_seed, (1, s, r)))
            assert report.truth[row].tolist() == [*truth.params.scales, *truth.params.biases]
            assert report.estimate[row].tolist() == [*estimate.scales, *estimate.biases]
            assert (report.pre_rms[row], report.post_rms[row]) == (pre, post)


class TestSessionBlockObservations:
    """``_SessionBlock.observations()`` equals the per-session view of
    ``ObservationArrays.from_samples`` bit for bit on every row. The
    static stds feed only the stillness guard, so no campaign pin would
    catch a drift in their last ulps."""

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.15])
    @pytest.mark.parametrize("sizer,overrides", [
        ("turns", dict(n_test_rates=40)),
        ("test set", dict(n_test_rates=2000)),
        ("still stage", dict(static_duration=20.0, n_test_rates=40)),
        ("turns", dict(n_test_rates=1)),
    ])
    def test_rows_match_from_samples_bitwise(self, noise_sigma, sizer, overrides):
        config = SimulationConfig(noise_sigma=noise_sigma, rng_seed=9, **overrides)
        users = {"still stage": 3 * config.static_samples, "turns": 9 * config.rotation_samples,
                 "test set": 3 * config.n_test_rates}
        assert max(users, key=users.get) == sizer
        block = simulator._SessionBlock(config, 5)
        # The still stage's copy has its own buffer; the others share one.
        assert block._still.size == 5 * users.pop("still stage")
        assert block._scratch.size == 5 * max(users.values())
        # A full block, then a partial one over the first's leftovers.
        for rows in (5, 3):
            scales, biases, coupling = simulator._truth_arrays(config, np.stack(
                [numpy_generator(config.rng_seed, (0, r)).random(12) for r in range(rows)]))
            block.simulate(scales, biases, coupling,
                           [numpy_generator(config.rng_seed, (1, rows, r)) for r in range(rows)])
            view = block.observations()
            assert view.sums.shape == (rows, 3, 3)
            for r in range(rows):
                one = ObservationArrays.from_samples(block.static_raw[r], block.rotation_raw[r],
                                                     config.sample_rate, config.rotation_angle)
                assert view.static_means[r].tobytes() == one.static_means.tobytes()
                assert view.static_stds[r].tobytes() == one.static_stds.tobytes()
                assert view.sums[r].tobytes() == one.sums.tobytes()
                assert view.static_duration == one.static_duration
                assert view.durations.tobytes() == one.durations.tobytes()
                assert view.theta_sq.tobytes() == one.theta_sq.tobytes()
