import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrocal import estimator, simulator
from gyrocal.estimator import calibrate
from gyrocal.model import CalibrationError
from gyrocal.simulator import (
    REPLICATE_BLOCK,
    SimulationConfig,
    _replicate_rng,
    _truth_rng,
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

        class FlatRng:
            def uniform(self, low, high, size=None):
                return np.full(size, 1.3) if size else 1.3

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
        assert np.isnan(summary["parameter_errors"]["k_x"]["median"])

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

    def test_csv_export_round_trips(self, tmp_path):
        import csv

        config = SimulationConfig(rng_seed=3, **QUICK)
        report = run_monte_carlo(config)
        path = tmp_path / "replicates.csv"
        report.write_replicates_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(report.indices)
        assert float(rows[0]["est_k_x"]) == report.estimate[0, 0]
        assert float(rows[0]["pre_rms"]) == report.pre_rms[0]


def _single_session_outcome(truth, config, set_index, replicate_index):
    """What ``calibrate`` and the test-set scoring give for one replicate
    simulated on its own: ``(estimate, pre_rms, post_rms)`` or the error text."""
    sim = simulate_session(truth, config, _replicate_rng(config, set_index, replicate_index))
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
        truth = sample_ground_truth(config, _truth_rng(config, set_index))
        for replicate_index in range(config.n_sims_per_set):
            key = (set_index, replicate_index)
            expected = _single_session_outcome(truth, config, *key)
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
