"""Pins of the simulator's random draw stream.

The hashes and reprs below were recorded from the per-replicate
implementation of ``simulate_session`` and ``run_monte_carlo``. They hold
the spawn keys and the draw order fixed: a change that reorders, merges
or re-derives any draw breaks them. Scale estimates are not pinned
because the least-squares solve may move them in the last ulps; the
biases and the test-set RMS before correction depend on the draws and
the measurement model alone.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrocal import (
    SessionLog,
    SimulationConfig,
    bezier_profile,
    run_monte_carlo,
    sample_ground_truth,
    simulate_session,
    simulator,
    write_session_log,
)
from gyrocal.cli import main


def _spawned_generator(seed, key):
    """The generator a campaign draws spawn key ``key`` from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


SESSION_PINS = {
    3: {
        "static_raw": "7a47fa084bc6506135e658586d372170a92deef65637aab3151b0148888b76ba",
        "rotation_raw": "de7c2fdb9c3be1b28d6efe6bae449f071d7e6a42671973c86aacc43cc80cc706",
        "test_rates": "e325de983c943c185c796f0fd1269fa2d476653385906a7595411ccb6d849277",
        "test_measurements": "c2fc63388a73c8f2596a94fbc85e2152e99a5cc8ce8f8dd67175aaf374d201a1",
    },
    11: {
        "static_raw": "68fe2384ead69b04059804d43a5ab07d0fd14aed07416594a3b867f7fa87fce9",
        "rotation_raw": "48505926da556c7373cbe0729e16f3cf6072d51156b27bfe816c09d06febcaf3",
        "test_rates": "241493e680e7a4a2f76304d1ee4946805c1c0b970ef7974a25b295dda8821335",
        "test_measurements": "3a204e1283efa8b187b9c46e20ab8d37b2ac53f11d748e686a9eac32a44c7cb7",
    },
}


@pytest.mark.parametrize("seed", sorted(SESSION_PINS))
def test_simulate_session_draw_stream_is_pinned(seed):
    # Default config: 0.15 deg/s noise, cross-coupling on.
    cfg = SimulationConfig(rng_seed=seed, noise_sigma=0.15, n_param_sets=2, n_sims_per_set=3)
    truth = sample_ground_truth(cfg, _spawned_generator(cfg.rng_seed, (0, 1)))
    sim = simulate_session(truth, cfg, _spawned_generator(cfg.rng_seed, (1, 1, 2)))
    got = {
        "static_raw": _sha256(sim.static_raw),
        "rotation_raw": _sha256(np.stack(sim.rotation_raw)),
        "test_rates": _sha256(sim.test_rates),
        "test_measurements": _sha256(sim.test_measurements),
    }
    assert got == SESSION_PINS[seed]


CAMPAIGN_PINS = {
    (0, 0): ((-3.0622160273706176, 3.9464908921553508, 4.84741552754403), 12.864142303173379),
    (0, 2): ((-3.0582812834920503, 3.9486269313965545, 4.849689723175099), 13.030173396737531),
    (1, 1): ((0.365632415744124, -3.092796232974831, -3.1743620172816227), 14.424680186397948),
}


def test_campaign_biases_and_pre_rms_are_pinned():
    cfg = SimulationConfig(rng_seed=5, noise_sigma=0.03, n_param_sets=2, n_sims_per_set=3)
    report = run_monte_carlo(cfg)
    rows = {tuple(index): row for row, index in enumerate(report.indices.tolist())}
    for key, (biases, pre_rms) in CAMPAIGN_PINS.items():
        row = rows[key]
        assert repr(tuple(report.estimate[row, 3:].tolist())) == repr(biases)
        assert repr(float(report.pre_rms[row])) == repr(pre_rms)


# The simulator draws every uniform value as ``Generator.random`` and maps
# the draws to their range afterwards, once per block. That is numpy's own
# ``Generator.uniform`` arithmetic, ``low + (high - low) * u`` on the same
# doubles, so the numbers are numpy's to the bit.
@settings(max_examples=300, deadline=None)
@given(
    low=st.floats(-1e300, 1e300),
    width=st.one_of(st.just(0.0), st.floats(1e-300, 1e300)),
    size=st.integers(1, 40),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_uniform_is_numpys_map_of_random_draws(low, width, size, seed):
    high = low + width  # finite and well-ordered; the range may collapse
    expected = np.random.default_rng(seed).uniform(low, high, size).tobytes()
    draws = np.random.default_rng(seed).random(size)
    assert (low + (high - low) * draws).tobytes() == expected
    assert simulator._uniform(draws, (low, high)).tobytes() == expected


def _per_call_truth(config, rng):
    """A truth's arrays as drawn by one ``Generator.uniform`` call per group."""
    scales = rng.uniform(*config.scale_range, size=3)
    biases = rng.uniform(*config.bias_range, size=3)
    coupling = np.eye(3)
    coupling[~np.eye(3, dtype=bool)] = rng.uniform(*config.misalignment_range, size=6)
    return scales, biases, coupling


def _per_call_session_draws(config, rng):
    """A session's control ordinates ``(3, 4)`` and test rates, drawn by one
    ``Generator.uniform`` call per turn and per test set between the normal
    draws, in the fixed draw order."""
    nominal = config.rotation_angle / config.rotation_duration
    noisy = config.noise_sigma > 0.0
    if noisy:
        rng.standard_normal((config.static_samples, 3))
    ordinates = []
    for _axis in range(3):
        ordinates.append(rng.uniform(0.5, 1.5, size=4) * nominal)
        if noisy:
            rng.standard_normal((config.rotation_samples, 3))
    test_rates = rng.uniform(*config.test_rate_range, size=(config.n_test_rates, 3))
    if noisy:
        rng.standard_normal((config.n_test_rates, 3))
    return np.array(ordinates), test_rates


ORACLE_CONFIG = dict(scale_range=(0.55, 2.25), bias_range=(-30.0, 7.5),
                     misalignment_range=(-0.2, 0.05), test_rate_range=(-500.0, 250.0),
                     rotation_angle=270.0, rotation_duration=4.0, rng_seed=23,
                     n_param_sets=3, n_sims_per_set=2, n_test_rates=50)


def test_truth_draws_match_per_call_uniform():
    config = SimulationConfig(**ORACLE_CONFIG)
    oracle, rng = _spawned_generator(23, (0, 1)), _spawned_generator(23, (0, 1))
    scales, biases, coupling = _per_call_truth(config, oracle)
    truth = sample_ground_truth(config, rng)
    assert truth.params.scales.tobytes() == scales.tobytes()
    assert truth.params.biases.tobytes() == biases.tobytes()
    assert truth.misalignment.tobytes() == coupling.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state
    report = run_monte_carlo(config)
    assert len(report.indices)
    for (set_index, _), row in zip(report.indices.tolist(), report.truth):
        scales, biases, _ = _per_call_truth(config, _spawned_generator(23, (0, set_index)))
        assert row.tobytes() == np.concatenate([scales, biases]).tobytes()


@pytest.mark.parametrize("noise_sigma", [0.0, 0.1])
def test_session_draws_match_per_call_uniform(noise_sigma):
    config = SimulationConfig(noise_sigma=noise_sigma, **ORACLE_CONFIG)
    truth = sample_ground_truth(config, _spawned_generator(23, (0, 0)))
    oracle, rng = _spawned_generator(23, (1, 0, 0)), _spawned_generator(23, (1, 0, 0))
    ordinates, test_rates = _per_call_session_draws(config, oracle)
    assert simulate_session(truth, config, rng).test_rates.tobytes() == test_rates.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state
    block = simulator._SessionBlock(config, 1)
    block.simulate(truth.params.scales[None], truth.params.biases[None],
                   truth.misalignment[None], [_spawned_generator(23, (1, 0, 0))])
    assert block.ordinates[0].tobytes() == ordinates.tobytes()


def test_bezier_profile_matches_per_call_uniform():
    config = SimulationConfig(**ORACLE_CONFIG)
    oracle, rng = _spawned_generator(23, (2,)), _spawned_generator(23, (2,))
    nominal = config.rotation_angle / config.rotation_duration
    n = config.rotation_samples
    expected = simulator._bezier_samples(oracle.uniform(0.5, 1.5, size=4) * nominal, config,
                                         simulator._bezier_basis(n), np.empty(n), np.empty(n))
    assert bezier_profile(rng, config).tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


# sha256 of each file ``gyrocal simulate --seed 17`` writes for 5 truth
# sets x 7 replicates at both noise levels, cross-coupling on. Unlike the
# pins above these cover the scale estimates, post-correction RMS and the
# summary statistics, so they also hold the least-squares solve and the
# report's formatting fixed. Recorded with numpy 2.4 and its bundled
# OpenBLAS on x86-64; another LAPACK build may move scales in the last ulp.
SIMULATE_OUTPUT_PINS = {
    "replicates_sigma_0.03.csv": "1301eceaa5a8839accb1ebe0fb3620f0481c199c62aa3d0c4bdd93443a70469f",
    "replicates_sigma_0.15.csv": "2f79f623f5350ae3df621d8493515dd6b2765f96897db887ee0c35c7ec2a2602",
    "summary.json": "f93660ba631aac8dbe556a6f5547ea6da3bd596aa6f1bfdf3ed1a8646e6880e7",
}


def test_simulate_output_bytes_are_pinned(tmp_path):
    config = tmp_path / "campaign.yaml"
    config.write_text("noise_levels: [0.03, 0.15]\nn_param_sets: 5\nn_sims_per_set: 7\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--seed", "17", "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == SIMULATE_OUTPUT_PINS


# sha256 of the JSON ``gyrocal calibrate`` prints for the session log the
# demo script writes (its seed and noise level), recorded with numpy 2.4
# like the pins above. They cover the session summaries, the closed form,
# the condition number and the CLI's diagnostics.
CALIBRATE_OUTPUT_PINS = {
    (2024, 0.15): "214fbd78fe921159262ddb0ced62277686a816d5562c323638a0586c0de03366",
    (7, 0.03): "051a81e18aad913397a952fc072bdb916d6d7f2026dff1e0d4a34b16711062b1",
}


@pytest.mark.parametrize("seed,sigma", sorted(CALIBRATE_OUTPUT_PINS))
def test_calibrate_output_bytes_are_pinned(tmp_path, capsys, seed, sigma):
    config = SimulationConfig(noise_sigma=sigma, rng_seed=seed)
    rng = np.random.default_rng(seed)
    truth = sample_ground_truth(config, rng)
    sim = simulate_session(truth, config, rng)
    log = tmp_path / "session.csv"
    write_session_log(log, SessionLog.from_arrays(
        sim.static_raw, list(sim.rotation_raw), config.sample_rate,
        rotation_angle=config.rotation_angle, full_scale=245.0, device="bench unit 1"))
    assert main(["calibrate", str(log), "--noise-sigma", repr(sigma)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == CALIBRATE_OUTPUT_PINS[(seed, sigma)]
