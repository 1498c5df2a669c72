"""Pins of the simulator's random draw stream.

The hashes and reprs below hold the spawn keys and the draw order fixed:
``simulate_session``'s per-sample draws, and a campaign truth set's two
streams, ``(0, s)`` with its truth and then its replicates' normals and
``(1, s)`` with their gamma variates. A change that reorders, merges or
re-derives any draw breaks them. Scale estimates are not pinned
because the least-squares solve may move them in the last ulps; the
biases depend on the draws and the measurement model alone, and the
expected test-set RMS before correction on the truth alone.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import numpy_generator, simulated_log
from gyrocal import (
    SimulationConfig,
    bezier_profile,
    run_monte_carlo,
    sample_ground_truth,
    simulate_session,
    simulator,
)
from gyrocal.cli import main


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


SESSION_PINS = {
    3: {
        "static_raw": "7a47fa084bc6506135e658586d372170a92deef65637aab3151b0148888b76ba",
        "rotation_raw": "de7c2fdb9c3be1b28d6efe6bae449f071d7e6a42671973c86aacc43cc80cc706",
    },
    11: {
        "static_raw": "68fe2384ead69b04059804d43a5ab07d0fd14aed07416594a3b867f7fa87fce9",
        "rotation_raw": "48505926da556c7373cbe0729e16f3cf6072d51156b27bfe816c09d06febcaf3",
    },
}


@pytest.mark.parametrize("seed", sorted(SESSION_PINS))
def test_simulate_session_draw_stream_is_pinned(seed):
    # Default config: 0.15 deg/s noise, cross-coupling on.
    cfg = SimulationConfig(rng_seed=seed, noise_sigma=0.15, n_param_sets=2, n_sims_per_set=3)
    truth = sample_ground_truth(cfg, numpy_generator(cfg.rng_seed, (0, 1)))
    sim = simulate_session(truth, cfg, numpy_generator(cfg.rng_seed, (1, 1, 2)))
    got = {
        "static_raw": _sha256(sim.static_raw),
        "rotation_raw": _sha256(np.stack(sim.rotation_raw)),
    }
    assert got == SESSION_PINS[seed]


CAMPAIGN_PINS = {
    (0, 0): ((-3.0579333889820726, 3.9451833304976374, 4.851420850929545), 12.798100689111092),
    (0, 2): ((-3.0605033995386557, 3.945577704166087, 4.847926865206681), 12.798100689111092),
    (1, 1): ((0.36561372740589737, -3.0899275693372594, -3.1776487760093133), 14.449488961773994),
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
# the draws to their range afterwards. That is numpy's own
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
    assert draws.tobytes() == np.random.default_rng(seed).random(size).tobytes()  # left as drawn


def _per_call_truth(config, rng):
    """A truth's arrays as drawn by one ``Generator.uniform`` call per group."""
    scales = rng.uniform(*config.scale_range, size=3)
    biases = rng.uniform(*config.bias_range, size=3)
    coupling = np.eye(3)
    coupling[~np.eye(3, dtype=bool)] = rng.uniform(*config.misalignment_range, size=6)
    return scales, biases, coupling


def _per_call_session(config, truth, rng):
    """A session's readings, still ``(N, 3)`` and turns ``(3, n, 3)``, from
    one ``Generator.uniform`` call per turn's control ordinates between the
    normal draws, in the fixed draw order."""
    nominal = config.rotation_angle / config.rotation_duration
    sigma = config.noise_sigma
    static_noise = rng.standard_normal((config.static_samples, 3)) if sigma > 0.0 else None
    ordinates, turn_noise = [], []
    for _axis in range(3):
        ordinates.append(rng.uniform(0.5, 1.5, size=4) * nominal)
        if sigma > 0.0:
            turn_noise.append(rng.standard_normal((config.rotation_samples, 3)))
    profiles = simulator._speed_traces(np.array(ordinates), config)
    scales, biases = truth.params.scales, truth.params.biases
    # Turn j, sample t, sensor axis l reads profile_j[t] M[l, j] / k_l - b_l.
    static = np.broadcast_to(0.0 - biases, (config.static_samples, 3))
    turns = profiles[:, :, None] * truth.misalignment.T[:, None, :] / scales - biases
    if sigma > 0.0:
        return static_noise * sigma + static, np.array(turn_noise) * sigma + turns
    return static, turns


ORACLE_CONFIG = dict(scale_range=(0.55, 2.25), bias_range=(-30.0, 7.5),
                     misalignment_range=(-0.2, 0.05), test_rate_range=(-500.0, 250.0),
                     rotation_angle=270.0, rotation_duration=4.0, rng_seed=23,
                     n_param_sets=3, n_sims_per_set=2, n_test_rates=50)


def test_truth_draws_match_per_call_uniform():
    config = SimulationConfig(**ORACLE_CONFIG)
    oracle, rng = numpy_generator(23, (0, 1)), numpy_generator(23, (0, 1))
    scales, biases, coupling = _per_call_truth(config, oracle)
    truth = sample_ground_truth(config, rng)
    assert truth.params.scales.tobytes() == scales.tobytes()
    assert truth.params.biases.tobytes() == biases.tobytes()
    assert truth.misalignment.tobytes() == coupling.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state
    report = run_monte_carlo(config)
    assert len(report.indices)
    for (set_index, _), row in zip(report.indices.tolist(), report.truth):
        scales, biases, _ = _per_call_truth(config, numpy_generator(23, (0, set_index)))
        assert row.tobytes() == np.concatenate([scales, biases]).tobytes()


@pytest.mark.parametrize("noise_sigma", [0.0, 0.1])
def test_session_draws_match_per_call_uniform(noise_sigma):
    config = SimulationConfig(noise_sigma=noise_sigma, **ORACLE_CONFIG)
    truth = sample_ground_truth(config, numpy_generator(23, (0, 0)))
    oracle, rng = numpy_generator(23, (1, 0, 0)), numpy_generator(23, (1, 0, 0))
    static, turns = _per_call_session(config, truth, oracle)
    sim = simulate_session(truth, config, rng)
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert sim.static_raw.tobytes() == static.tobytes()
    assert np.stack(sim.rotation_raw).tobytes() == turns.tobytes()


def test_bezier_profile_matches_per_call_uniform():
    config = SimulationConfig(**ORACLE_CONFIG)
    oracle, rng = numpy_generator(23, (2,)), numpy_generator(23, (2,))
    nominal = config.rotation_angle / config.rotation_duration
    expected = simulator._speed_traces(oracle.uniform(0.5, 1.5, size=4) * nominal, config)
    assert bezier_profile(rng, config).tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


# sha256 of each file ``gyrocal simulate --seed 17`` writes for 5 truth
# sets x 7 replicates at both noise levels, cross-coupling on. Unlike the
# pins above these cover the scale estimates, post-correction RMS and the
# summary statistics, so they also hold the least-squares solve and the
# report's formatting fixed. Recorded with numpy 2.4 and its bundled
# OpenBLAS on x86-64; another LAPACK build may move scales in the last ulp.
SIMULATE_OUTPUT_PINS = {
    "replicates_sigma_0.03.csv": "f2f636c82f7d61c5f1a05ccf78a6015c826fad5e05317cf283d0d8d280280847",
    "replicates_sigma_0.15.csv": "4789be7c4ef92415a1ee44166ee9d25811ba463cde0eb7b4b1c965a61f7da157",
    "summary.json": "6c59f09a9aa8252c36a57d9ed13bb4e107eaa585168af8e1f216ccb43f8979aa",
}

# sha256 of the same run's truths and estimates alone: each CSV without
# its last two columns, pre_rms and post_rms, and the summary's
# parameter_errors blocks. A change to how replicates are scored leaves
# these as they are.
ESTIMATE_PINS = {
    "replicates_sigma_0.03.csv": "0714ffc22ed0aadd6a1951c5e3a23efad9da5ddbd5604c255548d5937796d5be",
    "replicates_sigma_0.15.csv": "363370295ea31a44a021aefe50681e1327ce774e65492a1c5d5bdb80627d5a8c",
    "parameter_errors": "36a8932c28793a2045dc651bc1c12e86361c631609bb08550ffa8e9f68066b7a",
}


@pytest.fixture(scope="module")
def simulate_output(tmp_path_factory):
    """The files of the pinned ``gyrocal simulate --seed 17`` run, by name."""
    tmp_path = tmp_path_factory.mktemp("simulate")
    config = tmp_path / "campaign.yaml"
    config.write_text("noise_levels: [0.03, 0.15]\nn_param_sets: 5\nn_sims_per_set: 7\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--seed", "17", "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_simulate_output_bytes_are_pinned(simulate_output):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in simulate_output.items()}
    assert got == SIMULATE_OUTPUT_PINS


def test_simulate_estimates_are_pinned(simulate_output):
    files = dict(simulate_output)
    summary = json.loads(files.pop("summary.json"))
    got = {name: hashlib.sha256(b"".join(line.rsplit(b",", 2)[0] + b"\r\n"
                                         for line in data.splitlines())).hexdigest()
           for name, data in files.items()}
    errors = json.dumps({level: entry["parameter_errors"]
                         for level, entry in summary["campaigns"].items()}, sort_keys=True)
    got["parameter_errors"] = hashlib.sha256(errors.encode()).hexdigest()
    assert got == ESTIMATE_PINS


# sha256 of the JSON ``gyrocal calibrate`` prints for the session log the
# demo script writes (its seed and noise level), recorded with numpy 2.4
# like the pins above. They cover the session summaries, the closed form,
# the condition number and the CLI's diagnostics.
CALIBRATE_OUTPUT_PINS = {
    (2024, 0.15): "0fa41365f68d856f3fe1536d15c2048cf9f991141c23f2c8c9c2bed0ea0e7e1a",
    (7, 0.03): "9cae9a7a1e6de00a0bd75d7c37491947a6fa30d310d86b9ecf61ec5d1676f8e6",
}


@pytest.mark.parametrize("seed,sigma", sorted(CALIBRATE_OUTPUT_PINS))
def test_calibrate_output_bytes_are_pinned(tmp_path, capsys, seed, sigma):
    log = tmp_path / "session.csv"
    simulated_log(seed, log, full_scale=245.0, device="bench unit 1", noise_sigma=sigma)
    assert main(["calibrate", str(log), "--noise-sigma", repr(sigma)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == CALIBRATE_OUTPUT_PINS[(seed, sigma)]
