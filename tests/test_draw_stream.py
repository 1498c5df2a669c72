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

from gyrocal import SimulationConfig, run_monte_carlo, sample_ground_truth, simulate_session
from gyrocal.simulator import _replicate_rng, _truth_rng


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
    truth = sample_ground_truth(cfg, _truth_rng(cfg, 1))
    sim = simulate_session(truth, cfg, _replicate_rng(cfg, 1, 2))
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
    records = {(r.set_index, r.replicate_index): r for r in report.records}
    for key, (biases, pre_rms) in CAMPAIGN_PINS.items():
        record = records[key]
        assert repr(tuple(float(b) for b in record.estimate.biases)) == repr(biases)
        assert repr(record.pre_rms) == repr(pre_rms)
