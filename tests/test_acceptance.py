"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the measured numbers so a
plain pytest run reads as a checklist. Tolerances and runtime budgets
are asserted, not just printed.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gyrocal import doe, observability
from gyrocal.cli import main as cli_main
from gyrocal.estimator import calibrate
from gyrocal.model import CalibrationParams
from gyrocal.observability import calibrate_nonlinear
from gyrocal.simulator import (
    SimulationConfig,
    run_monte_carlo,
    sample_ground_truth,
    simulate_session,
)

SEED = 20240401


def report(capsys, index, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {index}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {index} failed: {detail}"


@dataclass(frozen=True)
class TimedCampaign:
    summary: dict
    errors: np.ndarray
    seconds: float


def _campaign(noise_sigma, n_test_rates):
    config = SimulationConfig(
        noise_sigma=noise_sigma,
        misalignment_range=(0.0, 0.0),
        n_param_sets=30,
        n_sims_per_set=100,
        n_test_rates=n_test_rates,
        rng_seed=SEED,
    )
    start = time.perf_counter()
    result = run_monte_carlo(config)
    seconds = time.perf_counter() - start
    return TimedCampaign(result.summary(), result.parameter_errors(), seconds)


@pytest.fixture(scope="module")
def campaign_low_noise():
    return _campaign(0.03, n_test_rates=1000)


@pytest.fixture(scope="module")
def campaign_high_noise():
    return _campaign(0.15, n_test_rates=1)


def test_criterion_1_noiseless_round_trip(capsys):
    config = SimulationConfig(noise_sigma=0.0, misalignment_range=(0.0, 0.0),
                              n_test_rates=1, rng_seed=SEED)
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        truth = sample_ground_truth(config, rng)
        estimate = calibrate(simulate_session(truth, config, rng).session)
        worst = max(
            worst,
            float(np.max(np.abs(estimate.scales - truth.params.scales))),
            float(np.max(np.abs(estimate.biases - truth.params.biases))),
        )
    seconds = time.perf_counter() - start
    ok = worst < 1e-9 and seconds < 10.0
    report(capsys, 1, ok,
           f"1000 noiseless round trips, max parameter error {worst:.2e} "
           f"(< 1e-9), {seconds:.1f} s (< 10 s)")


def test_criterion_2_low_noise_error_distribution(capsys, campaign_low_noise):
    stats = campaign_low_noise.summary["parameter_errors"]
    worst_median = max(abs(stats[n]["median"]) for n in stats)
    worst_quartile = max(max(abs(stats[n]["q1"]), abs(stats[n]["q3"])) for n in stats)
    seconds = campaign_low_noise.seconds
    ok = worst_median <= 1e-3 and worst_quartile <= 5.5e-3 and seconds < 120.0
    report(capsys, 2, ok,
           f"30x100 campaign at 0.03 deg/s noise: worst |median| {worst_median:.1e} "
           f"(<= 1e-3), worst quartile {worst_quartile:.1e} (<= 5.5e-3), "
           f"{seconds:.1f} s (< 120 s)")


def test_criterion_3_high_noise_error_distribution(capsys, campaign_high_noise):
    stats = campaign_high_noise.summary["parameter_errors"]
    worst_quartile = max(max(abs(stats[n]["q1"]), abs(stats[n]["q3"])) for n in stats)
    seconds = campaign_high_noise.seconds
    ok = worst_quartile <= 2.5e-2 and seconds < 120.0
    report(capsys, 3, ok,
           f"30x100 campaign at 0.15 deg/s noise: worst quartile {worst_quartile:.1e} "
           f"(<= 2.5e-2), {seconds:.1f} s (< 120 s)")


def test_criterion_4_test_set_improvement(capsys, campaign_low_noise):
    test = campaign_low_noise.summary["test_set"]
    improved = test["improved_fraction"]
    reduction = test["median_rms_reduction"]
    ok = improved >= 0.99 and reduction >= 0.90
    report(capsys, 4, ok,
           f"correction lowers test-set RMS in {100 * improved:.1f}% of replicates "
           f"(>= 99%), median reduction {100 * reduction:.1f}% (>= 90%)")


def test_criterion_5_worst_case_prediction_variance(capsys):
    # one-turn-per-axis worst-case SPV = 3 +/- 1e-9, the redundant and the
    # half-magnitude designs above 3 + 1e-9 (the latter at 12 +/- 1e-9)
    start = time.perf_counter()
    checks = doe.property_checks(np.random.default_rng(SEED))
    seconds = time.perf_counter() - start
    ok = all(passed for passed, _ in checks) and seconds < 1.0
    report(capsys, 5, ok,
           "; ".join(message for _, message in checks) + f"; {seconds:.3f} s (< 1 s)")


def test_criterion_6_gradient_agreement(capsys):
    # N_GRADIENT_CONFIGS (100) random configs, worst relative gradient
    # mismatch < 1e-6, resting scale gradients exactly zero, resting bias
    # gradients nonzero
    start = time.perf_counter()
    checks = observability.property_checks(np.random.default_rng(SEED))
    seconds = time.perf_counter() - start
    ok = (observability.N_GRADIENT_CONFIGS == 100
          and all(passed for passed, _ in checks) and seconds < 5.0)
    report(capsys, 6, ok,
           "; ".join(message for _, message in checks) + f"; {seconds:.1f} s (< 5 s)")


def test_criterion_7_solver_equivalence(capsys):
    start = time.perf_counter()
    worst_clean = 0.0
    config = SimulationConfig(noise_sigma=0.0, misalignment_range=(0.0, 0.0),
                              n_test_rates=1, rng_seed=SEED + 1)
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        truth = sample_ground_truth(config, rng)
        session = simulate_session(truth, config, rng).session
        closed = calibrate(session)
        iterated = calibrate_nonlinear(session, CalibrationParams.identity())
        worst_clean = max(worst_clean, float(np.max(np.abs(
            np.concatenate([iterated.scales - closed.scales,
                            iterated.biases - closed.biases])))))

    noisy_config = SimulationConfig(noise_sigma=0.15, misalignment_range=(0.0, 0.0),
                                    n_test_rates=1, rng_seed=SEED + 2)
    noisy_rng = np.random.default_rng(SEED + 2)
    # the dominant estimator noise is the bias: sigma / sqrt(300 samples)
    sigma_bias = 0.15 / np.sqrt(300.0)
    worst_noisy = 0.0
    for _ in range(25):
        truth = sample_ground_truth(noisy_config, noisy_rng)
        session = simulate_session(truth, noisy_config, noisy_rng).session
        closed = calibrate(session)
        iterated = calibrate_nonlinear(session, CalibrationParams.identity())
        worst_noisy = max(worst_noisy, float(np.max(np.abs(
            np.concatenate([iterated.scales - closed.scales,
                            iterated.biases - closed.biases])))))
    seconds = time.perf_counter() - start
    ok = worst_clean <= 1e-6 and worst_noisy < 3.0 * sigma_bias and seconds < 30.0
    report(capsys, 7, ok,
           f"closed form vs iterative: noiseless max gap {worst_clean:.1e} (<= 1e-6), "
           f"noisy max gap {worst_noisy:.1e} (< 3 sigma = {3 * sigma_bias:.1e}); "
           f"{seconds:.1f} s (< 30 s)")


TABLE_CASES = [
    # (proposed method row, reference turntable row, printed difference column)
    (
        {"k_x": 1.1879, "k_y": 1.1384, "k_z": 1.1629,
         "b_x": -3.0765, "b_y": 1.8271, "b_z": -1.4467},
        {"k_x": 1.1983, "k_y": 1.1603, "k_z": 1.1647,
         "b_x": -3.0500, "b_y": 1.7995, "b_z": -1.4763},
        {"k_x": 0.0104, "k_y": 0.0220, "k_z": 0.0018,
         "b_x": 0.0265, "b_y": -0.0275, "b_z": -0.0296},
    ),
    (
        {"k_x": 1.0102, "k_y": 0.9984, "k_z": 1.0006,
         "b_x": 0.7253, "b_y": -2.0834, "b_z": -0.0829},
        {"k_x": 1.0091, "k_y": 0.9954, "k_z": 0.9958,
         "b_x": 0.7157, "b_y": -2.0784, "b_z": -0.0923},
        {"k_x": -0.0011, "k_y": -0.0030, "k_z": -0.0048,
         "b_x": -0.0096, "b_y": 0.0051, "b_z": -0.0094},
    ),
]


def test_criterion_8_published_comparison_columns(capsys, tmp_path):
    details = []
    ok = True
    for case_index, (ours, reference, printed_column) in enumerate(TABLE_CASES):
        a = tmp_path / f"proposed_{case_index}.json"
        b = tmp_path / f"turntable_{case_index}.json"
        a.write_text(json.dumps(ours), encoding="utf-8")
        b.write_text(json.dumps(reference), encoding="utf-8")
        status = cli_main(["compare", str(a), str(b), "--threshold", "0.03"])
        out = capsys.readouterr().out
        assert status == 0
        cells = {}
        for line in out.splitlines()[1:7]:
            fields = line.split()
            cells[fields[0]] = fields[3]
        for key, expected in printed_column.items():
            exact = reference[key] - ours[key]
            shown = cells[key]
            if shown != f"{exact:.4f}":
                ok = False
            # three published cells carry a one-ulp-in-the-last-digit slip
            if abs(float(shown) - expected) > 1.5e-4:
                ok = False
        worst_vs_printed = max(
            abs(float(cells[k]) - printed_column[k]) for k in printed_column)
        details.append(f"device {case_index + 1} worst gap to printed column "
                       f"{worst_vs_printed:.1e}")
    report(capsys, 8, ok,
           "compare reproduces both published difference columns from the "
           "published parameter values (k_x difference 0.0104 included); "
           + "; ".join(details))
