#!/usr/bin/env python3
"""End-to-end walkthrough of the recorded-session workflow.

Simulates a noisy hand-held protocol run (still stage plus three
turns), writes it to a session log exactly as an acquisition script
would, then drives the command-line tool on that file: calibrate the
log, store the parameter JSON, and compare it against the known truth.

Usage:
    python scripts/demo_device_workflow.py --workdir demo/
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from gyrocal import (
    SessionLog,
    SimulationConfig,
    sample_ground_truth,
    simulate_session,
    write_session_log,
)
from gyrocal.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="demo_session", help="where to put the files")
    parser.add_argument("--seed", type=int, default=2024, help="simulation seed")
    parser.add_argument("--noise-sigma", type=float, default=0.15,
                        help="measurement noise in deg/s (default 0.15)")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    config = SimulationConfig(noise_sigma=args.noise_sigma, rng_seed=args.seed)
    rng = np.random.default_rng(args.seed)
    truth = sample_ground_truth(config, rng)
    sim = simulate_session(truth, config, rng)

    log_path = os.path.join(args.workdir, "session.csv")
    write_session_log(
        log_path,
        SessionLog.from_arrays(
            sim.static_raw,
            list(sim.rotation_raw),
            config.sample_rate,
            rotation_angle=config.rotation_angle,
            full_scale=245.0,
            device="bench unit 1",
        ),
    )
    truth_path = os.path.join(args.workdir, "truth.json")
    with open(truth_path, "w", encoding="utf-8") as handle:
        json.dump(truth.params.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {log_path} and {truth_path}")
    print()

    estimate_path = os.path.join(args.workdir, "estimate.json")
    print("$ gyrocal calibrate session.csv --out estimate.json")
    status = cli_main(["calibrate", log_path,
                       "--noise-sigma", str(args.noise_sigma),
                       "--out", estimate_path])
    if status != 0:
        return status
    print()
    print("$ gyrocal compare estimate.json truth.json")
    return cli_main(["compare", estimate_path, truth_path])


if __name__ == "__main__":
    raise SystemExit(main())
