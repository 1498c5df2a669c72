#!/usr/bin/env python3
"""Monte-Carlo error-distribution study at both standard noise levels.

Writes the campaign config to ``campaign.yaml`` in the output directory,
runs ``gyrocal simulate`` on it at 0.03 and 0.15 deg/s noise (replicate
CSVs plus ``summary.json``), and prints per-parameter quartile tables
from the summary. The default size keeps a laptop run under a minute;
pass --full for the 30x500 version.

Usage:
    python scripts/reproduce_simulation_figures.py --out results/
    python scripts/reproduce_simulation_figures.py --full --out results_full/
"""

from __future__ import annotations

import argparse
import json
import os

import yaml

from gyrocal.cli import main as cli_main
from gyrocal.model import PARAM_NAMES


def show(value: float | None, spec: str, scale: float = 1.0) -> str:
    """``scale * value`` formatted by ``spec``; ``n/a`` for a statistic the
    campaign had no value for, such as when every replicate failed."""
    return "n/a" if value is None else format(scale * value, spec)


def print_quartiles(summary: dict) -> None:
    print(f"  noise sigma {summary['noise_sigma']:g} deg/s, "
          f"{summary['n_replicates']} replicates, {summary['n_failures']} failures")
    print(f"  {'param':<6} {'q1':>12} {'median':>12} {'q3':>12}")
    for name in PARAM_NAMES:
        row = summary["parameter_errors"][name]
        print(f"  {name:<6} " + " ".join(f"{show(row[key], '.2e'):>12}"
                                         for key in ("q1", "median", "q3")))
    test = summary["test_set"]
    print(f"  test set: median RMS {show(test['median_pre_rms'], '.3f')} -> "
          f"{show(test['median_post_rms'], '.3f')} deg/s "
          f"({show(test['median_rms_reduction'], '.1f', 100)}% reduction, "
          f"improved in {show(test['improved_fraction'], '.1f', 100)}% of replicates)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="simulation_results", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="campaign RNG seed")
    parser.add_argument("--full", action="store_true",
                        help="run the full 30x500 campaign instead of 30x20")
    parser.add_argument("--misalignment", action="store_true",
                        help="also draw axis cross-coupling in (-0.10, 0.10)")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    config_path = os.path.join(args.out, "campaign.yaml")
    with open(config_path, "w", encoding="utf-8") as handle:
        yaml.safe_dump({
            "noise_levels": [0.03, 0.15],
            "n_param_sets": 30,
            "n_sims_per_set": 500 if args.full else 20,
            "misalignment_range": [-0.10, 0.10] if args.misalignment else [0.0, 0.0],
            "rng_seed": args.seed,
        }, handle, sort_keys=False)
    status = cli_main(["simulate", "--config", config_path, "--out", args.out])
    if status != 0:
        return status
    print()
    with open(os.path.join(args.out, "summary.json"), encoding="utf-8") as handle:
        campaigns = json.load(handle)["campaigns"]
    for sigma, summary in campaigns.items():
        print(f"campaign sigma={float(sigma):g}")
        print_quartiles(summary)
        print()
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
