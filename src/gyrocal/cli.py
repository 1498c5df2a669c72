"""Command-line entry points.

Four subcommands cover the workflow end to end: ``simulate`` runs
Monte-Carlo campaigns and writes their artifacts, ``calibrate`` turns a
recorded session log into parameter JSON, ``compare`` diffs two
parameter files the way published result tables do, and ``verify`` runs
the built-in design and sensitivity property suites.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import os
import sys
from typing import NoReturn, Sequence

import numpy as np

# Lazy modules (see the package docstring): binding them loads nothing,
# so only simulate and verify pay to run them.
from . import doe, observability, simulator
from .estimator import calibrate
from .model import AXES, PARAM_NAMES, CalibrationError, CalibrationParams, as_float
from .session_io import read_session_log

__all__ = ["main", "run"]

_VERIFY_SEED = 20240817


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        configs = simulator.load_configs(args.config, args.seed)
    except (OSError, CalibrationError) as exc:
        return _fail(f"bad simulation config: {exc}")
    try:
        simulator.write_campaigns(configs, args.out)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    except CalibrationError as exc:  # a campaign that outgrows memory, or a level that overflows
        return _fail(f"bad simulation config: {exc}")
    return 0


def _calibration_payload(args: argparse.Namespace) -> dict:
    log = read_session_log(args.log)
    obs = log.session()
    params = calibrate(obs, noise_sigma=args.noise_sigma)
    rotations = []
    for tag, corrected in zip(log.rotation_axes, obs.corrected_sums(params.biases)):
        rotations.append(
            {
                "axis_tag": tag,
                "integrated_degrees": {a: float(corrected[i]) for i, a in enumerate(AXES)},
            }
        )
    payload: dict = dict(params.as_dict())
    payload["units"] = {"scale": "dimensionless", "bias": "deg/s", "rates": "deg/s"}
    payload["diagnostics"] = {
        "condition_number": params.condition_number,
        "static_std": {a: float(obs.static_stds[i]) for i, a in enumerate(AXES)},
        "rotations": rotations,
        "saturated_samples": log.saturated_sample_count(),
        "device": log.device,
        "sample_rate": log.sample_rate,
    }
    return payload


def cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        payload = _calibration_payload(args)
    except OSError as exc:
        return _fail(f"cannot read log: {exc}")
    except CalibrationError as exc:
        return _fail(str(exc))
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            return _fail(f"cannot write output: {exc}")
    print(text)
    return 0


def _read_params_json(path: str) -> dict[str, float]:
    """The six parameters of a JSON file: each a JSON number, and checked as
    ``CalibrationParams`` checks them, finite, with positive scales."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:  # not JSON, not UTF-8, or an int past Python's digit limit
        raise CalibrationError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise CalibrationError(f"{path}: expected a JSON object with parameter fields")
    missing = [k for k in PARAM_NAMES if k not in data]
    if missing:
        raise CalibrationError(f"{path}: missing parameter fields: {', '.join(missing)}")
    try:
        values = {}
        for key in PARAM_NAMES:
            value = data[key]
            # A JSON number parses to an int or a float; a bool is an int too.
            if type(value) not in (int, float):
                raise CalibrationError(
                    f"field {key!r} must be a JSON number, got {json.dumps(value)}")
            values[key] = as_float(f"field {key!r}", value)
        return CalibrationParams(**values).as_dict()
    except CalibrationError as exc:
        raise CalibrationError(f"{path}: {exc}") from None


def cmd_compare(args: argparse.Namespace) -> int:
    if not 0.0 <= args.threshold < np.inf:
        return _fail(f"threshold must be finite and non-negative, got {args.threshold!r}")
    try:
        first = _read_params_json(args.first)
        second = _read_params_json(args.second)
    except (OSError, CalibrationError) as exc:
        return _fail(str(exc))
    label_a = os.path.splitext(os.path.basename(args.first))[0]
    label_b = os.path.splitext(os.path.basename(args.second))[0]
    print(f"{'parameter':<10} {label_a:>12} {label_b:>12} {'difference':>12}")
    flagged = 0
    for key in PARAM_NAMES:
        diff = second[key] - first[key]
        mark = ""
        if abs(diff) > args.threshold:
            mark = "  *"
            flagged += 1
        print(f"{key:<10} {first[key]:>12.4f} {second[key]:>12.4f} {diff:>12.4f}{mark}")
    if flagged:
        print(f"{flagged} difference(s) above threshold {args.threshold:g} (marked *)")
    else:
        print(f"all differences within threshold {args.threshold:g}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = {"doe": doe.property_checks, "observability": observability.property_checks}
    checks = suites[args.suite](np.random.default_rng(_VERIFY_SEED))
    failures = 0
    for ok, message in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {message}")
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


@functools.cache  # parse_args keeps no state, so one parser serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyrocal",
        description="Triaxial gyroscope autocalibration from one still stage and three turns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run Monte-Carlo calibration campaigns")
    p_sim.add_argument("--config", help="YAML campaign config (noise_levels fans out)")
    p_sim.add_argument("--seed", type=int, help="override the campaign RNG seed")
    p_sim.add_argument("--out", default=".", help="output directory (default: current)")

    p_cal = sub.add_parser("calibrate", help="estimate parameters from a session log")
    p_cal.add_argument("log", help="session log CSV path")
    p_cal.add_argument(
        "--noise-sigma",
        type=float,
        default=0.15,
        help="expected rate noise (deg/s) for the stillness guard (default 0.15)",
    )
    p_cal.add_argument("--out", help="also write the JSON to this file")

    p_cmp = sub.add_parser("compare", help="diff two parameter JSON files")
    p_cmp.add_argument("first", help="parameter JSON (reference column)")
    p_cmp.add_argument("second", help="parameter JSON (comparison column)")
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.03,
        help="flag differences whose magnitude exceeds this (default 0.03)",
    )

    p_ver = sub.add_parser("verify", help="run built-in property suites")
    p_ver.add_argument("--suite", choices=("doe", "observability"), required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The handler is looked up by name on each call, not stored in the
    # parser: the parser outlives the call, and a cmd_* function rebound
    # since it was built (the benchmark's traced run wraps them) must run.
    return globals()[f"cmd_{args.command}"](args)


def run() -> NoReturn:
    """Run the command of ``sys.argv`` as the whole process, and exit: the
    entry of the ``gyrocal`` script and of ``python -m gyrocal``.

    The objects that numpy and gyrocal built at import live until exit,
    so they go into the collector's permanent generation first: no
    collection during the command traverses them again. ``main`` called
    in-process freezes nothing.

    Once ``main`` returns, the process ends at its answer: stdout is
    flushed, the ``atexit`` callbacks registered so far run once (a
    wrapper's hook, such as coverage's, still fires), both streams are
    flushed again and ``os._exit`` ends the process without tearing its
    modules down. An argparse exit (``--help``, a bad argument) or an
    uncaught exception leaves through the normal interpreter exit. A
    profiler or other wrapper that needs the interpreter after the
    command should call ``main``.

    A reader that closes stdout early, as ``| head`` does, ends the
    process with status 1 and no traceback, as the Python ``signal``
    docs advise ("Note on SIGPIPE")."""
    gc.freeze()
    try:
        status = main()
        sys.stdout.flush()  # the answer is out before any exit hook runs
    except BrokenPipeError:
        status = 1
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()  # what the hooks printed
    except BrokenPipeError:  # the closed pipe still holds the unwritten text
        status = 1
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
