"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``setup``, then runs one
operation per ``run_op`` call: closed loop, one client, one process (the
cli_calibrate workload waits on one child process at a time). The
operation is timed from outside, in wall time and in CPU time, its
outputs are checked, and, on untraced operations, a floor is timed right
after it in the same process (see ``OpResult.floor``).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gyrocal.cli
import gyrocal.session_io
from gyrocal import (
    CalibrationParams,
    SessionLog,
    SimulationConfig,
    calibrate,
    sample_ground_truth,
    simulate_session,
)

BENCH_DIR = Path(__file__).resolve().parent
NOISE_LEVELS = (0.03, 0.15)
PARAM_KEYS = ("k_x", "k_y", "k_z", "b_x", "b_y", "b_z")
FULL_SCALE = 245.0
CHILD_TIMEOUT_S = 60.0

# Acceptance criteria 2-4 (tests/test_acceptance.py), applied to every
# campaign level the workload writes.
LOW_NOISE_MEDIAN_MAX = 1e-3
LOW_NOISE_QUARTILE_MAX = 5.5e-3
HIGH_NOISE_QUARTILE_MAX = 2.5e-2
IMPROVED_FRACTION_MIN = 0.99
RMS_REDUCTION_MIN = 0.90

# An accepted good log must land this close to the truth. Over 800 good
# sessions (both noise levels, 100 and 400 Hz, cross-coupling on) the
# worst errors were 0.011 in scale and 0.030 deg/s in bias.
SCALE_TOLERANCE = 0.03
BIAS_TOLERANCE_DEG_S = 0.06

DEFECTS = ("moved_still", "no_turn", "repeated_axis", "clipped_turns")
# Defects the current estimator does not reject. An accepted log of one of
# these kinds fails its check and counts in error_rate, but it is not a
# failed operation of the result line, nor a new regression.
KNOWN_DEFECTS = ("repeated_axis", "clipped_turns")


@dataclass
class OpResult:
    """One timed operation and what its checks found."""

    #: Wall time.
    seconds: float
    #: Work units done: replicates for campaign, otherwise 1.
    units: int
    #: CPU time of the operation's floor, for the same units, or None when
    #: traced: the replicates' random draws (campaign), a plain-Python text
    #: round trip of the log's rows (device_logs), or a bare
    #: ``python -c pass`` (cli_calibrate). No floor runs gyrocal code.
    floor: float | None
    problems: list[str] = field(default_factory=list)
    #: True when every problem is an accepted known-defect log.
    known_defect: bool = False
    #: CPU time, user and system: of this process, or of the child
    #: process on cli_calibrate.
    cpu: float = 0.0


def children_cpu_seconds() -> float:
    """CPU time, user and system, of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _quiet(argv: list[str]) -> tuple[int, str]:
    """In-process ``gyrocal`` call with stdout captured and stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = gyrocal.cli.main(argv)
    return status, out.getvalue()


def check_campaign(out_dir: Path, replicates_per_level: int, reference: bytes | None) -> list[str]:
    """Problems in one ``gyrocal simulate`` output directory (empty when correct)."""
    data = (out_dir / "summary.json").read_bytes()
    problems = []
    if reference is not None and data != reference:
        problems.append("summary.json differs from the same-seed reference run")
    try:
        campaigns = json.loads(data)["campaigns"]
        for sigma in NOISE_LEVELS:
            level = campaigns[repr(sigma)]
            errors = level["parameter_errors"].values()
            worst_median = max(abs(e["median"]) for e in errors)
            worst_quartile = max(max(abs(e["q1"]), abs(e["q3"])) for e in errors)
            test = level["test_set"]
            if level["n_failures"] != 0:
                problems.append(f"sigma {sigma}: {level['n_failures']} failed replicates")
            if level["n_replicates"] != replicates_per_level:
                problems.append(f"sigma {sigma}: {level['n_replicates']} replicates, "
                                f"expected {replicates_per_level}")
            with open(out_dir / level["replicates_csv"], "rb") as handle:
                rows = sum(1 for _ in handle) - 1
            if rows != level["n_replicates"]:
                problems.append(f"sigma {sigma}: {rows} CSV rows for {level['n_replicates']} replicates")
            if sigma == NOISE_LEVELS[0]:
                if worst_median > LOW_NOISE_MEDIAN_MAX or worst_quartile > LOW_NOISE_QUARTILE_MAX:
                    problems.append(f"sigma {sigma}: criterion 2 missed (|median| {worst_median:.2e}, "
                                    f"quartile {worst_quartile:.2e})")
                if (test["improved_fraction"] < IMPROVED_FRACTION_MIN
                        or test["median_rms_reduction"] < RMS_REDUCTION_MIN):
                    problems.append(f"sigma {sigma}: criterion 4 missed ({test})")
            elif worst_quartile > HIGH_NOISE_QUARTILE_MAX:
                problems.append(f"sigma {sigma}: criterion 3 missed (quartile {worst_quartile:.2e})")
    except (ValueError, KeyError, TypeError, AttributeError, OSError) as exc:
        problems.append(f"malformed campaign output: {exc!r}")
    return problems


class Campaign:
    """In-process ``gyrocal simulate`` at 0.03 and 0.15 deg/s, 30 truth sets."""

    name = "campaign"
    ops_per_pass = 1

    def __init__(self, workdir: Path, seed: int, n_param_sets: int = 30, n_sims_per_set: int = 4):
        self.seed = seed
        self.replicates_per_level = n_param_sets * n_sims_per_set
        self.config_path = workdir / "campaign.yaml"
        self.out_dir = workdir / "campaign"
        # Cross-coupling is off because criteria 2-4 hold only without it
        # (the diagonal model cannot represent coupling); drawing and
        # applying the zero coupling costs the same as any other.
        self.config_text = (
            f"noise_levels: [{', '.join(repr(s) for s in NOISE_LEVELS)}]\n"
            "misalignment_range: [0.0, 0.0]\n"
            f"n_param_sets: {n_param_sets}\n"
            f"n_sims_per_set: {n_sims_per_set}\n"
            f"rng_seed: {seed}\n"
        )
        self.argv = ["simulate", "--config", str(self.config_path), "--out", str(self.out_dir)]
        self.reference: bytes | None = None

    def setup(self) -> None:
        """Write the config and run it once: the same-seed reference output."""
        self.config_path.write_text(self.config_text)
        _quiet(self.argv)
        self.reference = (self.out_dir / "summary.json").read_bytes()

    def run_op(self, index: int, tracer) -> OpResult:
        start, cpu_start = time.perf_counter(), time.process_time()
        status, _ = _quiet(self.argv)
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        floor = None if tracer else self._draw_floor()
        problems = [] if status == 0 else [f"simulate exited {status}"]
        problems += check_campaign(self.out_dir, self.replicates_per_level, self.reference)
        return OpResult(seconds, len(NOISE_LEVELS) * self.replicates_per_level, floor, problems,
                        cpu=cpu)

    def _draw_floor(self) -> float:
        """Draw every normal and uniform the replicates of one call draw."""
        config = SimulationConfig()
        rng = _rng(self.seed, 99)
        start = time.process_time()
        for sigma in NOISE_LEVELS:
            for _ in range(self.replicates_per_level):
                rng.normal(0.0, sigma, size=(config.static_samples, 3))
                for _axis in range(3):
                    rng.uniform(0.5, 1.5, size=4)
                    rng.normal(0.0, sigma, size=(config.rotation_samples, 3))
                rng.uniform(*config.test_rate_range, size=(config.n_test_rates, 3))
                rng.normal(0.0, sigma, size=(config.n_test_rates, 3))
        return time.process_time() - start


@dataclass(frozen=True)
class LogCase:
    """One session log of the device_logs mix."""

    kind: str
    log: SessionLog
    sigma: float
    truth: CalibrationParams
    #: Parameters of in-memory ``calibrate`` on the same session (good logs).
    expected: dict | None


def check_log_result(case: LogCase, status: int, out_path: Path) -> tuple[list[str], bool]:
    """Problems with one ``gyrocal calibrate --out`` result, and whether
    they are only an accepted known-defect log."""
    written = out_path.exists()
    if case.kind != "good":
        if status == 1 and not written:
            return [], False
        return ([f"{case.kind} log accepted (exit {status}, --out written: {written})"],
                case.kind in KNOWN_DEFECTS)
    if status != 0 or not written:
        return [f"good log rejected (exit {status}, --out written: {written})"], False
    try:
        payload = json.loads(out_path.read_text())
        got = {k: float(payload[k]) for k in PARAM_KEYS}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed parameter JSON: {exc!r}"], False
    problems = truth_problems(got, case.truth)
    if got != case.expected:
        problems.append("parameters differ from in-memory calibrate of the same session")
    return problems, False


def truth_problems(got: dict, truth: CalibrationParams) -> list[str]:
    """Parameters farther from the truth than an accepted good log may be."""
    problems = []
    for key, true_value in truth.as_dict().items():
        tolerance = SCALE_TOLERANCE if key.startswith("k") else BIAS_TOLERANCE_DEG_S
        if not abs(got[key] - true_value) <= tolerance:
            problems.append(f"{key} = {got[key]!r} is {got[key] - true_value:+.3g} off the truth")
    return problems


def _simulated_log(config: SimulationConfig, rng: np.random.Generator, device: str):
    truth = sample_ground_truth(config, rng)
    sim = simulate_session(truth, config, rng)
    log = SessionLog.from_arrays(sim.static_raw, list(sim.rotation_raw), config.sample_rate,
                                 full_scale=FULL_SCALE, device=device)
    return truth, sim, log


def _defect_case(kind: str, rng: np.random.Generator, device: str) -> LogCase:
    """A 100 Hz session a hand-held run can get wrong, cross-coupling on."""
    sigma = 0.15 if kind in ("no_turn", "repeated_axis") else 0.03
    config = SimulationConfig(noise_sigma=sigma, n_test_rates=1)
    if kind == "moved_still":
        truth, sim, _ = _simulated_log(config, rng, device)
        static = sim.static_raw.copy()
        static[:, 0] += rng.uniform(5.0, 30.0) * np.sin(np.linspace(0.0, np.pi, len(static)))
        log = SessionLog.from_arrays(static, list(sim.rotation_raw), config.sample_rate,
                                     full_scale=FULL_SCALE, device=device)
    elif kind == "no_turn":
        # The turns integrate to 1e-6 degrees; the header still claims 360.
        still = SimulationConfig(noise_sigma=sigma, n_test_rates=1, rotation_angle=1e-6)
        truth, _, log = _simulated_log(still, rng, device)
    elif kind == "repeated_axis":
        # The third turn, logged as z, is an independent second turn about
        # y; z never turns.
        truth = sample_ground_truth(config, rng)
        first = simulate_session(truth, config, rng)
        second = simulate_session(truth, config, rng)
        log = SessionLog.from_arrays(
            first.static_raw, [first.rotation_raw[0], first.rotation_raw[1], second.rotation_raw[1]],
            config.sample_rate, full_scale=FULL_SCALE, device=device)
    elif kind == "clipped_turns":
        # One-second turns peak far above the +-245 deg/s full scale.
        fast = SimulationConfig(noise_sigma=sigma, n_test_rates=1, rotation_duration=1.0)
        truth = sample_ground_truth(fast, rng)
        sim = simulate_session(truth, fast, rng)
        clipped = [np.clip(raw, -FULL_SCALE, FULL_SCALE) for raw in sim.rotation_raw]
        log = SessionLog.from_arrays(sim.static_raw, clipped, fast.sample_rate,
                                     full_scale=FULL_SCALE, device=device)
    else:
        raise ValueError(f"unknown defect {kind!r}")
    return LogCase(kind, log, sigma, truth.params, None)


class DeviceLogs:
    """Write each session log, then in-process ``gyrocal calibrate --out``.

    A pass holds ``n_100hz`` good 100 Hz logs, ``n_400hz`` good 400 Hz
    logs (four times the rows) and one log of each defect, so the mix and
    the share of defects are the same for every seed.

    The 3:1 split of 100 Hz to 400 Hz logs is this benchmark's choice, not
    a measured device mix. Latency is bimodal (a 400 Hz log takes about 3x
    as long), and the split keeps each percentile well inside one mode: 31
    of 40 logs are at 100 Hz (the defects included), so the p50 is a 100 Hz
    log and the p90 a 400 Hz log. A 1:1 split would put the p50 within two
    logs of the seam between the modes, where a shift of a few logs moves
    it 3x.
    """

    name = "device_logs"

    def __init__(self, workdir: Path, seed: int, n_100hz: int = 27, n_400hz: int = 9):
        self.seed = seed
        self.n_100hz = n_100hz
        self.n_400hz = n_400hz
        self.ops_per_pass = n_100hz + n_400hz + len(DEFECTS)
        self.log_path = workdir / "session.csv"
        self.out_path = workdir / "params.json"
        self.floor_path = workdir / "floor.csv"
        self.cases: list[LogCase] = []

    def setup(self) -> None:
        cases = []
        rates = [100.0] * self.n_100hz + [400.0] * self.n_400hz
        for index, rate in enumerate(rates):
            sigma = NOISE_LEVELS[index % 2]
            config = SimulationConfig(noise_sigma=sigma, sample_rate=rate, n_test_rates=1)
            truth, sim, log = _simulated_log(config, _rng(self.seed, 1, index), f"unit {index}")
            expected = calibrate(sim.session, noise_sigma=sigma).as_dict()
            cases.append(LogCase("good", log, sigma, truth.params, expected))
        for index, kind in enumerate(DEFECTS):
            cases.append(_defect_case(kind, _rng(self.seed, 2, index), f"defect {index}"))
        self.cases = cases

    def run_op(self, index: int, tracer) -> OpResult:
        case = self.cases[index]
        if self.out_path.exists():
            self.out_path.unlink()
        start, cpu_start = time.perf_counter(), time.process_time()
        gyrocal.session_io.write_session_log(self.log_path, case.log)
        status, _ = _quiet(["calibrate", str(self.log_path), "--noise-sigma", repr(case.sigma),
                            "--out", str(self.out_path)])
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        floor = None if tracer else self._floor(case)
        problems, known = check_log_result(case, status, self.out_path)
        return OpResult(seconds, 1, floor, problems, known, cpu)

    def _floor(self, case: LogCase) -> float:
        """Write the log's rows as comma-separated text and parse them
        back, in plain Python: the least a text log of these samples costs."""
        start = time.process_time()
        with open(self.floor_path, "w") as handle:
            for seg in case.log.segments:
                for row in np.column_stack([seg.times, seg.samples]).tolist():
                    handle.write(",".join(map(repr, row)) + "\n")
        with open(self.floor_path) as handle:
            [[float(v) for v in line.split(",")] for line in handle]
        return time.process_time() - start


def check_cli_output(returncode: int, stdout: str, expected: dict,
                     truth: CalibrationParams) -> list[str]:
    """Problems with one ``python -m gyrocal calibrate`` run."""
    if returncode != 0:
        return [f"calibrate exited {returncode}"]
    try:
        payload = json.loads(stdout)
        problems = truth_problems({k: float(payload[k]) for k in PARAM_KEYS}, truth)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"stdout is not parameter JSON: {exc!r}"]
    if payload != expected:
        problems.append("stdout JSON differs from the in-process result")
    return problems


class CliCalibrate:
    """``python -m gyrocal calibrate <100 Hz log>`` as a fresh process."""

    name = "cli_calibrate"

    def __init__(self, workdir: Path, seed: int, n_logs: int = 4):
        self.workdir = workdir
        self.seed = seed
        self.ops_per_pass = n_logs
        self.spans_path = workdir / "child_spans.json"
        self.cases: list[tuple[list[str], dict, CalibrationParams]] = []

    def setup(self) -> None:
        cases = []
        for index in range(self.ops_per_pass):
            sigma = NOISE_LEVELS[index % 2]
            config = SimulationConfig(noise_sigma=sigma, n_test_rates=1)
            truth, _, log = _simulated_log(config, _rng(self.seed, 3, index), f"unit {index}")
            path = self.workdir / f"cli_session_{index}.csv"
            gyrocal.session_io.write_session_log(path, log)
            argv = ["calibrate", str(path), "--noise-sigma", repr(sigma)]
            _, text = _quiet(argv)
            cases.append((argv, json.loads(text), truth.params))
        self.cases = cases

    def run_op(self, index: int, tracer) -> OpResult:
        argv, expected, truth = self.cases[index]
        if tracer is None:
            command = [sys.executable, "-m", "gyrocal", *argv]
        else:
            command = [sys.executable, str(BENCH_DIR / "traced_child.py"), str(self.spans_path), *argv]
            # A child that dies before it writes its spans must not leave
            # the previous operation's spans to be merged again.
            self.spans_path.unlink(missing_ok=True)
        start, cpu_start = time.perf_counter(), children_cpu_seconds()
        proc = subprocess.run(command, capture_output=True, text=True, cwd=self.workdir,
                              timeout=CHILD_TIMEOUT_S)
        seconds, cpu = time.perf_counter() - start, children_cpu_seconds() - cpu_start
        if tracer is None:
            _, floor = python_start(self.workdir)
        else:
            floor = None
            with open(self.spans_path) as handle:
                tracer.merge(json.load(handle), tracer.op)
        return OpResult(seconds, 1, floor,
                        check_cli_output(proc.returncode, proc.stdout, expected, truth), cpu=cpu)


def python_start(cwd: Path) -> tuple[float, float]:
    """Wall time and CPU time of a bare ``python -c pass``."""
    start, cpu_start = time.perf_counter(), children_cpu_seconds()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, children_cpu_seconds() - cpu_start


WORKLOADS = {cls.name: cls for cls in (Campaign, DeviceLogs, CliCalibrate)}
