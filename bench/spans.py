"""In-memory spans around gyrocal's layer boundaries, and the layer metrics
computed from them.

The traced run never edits the package: ``install`` rebinds public gyrocal
attributes to timing wrappers defined here, in every gyrocal module that
holds the original object, and ``uninstall`` puts the originals back.
Spans stay in memory as ``[name, start, end, parent, op, failed]`` lists
(``parent`` is the index of the enclosing span, ``op`` the operation id
the benchmark was running) and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, FAILED = range(6)

# (span name, module, attribute) of the module-level functions to wrap.
FUNCTIONS = (
    ("simulator.run_monte_carlo", "gyrocal.simulator", "run_monte_carlo"),
    ("simulator.simulate_session", "gyrocal.simulator", "simulate_session"),
    ("simulator.bezier_profile", "gyrocal.simulator", "bezier_profile"),
    ("estimator.calibrate", "gyrocal.estimator", "calibrate"),
    ("session_io.read_session_log", "gyrocal.session_io", "read_session_log"),
    ("session_io.write_session_log", "gyrocal.session_io", "write_session_log"),
    ("cli.simulate", "gyrocal.cli", "cmd_simulate"),
    ("cli.calibrate", "gyrocal.cli", "cmd_calibrate"),
)

# (span name, module, class, attribute) of the methods to wrap.
METHODS = (
    ("simulator.summary", "gyrocal.simulator", "CampaignReport", "summary"),
    ("simulator.write_replicates_csv", "gyrocal.simulator", "CampaignReport",
     "write_replicates_csv"),
    ("model.from_samples", "gyrocal.model", "StaticObservation", "from_samples"),
    ("model.from_samples", "gyrocal.model", "RotationObservation", "from_samples"),
    ("session_io.session", "gyrocal.session_io", "SessionLog", "session"),
)

# Bytes written or read at a boundary: span name -> (counter, argument
# index of the file path).
FILE_SIZES = {
    "simulator.write_replicates_csv": ("simulator.replicates_csv_bytes", 1),
    "session_io.read_session_log": ("session_io.log_bytes", 0),
}


class Tracer:
    """Collects spans and byte counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, list[int]] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func):
        size_counter = FILE_SIZES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op, False]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return func(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                if size_counter is not None and not span[FAILED]:
                    counter, arg_index = size_counter
                    self.counters.setdefault(counter, []).append(
                        os.path.getsize(args[arg_index])
                    )

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped name in every gyrocal module that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "gyrocal" or n.startswith("gyrocal.")]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)
        for name, module_name, class_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self.wrap(name, original.__func__))
            else:
                wrapper = self.wrap(name, original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def merge(self, data: dict, op: int | None) -> None:
        """Append spans and counters another process recorded (see ``dump``)."""
        offset = len(self.spans)
        for name, start, end, parent, _, failed in data["spans"]:
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset, op, failed]
            )
        for counter, values in data["counters"].items():
            self.counters.setdefault(counter, []).extend(values)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "failed"],
                 "spans": self.spans, "counters": self.counters},
                handle,
            )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(tracer: Tracer, units: int, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures as ``name -> (value, unit)``, from traced passes
    that did ``units`` work units (replicates, logs or processes) in all.

    Times are means per call, so that they add up to wall time; a layer
    the workload never called reads 0. Counts are per work unit or per
    pass, so that they do not grow with the number of passes a run fits.
    """
    total: dict[str, list[float]] = defaultdict(list)
    own: dict[str, list[float]] = defaultdict(list)
    rejected = 0
    for span, self_time in zip(tracer.spans, self_times(tracer.spans)):
        total[span[NAME]].append(span[END] - span[START])
        own[span[NAME]].append(self_time)
        if span[NAME] == "estimator.calibrate" and span[FAILED]:
            rejected += 1
    counters = defaultdict(list, tracer.counters)

    def mean(values: list[float] | list[int], scale: float = 1.0) -> float:
        return scale * statistics.fmean(values) if values else 0.0

    replicates = len(total["simulator.simulate_session"])
    monte_carlo_self = sum(own["simulator.run_monte_carlo"])
    return {
        "simulator.simulate_session.self_us": (mean(own["simulator.simulate_session"], 1e6), "us"),
        "simulator.bezier_profile.us": (mean(total["simulator.bezier_profile"], 1e6), "us"),
        "simulator.run_monte_carlo.self_us_per_replicate": (
            1e6 * monte_carlo_self / replicates if replicates else 0.0, "us"),
        "simulator.summary_ms": (mean(total["simulator.summary"], 1e3), "ms"),
        "simulator.write_replicates_csv_ms": (mean(total["simulator.write_replicates_csv"], 1e3), "ms"),
        "simulator.replicates_csv_bytes": (mean(counters["simulator.replicates_csv_bytes"]), "bytes"),
        "model.from_samples.us": (mean(total["model.from_samples"], 1e6), "us"),
        "estimator.calibrate.us": (mean(total["estimator.calibrate"], 1e6), "us"),
        "estimator.calibrate.calls_per_unit": (
            len(total["estimator.calibrate"]) / units if units else 0.0, "count"),
        "estimator.calibrate.rejected_per_pass": (rejected / passes if passes else 0.0, "count"),
        "session_io.write_session_log_ms": (mean(total["session_io.write_session_log"], 1e3), "ms"),
        "session_io.read_session_log_ms": (mean(total["session_io.read_session_log"], 1e3), "ms"),
        "session_io.session_ms": (mean(total["session_io.session"], 1e3), "ms"),
        "session_io.log_bytes": (mean(counters["session_io.log_bytes"]), "bytes"),
        "cli.simulate.self_ms": (mean(own["cli.simulate"], 1e3), "ms"),
        "cli.calibrate.self_us": (mean(own["cli.calibrate"], 1e6), "us"),
    }
