"""What several test modules build, written once. A plain module: pytest
puts ``tests/`` on ``sys.path``, so a test imports it as ``builders``.
Nothing here writes a file except to a path the caller passes."""

import importlib.util
import os
import re
import subprocess
import sys

import numpy as np

import gyrocal
from gyrocal.model import ObservationArrays
from gyrocal.session_io import SessionLog, write_session_log
from gyrocal.simulator import SimulationConfig, sample_ground_truth, simulate_session

#: The ``src`` directory gyrocal is imported from.
SRC = os.path.dirname(os.path.dirname(gyrocal.__file__))

#: The checkout's root, which holds README.md and bench/.
ROOT = os.path.dirname(SRC)

#: The identity calibration, as the six fields of a parameters file.
IDENTITY = {"k_x": 1.0, "k_y": 1.0, "k_z": 1.0, "b_x": 0.0, "b_y": 0.0, "b_z": 0.0}


def simulated_log(seed, path=None, *, full_scale=None, device=None, **config):
    """The log of one simulated session: ``SimulationConfig(rng_seed=seed,
    **config)``, with the truth drawn and the session simulated from
    ``np.random.default_rng(seed)``, and the header's ``full_scale`` and
    ``device`` as given. Returns the log, the simulated session and the
    truth; the log is written to ``path`` when one is given."""
    config = SimulationConfig(rng_seed=seed, **config)
    rng = np.random.default_rng(seed)
    truth = sample_ground_truth(config, rng)
    sim = simulate_session(truth, config, rng)
    log = SessionLog.from_arrays(
        sim.static_raw, list(sim.rotation_raw), config.sample_rate,
        rotation_angle=config.rotation_angle, full_scale=full_scale, device=device)
    if path is not None:
        write_session_log(path, log)
    return log, sim, truth


def session_view(turn_sums, static_means=(0.0, 0.0, 0.0), durations=5.0, *,
                 stds=(0.0, 0.0, 0.0), theta=360.0):
    """The view of a session from explicit turn sums in degrees: a 3 s
    still stage with the given means and standard deviations (deg/s), then
    one turn per row of ``turn_sums``, lasting ``durations`` seconds with
    reference angle ``theta`` degrees (each one for every turn, or one per
    turn)."""
    sums = np.array(turn_sums, dtype=float)
    n = len(sums)
    return ObservationArrays(
        np.array(static_means, dtype=float), np.array(stds, dtype=float), 3.0, sums,
        np.full(n, durations, dtype=float), np.square(np.full(n, theta, dtype=float)))


def stack_views(views):
    """The views of single sessions stacked along a leading replicate axis."""
    return ObservationArrays(*(np.stack(field) for field in zip(*views)))


def numpy_generator(seed, key):
    """The generator numpy's own ``SeedSequence`` spawns for ``key``: the
    oracle for the campaign's streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def run_python(*args, **env):
    """``python *args`` in a new interpreter that imports gyrocal from this
    checkout, with ``env`` added to the environment; stdout and stderr are
    captured as UTF-8 text."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC, **env),
                          capture_output=True, encoding="utf-8", timeout=120)


def readme_blocks(language):
    """The text of every fenced ``language`` block of README.md."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def bench_workloads():
    """``bench/workloads.py``, imported once as the module ``bench_workloads``
    (its dataclasses look their module up in ``sys.modules``)."""
    if "bench_workloads" not in sys.modules:
        path = os.path.join(ROOT, "bench", "workloads.py")
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        sys.modules["bench_workloads"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]
