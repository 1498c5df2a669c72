"""Synthetic four-observation sessions and Monte-Carlo campaigns.

Generates sessions the way a person holding the sensor would produce
them: a still stage, then one full turn about each axis at an uneven
hand speed drawn from a random cubic Bezier curve. Truth parameters,
axis cross-coupling and white measurement noise are all configurable.
Campaigns replay many replicates over many truth draws and report how
the estimation errors distribute.

Determinism contract: every random stream is derived from the campaign
seed through named spawn keys, so a report is bit-identical across runs
and independent of replicate execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .estimator import Fit, fit_batch
from .model import (
    AXES,
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    RotationObservation,
    Session,
    StaticObservation,
)

__all__ = [
    "SimulationConfig",
    "GroundTruth",
    "SpeedProfile",
    "SimulatedSession",
    "ReplicateResult",
    "CampaignReport",
    "sample_ground_truth",
    "bezier_profile",
    "simulate_session",
    "run_monte_carlo",
]

#: Replicates a campaign simulates and fits together. Results do not
#: depend on it; it bounds the block's memory, which peaks at about
#: 180 kB per replicate at the default config, buffers and temporaries
#: together.
REPLICATE_BLOCK = 4

#: Bezier control ordinates are drawn in this band around the nominal
#: (constant-speed) rate before the exactness rescale.
_CONTROL_BAND = (0.5, 1.5)


def _check_range(name: str, bounds: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise CalibrationError(f"{name} must be a well-ordered finite range, got {bounds}")
    return lo, hi


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for session generation and campaign size.

    Units follow the rest of the package: degrees, seconds, Hz. The
    default ranges describe a consumer-grade part whose scale factors
    sit within 20% of unity and whose biases stay within 5 deg/s.
    """

    scale_range: tuple[float, float] = (0.8, 1.2)
    bias_range: tuple[float, float] = (-5.0, 5.0)
    misalignment_range: tuple[float, float] = (-0.10, 0.10)
    noise_sigma: float = 0.03
    sample_rate: float = 100.0
    static_duration: float = 3.0
    rotation_duration: float = 5.0
    rotation_angle: float = 360.0
    n_param_sets: int = 30
    n_sims_per_set: int = 500
    n_test_rates: int = 1000
    test_rate_range: tuple[float, float] = (-180.0, 180.0)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("scale_range", "bias_range", "misalignment_range", "test_rate_range"):
            object.__setattr__(self, name, _check_range(name, getattr(self, name)))
        if self.scale_range[0] <= 0.0:
            raise CalibrationError(f"scale_range must stay positive, got {self.scale_range}")
        if self.noise_sigma < 0.0:
            raise CalibrationError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if self.sample_rate <= 0.0:
            raise CalibrationError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.static_duration <= 0.0 or self.rotation_duration <= 0.0:
            raise CalibrationError("stage durations must be positive")
        if self.rotation_angle <= 0.0:
            raise CalibrationError(f"rotation_angle must be positive, got {self.rotation_angle}")
        for name in ("n_param_sets", "n_sims_per_set", "n_test_rates"):
            if getattr(self, name) < 1:
                raise CalibrationError(f"{name} must be at least 1, got {getattr(self, name)}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "SimulationConfig":
        """Build a config from parsed YAML/JSON, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise CalibrationError(f"unknown simulation config keys: {', '.join(unknown)}")
        kwargs: dict[str, object] = {}
        for key, value in mapping.items():
            if key.endswith("_range"):
                seq = list(value)  # type: ignore[arg-type]
                if len(seq) != 2:
                    raise CalibrationError(f"{key} must hold exactly two bounds, got {value!r}")
                kwargs[key] = (float(seq[0]), float(seq[1]))
            elif key.startswith("n_") or key == "rng_seed":
                kwargs[key] = int(value)  # type: ignore[arg-type]
            else:
                kwargs[key] = float(value)  # type: ignore[arg-type]
        return cls(**kwargs)

    @property
    def static_samples(self) -> int:
        return int(round(self.static_duration * self.sample_rate))

    @property
    def rotation_samples(self) -> int:
        return int(round(self.rotation_duration * self.sample_rate))


@dataclass(frozen=True)
class GroundTruth:
    """True sensor parameters plus the axis cross-coupling matrix."""

    params: CalibrationParams
    misalignment: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.misalignment, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise CalibrationError("misalignment must be a finite 3x3 matrix")
        if not np.array_equal(np.diag(m), np.ones(3)):
            raise CalibrationError("misalignment matrix must have a unit diagonal")
        m.setflags(write=False)
        object.__setattr__(self, "misalignment", m)


@dataclass(frozen=True)
class SpeedProfile:
    """One hand-rotation speed trace (deg/s) sampled at the session rate."""

    control_points: tuple[float, float, float, float]
    duration: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise CalibrationError("speed profile needs a 1-d trace of at least 2 samples")
        if self.duration <= 0.0:
            raise CalibrationError(f"profile duration must be positive, got {self.duration}")
        if not np.all(np.isfinite(samples)) or np.any(samples < 0.0):
            raise CalibrationError("speed profile samples must be finite and non-negative")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def integrated_angle(self) -> float:
        """Sample-sum quadrature of the trace, in degrees."""
        dt = self.duration / self.samples.size
        return float(self.samples.sum() * dt)


def sample_ground_truth(config: SimulationConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw one truth: uniform scales, biases and cross-coupling terms."""
    scales = rng.uniform(*config.scale_range, size=3)
    biases = rng.uniform(*config.bias_range, size=3)
    coupling = np.eye(3)
    off_diagonal = [(i, j) for i in range(3) for j in range(3) if i != j]
    for i, j in off_diagonal:
        coupling[i, j] = rng.uniform(*config.misalignment_range)
    return GroundTruth(
        params=CalibrationParams.from_arrays(scales, biases),
        misalignment=coupling,
    )


def _bezier_samples(ordinates: np.ndarray, config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Speed traces ``(..., n)`` of control ordinates ``(..., 4)``, rescaled
    to integrate to the turn angle, and their rescale factors ``(...)``."""
    n = config.rotation_samples
    u = (np.arange(n) + 0.5) / n
    v = 1.0 - u
    o = ordinates[..., None]
    samples = (
        o[..., 0, :] * v ** 3
        + 3.0 * o[..., 1, :] * u * v ** 2
        + 3.0 * o[..., 2, :] * u ** 2 * v
        + o[..., 3, :] * u ** 3
    )
    dt = config.rotation_duration / n
    factor = config.rotation_angle / (samples.sum(axis=-1) * dt)
    samples *= factor[..., None]
    return samples, factor


def _draw_ordinates(rng: np.random.Generator, config: SimulationConfig) -> np.ndarray:
    nominal = config.rotation_angle / config.rotation_duration
    return rng.uniform(_CONTROL_BAND[0], _CONTROL_BAND[1], size=4) * nominal


def _speed_profile(
    config: SimulationConfig, ordinates: np.ndarray, samples: np.ndarray, factor
) -> SpeedProfile:
    return SpeedProfile(
        control_points=tuple(float(c * factor) for c in ordinates),
        duration=config.rotation_duration,
        samples=samples,
    )


def bezier_profile(rng: np.random.Generator, config: SimulationConfig) -> SpeedProfile:
    """Random cubic Bezier speed curve integrating exactly to the turn angle.

    Four control ordinates are drawn around the constant-speed rate, the
    curve is evaluated at interval midpoints, and the whole trace is
    rescaled so its sample-sum quadrature lands on ``rotation_angle`` to
    within 1e-9 degrees. Positive control points keep the rate positive
    throughout, like a hand turn that never reverses.
    """
    ordinates = _draw_ordinates(rng, config)
    return _speed_profile(config, ordinates, *_bezier_samples(ordinates, config))


class _SessionBlock:
    """Buffers for up to ``size`` sessions of one config, stacked on a
    leading replicate axis, and the simulation that fills them. Arrays
    stay valid until the next ``simulate``."""

    def __init__(self, config: SimulationConfig, size: int) -> None:
        self.config = config
        n_static, n_rot, n_test = (
            config.static_samples, config.rotation_samples, config.n_test_rates
        )
        self.static_raw = np.empty((size, n_static, 3))
        self.rotation_raw = np.empty((size, 3, n_rot, 3))
        self.ordinates = np.empty((size, 3, 4))
        self.test_rates = np.empty((size, n_test, 3))
        self.test_measurements = np.empty((size, n_test, 3))

    def _draw(self, rngs: list[np.random.Generator]) -> None:
        """Each replicate's draws in the fixed order: static noise, then
        profile ordinates and noise per axis in x, y, z order, then test
        rates, then test noise. Noise is drawn only when ``noise_sigma > 0``."""
        config = self.config
        noisy = config.noise_sigma > 0.0
        for r, rng in enumerate(rngs):
            if noisy:
                rng.standard_normal(out=self.static_raw[r])
            for axis in range(3):
                self.ordinates[r, axis] = _draw_ordinates(rng, config)
                if noisy:
                    rng.standard_normal(out=self.rotation_raw[r, axis])
            self.test_rates[r] = rng.uniform(
                *config.test_rate_range, size=(config.n_test_rates, 3)
            )
            if noisy:
                rng.standard_normal(out=self.test_measurements[r])

    def simulate(self, truth: GroundTruth, rngs: list[np.random.Generator]) -> None:
        """One session per generator, in the first ``len(rngs)`` rows.

        The sensor reports each true rate through the coupling matrix and
        the inverse model, ``(M @ rate) / k - b``, plus white noise of
        ``noise_sigma``. Also sets ``profiles`` ``(R, 3, n)`` and their
        rescale ``factors`` ``(R, 3)``.
        """
        size = self.size = len(rngs)
        self._draw(rngs)
        scales, biases = truth.params.scales, truth.params.biases
        sigma = self.config.noise_sigma

        def add_noise(out: np.ndarray, clean: np.ndarray) -> None:
            if sigma > 0.0:
                out *= sigma
                out += clean
            else:
                out[...] = clean

        # The still stage's true rate is zero, and so is its coupled rate.
        add_noise(self.static_raw[:size], np.zeros(3) / scales - biases)
        # A turn about one axis has one nonzero true rate, so the coupled
        # rate is that rate times one column of the coupling matrix. It is
        # built as (R, turn axis, sensor axis, sample), where the element-wise
        # steps run along the samples, then added to the noise transposed.
        self.profiles, self.factors = _bezier_samples(self.ordinates[:size], self.config)
        rotation = self.profiles[:, :, None, :] * truth.misalignment.T[:, :, None]
        rotation /= scales[:, None]
        rotation -= biases[:, None]
        add_noise(self.rotation_raw[:size], rotation.transpose(0, 1, 3, 2))
        coupled = self.test_rates[:size] @ truth.misalignment.T
        coupled /= scales
        coupled -= biases
        add_noise(self.test_measurements[:size], coupled)

    def observations(self) -> ObservationArrays:
        """The stage summaries of the simulated sessions, computed as
        ``StaticObservation.from_samples`` and
        ``RotationObservation.from_samples`` compute them."""
        config, size = self.config, self.size
        static_raw = self.static_raw[:size]
        rate = config.sample_rate
        return ObservationArrays(
            static_means=static_raw.mean(axis=1),
            static_stds=static_raw.std(axis=1, ddof=1),
            static_duration=config.static_samples / rate,
            sums=self.rotation_raw[:size].sum(axis=2) / rate,
            durations=np.full(3, config.rotation_samples / rate),
            theta_sq=np.full(3, config.rotation_angle ** 2),
        )


@dataclass(frozen=True)
class SimulatedSession:
    """One synthetic protocol run plus its held-out test set."""

    session: Session
    truth: GroundTruth
    static_raw: np.ndarray
    rotation_raw: tuple[np.ndarray, np.ndarray, np.ndarray]
    profiles: tuple[SpeedProfile, SpeedProfile, SpeedProfile]
    test_rates: np.ndarray
    test_measurements: np.ndarray


def simulate_session(
    truth: GroundTruth, config: SimulationConfig, rng: np.random.Generator
) -> SimulatedSession:
    """Generate one full session: still stage, three turns, test set.

    The draw order is fixed (static noise, then profile plus noise per
    axis in x, y, z order, then test rates, then test noise), so a given
    generator state always yields the same session, and the same one a
    campaign replicate with that generator sees.
    """
    block = _SessionBlock(config, 1)
    block.simulate(truth, [rng])
    rate = config.sample_rate
    rotation_raw = tuple(block.rotation_raw[0])
    rotations = tuple(
        RotationObservation.from_samples(raw, rate, theta_total=config.rotation_angle)
        for raw in rotation_raw
    )
    return SimulatedSession(
        session=Session(
            static_stage=StaticObservation.from_samples(block.static_raw[0], rate),
            rotations=rotations,
            sample_rate=rate,
        ),
        truth=truth,
        static_raw=block.static_raw[0],
        rotation_raw=rotation_raw,
        profiles=tuple(map(_speed_profile, [config] * 3, block.ordinates[0],
                           block.profiles[0], block.factors[0])),
        test_rates=block.test_rates[0],
        test_measurements=block.test_measurements[0],
    )


_PARAM_NAMES = tuple(f"k_{a}" for a in AXES) + tuple(f"b_{a}" for a in AXES)


@dataclass(frozen=True)
class ReplicateResult:
    """Outcome of one simulate-then-calibrate replicate."""

    set_index: int
    replicate_index: int
    truth: CalibrationParams
    estimate: CalibrationParams
    pre_rms: float
    post_rms: float

    @property
    def errors(self) -> np.ndarray:
        """Estimate minus truth, ordered k_x, k_y, k_z, b_x, b_y, b_z."""
        est = np.concatenate([self.estimate.scales, self.estimate.biases])
        true = np.concatenate([self.truth.scales, self.truth.biases])
        return est - true


@dataclass(frozen=True)
class CampaignReport:
    """All replicate outcomes of one Monte-Carlo campaign."""

    config: SimulationConfig
    records: tuple[ReplicateResult, ...]
    failures: tuple[tuple[int, int, str], ...]

    def parameter_errors(self) -> np.ndarray:
        """(n_records, 6) error matrix, columns k_x, k_y, k_z, b_x, b_y, b_z."""
        if not self.records:
            return np.empty((0, 6))
        return np.stack([record.errors for record in self.records])

    def summary(self) -> dict:
        """Quartile digest per parameter plus test-set improvement stats."""
        errors = self.parameter_errors()
        per_parameter = {}
        for column, name in enumerate(_PARAM_NAMES):
            values = errors[:, column]
            q1, median, q3 = (
                np.quantile(values, [0.25, 0.5, 0.75]) if values.size else (math.nan,) * 3
            )
            per_parameter[name] = {
                "q1": float(q1),
                "median": float(median),
                "q3": float(q3),
                "min": float(values.min()) if values.size else math.nan,
                "max": float(values.max()) if values.size else math.nan,
            }
        pre = np.array([r.pre_rms for r in self.records])
        post = np.array([r.post_rms for r in self.records])
        improved = float(np.mean(post < pre)) if pre.size else math.nan
        reduction = (
            float(np.median(1.0 - post / pre)) if pre.size else math.nan
        )
        return {
            "noise_sigma": self.config.noise_sigma,
            "n_param_sets": self.config.n_param_sets,
            "n_sims_per_set": self.config.n_sims_per_set,
            "n_replicates": len(self.records),
            "n_failures": len(self.failures),
            "parameter_errors": per_parameter,
            "test_set": {
                "median_pre_rms": float(np.median(pre)) if pre.size else math.nan,
                "median_post_rms": float(np.median(post)) if post.size else math.nan,
                "improved_fraction": improved,
                "median_rms_reduction": reduction,
            },
        }

    def write_replicates_csv(self, path) -> None:
        """One row per replicate; floats via repr for lossless round trips."""
        header = (
            ["set_index", "replicate_index"]
            + [f"true_{n}" for n in _PARAM_NAMES]
            + [f"est_{n}" for n in _PARAM_NAMES]
            + [f"err_{n}" for n in _PARAM_NAMES]
            + ["pre_rms", "post_rms"]
        )
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for record in self.records:
                true = np.concatenate([record.truth.scales, record.truth.biases])
                est = np.concatenate([record.estimate.scales, record.estimate.biases])
                writer.writerow(
                    [record.set_index, record.replicate_index]
                    + [repr(float(v)) for v in true]
                    + [repr(float(v)) for v in est]
                    + [repr(float(v)) for v in est - true]
                    + [repr(record.pre_rms), repr(record.post_rms)]
                )


def _truth_rng(config: SimulationConfig, set_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(config.rng_seed, spawn_key=(0, set_index))
    )

def _replicate_rng(
    config: SimulationConfig, set_index: int, replicate_index: int
) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(config.rng_seed, spawn_key=(1, set_index, replicate_index))
    )


def _test_set_rms(block: _SessionBlock, fit: Fit) -> tuple[np.ndarray, np.ndarray]:
    """Test-set RMS error per replicate before and after correction."""
    rates = block.test_rates[:block.size]
    measurements = block.test_measurements[:block.size]
    pre = np.sqrt(np.mean((measurements - rates) ** 2, axis=(1, 2)))
    corrected = fit.scales[:, None, :] * (measurements + fit.biases[:, None, :])
    post = np.sqrt(np.mean((corrected - rates) ** 2, axis=(1, 2)))
    return pre, post


def run_monte_carlo(config: SimulationConfig) -> CampaignReport:
    """Run the full campaign: truth draws, replicates, test-set scoring.

    Replicates are simulated, fitted and scored in blocks of
    ``REPLICATE_BLOCK``; each one draws from its own spawn key in the
    fixed order of :func:`simulate_session` and gets the same result as
    ``calibrate`` of that session. A replicate that fails calibration
    (degenerate system, protocol guard) is recorded as a failure and
    skipped; the campaign carries on.
    """
    records: list[ReplicateResult] = []
    failures: list[tuple[int, int, str]] = []
    guard_sigma = config.noise_sigma if config.noise_sigma > 0.0 else None
    block = _SessionBlock(config, min(REPLICATE_BLOCK, config.n_sims_per_set))
    for set_index in range(config.n_param_sets):
        truth = sample_ground_truth(config, _truth_rng(config, set_index))
        for first in range(0, config.n_sims_per_set, REPLICATE_BLOCK):
            indices = range(first, min(first + REPLICATE_BLOCK, config.n_sims_per_set))
            block.simulate(truth, [_replicate_rng(config, set_index, i) for i in indices])
            fit = fit_batch(block.observations(), noise_sigma=guard_sigma)
            pre, post = _test_set_rms(block, fit)
            for row, replicate_index in enumerate(indices):
                try:
                    estimate = fit.params(row)
                except CalibrationError as exc:
                    failures.append((set_index, replicate_index, str(exc)))
                    continue
                records.append(
                    ReplicateResult(
                        set_index=set_index,
                        replicate_index=replicate_index,
                        truth=truth.params,
                        estimate=estimate,
                        pre_rms=float(pre[row]),
                        post_rms=float(post[row]),
                    )
                )
    return CampaignReport(config=config, records=tuple(records), failures=tuple(failures))
