"""Synthetic four-observation sessions and Monte-Carlo campaigns.

Generates sessions the way a person holding the sensor would produce
them: a still stage, then one full turn about each axis at an uneven
hand speed drawn from a random cubic Bezier curve. Truth parameters,
axis cross-coupling and white measurement noise are all configurable.
Campaigns replay many replicates over many truth draws and report how
the estimation errors distribute.

Determinism contract: every random stream is derived from the campaign
seed through named spawn keys, so a report is bit-identical across runs
and independent of replicate execution order. Each stream is
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``;
a campaign builds two per truth set (``_run_levels``).

A campaign replicate draws only what the fit reads, its stage summaries,
15 numbers from exact distributions (``_run_levels``), and fits them as
``calibrate`` fits a session; it is distributed as ``calibrate`` of
:func:`simulate_session`, not equal to it bit for bit. This is exact for
white Gaussian noise only. The levels of one ``gyrocal simulate`` run
differ only in ``noise_sigma`` and share the seed and spawn keys, so
every level, 0 included, scales the same draws by its own sigma: common
random numbers, so each level's report equals :func:`run_monte_carlo` of
it, bit for bit. No file is written until every level has run.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, fields, replace
from typing import Mapping

import numpy as np

from .estimator import fit_batch
from .model import PARAM_NAMES, CalibrationError, CalibrationParams, ObservationArrays

__all__ = [
    "SimulationConfig",
    "GroundTruth",
    "SimulatedSession",
    "CampaignReport",
    "sample_ground_truth",
    "bezier_profile",
    "simulate_session",
    "run_monte_carlo",
]

#: Bezier control ordinates are drawn in this band around the nominal
#: (constant-speed) rate before the exactness rescale.
_CONTROL_BAND = (0.5, 1.5)

_OFF_DIAGONAL = ~np.eye(3, dtype=bool)

#: k_x, k_y, k_z, b_x, b_y, b_z of the identity calibration.
_IDENTITY_ROW = np.repeat([1.0, 0.0], 3)


def _config_number(name: str, value, whole: bool) -> float | int:
    """A config value converted as YAML's numbers are: ``float(value)``,
    finite, and with ``whole`` the int equal to it. A bool is refused, and
    an integral count is kept exact, as a seed may be too large for a float.
    A range field holds exactly two such numbers."""
    kind = "a whole number" if whole else "a number"
    if isinstance(value, bool):
        raise CalibrationError(f"{name} must be {kind}, got {value!r}")
    if whole and isinstance(value, numbers.Integral):
        return int(value)
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        raise CalibrationError(f"{name} is too large for a float, got {value!r}") from None
    except (TypeError, ValueError):
        raise CalibrationError(f"{name} must be {kind}, got {value!r}") from None
    if not math.isfinite(number):
        raise CalibrationError(f"{name} must be finite, got {value!r}")
    if whole and number != int(number):
        raise CalibrationError(f"{name} must be {kind}, got {value!r}")
    return int(number) if whole else number + 0.0  # -0.0 + 0.0 is 0.0: one level, one name


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for session generation and campaign size.

    Units follow the rest of the package: degrees, seconds, Hz. The
    default ranges describe a consumer-grade part whose scale factors
    sit within 20% of unity and whose biases stay within 5 deg/s.
    Construction converts every field, as ``_config_number`` states, and
    :meth:`from_mapping` ends in it, so both builders take the same values.
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
    n_test_rates: int = 1000  # accepted and validated, but unused
    test_rate_range: tuple[float, float] = (-180.0, 180.0)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
            if name.endswith("_range"):
                # A string or a scalar is one value, not a sequence of bounds.
                bounds = tuple(value) if isinstance(value, (tuple, list, np.ndarray)) else (value,)
                if len(bounds) != 2:
                    raise CalibrationError(f"{name} must hold exactly two bounds, got {value!r}")
                value = tuple(_config_number(name, bound, whole=False) for bound in bounds)
                if not 0.0 <= value[1] - value[0] < math.inf:  # numpy draws need a finite width
                    raise CalibrationError(f"{name} must be a well-ordered range of finite width, "
                                           f"got {bounds}")
            else:
                value = _config_number(name, value, name.startswith("n_") or name == "rng_seed")
            object.__setattr__(self, name, value)
        if self.scale_range[0] <= 0.0:
            raise CalibrationError(f"scale_range must stay positive, got {self.scale_range}")
        if self.noise_sigma < 0.0:
            raise CalibrationError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if self.sample_rate <= 0.0:
            raise CalibrationError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.static_duration <= 0.0 or self.rotation_duration <= 0.0:
            raise CalibrationError("stage durations must be positive")
        for name, samples in (("static_duration", self.static_samples),
                              ("rotation_duration", self.rotation_samples)):
            if samples < 2:
                raise CalibrationError(
                    f"{name} {getattr(self, name)!r} s at {self.sample_rate!r} Hz gives "
                    f"{samples} sample(s) per stage; a stage needs at least 2"
                )
        if self.rotation_angle <= 0.0:
            raise CalibrationError(f"rotation_angle must be positive, got {self.rotation_angle}")
        if self.rotation_angle * self.rotation_angle == math.inf:
            raise CalibrationError(
                f"rotation_angle {self.rotation_angle!r} has a square that is not finite")
        # The expected test-set error squares both (``_expected_rms``).
        low, high = self.test_rate_range
        width, mean = high - low, (low + high) / 2
        if width * width == math.inf or mean * mean == math.inf:
            raise CalibrationError(f"test_rate_range {self.test_rate_range} has a width or a "
                                   "mean whose square is not finite")
        for name in ("n_param_sets", "n_sims_per_set", "n_test_rates"):
            if getattr(self, name) < 1:
                raise CalibrationError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("n_param_sets", "n_sims_per_set"):
            if getattr(self, name) >= 2 ** 32:
                raise CalibrationError(f"{name} must be below 2**32, got {getattr(self, name)}")
        if self.rng_seed < 0:
            raise CalibrationError(f"rng_seed must be non-negative, got {self.rng_seed}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "SimulationConfig":
        """Build a config from parsed YAML/JSON, rejecting unknown keys;
        ``__post_init__`` converts the values, as it does for the constructor."""
        # A YAML key need not be a string (`1: 2`).
        unknown = sorted(map(str, set(mapping) - {f.name for f in fields(cls)}))
        if unknown:
            raise CalibrationError(f"unknown simulation config keys: {', '.join(unknown)}")
        return cls(**mapping)  # type: ignore[arg-type]

    def _stage_samples(self, name: str) -> int:
        samples = getattr(self, name) * self.sample_rate
        if not math.isfinite(samples):
            raise CalibrationError(
                f"{name} {getattr(self, name)!r} s at {self.sample_rate!r} Hz "
                "overflows the sample count"
            )
        return int(round(samples))

    @property
    def static_samples(self) -> int:
        return self._stage_samples("static_duration")

    @property
    def rotation_samples(self) -> int:
        return self._stage_samples("rotation_duration")


# Compared by identity: a generated ``==`` on array fields raises.
@dataclass(frozen=True, eq=False)
class GroundTruth:
    """True sensor parameters plus the axis cross-coupling matrix."""

    params: CalibrationParams
    misalignment: np.ndarray

    def __post_init__(self) -> None:
        # An owned copy: freezing it leaves the caller's matrix writable.
        m = np.array(self.misalignment, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise CalibrationError("misalignment must be a finite 3x3 matrix")
        if not np.array_equal(np.diag(m), np.ones(3)):
            raise CalibrationError("misalignment matrix must have a unit diagonal")
        m.setflags(write=False)
        object.__setattr__(self, "misalignment", m)


def _uniform(draws: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """``Generator.random`` draws mapped to ``U(low, high)``: ``low + (high -
    low) * u``, which is how numpy's ``Generator.uniform`` maps the same
    draws, bit for bit."""
    low, high = bounds
    return low + (high - low) * draws


def _truth_arrays(
    config: SimulationConfig, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scales, biases ``(S, 3)`` and coupling matrices ``(S, 3, 3)`` mapped
    from ``draws`` ``(S, 12)``, each row one truth's ``Generator.random``
    draws in that order, the six off-diagonal coupling terms row-major."""
    coupling = np.tile(np.eye(3), (len(draws), 1, 1))
    coupling[:, _OFF_DIAGONAL] = _uniform(draws[:, 6:], config.misalignment_range)
    return (_uniform(draws[:, :3], config.scale_range), _uniform(draws[:, 3:6], config.bias_range),
            coupling)


def sample_ground_truth(config: SimulationConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw one truth: uniform scales, biases and cross-coupling terms."""
    scales, biases, coupling = _truth_arrays(config, rng.random((1, 12)))
    return GroundTruth(
        params=CalibrationParams.from_arrays(scales[0], biases[0]),
        misalignment=coupling[0],
    )


def _speed_traces(ordinates: np.ndarray, config: SimulationConfig) -> np.ndarray:
    """The speed traces ``(..., n)`` of control ordinates ``(..., 4)``: the
    cubic Bezier curve at the interval midpoints ``u``, summed term by term,
    rescaled so that a trace's sum times the sample period is the turn angle."""
    n = config.rotation_samples
    u = (np.arange(n) + 0.5) / n
    v = 1.0 - u
    o0, o1, o2, o3 = (ordinates[..., i, None] for i in range(4))
    trace = o0 * v**3 + 3.0 * o1 * u * v**2 + 3.0 * o2 * u**2 * v + o3 * u**3
    return trace * (config.rotation_angle
                    / (trace.sum(-1, keepdims=True) * (1.0 / config.sample_rate)))


def _ordinates(draws: np.ndarray, config: SimulationConfig) -> np.ndarray:
    """``Generator.random`` draws mapped to control ordinates, uniform in
    ``_CONTROL_BAND`` times the constant-speed rate."""
    return _uniform(draws, _CONTROL_BAND) * (config.rotation_angle / config.rotation_duration)


def bezier_profile(rng: np.random.Generator, config: SimulationConfig) -> np.ndarray:
    """Random cubic Bezier speed trace (deg/s), ``(n,)`` at the session
    rate, integrating exactly to the turn angle.

    Four control ordinates are drawn around the constant-speed rate, the
    curve is evaluated at interval midpoints, and the whole trace is
    rescaled so that its sum times the sample period ``1 / sample_rate``,
    the integral the sensor's stage summary takes, lands on
    ``rotation_angle`` to within 1e-9 degrees. With
    ``rotation_duration * sample_rate`` not a whole number the trace
    lasts ``rotation_samples / sample_rate`` seconds, not exactly
    ``rotation_duration``. Positive control points keep the rate positive
    throughout, like a hand turn that never reverses. A config at the edge
    of the float range whose trace is not finite is refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace = _speed_traces(_ordinates(rng.random(4), config), config)
    if not np.isfinite(trace).all():
        raise CalibrationError(
            f"rotation_angle {config.rotation_angle!r} over {config.rotation_duration!r} s "
            f"at {config.sample_rate!r} Hz gives a speed trace that is not finite")
    return trace


def _expected_rms(
    config: SimulationConfig, truth: np.ndarray, coupling: np.ndarray, estimate: np.ndarray
) -> np.ndarray:
    """The expected RMS error ``(R,)`` of test readings corrected by
    ``estimate``: rates uniform on each axis over ``test_rate_range``, read
    with white noise ``noise_sigma`` by the sensor ``truth`` with coupling
    matrices ``coupling`` ``(R, 3, 3)``. ``truth`` and ``estimate`` are
    ``(..., 6)`` rows of k, b; the identity gives the error before
    correction. With ``A = diag(k̂ / k) M − I``, ``c = k̂ ∘ (b̂ − b)`` and the
    range's mean ``μ`` and variance ``v``, the mean square error per axis
    is ``(v ‖A‖²_F + ‖μ A 1 + c‖² + ‖σ k̂‖²) / 3``."""
    low, high = np.asarray(config.test_rate_range)
    scales, biases = truth[..., :3], truth[..., 3:]
    scales_hat, biases_hat = estimate[..., :3], estimate[..., 3:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf
        a = (scales_hat / scales)[..., None] * coupling - np.eye(3)
        offset = (low + high) / 2 * a.sum(axis=-1) + scales_hat * (biases_hat - biases)
        square = (np.square(high - low) / 12 * np.square(a).sum(axis=(-2, -1))
                  + np.square(offset).sum(axis=-1)
                  + np.square(config.noise_sigma * scales_hat).sum(axis=-1))
        return np.sqrt(square / 3)


# Compared by identity: a generated ``==`` on array fields raises.
@dataclass(frozen=True, eq=False)
class SimulatedSession:
    """One synthetic protocol run: its view and its readings."""

    session: ObservationArrays
    static_raw: np.ndarray
    rotation_raw: tuple[np.ndarray, np.ndarray, np.ndarray]


def simulate_session(
    truth: GroundTruth, config: SimulationConfig, rng: np.random.Generator
) -> SimulatedSession:
    """Generate one full session, sample by sample: still stage and three
    turns.

    The draw order is fixed (static noise, then profile plus noise per
    axis in x, y, z order), so a given generator state always yields the
    same session. Noise is drawn only when ``noise_sigma > 0``. Uniform
    values are drawn as ``Generator.random`` and mapped to their ranges
    afterwards, which gives ``Generator.uniform``'s numbers. Turn j, sample
    t, sensor axis l reads ``profile_j[t] M[l, j] / k_l - b_l`` plus
    ``noise_sigma`` times its normal. A reading past the float range is
    left to the stage summaries to refuse, so it warns of nothing here; a
    session too large to hold is refused. ``calibrate`` of the session is
    distributed as a campaign replicate's fit (:func:`run_monte_carlo`).
    """
    sigma = config.noise_sigma
    n_static, n_rot = config.static_samples, config.rotation_samples
    refusal = f"cannot hold a session of {n_static} still and {n_rot} turn samples"
    try:
        static_raw, rotation_raw = np.zeros((n_static, 3)), np.zeros((3, n_rot, 3))
    except (ValueError, MemoryError) as exc:  # too large a dimension, or too many bytes
        raise CalibrationError(f"{refusal}: {exc}") from None
    scales, biases, coupling = truth.params.scales, truth.params.biases, truth.misalignment
    try:  # not ValueError: the refusals of from_samples pass as they are
        ordinates = np.empty((3, 4))
        if sigma > 0.0:
            rng.standard_normal(out=static_raw)
        for axis in range(3):
            ordinates[axis] = rng.random(4)
            if sigma > 0.0:
                rng.standard_normal(out=rotation_raw[axis])
        with np.errstate(over="ignore", invalid="ignore"):
            traces = _speed_traces(_ordinates(ordinates, config), config)
            static_raw *= sigma
            static_raw += 0.0 - biases  # the still stage's true rate is zero
            rotation_raw *= sigma
            # Built (l, j, t), samples inner, which is the fast layout.
            rotation_raw += (coupling[:, :, None] * traces / scales[:, None, None]
                             - biases[:, None, None]).transpose(1, 2, 0)
            session = ObservationArrays.from_samples(static_raw, rotation_raw,
                                                     config.sample_rate, config.rotation_angle)
    except MemoryError as exc:  # a temporary too large to hold
        raise CalibrationError(f"{refusal}: {exc}") from None
    return SimulatedSession(session, static_raw, tuple(rotation_raw))


def _finite(values: np.ndarray) -> list[float | None]:
    """``values`` as floats, each one that is not finite as ``None``: JSON
    has no NaN or infinity."""
    return [value if math.isfinite(value) else None for value in values.tolist()]


@dataclass(frozen=True, eq=False)
class CampaignReport:
    """All replicate outcomes of one Monte-Carlo campaign, as one table
    with a row per fitted replicate:

    - ``indices`` ``(N, 2)``: set index and replicate index
    - ``truth``, ``estimate`` ``(N, 6)``: columns k_x, k_y, k_z, b_x, b_y, b_z
    - ``pre_rms``, ``post_rms`` ``(N,)``: the expected test-set RMS error
      (deg/s) before and after correction, as ``_expected_rms`` states

    ``failures`` holds ``(set index, replicate index, message)`` of every
    replicate that failed calibration. ``write_replicates_csv`` writes the
    table as ``set_index, replicate_index, true_*, est_*, pre_rms,
    post_rms``; the errors, ``est_* - true_*``, are read back exactly.
    """

    config: SimulationConfig
    indices: np.ndarray
    truth: np.ndarray
    estimate: np.ndarray
    pre_rms: np.ndarray
    post_rms: np.ndarray
    failures: tuple[tuple[int, int, str], ...]

    def parameter_errors(self) -> np.ndarray:
        """(N, 6) error matrix, estimate minus truth."""
        return self.estimate - self.truth

    def summary(self) -> dict:
        """Quartile digest per parameter plus test-set improvement stats.
        A statistic with no finite value, as over no replicates, is ``None``,
        and the RMS reduction is taken over the rows with ``pre_rms > 0``."""
        errors, pre, post = self.parameter_errors(), self.pre_rms, self.post_rms
        stats = np.full((5, 6), math.nan)
        test = np.full(4, math.nan)
        if len(pre):
            stats[:3] = np.quantile(errors, [0.25, 0.5, 0.75], axis=0)
            stats[3], stats[4] = errors.min(axis=0), errors.max(axis=0)
            test[:3] = np.median(pre), np.median(post), np.mean(post < pre)
        scored = pre > 0.0  # a noiseless identity truth reads its test rates exactly
        if scored.any():
            test[3] = np.median(1.0 - post[scored] / pre[scored])
        return {
            "noise_sigma": self.config.noise_sigma,
            "n_param_sets": self.config.n_param_sets,
            "n_sims_per_set": self.config.n_sims_per_set,
            "n_replicates": len(pre),
            "n_failures": len(self.failures),
            "parameter_errors": {
                name: dict(zip(("q1", "median", "q3", "min", "max"), _finite(column)))
                for name, column in zip(PARAM_NAMES, stats.T)
            },
            "test_set": dict(zip(("median_pre_rms", "median_post_rms", "improved_fraction",
                                  "median_rms_reduction"), _finite(test))),
        }

    def write_replicates_csv(self, path) -> None:
        """One row per replicate, columns ``set_index, replicate_index,
        true_*, est_*, pre_rms, post_rms``; floats via repr for lossless
        round trips, so ``float(est) - float(true)`` is the row's
        ``parameter_errors()`` exactly."""
        header = (
            ["set_index", "replicate_index"]
            + [f"true_{n}" for n in PARAM_NAMES]
            + [f"est_{n}" for n in PARAM_NAMES]
            + ["pre_rms", "post_rms"]
        )
        # The rows of a truth set share their truth and pre_rms, so those
        # fields are formatted once per bit pattern (not per float value:
        # 0.0 == -0.0 and nan != nan) and their text reused.
        shared = np.column_stack([self.truth, self.pre_rms])
        keys = shared.view(f"V{shared.itemsize * shared.shape[1]}")[:, 0].tolist()

        def rows():
            texts = {}
            for index, ((s, r), key, estimate, post) in enumerate(zip(
                    self.indices.tolist(), keys, self.estimate.tolist(), self.post_rms.tolist())):
                text = texts.get(key)
                if text is None:
                    *truth, pre = shared[index].tolist()
                    text = texts[key] = (",".join(map(repr, truth)), repr(pre))
                yield f"{s},{r},{text[0]},{','.join(map(repr, estimate))},{text[1]},{post!r}\r\n"

        # The rows csv.writer would write: no field needs quoting.
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(header) + "\r\n")
            handle.writelines(rows())


def run_monte_carlo(config: SimulationConfig) -> CampaignReport:
    """Run the full campaign: truth draws, replicates, scoring.

    Each truth set draws its truth and then its replicates' stage summaries
    from its two streams (see ``_run_levels``), all replicates are fitted
    as one stack, and each fitted replicate is
    scored by its exact expected test-set error (``_expected_rms``). A
    replicate's fit is distributed as ``calibrate`` of the session that
    :func:`simulate_session` yields for its truth: for white Gaussian noise
    the still means, the still stds and the turn sums, all that the fit
    reads, have exact distributions (see ``_run_levels``). A replicate that
    fails calibration (degenerate system, protocol guard) is recorded as a
    failure and skipped; the campaign carries on. A stage summary that is
    not finite, which only a config at the edge of the float range gives,
    stops the campaign with the ``ObservationArrays.from_samples`` refusal,
    and a campaign too large to hold is refused.
    """
    return _run_levels([config])[0]


def _run_levels(configs: list[SimulationConfig]) -> list[CampaignReport]:
    """The one campaign loop: :func:`run_monte_carlo` of each of
    ``configs``, in order; they differ only in ``noise_sigma``. The truths
    and each replicate's 15 draws are taken once, and every level, 0
    included, scales the same draws by its own sigma.

    Truth set ``s`` has two streams, ``default_rng(SeedSequence(seed,
    spawn_key=key))`` of the keys ``(0, s)`` and ``(1, s)``. The first draws
    the truth's 12 uniforms, then an ``(n_sims_per_set, 12)`` block of
    standard normals; the second an ``(n_sims_per_set, 3)`` block of
    standard gamma variates of shape ``(N_s - 1) / 2``, which are half of
    chi-squares ``C`` with ``N_s - 1`` degrees of freedom. Replicate ``r`` is
    row ``r`` of both blocks, so no row depends on how many a set has: its
    normals are 3 ``Z_m`` and 9 ``Z_t`` (turns x, y, z; sensor axes x, y,
    z), its gamma variates ``C / 2``. With ``N_s`` still
    and ``n`` turn samples at ``rate``, its session's still mean is
    ``-b + sigma / sqrt(N_s) Z_m``, its still std ``sqrt(sigma² C / (N_s -
    1))``, independent of the mean, and turn i's sum on sensor axis l is
    ``M[l, i] theta / k_l - b_l n / rate + sigma sqrt(n) / rate Z_t``: every
    speed trace sums to ``theta`` (``_speed_traces``), so the profile
    does not reach the fit."""
    config = configs[0]
    n_sets, per_set = config.n_param_sets, config.n_sims_per_set
    total = n_sets * per_set
    refusal = f"cannot hold a campaign of {total} replicates"
    try:
        normals, gammas = np.empty((n_sets, per_set, 12)), np.empty((n_sets, per_set, 3))
    except (ValueError, MemoryError) as exc:  # too large a dimension, or too many bytes
        raise CalibrationError(f"{refusal}: {exc}") from None
    try:  # not ValueError: a level's overflow refusal passes as it is
        n_static, n_rot, rate = config.static_samples, config.rotation_samples, config.sample_rate
        truth_draws = np.empty((n_sets, 12))
        for s in range(n_sets):
            truth_rng, gamma_rng = (np.random.default_rng(np.random.SeedSequence(
                config.rng_seed, spawn_key=(stream, s))) for stream in (0, 1))
            truth_rng.random(out=truth_draws[s])
            truth_rng.standard_normal(out=normals[s])
            gamma_rng.standard_gamma((n_static - 1) / 2, out=gammas[s])
        normals, gammas = normals.reshape(total, 12), gammas.reshape(total, 3)
        scales, biases, coupling = _truth_arrays(config, truth_draws)
        indices = np.column_stack(np.divmod(np.arange(total), per_set))
        truth = np.repeat(np.column_stack([scales, biases]), per_set, axis=0)
        sets = indices[:, 0]
        turn_duration = n_rot / rate
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by level
            clean_sums = (coupling.transpose(0, 2, 1) * config.rotation_angle / scales[:, None, :]
                          - biases[:, None, :] * turn_duration)[sets]
        clean_means, chi_square = -biases[sets], 2.0 * gammas
        turn_normals = normals[:, 3:].reshape(total, 3, 3)
        reports = []
        for level in configs:
            sigma = level.noise_sigma
            with np.errstate(over="ignore", invalid="ignore"):
                view = ObservationArrays(
                    clean_means + sigma / math.sqrt(n_static) * normals[:, :3],
                    np.sqrt(sigma * sigma * chi_square / (n_static - 1)),
                    n_static / rate,
                    clean_sums + sigma * math.sqrt(n_rot) / rate * turn_normals,
                    np.full(3, turn_duration), np.full(3, config.rotation_angle ** 2))
            try:
                view.require_finite()
            except CalibrationError as exc:
                raise CalibrationError(f"noise level {sigma!r}: its stage summaries "
                                       f"overflowed the float range: {exc}") from None
            fit = fit_batch(view, noise_sigma=sigma)
            keep = np.array([error is None for error in fit.errors], dtype=bool)
            failures = tuple((*indices[row].tolist(), str(error))
                             for row, error in enumerate(fit.errors) if error is not None)
            fitted = np.column_stack([fit.scales[keep], fit.biases[keep]])
            score = functools.partial(_expected_rms, level, truth[keep], coupling[sets[keep]])
            reports.append(CampaignReport(level, indices[keep], truth[keep], fitted,
                                          score(_IDENTITY_ROW), score(fitted), failures=failures))
        return reports
    except MemoryError as exc:  # an array after the draw blocks too large to hold
        raise CalibrationError(f"{refusal}: {exc}") from None


# The files of ``gyrocal simulate``, here rather than in ``cli`` so that
# a calibrate process does not compile them.

def load_configs(path: str | None, seed: int | None) -> list[SimulationConfig]:
    """Config file to campaign list; a noise_levels list fans out campaigns,
    and no two levels may be the same ``noise_sigma`` once converted. A file
    that is not UTF-8 or not YAML is a ``CalibrationError``."""
    import yaml  # only simulate reads YAML, so calibrate does not pay to import it

    mapping: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                # libyaml's parser if PyYAML has it; both use SafeConstructor
                loaded = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except (yaml.YAMLError, ValueError) as exc:  # not UTF-8, or an int too long to parse
            raise CalibrationError(str(exc)) from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise CalibrationError(f"config root must be a mapping, got {type(loaded).__name__}")
        mapping = dict(loaded)
    if "noise_levels" in mapping and "noise_sigma" in mapping:
        raise CalibrationError("noise_levels and noise_sigma cannot both be given")
    sigma = mapping.get("noise_sigma", SimulationConfig.noise_sigma)
    levels = mapping.pop("noise_levels", [sigma])
    if not isinstance(levels, (list, tuple)) or not levels:
        raise CalibrationError("noise_levels must be a non-empty list of numbers")
    base = SimulationConfig.from_mapping(mapping)
    if seed is not None:
        base = replace(base, rng_seed=seed)
    configs = [replace(base, noise_sigma=level) for level in levels]
    if len({config.noise_sigma for config in configs}) != len(configs):
        raise CalibrationError(f"noise_levels must not repeat, got {levels}")
    return configs


def write_campaigns(configs: list[SimulationConfig], out: str) -> None:
    """Run every campaign, then write each one's replicate CSV and
    ``summary.json`` into ``out``, printing a line per file."""
    # An unusable --out fails here, before any campaign runs. Every level
    # runs before a file is written; if one is refused, the new dirs go.
    made = []
    head = os.path.abspath(out)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out, exist_ok=True)
    try:
        reports = _run_levels(configs)
    except CalibrationError:
        for path in made:  # deepest first; one that holds output stays
            try:
                os.rmdir(path)
            except OSError:
                break
        raise
    campaigns = {}
    for config, report in zip(configs, reports):
        csv_name = f"replicates_sigma_{config.noise_sigma!r}.csv"
        report.write_replicates_csv(os.path.join(out, csv_name))
        campaigns[repr(config.noise_sigma)] = {
            "replicates_csv": csv_name,
            **report.summary(),
        }
        print(f"wrote {csv_name} ({len(report.indices)} replicates, "
              f"{len(report.failures)} failures)")
    summary = {"rng_seed": configs[0].rng_seed, "campaigns": campaigns}
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print("wrote summary.json")
