"""Synthetic four-observation sessions and Monte-Carlo campaigns.

Generates sessions the way a person holding the sensor would produce
them: a still stage, then one full turn about each axis at an uneven
hand speed drawn from a random cubic Bezier curve. Truth parameters,
axis cross-coupling and white measurement noise are all configurable.
Campaigns replay many replicates over many truth draws and report how
the estimation errors distribute.

Determinism contract: every random stream is derived from the campaign
seed through named spawn keys, so a report is bit-identical across runs
and independent of replicate execution order. Each stream is the
``PCG64`` generator that ``np.random.SeedSequence(seed, spawn_key=key)``
would seed. A campaign hashes all of its keys in one numpy pass, with
the algorithm of ``SeedSequence`` (O'Neill's ``seed_seq_fe``), and
reseeds one shared generator through its ``state`` before each row's
draws; the tests hold every state to numpy's own ``SeedSequence``.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Mapping

import numpy as np

from .estimator import Fit, fit_batch
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

#: Replicates a campaign simulates and fits together, taken in order
#: along the flat (set, replicate) sequence, so a block may span truth
#: sets. Results do not depend on it. Larger blocks spread the fixed cost
#: of each numpy call over more rows (``fit_batch`` takes about 120 µs for
#: 4 rows and 200 µs for 16), but hold more memory: the block peaks at
#: about 150 kB per replicate at the default config, buffers and
#: temporaries together (2.4 MB at 16, measured with tracemalloc).
REPLICATE_BLOCK = 16

#: Bezier control ordinates are drawn in this band around the nominal
#: (constant-speed) rate before the exactness rescale.
_CONTROL_BAND = (0.5, 1.5)

_OFF_DIAGONAL = ~np.eye(3, dtype=bool)


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
    return int(number) if whole else number


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
    n_test_rates: int = 1000
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
        for name in ("n_param_sets", "n_sims_per_set", "n_test_rates"):
            if getattr(self, name) < 1:
                raise CalibrationError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("n_param_sets", "n_sims_per_set"):
            if getattr(self, name) >= 2 ** 32:
                raise CalibrationError(
                    f"{name} must be below 2**32, got {getattr(self, name)}: each set and "
                    "replicate index is one 32-bit word of a spawn key"
                )
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
    """Map ``Generator.random`` draws in place to ``U(low, high)`` and
    return them: ``low + (high - low) * u``, which is how numpy's
    ``Generator.uniform`` maps the same draws, bit for bit."""
    low, high = bounds
    draws *= high - low
    draws += low
    return draws


def _truth_arrays(
    config: SimulationConfig, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scales, biases ``(S, 3)`` and coupling matrices ``(S, 3, 3)`` mapped in
    place from ``draws`` ``(S, 12)``, each row one truth's ``Generator.random``
    draws in that order, the six off-diagonal coupling terms row-major."""
    scales = _uniform(draws[:, :3], config.scale_range)
    biases = _uniform(draws[:, 3:6], config.bias_range)
    coupling = np.tile(np.eye(3), (len(draws), 1, 1))
    coupling[:, _OFF_DIAGONAL] = _uniform(draws[:, 6:], config.misalignment_range)
    return scales, biases, coupling


def sample_ground_truth(config: SimulationConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw one truth: uniform scales, biases and cross-coupling terms."""
    scales, biases, coupling = _truth_arrays(config, rng.random((1, 12)))
    return GroundTruth(
        params=CalibrationParams.from_arrays(scales[0], biases[0]),
        misalignment=coupling[0],
    )


def _bezier_basis(n: int) -> tuple[np.ndarray, ...]:
    """``u``, ``v``, ``v³``, ``v²``, ``u²`` and ``u³`` at the ``n`` interval
    midpoints, ``v = 1 - u``."""
    u = (np.arange(n) + 0.5) / n
    v = 1.0 - u
    return u, v, v ** 3, v ** 2, u ** 2, u ** 3


def _bezier_samples(
    ordinates: np.ndarray,
    config: SimulationConfig,
    basis: tuple[np.ndarray, ...],
    out: np.ndarray,
    term: np.ndarray,
) -> np.ndarray:
    """Fill ``out`` ``(..., n)`` with the speed traces of control
    ordinates ``(..., 4)``, rescaled so that each trace's sum times the
    sample period ``1 / sample_rate`` is the turn angle, and return it. The terms are summed in curve order, ``o0 v³ + 3 o1 u v² +
    3 o2 u² v + o3 u³``; ``term`` is scratch of the same shape as ``out``."""
    u, v, v3, v2, u2, u3 = basis
    o = ordinates[..., None]
    np.multiply(o[..., 0, :], v3, out=out)
    np.multiply(3.0 * o[..., 1, :], u, out=term)
    term *= v2
    out += term
    np.multiply(3.0 * o[..., 2, :], u2, out=term)
    term *= v
    out += term
    np.multiply(o[..., 3, :], u3, out=term)
    out += term
    dt = 1.0 / config.sample_rate
    out *= (config.rotation_angle / (out.sum(axis=-1) * dt))[..., None]
    return out


def _ordinates(draws: np.ndarray, config: SimulationConfig) -> np.ndarray:
    """Map ``Generator.random`` draws in place to control ordinates, uniform
    in ``_CONTROL_BAND`` times the constant-speed rate, and return them."""
    _uniform(draws, _CONTROL_BAND)
    draws *= config.rotation_angle / config.rotation_duration
    return draws


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
    throughout, like a hand turn that never reverses.
    """
    n = config.rotation_samples
    return _bezier_samples(_ordinates(rng.random(out=np.empty(4)), config), config,
                           _bezier_basis(n), np.empty(n), np.empty(n))


class _SessionBlock:
    """Buffers for up to ``size`` sessions of one config, stacked on a
    leading replicate axis, and the simulation that fills them. Each row
    has its own truth, so a block may hold replicates of several truth
    sets. Arrays stay valid until the next ``simulate``."""

    def __init__(self, config: SimulationConfig, size: int) -> None:
        self.config = config
        n_static, n_rot, n_test = (
            config.static_samples, config.rotation_samples, config.n_test_rates
        )
        try:
            self.basis = _bezier_basis(n_rot)
            self.static_raw = np.empty((size, n_static, 3))
            self.rotation_raw = np.empty((size, 3, n_rot, 3))
            self.ordinates = np.empty((size, 3, 4))
            self.test_rates = np.empty((size, n_test, 3))
            self.test_measurements = np.empty((size, n_test, 3))
            self.profiles = np.empty((size, 3, n_rot))
            # Shared, one user at a time, by the turn passes, (R, 3, n_rot),
            # the test set, (R, 3, n_test) and (R, n_test, 3), and the
            # sample-major stage copies, (n_static, R, 3) and (n_rot, R, 3, 3).
            # Temporaries in its place cost about 3% of the campaign's
            # floor_ratio and 0.3 MB of peak RSS; a buffer per user, 1 MB.
            self._scratch = np.empty(size * max(3 * n_static, 9 * n_rot, 3 * n_test))
        except (ValueError, MemoryError) as exc:  # too large a dimension, or too many bytes
            raise CalibrationError(
                f"cannot hold {size} session(s) of {n_static} still, {n_rot} turn and "
                f"{n_test} test samples: {exc}"
            ) from None

    def _scratch_view(self, *shape: int) -> np.ndarray:
        return self._scratch[:math.prod(shape)].reshape(shape)

    def _draw(self, rngs: Iterable[np.random.Generator]) -> None:
        """Each replicate's draws in the fixed order: static noise, then
        profile ordinates and noise per axis in x, y, z order, then test
        rates, then test noise. Noise is drawn only when ``noise_sigma > 0``.
        Row r draws from the r-th generator ``rngs`` yields, taken just
        before its draws; no more than ``size`` are taken. The loop only
        draws: uniform values come as ``Generator.random`` and are mapped
        once per block, which gives ``Generator.uniform``'s numbers."""
        config, size = self.config, self.size
        noisy = config.noise_sigma > 0.0
        for r, rng in zip(range(size), rngs):
            if noisy:
                rng.standard_normal(out=self.static_raw[r])
            for axis in range(3):
                rng.random(out=self.ordinates[r, axis])
                if noisy:
                    rng.standard_normal(out=self.rotation_raw[r, axis])
            rng.random(out=self.test_rates[r])
            if noisy:
                rng.standard_normal(out=self.test_measurements[r])
        _ordinates(self.ordinates[:size], config)
        _uniform(self.test_rates[:size], config.test_rate_range)

    def simulate(
        self,
        scales: np.ndarray,
        biases: np.ndarray,
        coupling: np.ndarray,
        rngs: Iterable[np.random.Generator],
    ) -> None:
        """One session per truth, in the first ``R = len(scales)`` rows,
        row r with the truth ``scales[r]``, ``biases[r]`` ``(R, 3)`` and
        ``coupling[r]`` ``(R, 3, 3)`` and the draws of the r-th generator
        of ``rngs``.

        The sensor reports each true rate through the coupling matrix and
        the inverse model, ``(M @ rate) / k - b``, plus white noise of
        ``noise_sigma``. The speed traces go to ``profiles`` ``(R, 3, n)``.
        """
        size = self.size = len(scales)
        self._draw(rngs)
        sigma = self.config.noise_sigma
        static_raw = self.static_raw[:size]
        rotation_raw = self.rotation_raw[:size]
        measurements = self.test_measurements[:size]
        if sigma > 0.0:
            static_raw *= sigma
            rotation_raw *= sigma
            measurements *= sigma

        def add(out: np.ndarray, clean: np.ndarray) -> None:
            if sigma > 0.0:
                out += clean
            else:
                out[...] = clean

        # The still stage's true rate is zero, and so is its coupled rate.
        add(static_raw, (np.zeros(3) / scales - biases)[:, None, :])
        # A turn about axis j has one nonzero true rate, so sensor axis l
        # reads that rate times M[l, j]. One pass per sensor axis keeps the
        # element-wise steps running along the samples.
        column = self._scratch_view(size, 3, self.config.rotation_samples)
        profiles = _bezier_samples(self.ordinates[:size], self.config, self.basis,
                                   self.profiles[:size], column)
        for axis in range(3):
            np.multiply(profiles, coupling[:, axis, :, None], out=column)
            column /= scales[:, axis, None, None]
            column -= biases[:, axis, None, None]
            add(rotation_raw[..., axis], column)
        rates = self.test_rates[:size]
        coupled = np.matmul(coupling, rates.transpose(0, 2, 1),
                            out=self._scratch_view(size, 3, self.config.n_test_rates))
        coupled /= scales[:, :, None]
        coupled -= biases[:, :, None]
        add(measurements, coupled.transpose(0, 2, 1))

    def observations(self) -> ObservationArrays:
        """The stage summaries of the simulated sessions, computed as
        ``StaticObservation.from_samples`` and
        ``RotationObservation.from_samples`` compute them, bit for bit.

        Each stage is copied sample-major, so that every sum runs over the
        samples in order, as theirs do, with all rows on a long inner loop;
        on the ``(..., n, 3)`` layout numpy's inner loop is the 3 axes. The
        std repeats numpy's own steps, reusing the mean."""
        config, size = self.config, self.size
        n, rate = config.static_samples, config.sample_rate
        still = self._scratch_view(n, size, 3)
        np.copyto(still, self.static_raw[:size].transpose(1, 0, 2))
        means = still.sum(axis=0) / n
        still -= means
        np.square(still, out=still)
        static_stds = np.sqrt(still.sum(axis=0) / (n - 1))
        # Whole (3,) samples copy as 24-byte records, 2.5x faster than floats.
        turns = self._scratch_view(config.rotation_samples, size, 3, 3)
        np.copyto(turns.view("V24")[..., 0],
                  self.rotation_raw[:size].view("V24")[..., 0].transpose(2, 0, 1))
        return ObservationArrays(
            static_means=means,
            static_stds=static_stds,
            static_duration=n / rate,
            sums=turns.sum(axis=0) / rate,
            durations=np.full(3, config.rotation_samples / rate),
            theta_sq=np.full(3, config.rotation_angle ** 2),
        )

    def test_set_rms(self, fit: Fit) -> tuple[np.ndarray, np.ndarray]:
        """Test-set RMS error per row before and after correction by ``fit``."""
        rates = self.test_rates[:self.size]
        measurements = self.test_measurements[:self.size]
        d = self._scratch_view(*rates.shape)
        np.subtract(measurements, rates, out=d)
        np.square(d, out=d)
        pre = np.sqrt(d.mean(axis=(1, 2)))
        for axis in range(3):
            np.add(measurements[..., axis], fit.biases[:, axis, None], out=d[..., axis])
            d[..., axis] *= fit.scales[:, axis, None]
        d -= rates
        np.square(d, out=d)
        return pre, np.sqrt(d.mean(axis=(1, 2)))


# Compared by identity: a generated ``==`` on array fields raises.
@dataclass(frozen=True, eq=False)
class SimulatedSession:
    """One synthetic protocol run plus its held-out test set."""

    session: ObservationArrays
    static_raw: np.ndarray
    rotation_raw: tuple[np.ndarray, np.ndarray, np.ndarray]
    test_rates: np.ndarray
    test_measurements: np.ndarray


def simulate_session(
    truth: GroundTruth, config: SimulationConfig, rng: np.random.Generator
) -> SimulatedSession:
    """Generate one full session: still stage, three turns, test set.

    The draw order is fixed (static noise, then profile plus noise per
    axis in x, y, z order, then test rates, then test noise), so a given
    generator state always yields the same session, and the same one a
    campaign replicate with that generator sees. Uniform values are drawn
    as ``Generator.random`` and mapped to their ranges afterwards, which
    gives ``Generator.uniform``'s numbers. Its ``session`` is row 0
    of a one-row campaign block's stage summaries, so ``calibrate`` of it
    is that replicate's campaign fit.
    """
    block = _SessionBlock(config, 1)
    block.simulate(truth.params.scales[None], truth.params.biases[None],
                   truth.misalignment[None], [rng])
    stack = block.observations()
    return SimulatedSession(
        session=stack._replace(static_means=stack.static_means[0],
                               static_stds=stack.static_stds[0], sums=stack.sums[0]),
        static_raw=block.static_raw[0],
        rotation_raw=tuple(block.rotation_raw[0]),
        test_rates=block.test_rates[0],
        test_measurements=block.test_measurements[0],
    )


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
    - ``pre_rms``, ``post_rms`` ``(N,)``: test-set RMS error (deg/s) before
      and after correction

    ``failures`` holds ``(set index, replicate index, message)`` of every
    replicate that failed calibration.
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
        """One row per replicate; floats via repr for lossless round trips."""
        header = (
            ["set_index", "replicate_index"]
            + [f"true_{n}" for n in PARAM_NAMES]
            + [f"est_{n}" for n in PARAM_NAMES]
            + [f"err_{n}" for n in PARAM_NAMES]
            + ["pre_rms", "post_rms"]
        )
        values = np.column_stack([self.truth, self.estimate, self.parameter_errors(),
                                  self.pre_rms, self.post_rms])
        # The rows csv.writer would write: no field needs quoting.
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(header) + "\r\n")
            handle.writelines(
                f"{s},{r},{','.join(map(repr, row))}\r\n"
                for (s, r), row in zip(self.indices.tolist(), values.tolist())
            )


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(value: int, multiplier: int) -> Iterator[tuple[int, int]]:
    """The ``(xor, multiply)`` constant pairs of successive hash steps."""
    while True:
        following = (value * multiplier) & _MASK32
        yield value, following
        value = following


def _next_constants(constants: Iterator[tuple[int, int]], n: int) -> np.ndarray:
    """The next ``n`` pairs as ``uint32`` ``(2, n)``: xors, then multipliers."""
    return np.array([next(constants) for _ in range(n)], dtype=np.uint32).T


def _hashmix(value, xor, multiply):
    """``seed_seq_fe``'s word hash, on Python ints or ``uint32`` arrays."""
    value = ((value ^ xor) * multiply) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """``seed_seq_fe``'s mix of pool word ``x`` with hashed word ``y``."""
    value = (((0xCA01F9DD * x) & _MASK32) - ((0x4973F715 * y) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _pcg64_states(seed: int, keys) -> Iterator[tuple[int, int]]:
    """The ``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=row))``
    for each row of the ``(R, k)`` spawn keys ``keys``, every element
    below 2**32, in row order; ``seed`` is non-negative.

    The steps are ``SeedSequence``'s: the seed's little-endian 32-bit
    words, padded to the 4-word pool, fill and mix the pool, and each
    later word, the key words last, is hashed into every pool word;
    ``generate_state(4, uint64)`` then hashes the pool into the 128-bit
    seed and stream that ``pcg_setseq_128_srandom_r`` takes. The pool
    before the first key word is the same for every row, so it is built
    once on Python ints. Each key word then goes into all four pool
    words of all rows at once, as ``uint32`` arrays ``(R, 4)``."""
    words = []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    words += [0] * (4 - len(words))
    constants = _hash_constants(0x43B0D7E5, 0x931E8875)  # numpy's INIT_A, MULT_A
    pool = [_hashmix(word, *next(constants)) for word in words[:4]]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = _mix(pool[target], _hashmix(pool[source], *next(constants)))
    pool = np.array(pool, dtype=np.uint32)
    for word in (*words[4:], *np.asarray(keys, dtype=np.uint32).T):
        word = np.asarray(word, dtype=np.uint32)[..., None]
        pool = _mix(pool, _hashmix(word, *_next_constants(constants, 4)))
    constants = _hash_constants(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    state = _hashmix(np.tile(pool, 2), *_next_constants(constants, 8))
    for row in state.astype("<u4").view("<u8"):
        seed_high, seed_low, stream_high, stream_low = row.tolist()
        inc = ((stream_high << 65) | (stream_low << 1) | 1) & _MASK128
        yield ((inc + (seed_high << 64 | seed_low)) * _PCG64_MULTIPLIER + inc) & _MASK128, inc


def _reseeded(
    rng: np.random.Generator, seed: int, keys
) -> Iterator[np.random.Generator]:
    """``rng`` once per row of spawn keys, each time with its ``PCG64`` in
    the state that ``SeedSequence(seed, spawn_key=row)`` seeds."""
    bit_generator = rng.bit_generator
    for state, inc in _pcg64_states(seed, keys):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


def run_monte_carlo(config: SimulationConfig) -> CampaignReport:
    """Run the full campaign: truth draws, replicates, test-set scoring.

    Every truth set's truth is drawn first, each from its own spawn key.
    The replicates are then simulated, fitted and scored in blocks of
    ``REPLICATE_BLOCK`` taken along the flat (set, replicate) sequence,
    so a block may span truth sets and every block but the last is full.
    Each replicate draws from its own spawn key in the fixed order of
    :func:`simulate_session` and gets the same result as ``calibrate`` of
    that session. A replicate that fails calibration (degenerate system,
    protocol guard) is recorded as a failure and skipped; the campaign
    carries on. All keys are hashed up front, and one generator, reseeded
    per truth set and per replicate, makes every draw.
    """
    per_set = config.n_sims_per_set
    total = config.n_param_sets * per_set
    # Reseeded before every draw, so its own seed never shows.
    rng = np.random.Generator(np.random.PCG64(0))
    truth_keys = np.insert(np.arange(config.n_param_sets)[:, None], 0, 0, axis=1)
    truth_draws = np.empty((config.n_param_sets, 12))
    for row, truth_rng in zip(truth_draws, _reseeded(rng, config.rng_seed, truth_keys)):
        truth_rng.random(out=row)
    scales, biases, coupling = _truth_arrays(config, truth_draws)
    indices = np.column_stack(np.divmod(np.arange(total), per_set))
    replicate_rngs = _reseeded(rng, config.rng_seed, np.insert(indices, 0, 1, axis=1))
    truth = np.repeat(truth_draws[:, :6], per_set, axis=0)
    estimate = np.empty((total, 6))
    pre_rms = np.empty(total)
    post_rms = np.empty(total)
    errors: list[CalibrationError | None] = []
    guard_sigma = config.noise_sigma if config.noise_sigma > 0.0 else None
    block = _SessionBlock(config, min(REPLICATE_BLOCK, total))
    for first in range(0, total, REPLICATE_BLOCK):
        rows = slice(first, min(first + REPLICATE_BLOCK, total))
        sets = indices[rows, 0]
        block.simulate(scales[sets], biases[sets], coupling[sets], replicate_rngs)
        fit = fit_batch(block.observations(), noise_sigma=guard_sigma)
        estimate[rows, :3] = fit.scales
        estimate[rows, 3:] = fit.biases
        pre_rms[rows], post_rms[rows] = block.test_set_rms(fit)
        errors += fit.errors
    keep = np.array([error is None for error in errors])
    failures = tuple((*indices[row].tolist(), str(error))
                     for row, error in enumerate(errors) if error is not None)
    return CampaignReport(config, indices[keep], truth[keep], estimate[keep],
                          pre_rms[keep], post_rms[keep], failures=failures)


# The files of ``gyrocal simulate``, here rather than in ``cli`` so that
# a calibrate process does not compile them.

def load_configs(path: str | None, seed: int | None) -> list[SimulationConfig]:
    """Config file to campaign list; a noise_levels list fans out campaigns,
    and no two levels may be the same ``noise_sigma`` once converted."""
    import yaml  # only simulate reads YAML, so calibrate does not pay to import it

    mapping: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = yaml.safe_load(handle)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise CalibrationError(f"config root must be a mapping, got {type(loaded).__name__}")
        mapping = dict(loaded)
    levels = mapping.pop("noise_levels", None)
    if levels is not None and (not isinstance(levels, (list, tuple)) or not levels):
        raise CalibrationError("noise_levels must be a non-empty list of numbers")
    base = SimulationConfig.from_mapping(mapping)
    if seed is not None:
        base = replace(base, rng_seed=seed)
    if levels is None:
        return [base]
    configs = [replace(base, noise_sigma=level) for level in levels]
    if len({config.noise_sigma for config in configs}) != len(configs):
        raise CalibrationError(f"noise_levels must not repeat, got {levels}")
    return configs


def write_campaigns(configs: list[SimulationConfig], out: str) -> None:
    """Run each campaign and write its replicate CSV, then ``summary.json``,
    into ``out``, printing a line per file."""
    # An unusable --out fails here, before any campaign runs; the
    # directories made for it go again if a config is refused.
    made = []
    head = os.path.abspath(out)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out, exist_ok=True)
    try:
        _run_campaigns(configs, out)
    except CalibrationError:
        for path in made:  # deepest first; one that holds output stays
            try:
                os.rmdir(path)
            except OSError:
                break
        raise


def _run_campaigns(configs: list[SimulationConfig], out: str) -> None:
    campaigns = {}
    for config in configs:
        report = run_monte_carlo(config)
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
