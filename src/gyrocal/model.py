"""Six-parameter gyroscope error model and measurement containers.

Units are fixed across the package: angular rates in deg/s, integrated
angles in degrees, durations in seconds. Scale factors are dimensionless
and positive; biases are additive offsets on the measured rate. The
corrected rate on each axis is ``scale * (measured + bias)``.

Rotation stages are summarized by time-scaled sums of the measured rates
(each sample weighted by the sample period), so a full turn integrates to
360 regardless of the sampling frequency.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "AXES",
    "CalibrationError",
    "ProtocolViolation",
    "CalibrationParams",
    "ObservationArrays",
    "apply_calibration",
    "inverse_calibration",
    "rotation_residuals",
    "squared_cost",
]

AXES = ("x", "y", "z")

#: The six parameters in the order every table, file and vector uses.
PARAM_NAMES = ("k_x", "k_y", "k_z", "b_x", "b_y", "b_z")


class CalibrationError(ValueError):
    """Raised when inputs or data violate the calibration model contract."""


class ProtocolViolation(CalibrationError):
    """Raised when observations do not follow the measurement protocol."""


def as_float(name: str, value, error: type[CalibrationError] = CalibrationError) -> float:
    """``value`` as a Python float: a real number that is not a bool (a
    bool would count as 0 or 1, and ``float`` would read a string) and
    that a float can hold. Raises ``error`` naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or a fraction past the float range
        raise error(f"{name} is too large for a float") from None


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CalibrationError(f"{name} must be finite, got {v!r}")


class Frozen:
    """Base of the package's immutable records: a plain class with
    ``__slots__``, not a dataclass, because ``gyrocal calibrate`` builds
    these classes on every start and a dataclass takes about a millisecond
    to build. ``__init__`` sets each slot once through ``object.__setattr__``;
    assigning or deleting an attribute afterwards raises AttributeError.
    Copies and pickles go through the constructor, and so through its checks.
    A subclass lists its slots in constructor order."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class CalibrationParams(Frozen):
    """Per-axis scale factors (dimensionless, positive) and biases (deg/s).

    ``condition_number`` is set on the result of a fit: the condition
    number of the scale regression it solved. It takes no part in
    equality or hashing. Every field is stored as a Python float.
    """

    __slots__ = (*PARAM_NAMES, "condition_number")

    def __init__(
        self,
        k_x: float,
        k_y: float,
        k_z: float,
        b_x: float,
        b_y: float,
        b_z: float,
        condition_number: float | None = None,
    ) -> None:
        values = [as_float(name, value)
                  for name, value in zip(PARAM_NAMES, (k_x, k_y, k_z, b_x, b_y, b_z))]
        _require_finite("calibration parameter", *values)
        if min(values[:3]) <= 0.0:
            raise CalibrationError("scale factors must be positive: ({}, {}, {})".format(*values))
        if condition_number is not None:
            condition_number = as_float("condition_number", condition_number)
        for name, value in zip(self.__slots__, (*values, condition_number)):
            object.__setattr__(self, name, value)

    def _params(self) -> tuple[float, ...]:
        return (self.k_x, self.k_y, self.k_z, self.b_x, self.b_y, self.b_z)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._params() == other._params()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._params())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    @classmethod
    def identity(cls) -> "CalibrationParams":
        return cls(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_arrays(
        cls,
        scales: Sequence[float],
        biases: Sequence[float],
        condition_number: float | None = None,
    ) -> "CalibrationParams":
        k, b = list(scales), list(biases)
        if len(k) != 3 or len(b) != 3:
            raise CalibrationError("expected three scales and three biases")
        return cls(*k, *b, condition_number)

    @property
    def scales(self) -> np.ndarray:
        return np.array([self.k_x, self.k_y, self.k_z])

    @property
    def biases(self) -> np.ndarray:
        return np.array([self.b_x, self.b_y, self.b_z])

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def apply_calibration(params: CalibrationParams, raw) -> np.ndarray:
    """Correct measured rates: ``scale * (measured + bias)`` per axis.

    Accepts a single length-3 sample or an (N, 3) batch; returns the same
    shape in deg/s.
    """
    m = np.asarray(raw, dtype=float)
    return params.scales * (m + params.biases)


def inverse_calibration(params: CalibrationParams, true_rate) -> np.ndarray:
    """Map true rates back to the raw measurement the sensor would report."""
    g = np.asarray(true_rate, dtype=float)
    return g / params.scales - params.biases


def _stage_samples(samples, sample_rate: float) -> np.ndarray:
    """A stage's measured rates as an ``(N, 3)`` float array, taken at a
    finite positive ``sample_rate``."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise CalibrationError(f"expected an (N, 3) sample array, got shape {arr.shape}")
    if not (math.isfinite(sample_rate) and sample_rate > 0.0):
        raise CalibrationError(f"sample rate must be finite and positive, got {sample_rate}")
    return arr


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise CalibrationError(f"{name} must be positive, got {value}")


def _require_finite_still(means: np.ndarray, stds: np.ndarray) -> None:
    # Only the non-finite values go to the checks, which name the first.
    _require_finite("static mean", *means[~np.isfinite(means)])
    for s in stds[~np.isfinite(stds)]:  # a square root is never negative
        raise CalibrationError(f"standard deviation must be nonnegative, got {s}")


# The two halves of ``ObservationArrays.from_samples``, built only by
# their ``from_samples`` and named nowhere else. They stay classes
# because the benchmark's tracer (``bench/spans.py``) wraps both
# ``from_samples``.
class StaticObservation(NamedTuple):
    """The still stage: per-axis means and sample standard deviations of
    the measured rate, ``(3,)`` in deg/s, and the integration time
    ``n_samples / sample_rate`` in seconds."""

    means: np.ndarray
    stds: np.ndarray
    duration: float

    @classmethod
    def from_samples(cls, samples, sample_rate: float) -> "StaticObservation":
        """Summarize ``(N, 3)`` measured rates taken at rest."""
        arr = _stage_samples(samples, sample_rate)
        n = arr.shape[0]
        if n < 2:
            raise ProtocolViolation(f"static stage needs at least 2 samples, got {n}")
        duration = n / sample_rate
        _require_positive("static duration", duration)
        means = arr.mean(axis=0)
        stds = arr.std(axis=0, ddof=1)
        _require_finite_still(means, stds)
        return cls(means, stds, duration)


class RotationObservation(NamedTuple):
    """One rotation stage: the time-scaled sums of the measured rates,
    ``(3,)`` in degrees, the duration ``n_samples / sample_rate`` in
    seconds, and ``theta_total``, the known magnitude of the physical
    rotation used as the reference, in degrees (360 for the standard
    protocol)."""

    sums: np.ndarray
    duration: float
    theta_total: float

    @classmethod
    def from_samples(
        cls, samples, sample_rate: float, theta_total: float
    ) -> "RotationObservation":
        """Summarize ``(N, 3)`` measured rates over a rotation."""
        arr = _stage_samples(samples, sample_rate)
        n = arr.shape[0]
        sums = arr.sum(axis=0) / sample_rate
        _require_finite("rotation sum", *sums[~np.isfinite(sums)])
        _require_positive("reference rotation magnitude", theta_total)
        if n < 2:
            raise ProtocolViolation(f"rotation stage needs at least 2 samples, got {n}")
        duration = n / sample_rate
        _require_positive("rotation duration", duration)
        return cls(sums, duration, theta_total)


# A NamedTuple rather than a frozen dataclass, as is ``estimator.Fit``:
# both are built when ``gyrocal calibrate`` imports the package, and a
# dataclass takes over a millisecond to build.
class ObservationArrays(NamedTuple):
    """Array view of the observations of one session or of a stack of them.

    ``...`` below is an optional leading replicate axis and ``n`` the
    number of rotation stages:

    - ``static_means``, ``static_stds``: ``(..., 3)`` in deg/s, the still
      stage's means and sample standard deviations
    - ``static_duration``: seconds, a scalar or ``(...)``
    - ``sums``: ``(..., n, 3)`` time-scaled rate sums in degrees
    - ``durations``, ``theta_sq``: ``(..., n)`` seconds and deg^2; the
      replicate axis may be left out when every replicate shares them

    This is the session type. A caller builds it from these arrays, as a
    campaign builds its stack, or one session from raw samples with
    :meth:`from_samples`, as log reading and the simulator do. The
    solvers, residuals and gradients take one session, as
    :func:`check_single_session` requires. Every view carries its still
    stage: a session is the still stage plus the turns.
    """

    static_means: np.ndarray
    static_stds: np.ndarray
    static_duration: np.ndarray | float
    sums: np.ndarray
    durations: np.ndarray
    theta_sq: np.ndarray

    @classmethod
    def from_samples(cls, static, turns: Iterable, sample_rate: float,
                     rotation_angle: float) -> "ObservationArrays":
        """The view of one session: a still stage's measured rates, ``(N,
        3)``, and each turn's, ``(n_i, 3)``, a rotation of ``rotation_angle``
        degrees, all at ``sample_rate`` Hz. The still stage is summarised
        first, then each turn in order. ``sample_rate`` and
        ``rotation_angle`` are numbers, as :func:`as_float` takes them."""
        sample_rate = as_float("sample_rate", sample_rate)
        rotation_angle = as_float("rotation_angle", rotation_angle)
        still = StaticObservation.from_samples(static, sample_rate)
        summaries = [RotationObservation.from_samples(turn, sample_rate, rotation_angle)
                     for turn in turns]
        if not summaries:
            raise CalibrationError("a session needs at least one rotation stage, got none")
        return cls(still.means, still.stds, still.duration,
                   np.array([turn.sums for turn in summaries]),
                   np.array([turn.duration for turn in summaries]),
                   np.array([turn.theta_total ** 2 for turn in summaries]))

    def require_finite(self) -> None:
        """Raise the CalibrationError that :meth:`from_samples` raises for
        stage summaries that are not finite, naming the first in its order:
        the still means, the still stds, then the sums turn by turn."""
        _require_finite_still(self.static_means, self.static_stds)
        sums = np.moveaxis(self.sums, -2, 0)
        _require_finite("rotation sum", *sums[~np.isfinite(sums)])

    def corrected_sums(self, biases) -> np.ndarray:
        """Bias-corrected integrated angles ``sums + durations * biases``,
        ``(..., n, 3)``, for biases of shape ``(..., 3)``."""
        b = np.asarray(biases, dtype=float)
        return self.sums + self.durations[..., None] * b[..., None, :]

    def residuals(self, scales, biases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One session's rotation residuals and their Jacobian at one point.

        With ``S`` the corrected sums, residual i is ``sum_l (k_l S_{l,i})^2
        - theta_i^2`` in deg^2, shape ``(n,)``. The Jacobian comes as
        ``dr/dk = 2 k S^2`` and ``dr/db = 2 k^2 d S``, each ``(n, 3)``.
        The squared cost, every gradient and every Gauss-Newton step are
        reductions of these.
        """
        k = np.asarray(scales, dtype=float)
        k_sq = k * k
        s = self.corrected_sums(biases)
        s_sq = s * s
        r = s_sq @ k_sq - self.theta_sq
        return r, 2.0 * k * s_sq, 2.0 * k_sq * s * self.durations[..., None]


def check_single_session(obs: ObservationArrays) -> None:
    """Raise CalibrationError unless ``obs`` is the view of one session:
    turn sums ``(n, 3)`` and static means ``(3,)``. The functions that
    take one session call it, so a stack is refused rather than fitted on
    its first row or reduced over its replicate axis."""
    if np.ndim(obs.sums) != 2 or np.shape(obs.static_means) != (3,):
        raise CalibrationError(
            f"expected the view of one session, got turn sums of shape "
            f"{np.shape(obs.sums)} and static means of shape {np.shape(obs.static_means)}"
        )


def rotation_residuals(params: CalibrationParams, obs: ObservationArrays) -> np.ndarray:
    """Per-rotation mismatch between the modelled and the reference squared
    rotation magnitude, in deg^2, for one session.

    The modelled value is ``sum_l (k_l * S_l)^2`` with S the bias-corrected
    integrated angle on axis l.
    """
    check_single_session(obs)
    return obs.residuals(params.scales, params.biases)[0]


def squared_cost(params: CalibrationParams, obs: ObservationArrays) -> float:
    """Sum of squared rotation residuals (deg^4) of one session.

    Zero exactly when the parameters reproduce every reference angle. This
    is the objective the iterative solver minimizes and the sensitivity
    analysis differentiates.
    """
    r = rotation_residuals(params, obs)
    return float(r @ r)
