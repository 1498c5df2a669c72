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
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "CalibrationError",
    "ProtocolViolation",
    "CalibrationParams",
    "StaticObservation",
    "RotationObservation",
    "ObservationArrays",
    "apply_calibration",
    "inverse_calibration",
    "rotation_residuals",
    "squared_cost",
]

AXES = ("x", "y", "z")


class CalibrationError(ValueError):
    """Raised when inputs or data violate the calibration model contract."""


class ProtocolViolation(CalibrationError):
    """Raised when observations do not follow the measurement protocol."""


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CalibrationError(f"{name} must be finite, got {v!r}")


def _check_sample_rate(sample_rate: float) -> None:
    if not (math.isfinite(sample_rate) and sample_rate > 0.0):
        raise CalibrationError(f"sample rate must be finite and positive, got {sample_rate}")


@dataclass(frozen=True)
class CalibrationParams:
    """Per-axis scale factors (dimensionless, positive) and biases (deg/s).

    ``condition_number`` is set on the result of a fit: the condition
    number of the scale regression it solved. It takes no part in
    equality.
    """

    k_x: float
    k_y: float
    k_z: float
    b_x: float
    b_y: float
    b_z: float
    condition_number: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _require_finite(
            "calibration parameter",
            self.k_x, self.k_y, self.k_z, self.b_x, self.b_y, self.b_z,
        )
        if min(self.k_x, self.k_y, self.k_z) <= 0.0:
            raise CalibrationError(
                "scale factors must be positive: "
                f"({self.k_x}, {self.k_y}, {self.k_z})"
            )

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
        k = [float(v) for v in scales]
        b = [float(v) for v in biases]
        if len(k) != 3 or len(b) != 3:
            raise CalibrationError("expected three scales and three biases")
        return cls(k[0], k[1], k[2], b[0], b[1], b[2], condition_number)

    @property
    def scales(self) -> np.ndarray:
        return np.array([self.k_x, self.k_y, self.k_z])

    @property
    def biases(self) -> np.ndarray:
        return np.array([self.b_x, self.b_y, self.b_z])

    def as_dict(self) -> dict[str, float]:
        return {
            "k_x": self.k_x, "k_y": self.k_y, "k_z": self.k_z,
            "b_x": self.b_x, "b_y": self.b_y, "b_z": self.b_z,
        }


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


@dataclass(frozen=True)
class StaticObservation:
    """Summary of the stationary stage: per-axis means of the measured rate.

    ``duration`` is the integration time ``n_samples / sample_rate`` in
    seconds. The optional per-axis sample standard deviations feed the
    stillness guard in the estimator.
    """

    mean_x: float
    mean_y: float
    mean_z: float
    n_samples: int
    duration: float
    std_x: float | None = None
    std_y: float | None = None
    std_z: float | None = None

    def __post_init__(self) -> None:
        _require_finite("static mean", self.mean_x, self.mean_y, self.mean_z)
        if self.n_samples < 2:
            raise ProtocolViolation(
                f"static stage needs at least 2 samples, got {self.n_samples}"
            )
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise CalibrationError(f"static duration must be positive, got {self.duration}")
        stds = (self.std_x, self.std_y, self.std_z)
        known = [s for s in stds if s is not None]
        if known and len(known) != 3:
            raise CalibrationError("provide either no or all three standard deviations")
        for s in known:
            if not (math.isfinite(s) and s >= 0.0):
                raise CalibrationError(f"standard deviation must be nonnegative, got {s}")

    @classmethod
    def from_samples(cls, samples, sample_rate: float) -> "StaticObservation":
        """Summarize an (N, 3) array of measured rates taken at rest."""
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise CalibrationError(f"expected an (N, 3) sample array, got shape {arr.shape}")
        _check_sample_rate(sample_rate)
        n = arr.shape[0]
        if n < 2:
            raise ProtocolViolation(f"static stage needs at least 2 samples, got {n}")
        mean = arr.mean(axis=0)
        std = arr.std(axis=0, ddof=1)
        return cls(
            mean[0], mean[1], mean[2],
            n_samples=n,
            duration=n / sample_rate,
            std_x=std[0], std_y=std[1], std_z=std[2],
        )

    @property
    def means(self) -> np.ndarray:
        return np.array([self.mean_x, self.mean_y, self.mean_z])

    @property
    def stds(self) -> np.ndarray | None:
        if self.std_x is None:
            return None
        return np.array([self.std_x, self.std_y, self.std_z])


@dataclass(frozen=True)
class RotationObservation:
    """Summary of one rotation stage.

    ``sum_x/y/z`` are the time-scaled sums of the measured rates over the
    stage, in degrees. ``theta_total`` is the known magnitude of the
    physical rotation used as the reference, in degrees (360 for the
    standard protocol). ``duration`` is ``n_samples / sample_rate``.
    """

    sum_x: float
    sum_y: float
    sum_z: float
    theta_total: float
    n_samples: int
    duration: float

    def __post_init__(self) -> None:
        _require_finite("rotation sum", self.sum_x, self.sum_y, self.sum_z)
        if not (math.isfinite(self.theta_total) and self.theta_total > 0.0):
            raise CalibrationError(
                f"reference rotation magnitude must be positive, got {self.theta_total}"
            )
        if self.n_samples < 2:
            raise ProtocolViolation(
                f"rotation stage needs at least 2 samples, got {self.n_samples}"
            )
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise CalibrationError(f"rotation duration must be positive, got {self.duration}")

    @classmethod
    def from_samples(cls, samples, sample_rate: float, theta_total: float = 360.0) -> "RotationObservation":
        """Summarize an (N, 3) array of measured rates over one rotation."""
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise CalibrationError(f"expected an (N, 3) sample array, got shape {arr.shape}")
        _check_sample_rate(sample_rate)
        n = arr.shape[0]
        sums = arr.sum(axis=0) / sample_rate
        return cls(
            sums[0], sums[1], sums[2],
            theta_total=theta_total,
            n_samples=n,
            duration=n / sample_rate,
        )

    @property
    def sums(self) -> np.ndarray:
        return np.array([self.sum_x, self.sum_y, self.sum_z])


# A NamedTuple rather than a frozen dataclass, as is ``estimator.Fit``:
# both are built when ``gyrocal calibrate`` imports the package, and a
# dataclass takes over a millisecond to build.
class ObservationArrays(NamedTuple):
    """Array view of the observations of one session or of a stack of them.

    ``...`` below is an optional leading replicate axis and ``n`` the
    number of rotation stages:

    - ``static_means``, ``static_stds``: ``(..., 3)`` in deg/s; the stds
      are None when the static stage does not carry them
    - ``static_duration``: seconds, a scalar or ``(...)``
    - ``sums``: ``(..., n, 3)`` time-scaled rate sums in degrees
    - ``durations``, ``theta_sq``: ``(..., n)`` seconds and deg^2; the
      replicate axis may be left out when every replicate shares them

    This is the session type: log reading and the simulator produce it,
    and the solvers, residuals and gradients take it, each one session
    as :func:`check_single_session` requires. A view of rotation stages
    alone has None in its three static fields.
    """

    static_means: np.ndarray
    static_stds: np.ndarray | None
    static_duration: np.ndarray | float
    sums: np.ndarray
    durations: np.ndarray
    theta_sq: np.ndarray

    @classmethod
    def from_stages(
        cls,
        static_stage: StaticObservation | None,
        rotations: Sequence[RotationObservation],
    ) -> "ObservationArrays":
        """View of one session's stage records; with no static stage, a
        view of the rotation stages alone."""
        if len(rotations) == 0:
            raise CalibrationError("at least one rotation observation is required")
        static = (None, None, None) if static_stage is None else (
            static_stage.means, static_stage.stds, static_stage.duration)
        return cls(
            *static,
            np.array([[r.sum_x, r.sum_y, r.sum_z] for r in rotations]),
            np.array([r.duration for r in rotations]),
            np.array([r.theta_total ** 2 for r in rotations]),
        )

    def corrected_sums(self, biases) -> np.ndarray:
        """Bias-corrected integrated angles ``sums + durations * biases``,
        ``(..., n, 3)``, for biases of shape ``(..., 3)``."""
        b = np.asarray(biases, dtype=float)
        return self.sums + self.durations[..., None] * b[..., None, :]

    def residuals(self, scales, biases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rotation residuals and their Jacobian at one parameter point.

        With ``S`` the corrected sums, residual i is ``sum_l (k_l S_{l,i})^2
        - theta_i^2`` in deg^2, shape ``(..., n)``. The Jacobian comes as
        ``dr/dk = 2 k S^2`` and ``dr/db = 2 k^2 d S``, each ``(..., n, 3)``.
        The squared cost, every gradient and every Gauss-Newton step are
        reductions of these.
        """
        k = np.asarray(scales, dtype=float)
        k_sq = k * k
        s = self.corrected_sums(biases)
        s_sq = s * s
        r = s_sq @ k_sq - self.theta_sq
        return r, 2.0 * k * s_sq, 2.0 * k_sq * s * self.durations[..., None]


def check_single_session(obs: ObservationArrays, *, static: bool = False) -> None:
    """Raise CalibrationError unless ``obs`` is the view of one session:
    turn sums ``(n, 3)`` and static means ``(3,)``, or no static stage
    when ``static`` is false. The functions that take one session call
    it, so a stack is refused rather than fitted on its first row or
    reduced over its replicate axis."""
    means = None if obs.static_means is None else np.shape(obs.static_means)
    stage_ok = means == (3,) or (means is None and not static)
    if np.ndim(obs.sums) != 2 or not stage_ok:
        stage = "no static stage" if means is None else f"static means of shape {means}"
        raise CalibrationError(
            f"expected the view of one session{' with a static stage' if static else ''}, "
            f"got turn sums of shape {np.shape(obs.sums)} and {stage}"
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
