"""Closed-form calibration pipeline.

Biases come from the stationary stage (the still sensor must read zero
rate, so the negated sample means are the biases). Scale factors come
from a linear least-squares fit: after substituting the bias estimate,
the squared reference angle of each rotation is linear in the squared
scale factors, with the squared bias-corrected integrated angles as
regressors, solved through the normal equations. Its condition number is
√(λmax/λmin) of XᵀX; an accepted fit loses at most about 200² × 2.2e-16 ≈
1e-11 relative accuracy. The Gauss-Newton check lives in ``observability``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import (
    AXES,
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    ProtocolViolation,
    as_float,
    check_single_session,
)

__all__ = [
    "IllConditionedSystem",
    "InconsistentScaleData",
    "Fit",
    "fit_batch",
    "calibrate",
]

#: Condition numbers above this signal a degenerate protocol run (for
#: example two rotations about the same axis). Measured on 3200 simulated
#: sessions of each kind: good ones (0.03 and 0.15 deg/s noise, 100 and
#: 400 Hz, cross-coupling up to 0.10) reached at most 2.24, about the
#: squared ratio of their largest and smallest scale, and ones whose third
#: turn is a second turn about y (0.15 deg/s, 100 Hz, coupling on) at
#: least 1.9e4. At 1e8, 47% of the latter were fitted, with biased
#: scales. 200 leaves about 90x on either side. Read at call time.
CONDITION_LIMIT = 200.0

#: A rotation stage whose bias-corrected integrated motion stays below
#: this many degrees is treated as static. Read at call time.
MOTION_THRESHOLD_DEG = 10.0

#: The static stage is rejected when a per-axis sample standard deviation
#: exceeds this multiple of the configured noise level.
STILLNESS_STD_FACTOR = 5.0


class IllConditionedSystem(CalibrationError):
    """The rotation stages do not span the parameter space well enough."""


class InconsistentScaleData(CalibrationError):
    """The fit produced a non-positive squared scale factor."""


def _record(errors: list, rows: np.ndarray, make) -> None:
    """Store ``make(r)`` for every flagged row that has not failed yet, so
    each row keeps the first guard it tripped."""
    for r in np.flatnonzero(rows).tolist():
        if errors[r] is None:
            errors[r] = make(r)


class Fit(NamedTuple):
    """Closed-form fits of a stack of R sessions.

    Row r failed when ``errors[r]`` holds the CalibrationError that
    ``calibrate`` raises for that session; its scales are NaN, and so is
    its condition number when a guard before the regression tripped.
    """

    biases: np.ndarray
    scales: np.ndarray
    condition_numbers: np.ndarray
    errors: tuple[CalibrationError | None, ...]

    def params(self, row: int = 0) -> CalibrationParams:
        """Parameters of one row; raises that row's error if it failed."""
        if self.errors[row] is not None:
            raise self.errors[row]
        return CalibrationParams.from_arrays(
            self.scales[row], self.biases[row], float(self.condition_numbers[row])
        )


def fit_batch(obs: ObservationArrays, *, noise_sigma: float | None = None) -> Fit:
    """Closed-form calibration of every session of an observation stack.

    Applies the guards of :func:`calibrate` to each row, in the same
    order and with the same messages, and records the first one a row
    trips instead of raising. A view without a replicate axis is a
    stack of one. Raises CalibrationError when ``noise_sigma`` is not a
    number (see ``model.as_float``), negative or not finite, as any of
    these would silently disable or misfire the stillness guard.
    """
    if noise_sigma is not None:
        noise_sigma = as_float("noise_sigma", noise_sigma)
        if not 0.0 <= noise_sigma < np.inf:
            raise CalibrationError(
                f"noise_sigma must be finite and non-negative, got {noise_sigma!r}")
    n_rot = obs.sums.shape[-2]
    means = np.reshape(obs.static_means, (-1, 3))
    n_rows = len(means)
    errors: list[CalibrationError | None] = [None] * n_rows

    if noise_sigma is not None:
        stds = np.reshape(obs.static_stds, (n_rows, 3))
        limit = STILLNESS_STD_FACTOR * noise_sigma
        _record(errors, (stds > limit).any(axis=1), lambda r: ProtocolViolation(
            f"static stage shows motion: axis {AXES[int(np.argmax(stds[r]))]} sample standard "
            f"deviation {stds[r].max():.4g} deg/s exceeds {limit:.4g} deg/s"
        ))
    biases = -means
    corrected = obs.corrected_sums(biases)
    x = corrected * corrected
    motion = np.sqrt(x.sum(axis=2))
    _record(errors, (motion < MOTION_THRESHOLD_DEG).all(axis=1), lambda r: ProtocolViolation(
        f"every rotation stage integrates below {MOTION_THRESHOLD_DEG:g} degrees; "
        "the session contains no usable rotation"
    ))
    scales = np.full((n_rows, 3), np.nan)
    if n_rot < 3:
        _record(errors, np.ones(n_rows, dtype=bool), lambda r: ProtocolViolation(
            f"need at least 3 rotation observations to identify 3 scale factors, got {n_rot}"
        ))
        return Fit(biases=biases, scales=scales, condition_numbers=np.full(n_rows, np.nan),
                   errors=tuple(errors))
    y = np.empty((n_rows, n_rot))
    y[...] = obs.theta_sq
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
    _record(errors, ~finite, lambda r: CalibrationError("linear system entries must be finite"))
    _record(errors, (y <= 0.0).any(axis=1), lambda r: CalibrationError(
        "responses are squared reference angles and must be positive"
    ))

    # Per row, the normal equations G = XᵀX, h = Xᵀy, after the exact power
    # of two that brings X below 1, so G cannot overflow. κ₂(X) = √(λmax/λmin)
    # of G; an accepted row loses at most CONDITION_LIMIT² × 2.2e-16 ≈ 1e-11.
    # Failed rows are zeros and rows over the limit solve I: none can raise.
    valid = np.array([e is None for e in errors])
    if not valid.all():
        x = np.where(valid[:, None, None], x, 0.0)
        y = np.where(valid[:, None], y, 0.0)
    shift = -np.frexp(x.max(axis=(1, 2)))[1]
    x, y = np.ldexp(x, shift[:, None, None]), np.ldexp(y, shift[:, None])
    gram = x.transpose(0, 2, 1) @ x
    lam = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.sqrt(lam[:, -1] / lam[:, 0])
    solvable = cond <= CONDITION_LIMIT
    if not solvable.all():
        cond[~(lam[:, 0] > 0.0)] = np.inf  # a singular G, λmin < 0 from rounding included
        gram[~solvable] = np.eye(3)
    scale_sq = np.linalg.solve(gram, x.transpose(0, 2, 1) @ y[:, :, None])[:, :, 0]
    _record(errors, valid & ~solvable, lambda r: IllConditionedSystem(
        f"regressor matrix condition number {cond[r]:.3g} exceeds {CONDITION_LIMIT:.3g}; "
        "the turns may not separate the three axes under the diagonal model (for example "
        "two turns about one axis, or turns about (1, 1, 0) and (1, -1, 0))"
    ))

    def inconsistent(r: int) -> InconsistentScaleData:
        bad = ", ".join(
            f"{AXES[i]}={scale_sq[r, i]:.6g}" for i in range(3) if scale_sq[r, i] <= 0.0
        )
        return InconsistentScaleData(
            f"non-positive squared scale factor ({bad}); "
            "the data contradicts the positive-scale model"
        )

    _record(errors, valid & (scale_sq <= 0.0).any(axis=1), inconsistent)
    fitted = np.array([e is None for e in errors])
    scales[fitted] = np.sqrt(scale_sq[fitted])
    cond = np.where(valid, cond, np.nan)
    return Fit(biases=biases, scales=scales, condition_numbers=cond, errors=tuple(errors))


def calibrate(obs: ObservationArrays, *, noise_sigma: float | None = None) -> CalibrationParams:
    """Closed-form calibration of one session: :func:`fit_batch` of a
    stack of one, raising its error. The result carries the condition
    number of the scale regression.

    ``noise_sigma`` (deg/s) enables the stillness guard: the static stage
    is rejected when any per-axis sample standard deviation exceeds
    ``STILLNESS_STD_FACTOR`` times this value, so motion cannot leak into
    the bias estimate. Sessions in which every rotation stage integrates
    below ``MOTION_THRESHOLD_DEG`` are rejected. A stacked view is
    rejected rather than fitted on its first row.
    """
    check_single_session(obs)
    return fit_batch(obs, noise_sigma=noise_sigma).params()
