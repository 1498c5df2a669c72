"""Closed-form calibration pipeline and an iterative reference solver.

Biases come from the stationary stage (the still sensor must read zero
rate, so the negated sample means are the biases). Scale factors come
from a linear least-squares fit: after substituting the bias estimate,
the squared reference angle of each rotation is linear in the squared
scale factors, with the squared bias-corrected integrated angles as
regressors. A Gauss-Newton solver over the same observations provides an
independent cross-check of the closed form.
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
    check_single_session,
)

__all__ = [
    "IllConditionedSystem",
    "InconsistentScaleData",
    "ConvergenceFailure",
    "Fit",
    "fit_batch",
    "calibrate",
    "calibrate_nonlinear",
]

#: Condition numbers above this signal a degenerate protocol run
#: (for example two rotations about the same axis). Read at call time.
CONDITION_LIMIT = 1e8

#: A rotation stage whose bias-corrected integrated motion stays below
#: this many degrees is treated as static.
MOTION_THRESHOLD_DEG = 10.0

#: The static stage is rejected when a per-axis sample standard deviation
#: exceeds this multiple of the configured noise level.
STILLNESS_STD_FACTOR = 5.0

#: The Gauss-Newton solver stops once a step improves the squared cost by
#: less than this fraction, or moves no parameter by more than
#: ``STEP_TOLERANCE``, and gives up after ``MAX_ITERATIONS`` steps.
RESIDUAL_TOLERANCE = 1e-10
STEP_TOLERANCE = 1e-12
MAX_ITERATIONS = 200


class IllConditionedSystem(CalibrationError):
    """The rotation stages do not span the parameter space well enough."""


class InconsistentScaleData(CalibrationError):
    """The fit produced a non-positive squared scale factor."""


class ConvergenceFailure(CalibrationError):
    """The iterative solver did not reach its tolerances."""


def _record(errors: list, rows: np.ndarray, make) -> None:
    """Store ``make(r)`` for every flagged row that has not failed yet, so
    each row keeps the first guard it tripped."""
    for r, flagged in enumerate(rows.tolist()):
        if flagged and errors[r] is None:
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


def fit_batch(
    obs: ObservationArrays,
    *,
    noise_sigma: float | None = None,
    motion_threshold: float = MOTION_THRESHOLD_DEG,
) -> Fit:
    """Closed-form calibration of every session of an observation stack.

    Applies the guards of :func:`calibrate` to each row, in the same
    order and with the same messages, and records the first one a row
    trips instead of raising. A view without a replicate axis is a
    stack of one. Raises CalibrationError when ``noise_sigma`` or
    ``motion_threshold`` is negative or not finite, as either would
    silently disable or misfire its guard, and when ``noise_sigma`` is
    set on a view without static standard deviations to check.
    """
    for name, value in (("noise_sigma", noise_sigma), ("motion_threshold", motion_threshold)):
        if value is not None and not 0.0 <= value < np.inf:
            raise CalibrationError(f"{name} must be finite and non-negative, got {value!r}")
    if noise_sigma is not None and obs.static_stds is None:
        raise CalibrationError(
            "noise_sigma enables the stillness guard, but the static stage carries "
            "no sample standard deviations"
        )
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
    _record(errors, (motion < motion_threshold).all(axis=1), lambda r: ProtocolViolation(
        f"every rotation stage integrates below {motion_threshold:g} degrees; "
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

    # One SVD per row gives both the condition number and the least-squares
    # squared scales. Rows that already failed are solved on zeros.
    valid = np.array([e is None for e in errors])
    if not valid.all():
        x = np.where(valid[:, None, None], x, 0.0)
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[:, 0] / sv[:, -1]
        # Element-wise sums keep every row's bits independent of the stack.
        coef = (u * y[:, :, None]).sum(axis=1) / sv
        scale_sq = (vt * coef[:, :, None]).sum(axis=1)
    _record(errors, valid & ~(cond <= CONDITION_LIMIT), lambda r: IllConditionedSystem(
        f"regressor matrix condition number {cond[r]:.3g} exceeds {CONDITION_LIMIT:.3g}; "
        "the rotation stages look degenerate (for example repeated axes)"
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


def calibrate(
    obs: ObservationArrays,
    *,
    noise_sigma: float | None = None,
    motion_threshold: float = MOTION_THRESHOLD_DEG,
) -> CalibrationParams:
    """Closed-form calibration of one session: :func:`fit_batch` of a
    stack of one, raising its error. The result carries the condition
    number of the scale regression.

    ``noise_sigma`` (deg/s) enables the stillness guard: the static stage
    is rejected when any per-axis sample standard deviation exceeds
    ``STILLNESS_STD_FACTOR`` times this value, so motion cannot leak into
    the bias estimate. ``motion_threshold`` (degrees) rejects sessions in
    which every rotation stage integrates to almost no motion. A stacked
    view is rejected rather than fitted on its first row.
    """
    check_single_session(obs, static=True)
    return fit_batch(obs, noise_sigma=noise_sigma, motion_threshold=motion_threshold).params()


def _residuals_and_jacobian(
    obs: ObservationArrays, scales: np.ndarray, biases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton residuals and Jacobian in all six parameters: the
    rotation rows of ``obs.residuals`` plus three static rows."""
    r_rot, dr_dk, dr_db = obs.residuals(scales, biases)
    # Static residual per axis: the integrated angle a still sensor must
    # show as zero, k_l * duration * (mean_l + b_l). Linear in b, so the
    # joint system stays well posed at the optimum.
    resid_static = scales * obs.static_duration * (obs.static_means + biases)
    j_static = np.zeros((3, 6))
    j_static[:, :3] = np.diag(obs.static_duration * (obs.static_means + biases))
    j_static[:, 3:] = np.diag(scales * obs.static_duration)
    residuals = np.concatenate([r_rot, resid_static])
    jacobian = np.vstack([np.hstack([dr_dk, dr_db]), j_static])
    return residuals, jacobian


def calibrate_nonlinear(obs: ObservationArrays, init: CalibrationParams) -> CalibrationParams:
    """Gauss-Newton reference solution over the same observations.

    Minimizes the sum of squared rotation residuals plus one static
    residual per axis, with all six parameters free, starting at
    ``init``. Steps are halved whenever the residual would increase or a
    scale factor would leave the positive domain. Convergence requires
    the relative residual improvement or the step size to fall below
    ``RESIDUAL_TOLERANCE`` or ``STEP_TOLERANCE`` within
    ``MAX_ITERATIONS`` steps. Like :func:`calibrate`, it takes one
    session and rejects a stacked view.
    """
    check_single_session(obs, static=True)
    n_rot = obs.sums.shape[-2]
    if n_rot < 3:
        raise ProtocolViolation(f"need at least 3 rotation observations, got {n_rot}")

    def objective(x: np.ndarray) -> float:
        r, _ = _residuals_and_jacobian(obs, x[:3], x[3:])
        return float(r @ r)

    x = np.concatenate([init.scales, init.biases])
    current = objective(x)
    if current < 1e-18:
        return CalibrationParams.from_arrays(x[:3], x[3:])

    for _ in range(MAX_ITERATIONS):
        r, jac = _residuals_and_jacobian(obs, x[:3], x[3:])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        alpha = 1.0
        candidate = None
        candidate_cost = None
        for _halving in range(60):
            trial = x + alpha * step
            if np.min(trial[:3]) <= 0.0:
                alpha *= 0.5
                continue
            trial_cost = objective(trial)
            if trial_cost <= current:
                candidate = trial
                candidate_cost = trial_cost
                break
            alpha *= 0.5
        if candidate is None:
            raise ConvergenceFailure(
                f"no descending step found (residual {current:.6g}); "
                "the solver cannot improve within the positive-scale domain"
            )
        improvement = current - candidate_cost
        step_size = float(np.max(np.abs(alpha * step)))
        x = candidate
        previous, current = current, candidate_cost
        if (
            current < 1e-18
            or improvement <= RESIDUAL_TOLERANCE * max(previous, 1e-30)
            or step_size < STEP_TOLERANCE
        ):
            return CalibrationParams.from_arrays(x[:3], x[3:])
    raise ConvergenceFailure(
        f"no convergence within {MAX_ITERATIONS} iterations; final residual {current:.6g}"
    )
