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

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    AXES,
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    ProtocolViolation,
    RotationObservation,
    Session,
    StaticObservation,
)

__all__ = [
    "IllConditionedSystem",
    "InconsistentScaleData",
    "ConvergenceFailure",
    "LinearSystem",
    "Fit",
    "estimate_bias",
    "build_linear_system",
    "solve_scale",
    "fit_batch",
    "calibrate",
    "calibrate_nonlinear",
]

#: Condition numbers above this signal a degenerate protocol run
#: (for example two rotations about the same axis).
CONDITION_LIMIT = 1e8

#: A rotation stage whose bias-corrected integrated motion stays below
#: this many degrees is treated as static.
MOTION_THRESHOLD_DEG = 10.0

#: The static stage is rejected when a per-axis sample standard deviation
#: exceeds this multiple of the configured noise level.
STILLNESS_STD_FACTOR = 5.0


class IllConditionedSystem(CalibrationError):
    """The rotation stages do not span the parameter space well enough."""


class InconsistentScaleData(CalibrationError):
    """The fit produced a non-positive squared scale factor."""


class ConvergenceFailure(CalibrationError):
    """The iterative solver did not reach its tolerances."""


def estimate_bias(static_stage: StaticObservation) -> np.ndarray:
    """Bias estimate from the stationary stage: negated per-axis means (deg/s)."""
    return -static_stage.means


def _record(errors: list, rows: np.ndarray, make) -> None:
    """Store ``make(r)`` for every flagged row that has not failed yet, so
    each row keeps the first guard it tripped."""
    for r, flagged in enumerate(rows.tolist()):
        if flagged and errors[r] is None:
            errors[r] = make(r)


def _check_systems(x: np.ndarray, y: np.ndarray, errors: list) -> None:
    """The LinearSystem entry checks on stacked (R, n, 3) regressors and
    (R, n) responses, in order."""
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
    for rows, message in (
        (~finite, "linear system entries must be finite"),
        ((x < 0.0).any(axis=(1, 2)), "regressors are squares and cannot be negative"),
        ((y <= 0.0).any(axis=1), "responses are squared reference angles and must be positive"),
    ):
        _record(errors, rows, lambda r: CalibrationError(message))


def _solve_systems(
    x: np.ndarray, y: np.ndarray, condition_limit: float, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    """Squared scales and condition numbers of stacked regressions.

    One SVD per row gives both the condition number and the
    least-squares solution. Rows already in ``errors`` are solved on
    zeros and come back as NaN.
    """
    valid = np.array([e is None for e in errors])
    if not valid.all():
        x = np.where(valid[:, None, None], x, 0.0)
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[:, 0] / sv[:, -1]
        # Element-wise sums keep every row's bits independent of the stack.
        coef = (u * y[:, :, None]).sum(axis=1) / sv
        scale_sq = (vt * coef[:, :, None]).sum(axis=1)
    _record(errors, valid & ~(cond <= condition_limit), lambda r: IllConditionedSystem(
        f"regressor matrix condition number {cond[r]:.3g} exceeds {condition_limit:.3g}; "
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
    return scale_sq, np.where(valid, cond, np.nan)


@dataclass(frozen=True)
class LinearSystem:
    """Regression view of the rotation stages.

    One row per rotation. Columns are the squared bias-corrected
    integrated angles per axis (deg^2); responses are the squared
    reference angles (deg^2).
    """

    regressors: np.ndarray
    responses: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.regressors, dtype=float)
        y = np.asarray(self.responses, dtype=float)
        if x.ndim != 2 or x.shape[1] != 3 or y.shape != (x.shape[0],):
            raise CalibrationError(
                f"expected (n, 3) regressors with matching responses, got {x.shape} and {y.shape}"
            )
        errors = [None]
        _check_systems(x[None], y[None], errors)
        if errors[0] is not None:
            raise errors[0]
        object.__setattr__(self, "regressors", x)
        object.__setattr__(self, "responses", y)


def build_linear_system(rotations: Sequence[RotationObservation], biases) -> LinearSystem:
    """Assemble the scale-factor regression from >= 3 rotation stages."""
    if len(rotations) < 3:
        raise ProtocolViolation(
            f"need at least 3 rotation observations to identify 3 scale factors, got {len(rotations)}"
        )
    s = np.stack([rot.corrected_sums(biases) for rot in rotations])
    return LinearSystem(s * s, np.array([rot.theta_total ** 2 for rot in rotations]))


def solve_scale(system: LinearSystem, *, condition_limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Least-squares scale factors from the rotation regression.

    Raises IllConditionedSystem for degenerate regressors and
    InconsistentScaleData when a fitted squared scale is not positive;
    negative values are reported, never clamped.
    """
    errors = [None]
    scale_sq, _ = _solve_systems(
        system.regressors[None], system.responses[None], condition_limit, errors
    )
    if errors[0] is not None:
        raise errors[0]
    return np.sqrt(scale_sq[0])


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
    condition_limit: float = CONDITION_LIMIT,
) -> Fit:
    """Closed-form calibration of every session of an observation stack.

    Applies the guards of :func:`calibrate` to each row, in the same
    order and with the same messages, and records the first one a row
    trips instead of raising. A view without a replicate axis is a
    stack of one.
    """
    n_rot = obs.sums.shape[-2]
    means = np.reshape(obs.static_means, (-1, 3))
    n_rows = len(means)
    errors: list[CalibrationError | None] = [None] * n_rows

    if noise_sigma is not None and obs.static_stds is not None:
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
    cond = np.full(n_rows, np.nan)
    if n_rot < 3:
        _record(errors, np.ones(n_rows, dtype=bool), lambda r: ProtocolViolation(
            f"need at least 3 rotation observations to identify 3 scale factors, got {n_rot}"
        ))
    else:
        y = np.empty((n_rows, n_rot))
        y[...] = obs.theta_sq
        _check_systems(x, y, errors)
        scale_sq, cond = _solve_systems(x, y, condition_limit, errors)
        valid = np.array([e is None for e in errors])
        scales[valid] = np.sqrt(scale_sq[valid])
    return Fit(biases=biases, scales=scales, condition_numbers=cond, errors=tuple(errors))


def calibrate(
    session: Session,
    *,
    noise_sigma: float | None = None,
    motion_threshold: float = MOTION_THRESHOLD_DEG,
    condition_limit: float = CONDITION_LIMIT,
) -> CalibrationParams:
    """Closed-form calibration of one session: :func:`fit_batch` of a
    stack of one, raising its error. The result carries the condition
    number of the scale regression.

    ``noise_sigma`` (deg/s) enables the stillness guard: the static stage
    is rejected when any per-axis sample standard deviation exceeds
    ``STILLNESS_STD_FACTOR`` times this value, so motion cannot leak into
    the bias estimate. ``motion_threshold`` (degrees) rejects sessions in
    which every rotation stage integrates to almost no motion.
    """
    return fit_batch(
        ObservationArrays.from_stages(session.static_stage, session.rotations),
        noise_sigma=noise_sigma,
        motion_threshold=motion_threshold,
        condition_limit=condition_limit,
    ).params()


def _residuals_and_jacobian(
    scales: np.ndarray,
    biases: np.ndarray,
    sums: np.ndarray,
    durations: np.ndarray,
    theta_sq: np.ndarray,
    static_means: np.ndarray,
    static_duration: float,
    fit_biases: bool,
) -> tuple[np.ndarray, np.ndarray]:
    # Rotation residual i: sum_l (k_l S_{l,i})^2 - theta_i^2 with
    # S_{l,i} = sum_{l,i} + duration_i * b_l.
    s = sums + durations[:, None] * biases
    r_rot = (s * s) @ (scales ** 2) - theta_sq
    dr_dk = 2.0 * scales * (s * s)
    dr_db = 2.0 * (scales ** 2) * s * durations[:, None]
    if not fit_biases:
        return r_rot, dr_dk
    # Static residual per axis: the integrated angle a still sensor must
    # show as zero, k_l * duration * (mean_l + b_l). Linear in b, so the
    # joint system stays well posed at the optimum.
    resid_static = scales * static_duration * (static_means + biases)
    j_static = np.zeros((3, 6))
    j_static[:, :3] = np.diag(static_duration * (static_means + biases))
    j_static[:, 3:] = np.diag(scales * static_duration)
    residuals = np.concatenate([r_rot, resid_static])
    jacobian = np.vstack([np.hstack([dr_dk, dr_db]), j_static])
    return residuals, jacobian


def calibrate_nonlinear(
    rotations: Sequence[RotationObservation],
    static_stage: StaticObservation,
    init: CalibrationParams,
    *,
    fit_biases: bool = True,
    max_iterations: int = 200,
    residual_tolerance: float = 1e-10,
    step_tolerance: float = 1e-12,
) -> CalibrationParams:
    """Gauss-Newton reference solution over the same observations.

    Minimizes the sum of squared rotation residuals. With
    ``fit_biases=True`` (default) the stationary stage contributes one
    residual per axis and all six parameters are free; with
    ``fit_biases=False`` the biases are fixed to the closed-form static
    estimate and only the scales are optimized. Steps are halved whenever
    the residual would increase or a scale factor would leave the
    positive domain. Convergence requires the relative residual
    improvement or the step size to fall below the tolerances.
    """
    if len(rotations) < 3:
        raise ProtocolViolation(
            f"need at least 3 rotation observations, got {len(rotations)}"
        )
    obs = ObservationArrays.from_stages(static_stage, rotations)
    sums, durations, theta_sq = obs.sums, obs.durations, obs.theta_sq
    static_means, static_duration = obs.static_means, obs.static_duration

    scales = init.scales.copy()
    biases = init.biases.copy() if fit_biases else estimate_bias(static_stage)
    n_free = 6 if fit_biases else 3

    def unpack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if fit_biases:
            return x[:3], x[3:]
        return x, biases

    def objective(x: np.ndarray) -> float:
        k, b = unpack(x)
        r, _ = _residuals_and_jacobian(
            k, b, sums, durations, theta_sq, static_means, static_duration, fit_biases
        )
        return float(r @ r)

    x = np.concatenate([scales, biases]) if fit_biases else scales
    current = objective(x)
    if current < 1e-18:
        k, b = unpack(x)
        return CalibrationParams.from_arrays(k, b)

    for _ in range(max_iterations):
        k, b = unpack(x)
        r, jac = _residuals_and_jacobian(
            k, b, sums, durations, theta_sq, static_means, static_duration, fit_biases
        )
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
        step_size = float(np.max(np.abs(alpha * step[:n_free])))
        x = candidate
        previous, current = current, candidate_cost
        if (
            current < 1e-18
            or improvement <= residual_tolerance * max(previous, 1e-30)
            or step_size < step_tolerance
        ):
            k, b = unpack(x)
            return CalibrationParams.from_arrays(k, b)
    raise ConvergenceFailure(
        f"no convergence within {max_iterations} iterations; final residual {current:.6g}"
    )
