"""Sensitivity of the calibration cost to each parameter, and the
Gauss-Newton reference solver that cross-checks the closed form.

The magnitude of the cost gradient at a nominal parameter point says how
well the observations constrain that parameter: a zero component means
the data cannot distinguish nearby values. Both gradients here are
reductions of the one rotation-residual Jacobian,
``ObservationArrays.residuals``, and both come as six components in the
order k_x, k_y, k_z, b_x, b_y, b_z. ``cost_gradient`` differentiates the
smooth squared-residual cost and therefore agrees with
``finite_difference_grad``. ``model_term_gradient`` differentiates only
the model prediction (the squared integrated angle), which drops the
residual weighting; the resting-sensor check of
``gyrocal verify --suite observability`` uses it. Each takes the view of
one session and rejects a stack.

``calibrate_nonlinear`` fits all six parameters by Gauss-Newton from
the same Jacobian plus three still-stage rows. It lands on the answer of
``estimator.calibrate`` and serves the tests and the acceptance criteria
as an independent check of it; ``gyrocal calibrate`` never runs it.
"""

from __future__ import annotations

import numpy as np

from .model import (
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    ProtocolViolation,
    check_single_session,
    squared_cost,
)

__all__ = [
    "cost_gradient",
    "model_term_gradient",
    "finite_difference_grad",
    "ConvergenceFailure",
    "calibrate_nonlinear",
    "property_checks",
]

#: Random configurations the gradient property check draws.
N_GRADIENT_CONFIGS = 100

#: The Gauss-Newton solver stops once a step improves the squared cost by
#: less than this fraction, or moves no parameter by more than
#: ``STEP_TOLERANCE``, and gives up after ``MAX_ITERATIONS`` steps.
RESIDUAL_TOLERANCE = 1e-10
STEP_TOLERANCE = 1e-12
MAX_ITERATIONS = 200


class ConvergenceFailure(CalibrationError):
    """The iterative solver did not reach its tolerances."""


def cost_gradient(nominal: CalibrationParams, obs: ObservationArrays) -> np.ndarray:
    """Gradient of the squared-residual cost, ``2 J^T r``, ``(6,)``."""
    check_single_session(obs)
    r, dr_dk, dr_db = obs.residuals(nominal.scales, nominal.biases)
    return 2.0 * np.concatenate([r @ dr_dk, r @ dr_db])


def model_term_gradient(nominal: CalibrationParams, obs: ObservationArrays) -> np.ndarray:
    """Derivative of the predicted squared angles in each parameter, the
    column sums of the Jacobian, ``(6,)``.

    Per scale: 2 k_l sum_i S_{l,i}^2. It grows with the integrated
    rotation magnitude and vanishes exactly when the sensor never moved
    and the nominal bias is zero, so a resting sensor cannot reveal its
    scale. Per bias: 2 k_l^2 sum_i d_i S_{l,i}. It stays nonzero for a
    resting sensor with nonzero nominal bias, so stationary data still
    constrains the bias.
    """
    check_single_session(obs)
    _, dr_dk, dr_db = obs.residuals(nominal.scales, nominal.biases)
    return np.concatenate([dr_dk.sum(axis=0), dr_db.sum(axis=0)])


def finite_difference_grad(
    nominal: CalibrationParams,
    obs: ObservationArrays,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the squared-residual cost.

    Returns the six components in the order of :func:`cost_gradient`.
    The step must be positive and small enough to keep the perturbed
    scale factors positive. A stack is rejected by ``squared_cost``.
    """
    if not step > 0.0:
        raise CalibrationError(f"finite-difference step must be positive, got {step}")
    base = np.concatenate([nominal.scales, nominal.biases])

    def cost_at(vec: np.ndarray) -> float:
        params = CalibrationParams.from_arrays(vec[:3], vec[3:])
        return squared_cost(params, obs)

    grad = np.empty(6)
    for j in range(6):
        forward = base.copy()
        backward = base.copy()
        forward[j] += step
        backward[j] -= step
        grad[j] = (cost_at(forward) - cost_at(backward)) / (2.0 * step)
    return grad


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
    ``MAX_ITERATIONS`` steps. Like ``estimator.calibrate``, it takes
    one session and rejects a stacked view.
    """
    check_single_session(obs)
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


def property_checks(rng: np.random.Generator) -> list[tuple[bool, str]]:
    """The sensitivity claims as ``(ok, message)`` pairs.

    The analytic gradients must match central differences on
    ``N_GRADIENT_CONFIGS`` random configurations drawn from ``rng``; a
    resting sensor with zero bias must show exactly zero scale gradients,
    and one with nonzero bias nonzero bias gradients.
    """
    zero = np.zeros(3)  # every view's still stage reads exactly zero
    worst_rel = 0.0
    for _ in range(N_GRADIENT_CONFIGS):
        nominal = CalibrationParams.from_arrays(
            rng.uniform(0.8, 1.2, 3), rng.uniform(-5.0, 5.0, 3))
        turns = np.array([(*rng.uniform(-400.0, 400.0, 3), rng.uniform(300.0, 400.0))
                          for _ in range(3)])
        obs = ObservationArrays(zero, zero, 3.0, turns[:, :3], np.full(3, 5.0), turns[:, 3] ** 2)
        analytic = cost_gradient(nominal, obs)
        numeric = finite_difference_grad(nominal, obs, step=1e-5)
        denom = max(1.0, float(np.max(np.abs(analytic))))
        worst_rel = max(worst_rel, float(np.max(np.abs(analytic - numeric))) / denom)
    still = ObservationArrays(zero, zero, 3.0, np.zeros((1, 3)), np.array([3.0]),
                              np.array([360.0 ** 2]))
    zero_bias = CalibrationParams(1.1, 0.9, 1.0, 0.0, 0.0, 0.0)
    with_bias = CalibrationParams(1.1, 0.9, 1.0, 2.0, -3.0, 0.5)
    return [
        (worst_rel < 1e-6,
         f"analytic gradients match central differences on {N_GRADIENT_CONFIGS} random "
         f"configurations (worst relative error {worst_rel:.3g} < 1e-6)"),
        (bool(np.all(cost_gradient(zero_bias, still)[:3] == 0.0)
              and np.all(model_term_gradient(zero_bias, still)[:3] == 0.0)),
         "a resting sensor with zero bias reveals nothing about scale (gradients exactly 0)"),
        (bool(np.all(cost_gradient(with_bias, still)[3:] != 0.0)
              and np.all(model_term_gradient(with_bias, still)[3:] != 0.0)),
         "a resting sensor with nonzero bias still constrains the bias (gradients nonzero)"),
    ]
