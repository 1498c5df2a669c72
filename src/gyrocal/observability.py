"""Sensitivity of the calibration cost to each parameter.

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
"""

from __future__ import annotations

import numpy as np

from .model import (
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    RotationObservation,
    check_single_session,
    squared_cost,
)

__all__ = [
    "cost_gradient",
    "model_term_gradient",
    "finite_difference_grad",
    "property_checks",
]

#: Random configurations the gradient property check draws.
N_GRADIENT_CONFIGS = 100


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


def property_checks(rng: np.random.Generator) -> list[tuple[bool, str]]:
    """The sensitivity claims as ``(ok, message)`` pairs.

    The analytic gradients must match central differences on
    ``N_GRADIENT_CONFIGS`` random configurations drawn from ``rng``; a
    resting sensor with zero bias must show exactly zero scale gradients,
    and one with nonzero bias nonzero bias gradients.
    """
    worst_rel = 0.0
    for _ in range(N_GRADIENT_CONFIGS):
        nominal = CalibrationParams.from_arrays(
            rng.uniform(0.8, 1.2, 3), rng.uniform(-5.0, 5.0, 3))
        obs = ObservationArrays.from_stages(None, [
            RotationObservation(*rng.uniform(-400.0, 400.0, 3),
                                theta_total=rng.uniform(300.0, 400.0),
                                n_samples=500, duration=5.0)
            for _ in range(3)
        ])
        analytic = cost_gradient(nominal, obs)
        numeric = finite_difference_grad(nominal, obs, step=1e-5)
        denom = max(1.0, float(np.max(np.abs(analytic))))
        worst_rel = max(worst_rel, float(np.max(np.abs(analytic - numeric))) / denom)
    still = ObservationArrays.from_stages(
        None, [RotationObservation(0.0, 0.0, 0.0, theta_total=360.0, n_samples=300, duration=3.0)])
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
