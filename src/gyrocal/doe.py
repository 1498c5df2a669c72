"""Scaled prediction variance for rotation-protocol designs.

A design here is an ``(n, 3)`` array of points in the normalized
regressor space of the scale-factor fit, one row per rotation stage.
Rotating purely about one axis maps to a unit vector on that axis. A
design is G-optimal when the worst-case scaled prediction variance over
the unit sphere equals the number of unknown parameters, which for three
scale factors is 3. The one-turn-per-axis protocol, ``np.eye(3)``, hits
that bound exactly.
"""

from __future__ import annotations

import numpy as np

from .model import CalibrationError

__all__ = [
    "SingularDesignError",
    "spv",
    "max_spv_sphere",
    "is_g_optimal",
    "property_checks",
]

N_PARAMETERS = 3

#: Relative eigenvalue floor below which a moment matrix counts as singular.
_SINGULARITY_RTOL = 1e-12

#: How far the worst-case variance may sit from ``N_PARAMETERS`` for
#: :func:`is_g_optimal` to certify a design.
G_OPTIMALITY_TOLERANCE = 1e-9


class SingularDesignError(CalibrationError):
    """The design moment matrix cannot be inverted."""


def _checked_eigendecomposition(rows) -> tuple[int, np.ndarray, np.ndarray]:
    """Row count and eigendecomposition of the moment matrix XᵀX of a
    finite ``(n, 3)`` design with n >= 3 that spans all three axes."""
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3:
        raise CalibrationError(f"design rows must form an (n, 3) array, got shape {x.shape}")
    if x.shape[0] < 3:
        raise CalibrationError(
            f"a design needs at least 3 observations to identify 3 parameters, got {x.shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise CalibrationError("design rows must be finite")
    eigenvalues, eigenvectors = np.linalg.eigh(x.T @ x)
    if eigenvalues[0] <= _SINGULARITY_RTOL * max(eigenvalues[-1], 1.0):
        raise SingularDesignError(
            f"design moment matrix is singular (eigenvalues {eigenvalues}); "
            "the design does not span all three axes"
        )
    return x.shape[0], eigenvalues, eigenvectors


def spv(rows, point) -> float:
    """Scaled prediction variance n·fᵀ(XᵀX)⁻¹f of the design ``rows`` at
    one regressor point."""
    f = np.asarray(point, dtype=float)
    if f.shape != (3,):
        raise CalibrationError(f"evaluation point must be a 3-vector, got shape {f.shape}")
    n, eigenvalues, eigenvectors = _checked_eigendecomposition(rows)
    projected = eigenvectors.T @ f
    return float(n * np.sum(projected ** 2 / eigenvalues))


def max_spv_sphere(rows) -> float:
    """Exact maximum of spv over the unit sphere.

    The maximum of a quadratic form on the sphere sits on the top
    eigenvector of (XᵀX)⁻¹, so the value is n divided by the smallest
    eigenvalue of XᵀX. No grid search, no discretization error.
    """
    n, eigenvalues, _ = _checked_eigendecomposition(rows)
    return float(n / eigenvalues[0])


def is_g_optimal(rows) -> bool:
    """Whether the sphere maximum of spv equals the parameter count to
    within ``G_OPTIMALITY_TOLERANCE``."""
    return abs(max_spv_sphere(rows) - N_PARAMETERS) <= G_OPTIMALITY_TOLERANCE


def property_checks(rng: np.random.Generator) -> list[tuple[bool, str]]:
    """The design claims as ``(ok, message)`` pairs.

    The one-turn-per-axis design has worst-case prediction variance 3, and
    equals 3 at 64 random unit-sphere points drawn from ``rng``; a
    redundant fourth turn and half-magnitude turns both do worse.
    """
    canonical = np.eye(3)
    worst = max_spv_sphere(canonical)
    points = rng.normal(size=(64, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    sphere = max(abs(spv(canonical, p) - N_PARAMETERS) for p in points)
    redundant = max_spv_sphere(np.eye(3)[[0, 0, 1, 2]])
    shrunk = max_spv_sphere(0.5 * np.eye(3))
    return [
        (is_g_optimal(canonical),
         f"one-turn-per-axis design: worst-case prediction variance {worst!r} == 3 +/- 1e-9"),
        (sphere <= 1e-9,
         f"prediction variance equals 3 at 64 random unit-sphere points "
         f"(largest gap {sphere:.3g} <= 1e-9)"),
        (redundant > N_PARAMETERS + 1e-9,
         f"a redundant fourth rotation pushes the worst case to {redundant:g} > 3"),
        (abs(shrunk - 12.0) <= 1e-9,
         f"half-magnitude rotations quadruple the worst case to {shrunk:g} (12 +/- 1e-9)"),
    ]
