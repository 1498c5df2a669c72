"""Scaled prediction variance for rotation-protocol designs.

A design here is a set of points in the normalized regressor space of
the scale-factor fit, one point per rotation stage. Rotating purely
about one axis maps to a unit vector on that axis. A design is G-optimal
when the worst-case scaled prediction variance over the unit sphere
equals the number of unknown parameters, which for three scale factors
is 3. The one-turn-per-axis protocol hits that bound exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CalibrationError

__all__ = [
    "SingularDesignError",
    "Design",
    "canonical_design",
    "moment_matrix",
    "spv",
    "max_spv_sphere",
    "is_g_optimal",
    "property_checks",
]

N_PARAMETERS = 3

#: Relative eigenvalue floor below which a moment matrix counts as singular.
_SINGULARITY_RTOL = 1e-12


class SingularDesignError(CalibrationError):
    """The design moment matrix cannot be inverted."""


@dataclass(frozen=True)
class Design:
    """Design points in regressor space, one row per observation."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise CalibrationError(f"design rows must form an (n, 3) array, got shape {rows.shape}")
        if rows.shape[0] < 3:
            raise CalibrationError(
                f"a design needs at least 3 observations to identify 3 parameters, got {rows.shape[0]}"
            )
        if not np.all(np.isfinite(rows)):
            raise CalibrationError("design rows must be finite")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def canonical_design() -> Design:
    """The three-point identity design: one pure rotation per axis."""
    return Design(np.eye(3))


def moment_matrix(design: Design) -> np.ndarray:
    """XᵀX of the design matrix."""
    return design.rows.T @ design.rows


def _checked_eigendecomposition(design: Design) -> tuple[np.ndarray, np.ndarray]:
    moment = moment_matrix(design)
    eigenvalues, eigenvectors = np.linalg.eigh(moment)
    if eigenvalues[0] <= _SINGULARITY_RTOL * max(eigenvalues[-1], 1.0):
        raise SingularDesignError(
            f"design moment matrix is singular (eigenvalues {eigenvalues}); "
            "the design does not span all three axes"
        )
    return eigenvalues, eigenvectors


def spv(design: Design, point) -> float:
    """Scaled prediction variance n·fᵀ(XᵀX)⁻¹f at one regressor point."""
    f = np.asarray(point, dtype=float)
    if f.shape != (3,):
        raise CalibrationError(f"evaluation point must be a 3-vector, got shape {f.shape}")
    eigenvalues, eigenvectors = _checked_eigendecomposition(design)
    projected = eigenvectors.T @ f
    return float(design.n * np.sum(projected ** 2 / eigenvalues))


def max_spv_sphere(design: Design) -> float:
    """Exact maximum of spv over the unit sphere.

    The maximum of a quadratic form on the sphere sits on the top
    eigenvector of (XᵀX)⁻¹, so the value is n divided by the smallest
    eigenvalue of XᵀX. No grid search, no discretization error.
    """
    eigenvalues, _ = _checked_eigendecomposition(design)
    return float(design.n / eigenvalues[0])


def is_g_optimal(design: Design, tolerance: float = 1e-9) -> bool:
    """Whether the sphere maximum of spv equals the parameter count to
    within ``tolerance``."""
    if not tolerance >= 0.0:
        raise CalibrationError(f"tolerance must be non-negative, got {tolerance}")
    return abs(max_spv_sphere(design) - N_PARAMETERS) <= tolerance


def property_checks(rng: np.random.Generator) -> list[tuple[bool, str]]:
    """The design claims as ``(ok, message)`` pairs.

    The one-turn-per-axis design has worst-case prediction variance 3, and
    equals 3 at 64 random unit-sphere points drawn from ``rng``; a
    redundant fourth turn and half-magnitude turns both do worse.
    """
    canonical = canonical_design()
    worst = max_spv_sphere(canonical)
    points = rng.normal(size=(64, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    sphere = max(abs(spv(canonical, p) - N_PARAMETERS) for p in points)
    redundant = max_spv_sphere(Design(np.array(
        [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])))
    shrunk = max_spv_sphere(Design(0.5 * np.eye(3)))
    return [
        (abs(worst - N_PARAMETERS) <= 1e-9,
         f"one-turn-per-axis design: worst-case prediction variance {worst!r} == 3 +/- 1e-9"),
        (sphere <= 1e-9,
         f"prediction variance equals 3 at 64 random unit-sphere points "
         f"(largest gap {sphere:.3g} <= 1e-9)"),
        (redundant > N_PARAMETERS + 1e-9,
         f"a redundant fourth rotation pushes the worst case to {redundant:g} > 3"),
        (abs(shrunk - 12.0) <= 1e-9,
         f"half-magnitude rotations quadruple the worst case to {shrunk:g} (12 +/- 1e-9)"),
    ]
