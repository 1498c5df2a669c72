"""Triaxial gyroscope autocalibration without external equipment.

A six-parameter rate-gyro error model (per-axis scale factor and bias),
estimated from one short protocol: hold the sensor still, then turn it
360 degrees about each axis by hand. Biases fall out of the still stage,
scale factors out of a linear regression on the integrated turns.
Everything works in degrees and seconds.
"""

from .model import (
    AXES,
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    ProtocolViolation,
    RotationObservation,
    StaticObservation,
    apply_calibration,
    inverse_calibration,
    rotation_residuals,
    squared_cost,
)
from .estimator import (
    ConvergenceFailure,
    Fit,
    IllConditionedSystem,
    InconsistentScaleData,
    calibrate,
    calibrate_nonlinear,
    fit_batch,
)
from .observability import (
    cost_gradient,
    finite_difference_grad,
    model_term_gradient,
)
from .doe import (
    SingularDesignError,
    is_g_optimal,
    max_spv_sphere,
    spv,
)
from .simulator import (
    CampaignReport,
    GroundTruth,
    SimulatedSession,
    SimulationConfig,
    bezier_profile,
    run_monte_carlo,
    sample_ground_truth,
    simulate_session,
)
from .session_io import (
    LogParseError,
    LogSegment,
    SessionLog,
    read_session_log,
    write_session_log,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "CalibrationError",
    "CalibrationParams",
    "ObservationArrays",
    "ProtocolViolation",
    "RotationObservation",
    "StaticObservation",
    "apply_calibration",
    "inverse_calibration",
    "rotation_residuals",
    "squared_cost",
    "ConvergenceFailure",
    "Fit",
    "IllConditionedSystem",
    "InconsistentScaleData",
    "calibrate",
    "calibrate_nonlinear",
    "fit_batch",
    "cost_gradient",
    "finite_difference_grad",
    "model_term_gradient",
    "SingularDesignError",
    "is_g_optimal",
    "max_spv_sphere",
    "spv",
    "CampaignReport",
    "GroundTruth",
    "SimulatedSession",
    "SimulationConfig",
    "bezier_profile",
    "run_monte_carlo",
    "sample_ground_truth",
    "simulate_session",
    "LogParseError",
    "LogSegment",
    "SessionLog",
    "read_session_log",
    "write_session_log",
    "__version__",
]
