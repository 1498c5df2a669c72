"""Triaxial gyroscope autocalibration without external equipment.

A six-parameter rate-gyro error model (per-axis scale factor and bias),
estimated from one short protocol: hold the sensor still, then turn it
360 degrees about each axis by hand. Biases fall out of the still stage,
scale factors out of a linear regression on the integrated turns.
Everything works in degrees and seconds.

``simulator``, ``doe`` and ``observability`` load on first attribute
access, so a process that only calibrates a log never compiles or runs
them; their public names here are served by the module ``__getattr__``.
What calibrate never runs lives in them: campaigns and the files of
``gyrocal simulate`` in ``simulator``, and the Gauss-Newton reference
``calibrate_nonlinear`` in ``observability``.
"""

import importlib.util
import sys

from . import estimator, model, session_io
from .model import *
from .estimator import *
from .session_io import *

__version__ = "0.1.0"

#: Public names of the lazily loaded modules, and the module each is in.
#: Written out, because reading a lazy module's ``__all__`` would load it.
_LAZY_EXPORTS = {
    **dict.fromkeys(("ConvergenceFailure", "calibrate_nonlinear", "cost_gradient",
                     "finite_difference_grad", "model_term_gradient"), "observability"),
    **dict.fromkeys(("SingularDesignError", "is_g_optimal", "max_spv_sphere", "spv"), "doe"),
    **dict.fromkeys(("CampaignReport", "GroundTruth", "SimulatedSession", "SimulationConfig",
                     "bezier_profile", "run_monte_carlo", "sample_ground_truth",
                     "simulate_session"), "simulator"),
}


def _lazy_submodule(name: str):
    """Put ``gyrocal.<name>`` in ``sys.modules`` unexecuted: it runs on the
    first attribute access, as ``importlib.util.LazyLoader`` arranges. Being
    in ``sys.modules`` from the start, it is found by code that looks there
    (``import gyrocal.<name>`` loads it at once)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


observability = _lazy_submodule("observability")
doe = _lazy_submodule("doe")
simulator = _lazy_submodule("simulator")


def __getattr__(name: str):
    # Not cached here, so a name rebound in its own module (by a test's
    # monkeypatch, say) reads the same through the package.
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_EXPORTS})


__all__ = [*model.__all__, *estimator.__all__, *session_io.__all__, *_LAZY_EXPORTS,
           "__version__"]
