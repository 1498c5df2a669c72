import importlib
import json
import os
import pkgutil
import textwrap

import pytest

import gyrocal
from builders import SRC, run_python, simulated_log

MODULES = ["gyrocal"] + [
    f"gyrocal.{info.name}" for info in pkgutil.iter_modules(gyrocal.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


#: The package's public surface, pinned: a name joins or leaves it on purpose.
PUBLIC_NAMES = {
    "AXES", "CalibrationError", "CalibrationParams", "CampaignReport", "ConvergenceFailure",
    "Fit", "GroundTruth", "IllConditionedSystem", "InconsistentScaleData", "LogParseError",
    "LogSegment", "ObservationArrays", "ProtocolViolation", "SessionLog", "SimulatedSession",
    "SimulationConfig", "SingularDesignError", "__version__", "apply_calibration",
    "bezier_profile", "calibrate", "calibrate_nonlinear", "cost_gradient",
    "finite_difference_grad", "fit_batch", "inverse_calibration", "is_g_optimal",
    "max_spv_sphere", "model_term_gradient", "read_session_log", "rotation_residuals",
    "run_monte_carlo", "sample_ground_truth", "simulate_session", "spv", "squared_cost",
    "write_session_log",
}


def test_public_names_are_pinned():
    assert set(gyrocal.__all__) == PUBLIC_NAMES


def test_lazy_exports_are_the_lazy_modules_all():
    # The one export list the package writes out, since reading a lazy
    # module's own would load it. ``doe`` and ``observability`` both have a
    # ``property_checks``, so the package exports neither.
    expected = {
        name: module for module in LAZY
        for name in importlib.import_module(f"gyrocal.{module}").__all__
        if name != "property_checks"
    }
    assert gyrocal._LAZY_EXPORTS == expected


# The lazy modules load on first attribute access (see the gyrocal
# docstring). Each check below runs in a fresh interpreter, because this
# one has loaded them all already.

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
LAZY = ("simulator", "doe", "observability")


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports gyrocal from this
    checkout; its last stdout line is JSON, returned decoded."""
    proc = run_python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_calibrate_process_never_runs_the_lazy_modules(tmp_path):
    path = tmp_path / "session.csv"
    simulated_log(3, path)
    # The entry ends the process itself, so the record is printed by an
    # exit hook, and ``run_fresh`` takes the status from the process. The
    # record names gyrocal's files only: a line shorter than stdout's
    # buffer is lost if the entry skips its last flush.
    code = textwrap.dedent("""
        import atexit, json, os, runpy, sys, types

        _, log, package = sys.argv
        seen = set()

        def hook(event, args):
            # Compiling from source, or executing a module's code object.
            if event == "compile":
                seen.add(args[1])
            elif event == "exec" and hasattr(args[0], "co_filename"):
                seen.add(args[0].co_filename)

        def report():
            lazy = {name: type(sys.modules["gyrocal." + name]) is not types.ModuleType
                    for name in ("simulator", "doe", "observability")}
            stdlib = sorted({"dataclasses", "copy"} & set(sys.modules))
            ran = {os.path.basename(f) for f in map(str, seen)
                   if os.path.dirname(os.path.abspath(f)) == package}
            print(json.dumps({"ran": sorted(ran), "lazy": lazy,
                              "stdlib": stdlib, "masked": "numpy.ma" in sys.modules}))

        sys.addaudithook(hook)
        atexit.register(report)
        sys.argv = ["gyrocal", "calibrate", log]
        runpy.run_module("gyrocal", run_name="__main__", alter_sys=True)
    """)
    # Asserts the process's status is 0.
    result = run_fresh(code, str(path), os.path.join(SRC, "gyrocal"))
    ran = set(result["ran"])
    assert {"cli.py", "estimator.py", "session_io.py"} <= ran  # the hook sees module code
    assert ran.isdisjoint({f"{name}.py" for name in LAZY})
    assert result["lazy"] == dict.fromkeys(LAZY, True)
    # Building a dataclass costs about a millisecond, and its module pulls in copy.
    assert result["stdlib"] == []
    assert result["masked"] is False


def test_cli_import_puts_every_traced_module_in_sys_modules():
    """The benchmark's traced run (``bench/traced_child.py``) imports
    ``gyrocal.cli``; its tracer (``bench/spans.py``) then looks up each
    module that ``FUNCTIONS`` and ``METHODS`` name in ``sys.modules``, and
    the wrapped attribute on it. That contract holds with lazy modules:
    they sit in ``sys.modules`` unloaded, and load when the tracer reaches
    into them."""
    code = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import spans
        import gyrocal.cli

        names = [m for _, m, _ in spans.FUNCTIONS] + [m for _, m, _, _ in spans.METHODS]
        missing = sorted({m for m in names if m not in sys.modules})
        for _, m, attr in spans.FUNCTIONS:
            getattr(sys.modules[m], attr)
        for _, m, cls, attr in spans.METHODS:
            getattr(sys.modules[m], cls).__dict__[attr]
        print(json.dumps({"missing": missing, "modules": sorted(set(names))}))
    """)
    result = run_fresh(code, BENCH)
    assert result["missing"] == []
    assert "gyrocal.simulator" in result["modules"]


def test_lazy_names_resolve_through_the_package():
    code = textwrap.dedent("""
        import json
        import gyrocal
        from gyrocal.simulator import run_monte_carlo

        config = gyrocal.SimulationConfig(n_param_sets=1, n_sims_per_set=1, n_test_rates=5)
        try:
            gyrocal.no_such_name
            unknown = "resolved"
        except AttributeError as exc:
            unknown = str(exc)
        star = {}
        exec("from gyrocal import *", star)
        print(json.dumps({
            "same": run_monte_carlo is gyrocal.run_monte_carlo
                    is gyrocal.simulator.run_monte_carlo,
            "config": type(config).__module__,
            "spv": gyrocal.max_spv_sphere([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            "missing_from_dir": sorted(set(gyrocal.__all__) - set(dir(gyrocal))),
            "missing_from_star": sorted(set(gyrocal.__all__) - set(star)),
            "unknown": unknown,
        }))
    """)
    result = run_fresh(code)
    assert result == {
        "same": True,
        "config": "gyrocal.simulator",
        "spv": 3.0,
        "missing_from_dir": [],
        "missing_from_star": [],
        "unknown": "module 'gyrocal' has no attribute 'no_such_name'",
    }


def test_simulate_and_verify_run_after_cli_import(tmp_path):
    config = tmp_path / "campaign.yaml"
    config.write_text("n_param_sets: 1\nn_sims_per_set: 2\nn_test_rates: 5\n", encoding="utf-8")
    out = tmp_path / "out"
    code = textwrap.dedent("""
        import json, sys
        import gyrocal.cli

        simulate = gyrocal.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
        # The campaign's quartiles and medians never load numpy's masked arrays.
        masked = "numpy.ma" in sys.modules
        doe = gyrocal.cli.main(["verify", "--suite", "doe"])
        observability = gyrocal.cli.main(["verify", "--suite", "observability"])
        print(json.dumps([simulate, masked, doe, observability]))
    """)
    assert run_fresh(code, str(config), str(out)) == [0, False, 0, 0]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert list(summary["campaigns"]) == ["0.03"]
