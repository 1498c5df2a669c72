import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrocal.estimator import (
    ConvergenceFailure,
    IllConditionedSystem,
    InconsistentScaleData,
    LinearSystem,
    build_linear_system,
    calibrate,
    calibrate_nonlinear,
    estimate_bias,
    fit_batch,
    solve_scale,
)
from gyrocal.model import (
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    ProtocolViolation,
    RotationObservation,
    Session,
    StaticObservation,
)

ANGLE = 360.0


def make_static(means, duration=3.0, n=300, stds=None):
    kw = {}
    if stds is not None:
        kw = {"std_x": stds[0], "std_y": stds[1], "std_z": stds[2]}
    return StaticObservation(means[0], means[1], means[2],
                             n_samples=n, duration=duration, **kw)


def make_rotation(sums, theta=ANGLE, duration=5.0, n=500):
    return RotationObservation(sums[0], sums[1], sums[2], theta_total=theta,
                               n_samples=n, duration=duration)


def exact_session(scales, biases, duration=5.0):
    """Noiseless observations a sensor with the given truth would produce."""
    k = np.asarray(scales, dtype=float)
    b = np.asarray(biases, dtype=float)
    static = make_static(-b)
    rotations = []
    for axis in range(3):
        sums = -duration * b
        sums[axis] += ANGLE / k[axis]
        rotations.append(make_rotation(sums, duration=duration))
    return Session(static_stage=static, rotations=tuple(rotations), sample_rate=100.0)


class TestEstimateBias:
    def test_negated_means(self):
        static = make_static([1.5, -2.0, 0.25])
        np.testing.assert_allclose(estimate_bias(static), [-1.5, 2.0, -0.25])


class TestLinearSystem:
    def test_bias_shift_enters_regressor(self):
        # (360 + 3.0 * 0.5)^2 = 130682.25 on the x column
        rot = make_rotation([360.0, 0.0, 0.0], duration=3.0, n=300)
        system = build_linear_system([rot] * 3, [0.5, 0.0, 0.0])
        np.testing.assert_allclose(system.regressors[0], [130682.25, 0.0, 0.0])
        np.testing.assert_allclose(system.responses, [129600.0] * 3)

    def test_requires_three_rotations(self):
        rot = make_rotation([360.0, 0.0, 0.0])
        with pytest.raises(ProtocolViolation):
            build_linear_system([rot, rot], np.zeros(3))

    def test_accepts_redundant_rotations(self):
        rot = make_rotation([360.0, 0.0, 0.0])
        side = make_rotation([0.0, 360.0, 0.0])
        up = make_rotation([0.0, 0.0, 360.0])
        system = build_linear_system([rot, side, up, rot], np.zeros(3))
        assert system.regressors.shape == (4, 3)

    def test_rejects_negative_regressors(self):
        with pytest.raises(CalibrationError):
            LinearSystem(np.array([[-1.0, 0.0, 0.0]] * 3), np.full(3, 100.0))


class TestSolveScale:
    def test_diagonal_known_values(self):
        # pure per-axis rotations: k_l = theta / S_l
        x = np.diag([(ANGLE / 1.2) ** 2, (ANGLE / 0.8) ** 2, ANGLE ** 2])
        system = LinearSystem(x, np.full(3, ANGLE ** 2))
        np.testing.assert_allclose(solve_scale(system), [1.2, 0.8, 1.0])

    def test_condition_guard(self):
        # two rotations about the same axis: rank-deficient
        x = np.array([[360.0 ** 2, 0.0, 0.0],
                      [360.0 ** 2, 0.0, 0.0],
                      [0.0, 360.0 ** 2, 0.0]])
        with pytest.raises(IllConditionedSystem):
            solve_scale(LinearSystem(x, np.full(3, 360.0 ** 2)))

    def test_negative_square_reported_not_clamped(self):
        # responses force a negative least-squares coefficient
        x = np.array([[1.0, 1.0, 0.0],
                      [1.0, 2.0, 0.0],
                      [0.0, 0.0, 1.0]])
        y = np.array([10.0, 5.0, 1.0])
        with pytest.raises(InconsistentScaleData) as info:
            solve_scale(LinearSystem(x, y))
        assert "non-positive" in str(info.value)


class TestCalibrate:
    @given(
        st.lists(st.floats(min_value=0.8, max_value=1.2), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_noiseless_round_trip(self, scales, biases):
        session = exact_session(scales, biases)
        est = calibrate(session)
        np.testing.assert_allclose(est.scales, scales, atol=1e-9)
        np.testing.assert_allclose(est.biases, biases, atol=1e-9)

    def test_stillness_guard_fires(self):
        session = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        moved = make_static([0.0, 0.0, 0.0], stds=[2.0, 0.0, 0.0])
        noisy = Session(static_stage=moved, rotations=session.rotations,
                        sample_rate=100.0)
        with pytest.raises(ProtocolViolation) as info:
            calibrate(noisy, noise_sigma=0.15)
        assert "static" in str(info.value)

    def test_stillness_guard_off_by_default(self):
        session = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        moved = make_static([0.0, 0.0, 0.0], stds=[2.0, 0.0, 0.0])
        noisy = Session(static_stage=moved, rotations=session.rotations,
                        sample_rate=100.0)
        calibrate(noisy)  # no sigma given, guard stays quiet

    def test_motion_guard_fires_when_nothing_rotates(self):
        static = make_static([0.0, 0.0, 0.0])
        still = [make_rotation([1e-4, 0.0, 0.0]) for _ in range(3)]
        session = Session(static_stage=static, rotations=tuple(still),
                          sample_rate=100.0)
        with pytest.raises(ProtocolViolation) as info:
            calibrate(session)
        assert "rotation" in str(info.value)

    def test_degenerate_axes_rejected(self):
        static = make_static([0.0, 0.0, 0.0])
        same = make_rotation([360.0, 0.0, 0.0])
        session = Session(static_stage=static,
                          rotations=(same, same, make_rotation([0.0, 360.0, 0.0])),
                          sample_rate=100.0)
        with pytest.raises(IllConditionedSystem):
            calibrate(session)


class TestCalibrateNonlinear:
    def test_matches_closed_form_noiseless(self):
        session = exact_session([1.15, 0.85, 1.02], [2.0, -3.5, 0.75])
        closed = calibrate(session)
        iterated = calibrate_nonlinear(
            session.rotations, session.static_stage, CalibrationParams.identity())
        np.testing.assert_allclose(iterated.scales, closed.scales, atol=1e-9)
        np.testing.assert_allclose(iterated.biases, closed.biases, atol=1e-9)

    def test_matches_closed_form_on_perturbed_data(self):
        # hand-perturbed sums stand in for measurement noise
        rng = np.random.default_rng(42)
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        rotations = []
        for rot in session.rotations:
            jitter = rng.normal(0.0, 0.05, size=3)
            rotations.append(make_rotation(rot.sums + jitter))
        closed = calibrate(
            Session(static_stage=session.static_stage, rotations=tuple(rotations),
                    sample_rate=100.0))
        iterated = calibrate_nonlinear(
            rotations, session.static_stage, CalibrationParams.identity())
        np.testing.assert_allclose(iterated.scales, closed.scales, atol=1e-8)
        np.testing.assert_allclose(iterated.biases, closed.biases, atol=1e-8)

    def test_scales_only_mode_keeps_biases_fixed(self):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        est = calibrate_nonlinear(
            session.rotations, session.static_stage,
            CalibrationParams.identity(), fit_biases=False)
        np.testing.assert_allclose(est.biases, [1.0, -1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(est.scales, [1.1, 0.9, 1.0], atol=1e-9)

    def test_exhausted_iterations_reported(self):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        with pytest.raises(ConvergenceFailure):
            calibrate_nonlinear(
                session.rotations, session.static_stage,
                CalibrationParams.identity(), max_iterations=0)

    def test_start_at_solution_returns_immediately(self):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        truth = CalibrationParams(1.1, 0.9, 1.0, 1.0, -1.0, 0.5)
        est = calibrate_nonlinear(session.rotations, session.static_stage,
                                  truth, max_iterations=1)
        np.testing.assert_allclose(est.scales, truth.scales, atol=1e-12)

    def test_needs_three_rotations(self):
        session = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(ProtocolViolation):
            calibrate_nonlinear(session.rotations[:2], session.static_stage,
                                CalibrationParams.identity())


def _stack(sessions):
    views = [ObservationArrays.from_stages(s.static_stage, s.rotations) for s in sessions]
    return ObservationArrays(
        static_means=np.stack([v.static_means for v in views]),
        static_stds=np.stack([v.static_stds for v in views]),
        static_duration=np.array([v.static_duration for v in views]),
        sums=np.stack([v.sums for v in views]),
        durations=np.stack([v.durations for v in views]),
        theta_sq=np.stack([v.theta_sq for v in views]),
    )


class TestFitBatch:
    def sessions(self):
        good = exact_session([1.15, 0.85, 1.02], [2.0, -3.5, 0.75])
        quiet = make_static([0.0, 0.0, 0.0], stds=[0.01, 0.01, 0.01])
        moved = Session(static_stage=make_static([0.0, 0.0, 0.0], stds=[0.01, 2.0, 0.5]),
                        rotations=good.rotations, sample_rate=100.0)
        still = Session(static_stage=quiet,
                        rotations=tuple(make_rotation([1e-4, 0.0, 0.0]) for _ in range(3)),
                        sample_rate=100.0)
        same = make_rotation([360.0, 0.0, 0.0])
        degenerate = Session(static_stage=quiet,
                             rotations=(same, same, make_rotation([0.0, 360.0, 0.0])),
                             sample_rate=100.0)
        # x rows (1, 1, 0), (1, 2, 0), (0, 0, 1) and y (10, 5, 1), in units
        # of 360^2, force a negative squared scale on y
        inconsistent = Session(
            static_stage=quiet,
            rotations=(make_rotation([360.0, 360.0, 0.0], theta=360.0 * np.sqrt(10.0)),
                       make_rotation([360.0, 360.0 * np.sqrt(2.0), 0.0],
                                     theta=360.0 * np.sqrt(5.0)),
                       make_rotation([0.0, 0.0, 360.0])),
            sample_rate=100.0)
        overflow = Session(static_stage=quiet,
                           rotations=tuple(make_rotation([1e200, 0.0, 0.0]) for _ in range(3)),
                           sample_rate=100.0)
        good_stds = Session(static_stage=make_static(-np.array([2.0, -3.5, 0.75]),
                                                     stds=[0.1, 0.1, 0.1]),
                            rotations=good.rotations, sample_rate=100.0)
        return [good_stds, moved, still, degenerate, inconsistent, overflow]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rows_match_calibrate_one_by_one(self):
        sessions = self.sessions()
        fit = fit_batch(_stack(sessions), noise_sigma=0.15)
        kinds = []
        for row, session in enumerate(sessions):
            try:
                expected = calibrate(session, noise_sigma=0.15)
            except CalibrationError as exc:
                assert type(fit.errors[row]) is type(exc)
                assert str(fit.errors[row]) == str(exc)
                with pytest.raises(type(exc)):
                    fit.params(row)
                kinds.append(type(exc).__name__)
            else:
                assert fit.errors[row] is None
                assert fit.params(row) == expected
                kinds.append("ok")
        assert kinds == ["ok", "ProtocolViolation", "ProtocolViolation",
                         "IllConditionedSystem", "InconsistentScaleData", "CalibrationError"]
        assert str(fit.errors[5]) == "linear system entries must be finite"

    def test_condition_number_matches_numpy(self):
        session = exact_session([1.15, 0.85, 1.02], [2.0, -3.5, 0.75])
        fit = fit_batch(ObservationArrays.from_stages(session.static_stage, session.rotations))
        system = build_linear_system(session.rotations, estimate_bias(session.static_stage))
        np.testing.assert_allclose(fit.condition_numbers[0], np.linalg.cond(system.regressors),
                                   rtol=1e-12)
        assert calibrate(session).condition_number == fit.condition_numbers[0]

    def test_condition_number_missing_when_a_guard_trips_first(self):
        fit = fit_batch(_stack(self.sessions()[:3]), noise_sigma=0.15)
        assert np.isfinite(fit.condition_numbers[0])
        assert np.all(np.isnan(fit.condition_numbers[1:]))
        assert np.all(np.isnan(fit.scales[1:]))

    def test_unstacked_view_is_a_stack_of_one(self):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        fit = fit_batch(ObservationArrays.from_stages(session.static_stage, session.rotations))
        assert fit.scales.shape == (1, 3)
        assert fit.params() == calibrate(session)
