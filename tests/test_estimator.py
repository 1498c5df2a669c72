import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrocal import estimator
from gyrocal.estimator import (
    ConvergenceFailure,
    _residuals_and_jacobian,
    IllConditionedSystem,
    InconsistentScaleData,
    calibrate,
    calibrate_nonlinear,
    fit_batch,
)
from gyrocal.model import (
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    ProtocolViolation,
    RotationObservation,
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


def exact_stages(scales, biases, duration=5.0):
    """Noiseless stage records a sensor with the given truth would produce:
    the static stage and the three turns."""
    k = np.asarray(scales, dtype=float)
    b = np.asarray(biases, dtype=float)
    static = make_static(-b)
    rotations = []
    for axis in range(3):
        sums = -duration * b
        sums[axis] += ANGLE / k[axis]
        rotations.append(make_rotation(sums, duration=duration))
    return static, rotations


def exact_session(scales, biases, duration=5.0):
    """The view of ``exact_stages``."""
    return ObservationArrays.from_stages(*exact_stages(scales, biases, duration))


def axis_session(sums_per_turn, static_means=(0.0, 0.0, 0.0), duration=5.0):
    """A session from explicit turn sums, every stage ``duration`` seconds long."""
    static = make_static(static_means, duration=duration)
    rotations = [make_rotation(sums, duration=duration) for sums in sums_per_turn]
    return ObservationArrays.from_stages(static, rotations)


def inconsistent_session(static):
    """Regressor rows (1, 1, 0), (1, 2, 0), (0, 0, 1) and responses (10, 5, 1),
    in units of 360^2: the least-squares squared scale on y is negative."""
    return ObservationArrays.from_stages(
        static,
        [make_rotation([ANGLE, ANGLE, 0.0], theta=ANGLE * np.sqrt(10.0)),
         make_rotation([ANGLE, ANGLE * np.sqrt(2.0), 0.0], theta=ANGLE * np.sqrt(5.0)),
         make_rotation([0.0, 0.0, ANGLE])])


class TestEstimateBias:
    """The biases calibrate takes from the still stage."""

    def test_negated_means(self):
        session = axis_session(np.eye(3) * ANGLE, static_means=[1.5, -2.0, 0.25])
        np.testing.assert_allclose(calibrate(session).biases, [-1.5, 2.0, -0.25])


class TestLinearSystem:
    """The scale regression fit_batch builds: one row per turn, the squared
    bias-corrected integrated angles as regressors."""

    def test_bias_shift_enters_regressor(self):
        # bias 0.5 on x over 3 s stages: the x turn's corrected sum is
        # 360 + 3.0 * 0.5 = 361.5, and the y and z turns' raw -1.5 on x
        # corrects to 0, so the regression is diagonal
        session = axis_session([[360.0, 0.0, 0.0], [-1.5, 360.0, 0.0], [-1.5, 0.0, 360.0]],
                               static_means=[-0.5, 0.0, 0.0], duration=3.0)
        est = calibrate(session)
        np.testing.assert_allclose(est.biases, [0.5, 0.0, 0.0])
        np.testing.assert_allclose(est.scales, [360.0 / 361.5, 1.0, 1.0], rtol=1e-12)
        assert est.condition_number == pytest.approx(361.5 ** 2 / 360.0 ** 2, rel=1e-12)

    def test_requires_three_rotations(self):
        fit = fit_batch(axis_session(np.eye(3)[:2] * ANGLE))
        assert isinstance(fit.errors[0], ProtocolViolation)
        assert "need at least 3 rotation observations" in str(fit.errors[0])
        assert np.all(np.isnan(fit.scales))

    def test_accepts_redundant_rotations(self):
        turns = np.eye(3) * ANGLE
        est = calibrate(axis_session([turns[0], turns[1], turns[2], turns[0]]))
        np.testing.assert_allclose(est.scales, [1.0, 1.0, 1.0], rtol=1e-12)


class TestSolveScale:
    """Solving the regression for the scale factors, through calibrate."""

    def test_diagonal_known_values(self):
        # pure per-axis rotations: k_l = theta / S_l
        session = axis_session(np.diag([ANGLE / 1.2, ANGLE / 0.8, ANGLE]))
        np.testing.assert_allclose(calibrate(session).scales, [1.2, 0.8, 1.0])

    def test_condition_guard(self, monkeypatch):
        # the diagonal regressors above have condition number
        # (1.2 / 0.8)^2 = 2.25; the limit rejects the fit just below it
        session = axis_session(np.diag([ANGLE / 1.2, ANGLE / 0.8, ANGLE]))
        monkeypatch.setattr(estimator, "CONDITION_LIMIT", 2.26)
        assert calibrate(session).condition_number == pytest.approx(2.25)
        monkeypatch.setattr(estimator, "CONDITION_LIMIT", 2.24)
        with pytest.raises(IllConditionedSystem, match="condition number 2.25 exceeds 2.24"):
            calibrate(session)

    def test_negative_square_reported_not_clamped(self):
        with pytest.raises(InconsistentScaleData) as info:
            calibrate(inconsistent_session(make_static([0.0, 0.0, 0.0])))
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
        _, rotations = exact_stages([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        moved = make_static([0.0, 0.0, 0.0], stds=[2.0, 0.0, 0.0])
        noisy = ObservationArrays.from_stages(moved, rotations)
        with pytest.raises(ProtocolViolation) as info:
            calibrate(noisy, noise_sigma=0.15)
        assert "static" in str(info.value)

    def test_stillness_guard_off_by_default(self):
        _, rotations = exact_stages([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        moved = make_static([0.0, 0.0, 0.0], stds=[2.0, 0.0, 0.0])
        noisy = ObservationArrays.from_stages(moved, rotations)
        calibrate(noisy)  # no sigma given, guard stays quiet

    def test_stillness_guard_needs_static_stds(self):
        # a caller who sets noise_sigma asks for the stillness guard; a
        # static stage without stds cannot be checked, so it is refused
        session = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert session.static_stds is None
        with pytest.raises(CalibrationError, match="no sample standard deviations"):
            calibrate(session, noise_sigma=0.15)
        with pytest.raises(CalibrationError, match="no sample standard deviations"):
            fit_batch(session, noise_sigma=0.15)
        calibrate(session)

    def test_motion_guard_fires_when_nothing_rotates(self):
        static = make_static([0.0, 0.0, 0.0])
        still = [make_rotation([1e-4, 0.0, 0.0]) for _ in range(3)]
        session = ObservationArrays.from_stages(static, still)
        with pytest.raises(ProtocolViolation) as info:
            calibrate(session)
        assert "rotation" in str(info.value)

    @pytest.mark.parametrize("guard", ["noise_sigma", "motion_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_guard_settings_must_be_finite_and_nonnegative(self, guard, value):
        # NaN or inf would switch a guard off and a negative sigma would
        # reject every session, so both are refused up front
        session = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(CalibrationError, match=guard):
            calibrate(session, **{guard: value})
        with pytest.raises(CalibrationError, match=guard):
            fit_batch(session, **{guard: value})

    def test_degenerate_axes_rejected(self):
        static = make_static([0.0, 0.0, 0.0])
        same = make_rotation([360.0, 0.0, 0.0])
        session = ObservationArrays.from_stages(
            static, [same, same, make_rotation([0.0, 360.0, 0.0])])
        with pytest.raises(IllConditionedSystem):
            calibrate(session)


class TestCalibrateNonlinear:
    def test_matches_closed_form_noiseless(self):
        session = exact_session([1.15, 0.85, 1.02], [2.0, -3.5, 0.75])
        closed = calibrate(session)
        iterated = calibrate_nonlinear(session, CalibrationParams.identity())
        np.testing.assert_allclose(iterated.scales, closed.scales, atol=1e-9)
        np.testing.assert_allclose(iterated.biases, closed.biases, atol=1e-9)

    def test_matches_closed_form_on_perturbed_data(self):
        # hand-perturbed sums stand in for measurement noise
        rng = np.random.default_rng(42)
        static, exact = exact_stages([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        rotations = []
        for rot in exact:
            jitter = rng.normal(0.0, 0.05, size=3)
            rotations.append(make_rotation(rot.sums + jitter))
        session = ObservationArrays.from_stages(static, rotations)
        closed = calibrate(session)
        iterated = calibrate_nonlinear(session, CalibrationParams.identity())
        np.testing.assert_allclose(iterated.scales, closed.scales, atol=1e-8)
        np.testing.assert_allclose(iterated.biases, closed.biases, atol=1e-8)

    def test_exhausted_iterations_reported(self, monkeypatch):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 0)
        with pytest.raises(ConvergenceFailure, match="within 0 iterations"):
            calibrate_nonlinear(session, CalibrationParams.identity())

    def test_start_at_solution_returns_immediately(self, monkeypatch):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        truth = CalibrationParams(1.1, 0.9, 1.0, 1.0, -1.0, 0.5)
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
        est = calibrate_nonlinear(session, truth)
        np.testing.assert_allclose(est.scales, truth.scales, atol=1e-12)

    def test_residual_jacobian_matches_central_differences(self):
        # rotation rows plus the three static rows, in all six parameters;
        # every residual is quadratic per parameter, so the central
        # difference is exact up to rounding
        rng = np.random.default_rng(8)
        static = make_static(rng.uniform(-5.0, 5.0, 3))
        rotations = [make_rotation(rng.uniform(-400.0, 400.0, 3), theta=rng.uniform(300.0, 400.0))
                     for _ in range(4)]
        obs = ObservationArrays.from_stages(static, rotations)
        x = np.concatenate([rng.uniform(0.8, 1.2, 3), rng.uniform(-5.0, 5.0, 3)])
        _, jacobian = _residuals_and_jacobian(obs, x[:3], x[3:])
        assert jacobian.shape == (7, 6)
        step = 1e-4
        numeric = np.empty_like(jacobian)
        for j in range(6):
            shift = np.zeros(6)
            shift[j] = step
            ahead, _ = _residuals_and_jacobian(obs, *np.split(x + shift, 2))
            behind, _ = _residuals_and_jacobian(obs, *np.split(x - shift, 2))
            numeric[:, j] = (ahead - behind) / (2.0 * step)
        np.testing.assert_allclose(jacobian, numeric, rtol=0.0,
                                   atol=1e-9 * np.max(np.abs(jacobian)))

    def test_needs_three_rotations(self):
        static, rotations = exact_stages([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(ProtocolViolation):
            calibrate_nonlinear(ObservationArrays.from_stages(static, rotations[:2]),
                                CalibrationParams.identity())


def _stack(views):
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
        _, good = exact_stages([1.15, 0.85, 1.02], [2.0, -3.5, 0.75])
        quiet = make_static([0.0, 0.0, 0.0], stds=[0.01, 0.01, 0.01])
        moved = ObservationArrays.from_stages(
            make_static([0.0, 0.0, 0.0], stds=[0.01, 2.0, 0.5]), good)
        still = ObservationArrays.from_stages(
            quiet, [make_rotation([1e-4, 0.0, 0.0]) for _ in range(3)])
        same = make_rotation([360.0, 0.0, 0.0])
        degenerate = ObservationArrays.from_stages(
            quiet, [same, same, make_rotation([0.0, 360.0, 0.0])])
        inconsistent = inconsistent_session(quiet)
        overflow = ObservationArrays.from_stages(
            quiet, [make_rotation([1e200, 0.0, 0.0]) for _ in range(3)])
        good_stds = ObservationArrays.from_stages(
            make_static(-np.array([2.0, -3.5, 0.75]), stds=[0.1, 0.1, 0.1]), good)
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
        fit = fit_batch(session)
        corrected = session.corrected_sums(-session.static_means)
        np.testing.assert_allclose(fit.condition_numbers[0],
                                   np.linalg.cond(corrected * corrected), rtol=1e-12)
        assert calibrate(session).condition_number == fit.condition_numbers[0]

    def test_condition_number_missing_when_a_guard_trips_first(self):
        fit = fit_batch(_stack(self.sessions()[:3]), noise_sigma=0.15)
        assert np.isfinite(fit.condition_numbers[0])
        assert np.all(np.isnan(fit.condition_numbers[1:]))
        assert np.all(np.isnan(fit.scales[1:]))

    def test_unstacked_view_is_a_stack_of_one(self):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        fit = fit_batch(session)
        assert fit.scales.shape == (1, 3)
        assert fit.params() == calibrate(session)


def test_single_session_solvers_reject_a_stack():
    # a stack of two must not be fitted on its first row
    session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
    stack = _stack([session, session])
    with pytest.raises(CalibrationError, match=r"shape \(2, 3\)"):
        calibrate(stack)
    with pytest.raises(CalibrationError, match=r"shape \(2, 3\)"):
        calibrate_nonlinear(stack, CalibrationParams.identity())
    assert fit_batch(stack).params(1) == calibrate(session)
