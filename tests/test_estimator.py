import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import session_view, stack_views
from gyrocal import estimator, observability
from gyrocal.estimator import (
    IllConditionedSystem,
    InconsistentScaleData,
    calibrate,
    fit_batch,
)
from gyrocal.model import (
    CalibrationError,
    CalibrationParams,
    ProtocolViolation,
)
from gyrocal.observability import ConvergenceFailure, _residuals_and_jacobian, calibrate_nonlinear
from gyrocal.simulator import SimulationConfig, sample_ground_truth, simulate_session

ANGLE = 360.0


def exact_session(scales, biases, duration=5.0):
    """The noiseless session a sensor with the given truth would record:
    the still stage and one turn about each axis."""
    k = np.asarray(scales, dtype=float)
    b = np.asarray(biases, dtype=float)
    return session_view(np.diag(ANGLE / k) - duration * b, -b, duration)


def inconsistent_session(stds=(0.0, 0.0, 0.0)):
    """Regressor rows (1, 1, 0), (1, 2, 0), (0, 0, 1) and responses (10, 5, 1),
    in units of 360^2: the least-squares squared scale on y is negative."""
    return session_view(
        [[ANGLE, ANGLE, 0.0], [ANGLE, ANGLE * np.sqrt(2.0), 0.0], [0.0, 0.0, ANGLE]],
        stds=stds, theta=[ANGLE * np.sqrt(10.0), ANGLE * np.sqrt(5.0), ANGLE])


class TestEstimateBias:
    """The biases calibrate takes from the still stage."""

    def test_negated_means(self):
        session = session_view(np.eye(3) * ANGLE, static_means=[1.5, -2.0, 0.25])
        np.testing.assert_allclose(calibrate(session).biases, [-1.5, 2.0, -0.25])


class TestLinearSystem:
    """The scale regression fit_batch builds: one row per turn, the squared
    bias-corrected integrated angles as regressors."""

    def test_bias_shift_enters_regressor(self):
        # bias 0.5 on x over 3 s stages: the x turn's corrected sum is
        # 360 + 3.0 * 0.5 = 361.5, and the y and z turns' raw -1.5 on x
        # corrects to 0, so the regression is diagonal
        session = session_view([[360.0, 0.0, 0.0], [-1.5, 360.0, 0.0], [-1.5, 0.0, 360.0]],
                               static_means=[-0.5, 0.0, 0.0], durations=3.0)
        est = calibrate(session)
        np.testing.assert_allclose(est.biases, [0.5, 0.0, 0.0])
        np.testing.assert_allclose(est.scales, [360.0 / 361.5, 1.0, 1.0], rtol=1e-12)
        assert est.condition_number == pytest.approx(361.5 ** 2 / 360.0 ** 2, rel=1e-12)

    def test_requires_three_rotations(self):
        fit = fit_batch(session_view(np.eye(3)[:2] * ANGLE))
        assert isinstance(fit.errors[0], ProtocolViolation)
        assert "need at least 3 rotation observations" in str(fit.errors[0])
        assert np.all(np.isnan(fit.scales))

    def test_accepts_redundant_rotations(self):
        turns = np.eye(3) * ANGLE
        est = calibrate(session_view([turns[0], turns[1], turns[2], turns[0]]))
        np.testing.assert_allclose(est.scales, [1.0, 1.0, 1.0], rtol=1e-12)


class TestSolveScale:
    """Solving the regression for the scale factors, through calibrate."""

    def test_diagonal_known_values(self):
        # pure per-axis rotations: k_l = theta / S_l
        session = session_view(np.diag([ANGLE / 1.2, ANGLE / 0.8, ANGLE]))
        np.testing.assert_allclose(calibrate(session).scales, [1.2, 0.8, 1.0])

    def test_condition_guard(self, monkeypatch):
        # the diagonal regressors above have condition number
        # (1.2 / 0.8)^2 = 2.25; the limit rejects the fit just below it
        session = session_view(np.diag([ANGLE / 1.2, ANGLE / 0.8, ANGLE]))
        monkeypatch.setattr(estimator, "CONDITION_LIMIT", 2.26)
        assert calibrate(session).condition_number == pytest.approx(2.25)
        monkeypatch.setattr(estimator, "CONDITION_LIMIT", 2.24)
        with pytest.raises(IllConditionedSystem, match="condition number 2.25 exceeds 2.24"):
            calibrate(session)

    def test_negative_square_reported_not_clamped(self):
        with pytest.raises(InconsistentScaleData) as info:
            calibrate(inconsistent_session())
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
        noisy = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])._replace(
            static_stds=np.array([2.0, 0.0, 0.0]))
        with pytest.raises(ProtocolViolation) as info:
            calibrate(noisy, noise_sigma=0.15)
        assert "static" in str(info.value)

    def test_stillness_guard_off_by_default(self):
        noisy = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])._replace(
            static_stds=np.array([2.0, 0.0, 0.0]))
        calibrate(noisy)  # no sigma given, guard stays quiet

    def test_motion_guard_fires_when_nothing_rotates(self):
        session = session_view([[1e-4, 0.0, 0.0]] * 3)
        with pytest.raises(ProtocolViolation) as info:
            calibrate(session)
        assert "rotation" in str(info.value)

    def test_motion_threshold_is_read_at_call_time(self, monkeypatch):
        # full turns integrate to 360 degrees, below a 400-degree threshold
        session = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        monkeypatch.setattr(estimator, "MOTION_THRESHOLD_DEG", 400.0)
        with pytest.raises(ProtocolViolation, match="below 400 degrees"):
            calibrate(session)
        assert isinstance(fit_batch(session).errors[0], ProtocolViolation)
        monkeypatch.setattr(estimator, "MOTION_THRESHOLD_DEG", 350.0)
        calibrate(session)

    @pytest.mark.parametrize("guard", ["noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_guard_settings_must_be_finite_and_nonnegative(self, guard, value):
        # NaN or inf would switch a guard off and a negative sigma would
        # reject every session, so both are refused up front
        session = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(CalibrationError, match=guard):
            calibrate(session, **{guard: value})
        with pytest.raises(CalibrationError, match=guard):
            fit_batch(session, **{guard: value})

    @pytest.mark.parametrize("value", [True, False, "0.15", np.True_, [0.15]])
    def test_noise_sigma_must_be_a_number(self, value):
        # A True sigma would run the stillness guard at 1 deg/s.
        session = exact_session([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        for fit in (calibrate, fit_batch):
            with pytest.raises(CalibrationError) as info:
                fit(session, noise_sigma=value)
            assert str(info.value) == f"noise_sigma must be a number, got {value!r}"

    def test_degenerate_axes_rejected(self):
        session = session_view([[360.0, 0.0, 0.0], [360.0, 0.0, 0.0], [0.0, 360.0, 0.0]])
        with pytest.raises(IllConditionedSystem):
            calibrate(session)

    def test_noisy_repeated_axis_rejected(self):
        # A hand-held session whose third turn is a second turn about y, so
        # z never turns: noise keeps the regression from being singular,
        # but its condition number stays far above CONDITION_LIMIT, and far
        # above the same truth's good session's.
        config = SimulationConfig(noise_sigma=0.15, n_test_rates=1)
        rng = np.random.default_rng(17)
        for _ in range(40):
            truth = sample_ground_truth(config, rng)
            first, second = (simulate_session(truth, config, rng).session for _ in range(2))
            good = calibrate(first, noise_sigma=0.15)
            assert good.condition_number < estimator.CONDITION_LIMIT / 10.0
            repeated = first._replace(sums=np.stack([*first.sums[:2], second.sums[1]]))
            with pytest.raises(IllConditionedSystem, match="condition number"):
                calibrate(repeated, noise_sigma=0.15)


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
        exact = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        session = exact._replace(sums=exact.sums + rng.normal(0.0, 0.05, size=(3, 3)))
        closed = calibrate(session)
        iterated = calibrate_nonlinear(session, CalibrationParams.identity())
        np.testing.assert_allclose(iterated.scales, closed.scales, atol=1e-8)
        np.testing.assert_allclose(iterated.biases, closed.biases, atol=1e-8)

    def test_exhausted_iterations_reported(self, monkeypatch):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        monkeypatch.setattr(observability, "MAX_ITERATIONS", 0)
        with pytest.raises(ConvergenceFailure, match="within 0 iterations"):
            calibrate_nonlinear(session, CalibrationParams.identity())

    def test_start_at_solution_returns_immediately(self, monkeypatch):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        truth = CalibrationParams(1.1, 0.9, 1.0, 1.0, -1.0, 0.5)
        monkeypatch.setattr(observability, "MAX_ITERATIONS", 1)
        est = calibrate_nonlinear(session, truth)
        np.testing.assert_allclose(est.scales, truth.scales, atol=1e-12)

    def test_residual_jacobian_matches_central_differences(self):
        # rotation rows plus the three static rows, in all six parameters;
        # every residual is quadratic per parameter, so the central
        # difference is exact up to rounding
        rng = np.random.default_rng(8)
        means = rng.uniform(-5.0, 5.0, 3)
        turns = [(rng.uniform(-400.0, 400.0, 3), rng.uniform(300.0, 400.0)) for _ in range(4)]
        obs = session_view([sums for sums, _ in turns], means,
                           theta=[theta for _, theta in turns])
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
        with pytest.raises(ProtocolViolation):
            calibrate_nonlinear(session_view(np.eye(3)[:2] * ANGLE),
                                CalibrationParams.identity())


class TestFitBatch:
    def sessions(self):
        good = exact_session([1.15, 0.85, 1.02], [2.0, -3.5, 0.75])
        quiet = [0.01, 0.01, 0.01]
        moved = good._replace(static_means=np.zeros(3), static_stds=np.array([0.01, 2.0, 0.5]))
        still = session_view([[1e-4, 0.0, 0.0]] * 3, stds=quiet)
        degenerate = session_view([[360.0, 0.0, 0.0], [360.0, 0.0, 0.0], [0.0, 360.0, 0.0]],
                                  stds=quiet)
        inconsistent = inconsistent_session(quiet)
        overflow = session_view([[1e200, 0.0, 0.0]] * 3, stds=quiet)
        good_stds = good._replace(static_stds=np.full(3, 0.1))
        return [good_stds, moved, still, degenerate, inconsistent, overflow]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rows_match_calibrate_one_by_one(self):
        sessions = self.sessions()
        fit = fit_batch(stack_views(sessions), noise_sigma=0.15)
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
        fit = fit_batch(stack_views(self.sessions()[:3]), noise_sigma=0.15)
        assert np.isfinite(fit.condition_numbers[0])
        assert np.all(np.isnan(fit.condition_numbers[1:]))
        assert np.all(np.isnan(fit.scales[1:]))

    def test_sums_near_the_float_range_are_fitted(self):
        # Regressors of 1e200 square past the float range in XᵀX unless the
        # row is scaled first; the fit is exact both alone and in a stack.
        huge = session_view(np.diag([1e100 / 1.2, 1e100 / 0.8, 1e100]), theta=1e100)
        good = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = calibrate(huge)
            fit = fit_batch(stack_views([good, huge]))
        np.testing.assert_allclose(alone.scales, [1.2, 0.8, 1.0], rtol=1e-12)
        assert alone.condition_number == pytest.approx(2.25, rel=1e-12)
        assert fit.errors == (None, None)
        assert fit.params(1) == alone
        assert fit.params(0) == calibrate(good)

    def test_failed_rows_do_not_stop_the_stack(self):
        # Rows that an earlier guard fails, and a singular one, sit between
        # good rows in one solve: each keeps its own first error.
        goods = [exact_session([1.15, 0.85, 1.02], [2.0, -3.5, 0.75]),
                 exact_session([0.9, 1.1, 1.0], [0.5, 0.0, -1.0]),
                 exact_session([1.0, 1.2, 0.8], [-2.0, 1.0, 3.0])]
        still = session_view([[1e-4, 0.0, 0.0]] * 3)
        repeated = session_view([[360.0, 0.0, 0.0], [360.0, 0.0, 0.0], [0.0, 360.0, 0.0]])
        not_finite = session_view([[np.nan, 0.0, 0.0], [0.0, 360.0, 0.0], [0.0, 0.0, 360.0]])
        rows = [goods[0], still, goods[1], repeated, not_finite, goods[2]]
        fit = fit_batch(stack_views(rows))
        expected = [
            None,
            (ProtocolViolation, "every rotation stage integrates below 10 degrees; "
                                "the session contains no usable rotation"),
            None,
            (IllConditionedSystem, "regressor matrix condition number inf exceeds 200; "
                                   "the turns may not separate the three axes under the "
                                   "diagonal model (for example two turns about one axis, "
                                   "or turns about (1, 1, 0) and (1, -1, 0))"),
            (CalibrationError, "linear system entries must be finite"),
            None,
        ]
        for row, (session, error) in enumerate(zip(rows, expected)):
            if error is None:
                assert fit.errors[row] is None
                assert fit.params(row) == calibrate(session)
            else:
                assert type(fit.errors[row]) is error[0]
                assert str(fit.errors[row]) == error[1]
                with pytest.raises(error[0], match="^" + re.escape(error[1]) + "$"):
                    calibrate(session)
        assert fit.condition_numbers[3] == np.inf
        assert np.isnan(fit.condition_numbers[[1, 4]]).all()

    def test_singular_rows_report_an_infinite_condition_number(self):
        # A turn logged twice makes XᵀX singular; rounding leaves its least
        # eigenvalue about 1e-16 of the largest above or below 0: above, the
        # condition number reads about 1e8, and below, inf, never NaN.
        rng = np.random.default_rng(5)
        sums = rng.uniform(100.0, 400.0, (200, 3, 3))
        sums[:, 1] = sums[:, 0]
        fit = fit_batch(stack_views([session_view(turns) for turns in sums]))
        assert all(type(error) is IllConditionedSystem for error in fit.errors)
        x = sums ** 2
        x = x * 2.0 ** -np.frexp(x.max(axis=(1, 2)))[1][:, None, None]
        least = np.linalg.eigvalsh(x.transpose(0, 2, 1) @ x)[:, 0]
        assert (least <= 0.0).any()
        assert (fit.condition_numbers[least <= 0.0] == np.inf).all()
        assert (fit.condition_numbers > 1e6).all()

    @pytest.mark.parametrize("n_turns", [3, 4])
    def test_matches_numpy_least_squares(self, n_turns):
        # 1000 coupled, noisy sessions; a fourth turn is about a random axis.
        rng = np.random.default_rng(n_turns)
        n = 1000
        scales = rng.uniform(0.8, 1.2, (n, 3))
        coupling = np.eye(3) + rng.uniform(-0.10, 0.10, (n, 3, 3)) * (1.0 - np.eye(3))
        axes = np.concatenate([np.broadcast_to(np.eye(3), (n, 3, 3)),
                               rng.normal(size=(n, 1, 3))], axis=1)[:, :n_turns]
        axes /= np.linalg.norm(axes, axis=2, keepdims=True)
        sums = ANGLE * (axes @ coupling.transpose(0, 2, 1)) / scales[:, None, :]
        sums += rng.normal(0.0, 0.5, sums.shape)
        obs = stack_views([session_view(turns) for turns in sums])
        fit = fit_batch(obs)
        assert all(error is None for error in fit.errors)
        x = obs.sums ** 2
        for r in range(n):
            lstsq = np.linalg.lstsq(x[r], obs.theta_sq[r], rcond=None)[0]
            np.testing.assert_allclose(fit.scales[r] ** 2, lstsq, rtol=1e-12)
            np.testing.assert_allclose(fit.condition_numbers[r], np.linalg.cond(x[r]), rtol=1e-12)

    def test_unstacked_view_is_a_stack_of_one(self):
        session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
        fit = fit_batch(session)
        assert fit.scales.shape == (1, 3)
        assert fit.params() == calibrate(session)


def test_single_session_solvers_reject_a_stack():
    # a stack of two must not be fitted on its first row
    session = exact_session([1.1, 0.9, 1.0], [1.0, -1.0, 0.5])
    stack = stack_views([session, session])
    with pytest.raises(CalibrationError, match=r"shape \(2, 3\)"):
        calibrate(stack)
    with pytest.raises(CalibrationError, match=r"shape \(2, 3\)"):
        calibrate_nonlinear(stack, CalibrationParams.identity())
    assert fit_batch(stack).params(1) == calibrate(session)
