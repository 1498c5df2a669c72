import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrocal.model import (
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
from gyrocal.estimator import calibrate, calibrate_nonlinear
from gyrocal.observability import cost_gradient, finite_difference_grad, model_term_gradient

finite_bias = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
positive_scale = st.floats(min_value=0.8, max_value=1.2, allow_nan=False)


def params_strategy():
    return st.builds(
        CalibrationParams,
        positive_scale, positive_scale, positive_scale,
        finite_bias, finite_bias, finite_bias,
    )


class TestCalibrationParams:
    def test_identity(self):
        p = CalibrationParams.identity()
        assert p.scales.tolist() == [1.0, 1.0, 1.0]
        assert p.biases.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad_k", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite_scale(self, bad_k):
        with pytest.raises(CalibrationError):
            CalibrationParams(bad_k, 1.0, 1.0, 0.0, 0.0, 0.0)

    def test_rejects_nonfinite_bias(self):
        with pytest.raises(CalibrationError):
            CalibrationParams(1.0, 1.0, 1.0, float("nan"), 0.0, 0.0)

    def test_from_arrays_round_trip(self):
        p = CalibrationParams.from_arrays([1.1, 0.9, 1.0], [0.5, -0.5, 2.0])
        assert p == CalibrationParams(1.1, 0.9, 1.0, 0.5, -0.5, 2.0)

    def test_from_arrays_wrong_length(self):
        with pytest.raises(CalibrationError):
            CalibrationParams.from_arrays([1.0, 1.0], [0.0, 0.0, 0.0])

    def test_as_dict_keys(self):
        assert set(CalibrationParams.identity().as_dict()) == {
            "k_x", "k_y", "k_z", "b_x", "b_y", "b_z",
        }


class TestApplyCalibration:
    def test_identity_is_passthrough(self):
        raw = np.array([1.0, -2.0, 3.0])
        out = apply_calibration(CalibrationParams.identity(), raw)
        np.testing.assert_array_equal(out, raw)

    def test_known_values(self):
        p = CalibrationParams(2.0, 1.0, 0.5, 1.0, 0.0, -2.0)
        out = apply_calibration(p, np.array([3.0, 4.0, 6.0]))
        np.testing.assert_allclose(out, [8.0, 4.0, 2.0])

    def test_batch_shape(self):
        p = CalibrationParams.identity()
        out = apply_calibration(p, np.zeros((7, 3)))
        assert out.shape == (7, 3)

    @given(params_strategy(), st.lists(
        st.floats(min_value=-200.0, max_value=200.0), min_size=3, max_size=3))
    def test_inverse_round_trip(self, p, rate):
        rate = np.array(rate)
        raw = inverse_calibration(p, rate)
        np.testing.assert_allclose(apply_calibration(p, raw), rate, atol=1e-9)


@pytest.mark.parametrize("observation", [StaticObservation, RotationObservation])
@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_from_samples_rejects_bad_sample_rate(observation, rate):
    # a NaN or infinite rate would pass a plain "<= 0" test and fail later
    # with a misleading message about the stage duration
    with pytest.raises(CalibrationError, match="sample rate"):
        observation.from_samples(np.ones((10, 3)), sample_rate=rate)


class TestStaticObservation:
    def test_from_samples(self):
        samples = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        obs = StaticObservation.from_samples(samples, sample_rate=100.0)
        np.testing.assert_allclose(obs.means, [2.0, 2.0, 2.0])
        assert obs.n_samples == 2
        assert obs.duration == pytest.approx(0.02)
        np.testing.assert_allclose(obs.stds, np.std(samples, axis=0, ddof=1))

    def test_needs_two_samples(self):
        with pytest.raises(ProtocolViolation):
            StaticObservation.from_samples(np.zeros((1, 3)), sample_rate=100.0)

    def test_std_all_or_none(self):
        with pytest.raises(CalibrationError):
            StaticObservation(0.0, 0.0, 0.0, n_samples=10, duration=0.1, std_x=0.1)

    def test_stds_optional(self):
        obs = StaticObservation(0.0, 0.0, 0.0, n_samples=10, duration=0.1)
        assert obs.stds is None


class TestRotationObservation:
    def test_from_samples_time_scaled_sums(self):
        samples = np.array([[100.0, 0.0, 0.0]] * 10)
        obs = RotationObservation.from_samples(samples, sample_rate=100.0)
        np.testing.assert_allclose(obs.sums, [10.0, 0.0, 0.0])
        assert obs.duration == pytest.approx(0.1)
        assert obs.theta_total == 360.0

    def test_corrected_sums_shift(self):
        obs = RotationObservation(360.0, 0.0, 0.0, theta_total=360.0,
                                  n_samples=300, duration=3.0)
        static = StaticObservation(0.0, 0.0, 0.0, n_samples=300, duration=3.0)
        view = ObservationArrays.from_stages(static, [obs])
        np.testing.assert_allclose(
            view.corrected_sums([0.5, 0.0, -1.0]), [[361.5, 0.0, -3.0]])

    @pytest.mark.parametrize("theta", [0.0, -360.0, float("nan")])
    def test_reference_angle_must_be_positive(self, theta):
        with pytest.raises(CalibrationError):
            RotationObservation(1.0, 0.0, 0.0, theta_total=theta,
                                n_samples=10, duration=0.1)


class TestSession:
    def _rotation(self):
        return RotationObservation(360.0, 0.0, 0.0, theta_total=360.0,
                                   n_samples=500, duration=5.0)

    def test_requires_three_rotations(self):
        static = StaticObservation(0.0, 0.0, 0.0, n_samples=300, duration=3.0)
        with pytest.raises(ProtocolViolation, match="at least 3 rotation"):
            calibrate(ObservationArrays.from_stages(static, [self._rotation()]))


class TestCostFunctions:
    def _single_rotation(self, sums, theta=360.0):
        return ObservationArrays.from_stages(None, [RotationObservation(
            sums[0], sums[1], sums[2], theta_total=theta, n_samples=500, duration=5.0)])

    def test_residual_known_value(self):
        # 180^2 - 360^2 = -97200 with identity parameters
        rots = self._single_rotation((180.0, 0.0, 0.0))
        r = rotation_residuals(CalibrationParams.identity(), rots)
        np.testing.assert_allclose(r, [-97200.0])
        assert squared_cost(CalibrationParams.identity(), rots) == pytest.approx(97200.0 ** 2)

    def test_zero_at_consistent_observation(self):
        rots = self._single_rotation((360.0, 0.0, 0.0))
        assert squared_cost(CalibrationParams.identity(), rots) == 0.0

    def test_scale_enters_squared(self):
        p = CalibrationParams(2.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        rots = self._single_rotation((180.0, 0.0, 0.0))
        np.testing.assert_allclose(
            rotation_residuals(p, rots), [(2.0 * 180.0) ** 2 - 360.0 ** 2])

    def test_empty_rotation_list_rejected(self):
        # the residuals and gradients take a view, and the one helper that
        # builds a view from stage records refuses an empty list
        static = StaticObservation(0.0, 0.0, 0.0, n_samples=300, duration=3.0)
        for stage in (None, static):
            with pytest.raises(CalibrationError, match="at least one rotation"):
                ObservationArrays.from_stages(stage, [])

    @given(params_strategy())
    @settings(max_examples=25)
    def test_cost_nonnegative(self, p):
        rots = self._single_rotation((200.0, -30.0, 15.0))
        assert squared_cost(p, rots) >= 0.0


#: Every function that takes the view of one session, as a function of
#: the view alone.
SINGLE_SESSION_FUNCTIONS = {
    "calibrate": calibrate,
    "calibrate_nonlinear": lambda obs: calibrate_nonlinear(obs, CalibrationParams.identity()),
    "rotation_residuals": lambda obs: rotation_residuals(CalibrationParams.identity(), obs),
    "squared_cost": lambda obs: squared_cost(CalibrationParams.identity(), obs),
    "cost_gradient": lambda obs: cost_gradient(CalibrationParams.identity(), obs),
    "model_term_gradient": lambda obs: model_term_gradient(CalibrationParams.identity(), obs),
    "finite_difference_grad": lambda obs: finite_difference_grad(CalibrationParams.identity(), obs),
}


@pytest.mark.parametrize("name", sorted(SINGLE_SESSION_FUNCTIONS))
def test_single_session_functions_reject_a_stack(name):
    # a stack is refused, not fitted on its first row or reduced over its
    # replicate axis into a wrong-shaped answer, and the message names
    # the stack's shape; with and without a static stage
    run = SINGLE_SESSION_FUNCTIONS[name]
    session = ObservationArrays.from_stages(
        StaticObservation(0.0, 0.0, 0.0, n_samples=300, duration=3.0),
        [RotationObservation(*sums, theta_total=360.0, n_samples=500, duration=5.0)
         for sums in 360.0 * np.eye(3)])
    run(session)
    turns = session._replace(static_means=None, static_stds=None, static_duration=None)
    for view in (session, turns):
        stack = ObservationArrays(*(None if f is None else np.stack([f, f]) for f in view))
        with pytest.raises(CalibrationError, match=r"turn sums of shape \(2, 3, 3\)"):
            run(stack)
