import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrocal.model import CalibrationError, CalibrationParams, ObservationArrays, RotationObservation
from gyrocal.observability import cost_gradient, finite_difference_grad, model_term_gradient


def rotation(sums, theta=360.0, duration=5.0, n=500):
    return RotationObservation(sums[0], sums[1], sums[2], theta_total=theta,
                               n_samples=n, duration=duration)


def turns(*rotations):
    """The view of rotation stages alone."""
    return ObservationArrays.from_stages(None, rotations)


def still_observation(theta=360.0):
    """Zero integrated motion on every axis."""
    return rotation([0.0, 0.0, 0.0], theta=theta, n=300, duration=3.0)


def consistent_turn(axis, magnitude):
    """A turn whose reference angle equals its integrated magnitude."""
    sums = [0.0, 0.0, 0.0]
    sums[axis] = magnitude
    return rotation(sums, theta=magnitude)


def random_setup(rng):
    nominal = CalibrationParams.from_arrays(
        rng.uniform(0.8, 1.2, 3), rng.uniform(-5.0, 5.0, 3))
    rotations = turns(*(
        rotation(rng.uniform(-400.0, 400.0, 3), theta=rng.uniform(300.0, 400.0))
        for _ in range(3)
    ))
    return nominal, rotations


class TestFiniteDifferenceAgreement:
    def test_random_configurations(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            nominal, rotations = random_setup(rng)
            analytic = cost_gradient(nominal, rotations)
            numeric = finite_difference_grad(nominal, rotations, step=1e-5)
            denom = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) / denom < 1e-6

    def test_halving_step_shrinks_mismatch(self):
        rng = np.random.default_rng(3)
        nominal, rotations = random_setup(rng)
        analytic = cost_gradient(nominal, rotations)
        err_coarse = np.max(np.abs(
            finite_difference_grad(nominal, rotations, step=2e-3) - analytic))
        err_fine = np.max(np.abs(
            finite_difference_grad(nominal, rotations, step=1e-3) - analytic))
        # central differences converge at second order: 4x per halving
        assert err_fine < err_coarse / 3.0

    def test_zero_at_consistent_optimum(self):
        nominal = CalibrationParams.identity()
        rotations = turns(*(consistent_turn(axis, 360.0) for axis in range(3)))
        at_optimum = finite_difference_grad(nominal, rotations)
        nearby = finite_difference_grad(
            CalibrationParams(1.01, 1.0, 1.0, 0.0, 0.0, 0.0), rotations)
        # the optimum value sits on the O(h^2) truncation floor, which is
        # negligible next to the gradient a percent away
        assert np.max(np.abs(at_optimum)) < 1e-6 * np.max(np.abs(nearby))
        np.testing.assert_allclose(cost_gradient(nominal, rotations), np.zeros(6))

    def test_step_must_be_positive(self):
        with pytest.raises(CalibrationError):
            finite_difference_grad(CalibrationParams.identity(),
                                   turns(still_observation()), step=0.0)


class TestStaticClaims:
    def test_resting_zero_bias_hides_scale(self):
        nominal = CalibrationParams(1.1, 0.9, 1.0, 0.0, 0.0, 0.0)
        still = turns(still_observation())
        assert np.all(cost_gradient(nominal, still)[:3] == 0.0)
        assert np.all(model_term_gradient(nominal, still)[:3] == 0.0)

    def test_resting_nonzero_bias_keeps_bias_observable(self):
        nominal = CalibrationParams(1.1, 0.9, 1.0, 2.0, -3.0, 0.5)
        still = turns(still_observation())
        assert np.all(cost_gradient(nominal, still)[3:] != 0.0)
        assert np.all(model_term_gradient(nominal, still)[3:] != 0.0)


class TestModelTermForms:
    def test_scale_form_known_value(self):
        # single x turn, unit scales, zero bias: 2 * 360^2 on x
        nominal = CalibrationParams.identity()
        value = model_term_gradient(nominal, turns(rotation([360.0, 0.0, 0.0])))[:3]
        np.testing.assert_allclose(value, [2.0 * 360.0 ** 2, 0.0, 0.0])

    def test_bias_form_known_value(self):
        # 2 k^2 d S with d=5, S=360: 3600 on x
        nominal = CalibrationParams.identity()
        value = model_term_gradient(nominal, turns(rotation([360.0, 0.0, 0.0])))[3:]
        np.testing.assert_allclose(value, [3600.0, 0.0, 0.0])

    @given(st.floats(min_value=10.0, max_value=300.0),
           st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=40)
    def test_scale_sensitivity_grows_with_turn_magnitude(self, magnitude, factor):
        nominal = CalibrationParams(1.05, 1.0, 1.0, 0.0, 0.0, 0.0)
        small = model_term_gradient(nominal, turns(consistent_turn(0, magnitude)))[:3]
        large = model_term_gradient(nominal, turns(consistent_turn(0, magnitude * factor)))[:3]
        assert abs(large[0]) >= abs(small[0])

    @given(st.floats(min_value=10.0, max_value=300.0),
           st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=40)
    def test_smooth_gradient_grows_for_off_truth_nominal(self, magnitude, factor):
        # consistent observations, scale off by 5 percent: |dJ/dk| = 4k|k^2-1|S^4
        nominal = CalibrationParams(1.05, 1.0, 1.0, 0.0, 0.0, 0.0)
        small = cost_gradient(nominal, turns(consistent_turn(0, magnitude)))[:3]
        large = cost_gradient(nominal, turns(consistent_turn(0, magnitude * factor)))[:3]
        assert abs(large[0]) >= abs(small[0])

    def test_doubling_turn_angle_raises_scale_sensitivity(self):
        nominal = CalibrationParams(1.05, 1.0, 1.0, 0.0, 0.0, 0.0)
        single = cost_gradient(nominal, turns(consistent_turn(0, 360.0)))[:3]
        double = cost_gradient(nominal, turns(consistent_turn(0, 720.0)))[:3]
        assert abs(double[0]) > abs(single[0])
        single_m = model_term_gradient(nominal, turns(consistent_turn(0, 360.0)))[:3]
        double_m = model_term_gradient(nominal, turns(consistent_turn(0, 720.0)))[:3]
        assert abs(double_m[0]) > abs(single_m[0])



class TestSensitivityReport:
    def test_empty_rotation_list_rejected(self):
        """Both cost sensitivities are undefined without a rotation, and
        the gradients' input, a view of rotation stages, cannot hold none."""
        with pytest.raises(CalibrationError, match="at least one rotation"):
            turns()
