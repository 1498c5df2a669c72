import copy
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import session_view, stack_views
from gyrocal.model import (
    CalibrationError,
    CalibrationParams,
    ObservationArrays,
    ProtocolViolation,
    apply_calibration,
    inverse_calibration,
    rotation_residuals,
    squared_cost,
)
from gyrocal.estimator import calibrate
from gyrocal.observability import (
    calibrate_nonlinear,
    cost_gradient,
    finite_difference_grad,
    model_term_gradient,
)

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

    def test_immutable(self):
        p = CalibrationParams.identity()
        for name in ("k_x", "b_z", "condition_number", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, 2.0)
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p == CalibrationParams.identity() and p.condition_number is None

    def test_equality_and_hash_ignore_condition_number(self):
        fitted = CalibrationParams(1.1, 0.9, 1.0, 0.5, -0.5, 2.0, condition_number=1.5)
        plain = CalibrationParams(1.1, 0.9, 1.0, 0.5, -0.5, 2.0)
        assert fitted == plain and hash(fitted) == hash(plain)
        assert len({fitted, plain}) == 1
        assert fitted != CalibrationParams(1.1, 0.9, 1.0, 0.5, -0.5, 2.5)
        assert fitted != (1.1, 0.9, 1.0, 0.5, -0.5, 2.0)  # not a tuple

    def test_repr(self):
        assert repr(CalibrationParams(1.1, 0.9, 1.0, 0.5, -0.5, 2.0)) == (
            "CalibrationParams(k_x=1.1, k_y=0.9, k_z=1.0, b_x=0.5, b_y=-0.5, b_z=2.0, "
            "condition_number=None)")

    def test_copies_keep_every_field(self):
        p = CalibrationParams(1.1, 0.9, 1.0, 0.5, -0.5, 2.0, condition_number=1.5)
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and twin.condition_number == 1.5

    @pytest.mark.parametrize("field,value,message", [
        ("k_x", True, "k_x must be a number, got True"),
        ("b_y", False, "b_y must be a number, got False"),
        ("k_z", "1", "k_z must be a number, got '1'"),
        ("b_x", None, "b_x must be a number, got None"),
        ("k_y", np.True_, "k_y must be a number, got np.True_"),
        ("b_z", [0.0], "b_z must be a number, got [0.0]"),
        ("condition_number", "2", "condition_number must be a number, got '2'"),
        ("k_x", 10 ** 400, "k_x is too large for a float"),
        ("condition_number", 10 ** 400, "condition_number is too large for a float"),
    ], ids=["bool", "false", "str", "none", "numpy bool", "list", "str condition", "huge int",
            "huge condition"])
    def test_field_that_is_not_a_float_refused(self, field, value, message):
        # float() would read the string, and a bool would count as 0 or 1.
        with pytest.raises(CalibrationError) as info:
            CalibrationParams(**{**CalibrationParams.identity().as_dict(), field: value})
        assert type(info.value) is CalibrationError and str(info.value) == message

    def test_any_real_number_kept_as_its_float(self):
        p = CalibrationParams(1, np.float32(2.0), Fraction(3, 2), np.int64(0), -1,
                              np.float64(0.5), condition_number=np.int32(3))
        assert {type(getattr(p, name)) for name in p.__slots__} == {float}
        assert repr(p) == ("CalibrationParams(k_x=1.0, k_y=2.0, k_z=1.5, b_x=0.0, b_y=-1.0, "
                           "b_z=0.5, condition_number=3.0)")
        # from_arrays leaves the conversion to the constructor.
        assert CalibrationParams.from_arrays([1, np.float32(2.0), Fraction(3, 2)],
                                             (np.int64(0), -1, 0.5), np.int32(3)) == p
        with pytest.raises(CalibrationError, match="^k_x must be a number, got '1'$"):
            CalibrationParams.from_arrays(["1", "1", "1"], [True, 0, "2"])


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


@pytest.mark.parametrize("shape", [(10, 3), (10, 4, 3)], ids=["session", "stack"])
@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_from_samples_rejects_bad_sample_rate(shape, rate):
    # a NaN or infinite rate would pass a plain "<= 0" test and fail later
    # with a misleading message about the stage duration
    with pytest.raises(CalibrationError, match="sample rate"):
        ObservationArrays.from_samples(np.ones(shape), [np.ones(shape)] * 3, rate, 360.0)


@pytest.mark.parametrize("name,value,message", [
    ("sample_rate", True, "sample_rate must be a number, got True"),
    ("sample_rate", "100", "sample_rate must be a number, got '100'"),
    ("sample_rate", np.True_, "sample_rate must be a number, got np.True_"),
    ("sample_rate", 10 ** 400, "sample_rate is too large for a float"),
    ("rotation_angle", True, "rotation_angle must be a number, got True"),
    ("rotation_angle", None, "rotation_angle must be a number, got None"),
], ids=["rate bool", "rate str", "rate numpy bool", "rate huge int", "angle bool", "angle none"])
def test_from_samples_numbers_must_be_floats(name, value, message):
    # A True rate would make a 1 Hz view, a True angle a 1 degree turn.
    numbers = {"sample_rate": 100.0, "rotation_angle": 360.0, name: value}
    with pytest.raises(CalibrationError) as info:
        ObservationArrays.from_samples(np.zeros((300, 3)), [np.ones((500, 3))] * 3, **numbers)
    assert type(info.value) is CalibrationError and str(info.value) == message


def test_from_samples_takes_any_real_number_as_its_float():
    stages = np.zeros((300, 3)), [np.ones((500, 3))] * 3
    exact = ObservationArrays.from_samples(*stages, 100.0, 360.0)
    for rate, angle in ((100, 360), (np.int64(100), np.float32(360.0)), (Fraction(100), 360)):
        view = ObservationArrays.from_samples(*stages, rate, angle)
        for name, got, expected in zip(view._fields, view, exact, strict=True):
            assert np.asarray(got).dtype == np.float64, name
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), name


def with_one_stage(stage, samples, rate, angle=360.0, other=np.zeros((2, 3))):
    """``ObservationArrays.from_samples`` with ``samples`` as the still
    stage (``stage == "static"``) or as the one turn, and ``other`` as the
    other stage."""
    still, turn = (samples, other) if stage == "static" else (other, samples)
    return ObservationArrays.from_samples(still, [turn], rate, angle)


_RATE = "sample rate must be finite and positive, got "
_OVER = {"over": "ignore"}
#: The still stage is checked first, and at rates below 2 / DBL_MAX
#: (about 1.1e-308) its duration overflows, so the turn cases that need a
#: tiny rate run just above that.
_TINY = 1.2e-308

#: Every refusal of the two stage summaries, each in the order they check:
#: (stage, samples, sample rate, rotation angle, type, exact message, the
#: numpy floating-point warnings the samples raise first).
FROM_SAMPLES_REFUSALS = {
    "static 1-d": ("static", np.ones(3), 100.0, 360.0,
                   CalibrationError, "expected an (N, 3) sample array, got shape (3,)", {}),
    "static 2 columns": ("static", np.ones((4, 2)), 100.0, 360.0,
                         CalibrationError, "expected an (N, 3) sample array, got shape (4, 2)",
                         {}),
    "static 3-d": ("static", np.ones((2, 3, 1)), 100.0, 360.0,
                   CalibrationError, "expected an (N, 3) sample array, got shape (2, 3, 1)", {}),
    "static shape before rate": ("static", np.ones(3), float("nan"), 360.0,
                                 CalibrationError,
                                 "expected an (N, 3) sample array, got shape (3,)", {}),
    "static rate nan": ("static", np.ones((4, 3)), float("nan"), 360.0,
                        CalibrationError, _RATE + "nan", {}),
    "static rate inf": ("static", np.ones((4, 3)), float("inf"), 360.0,
                        CalibrationError, _RATE + "inf", {}),
    "static rate zero": ("static", np.ones((4, 3)), 0.0, 360.0,
                         CalibrationError, _RATE + "0.0", {}),
    "static rate negative": ("static", np.ones((4, 3)), -1.0, 360.0,
                             CalibrationError, _RATE + "-1.0", {}),
    "static rate before count": ("static", np.ones((1, 3)), 0.0, 360.0,
                                 CalibrationError, _RATE + "0.0", {}),
    "static one sample": ("static", np.ones((1, 3)), 100.0, 360.0,
                          ProtocolViolation, "static stage needs at least 2 samples, got 1", {}),
    "static no sample": ("static", np.ones((0, 3)), 100.0, 360.0,
                         ProtocolViolation, "static stage needs at least 2 samples, got 0", {}),
    "static mean inf": ("static", [[0.0, np.inf, 0.0], [0.0, 1.0, 0.0]], 100.0, 360.0,
                        CalibrationError, "static mean must be finite, got np.float64(inf)",
                        {"invalid": "ignore"}),
    "static mean nan": ("static", [[0.0, 0.0, np.nan], [0.0, 0.0, 1.0]], 100.0, 360.0,
                        CalibrationError, "static mean must be finite, got np.float64(nan)", {}),
    "static mean overflows": ("static", [[1e308, 0.0, 0.0]] * 2, 100.0, 360.0,
                              CalibrationError,
                              "static mean must be finite, got np.float64(inf)", _OVER),
    "static duration overflows": ("static", np.ones((2, 3)), 5e-324, 360.0,
                                  CalibrationError, "static duration must be positive, got inf",
                                  {}),
    "static std overflows": ("static", [[0.0, 1e308, 0.0], [0.0, -1e308, 0.0]], 100.0, 360.0,
                             CalibrationError,
                             "standard deviation must be nonnegative, got inf", _OVER),
    "rotation 1-d": ("rotation", np.ones(3), 100.0, 360.0,
                     CalibrationError, "expected an (N, 3) sample array, got shape (3,)", {}),
    "rotation 4 columns": ("rotation", np.ones((5, 4)), 100.0, 360.0,
                           CalibrationError, "expected an (N, 3) sample array, got shape (5, 4)",
                           {}),
    "rotation rate nan": ("rotation", np.ones((4, 3)), float("nan"), 360.0,
                          CalibrationError, _RATE + "nan", {}),
    "rotation rate -inf": ("rotation", np.ones((4, 3)), float("-inf"), 360.0,
                           CalibrationError, _RATE + "-inf", {}),
    "rotation rate before sums": ("rotation", [[np.inf, 0.0, 0.0]] * 2, 0.0, 360.0,
                                  CalibrationError, _RATE + "0.0", {}),
    "rotation sum inf": ("rotation", [[np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]], 100.0, 360.0,
                         CalibrationError, "rotation sum must be finite, got np.float64(inf)", {}),
    "rotation sum nan": ("rotation", [[0.0, np.nan, 0.0], [0.0, 1.0, 0.0]], 100.0, 360.0,
                         CalibrationError, "rotation sum must be finite, got np.float64(nan)", {}),
    "rotation sum overflows": ("rotation", [[0.0, 0.0, 1e308]] * 2, 100.0, 360.0,
                               CalibrationError,
                               "rotation sum must be finite, got np.float64(inf)", _OVER),
    "rotation sum over rate overflows": ("rotation", [[2.0, 0.0, 0.0]] * 2, _TINY, 360.0,
                                         CalibrationError,
                                         "rotation sum must be finite, got np.float64(inf)",
                                         _OVER),
    "rotation sums before angle": ("rotation", [[np.nan, 0.0, 0.0]] * 2, 100.0, 0.0,
                                   CalibrationError,
                                   "rotation sum must be finite, got np.float64(nan)", {}),
    "rotation angle zero": ("rotation", np.ones((4, 3)), 100.0, 0.0,
                            CalibrationError,
                            "reference rotation magnitude must be positive, got 0.0", {}),
    "rotation angle negative": ("rotation", np.ones((4, 3)), 100.0, -360.0,
                                CalibrationError,
                                "reference rotation magnitude must be positive, got -360.0", {}),
    "rotation angle nan": ("rotation", np.ones((4, 3)), 100.0, float("nan"),
                           CalibrationError,
                           "reference rotation magnitude must be positive, got nan", {}),
    "rotation angle inf": ("rotation", np.ones((4, 3)), 100.0, float("inf"),
                           CalibrationError,
                           "reference rotation magnitude must be positive, got inf", {}),
    "rotation angle before count": ("rotation", np.ones((1, 3)), 100.0, 0.0,
                                    CalibrationError,
                                    "reference rotation magnitude must be positive, got 0.0", {}),
    "rotation one sample": ("rotation", np.ones((1, 3)), 100.0, 360.0,
                            ProtocolViolation, "rotation stage needs at least 2 samples, got 1",
                            {}),
    "rotation no sample": ("rotation", np.ones((0, 3)), 100.0, 360.0,
                           ProtocolViolation, "rotation stage needs at least 2 samples, got 0",
                           {}),
    "rotation duration overflows": ("rotation", np.zeros((3, 3)), _TINY, 360.0,
                                    CalibrationError,
                                    "rotation duration must be positive, got inf", {}),
}


@pytest.mark.parametrize("case", sorted(FROM_SAMPLES_REFUSALS))
def test_from_samples_refusals_are_pinned(case):
    stage, samples, rate, angle, error, message, ignored = FROM_SAMPLES_REFUSALS[case]
    with np.errstate(**ignored), pytest.raises(CalibrationError) as info:
        with_one_stage(stage, samples, rate, angle)
    assert type(info.value) is error
    assert str(info.value) == message


class TestSessionRefusals:
    """What ``ObservationArrays.from_samples`` checks of a session as a
    whole, and the order in which it names a bad stage."""

    def test_no_turns(self):
        with pytest.raises(CalibrationError) as info:
            ObservationArrays.from_samples(np.zeros((2, 3)), [], 100.0, 360.0)
        assert type(info.value) is CalibrationError
        assert str(info.value) == "a session needs at least one rotation stage, got none"

    def test_still_stage_named_before_the_turns(self):
        with pytest.raises(ProtocolViolation, match="static stage needs at least 2 samples"):
            ObservationArrays.from_samples(np.ones((1, 3)), [np.ones((1, 3))], 100.0, 0.0)

    def test_first_bad_turn_named(self):
        turns = [np.ones((2, 3)), [[np.nan, 0.0, 0.0]] * 2, np.ones((1, 3))]
        with pytest.raises(CalibrationError) as info:
            ObservationArrays.from_samples(np.zeros((2, 3)), turns, 100.0, 360.0)
        assert str(info.value) == "rotation sum must be finite, got np.float64(nan)"

    def test_stages_of_different_stacks(self):
        turns = [np.ones((2, 4, 3)), np.ones((2, 3))]
        message = "the still stage summarises to shape (4, 3) but the turns to (3,), (4, 3)"
        with pytest.raises(CalibrationError) as info:
            ObservationArrays.from_samples(np.zeros((2, 4, 3)), turns, 100.0, 360.0)
        assert type(info.value) is CalibrationError
        assert str(info.value) == message

    def test_turns_from_a_generator(self):
        turns = [np.ones((2, 3)), np.full((3, 3), 2.0)]
        view = ObservationArrays.from_samples(np.zeros((2, 3)), iter(turns), 100.0, 360.0)
        assert view.sums.tolist() == [[0.02] * 3, [0.06] * 3]
        assert view.durations.tolist() == [0.02, 0.03]


class TestStackedStages:
    """``ObservationArrays.from_samples`` on sample-major ``(N, R, 3)``
    stages gives the view of R sessions at once, as R calls on ``(N, 3)``
    stages would."""

    @pytest.mark.parametrize("n,rows", [(2, 1), (3, 5), (300, 16), (501, 3)])
    def test_rows_equal_single_stages_bitwise(self, n, rows):
        rng = np.random.default_rng(n * rows)
        stack = rng.normal(size=(n, rows, 3)) * 0.15 + rng.uniform(-5.0, 5.0, size=(rows, 3))
        turns = [stack * 7e3, stack[: n // 2 + 1] * -3e3]
        view = ObservationArrays.from_samples(stack, turns, 100.0, 720.0)
        assert view.static_means.shape == view.static_stds.shape == (rows, 3)
        assert view.sums.shape == (rows, 2, 3)
        assert view.static_duration == n / 100.0
        assert view.durations.tolist() == [n / 100.0, (n // 2 + 1) / 100.0]
        assert view.theta_sq.tolist() == [720.0 ** 2] * 2
        for r in range(rows):
            one = ObservationArrays.from_samples(stack[:, r], [turn[:, r] for turn in turns],
                                                 100.0, 720.0)
            assert view.static_means[r].tobytes() == one.static_means.tobytes()
            assert view.static_stds[r].tobytes() == one.static_stds.tobytes()
            assert view.sums[r].tobytes() == one.sums.tobytes()

    def test_deeper_stack(self):
        rng = np.random.default_rng(5)
        still, turns = rng.normal(size=(40, 2, 4, 3)), rng.normal(size=(3, 50, 2, 4, 3))
        view = ObservationArrays.from_samples(still, turns, 100.0, 360.0)
        assert view.sums.shape == (2, 4, 3, 3)
        for i in range(2):
            for j in range(4):
                one = ObservationArrays.from_samples(still[:, i, j], turns[:, :, i, j],
                                                     100.0, 360.0)
                assert view.static_stds[i, j].tobytes() == one.static_stds.tobytes()
                assert view.sums[i, j].tobytes() == one.sums.tobytes()

    @pytest.mark.parametrize("stage,bad,name", [
        ("static", np.inf, "static mean must be finite, got np.float64(inf)"),
        ("static", np.nan, "static mean must be finite, got np.float64(nan)"),
        ("rotation", -np.inf, "rotation sum must be finite, got np.float64(-inf)"),
        ("rotation", np.nan, "rotation sum must be finite, got np.float64(nan)"),
    ])
    def test_one_nonfinite_row_named(self, stage, bad, name):
        # Rows 2 and 3 are bad; the message names row 2's value, the first in C order.
        stack = np.ones((4, 5, 3))
        stack[1, 2, 1] = bad
        stack[0, 3, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(CalibrationError) as info:
            with_one_stage(stage, stack, 100.0, other=np.zeros((4, 5, 3)))
        assert type(info.value) is CalibrationError
        assert str(info.value) == name

    def test_one_overflowing_std_named(self):
        stack = np.zeros((2, 4, 3))
        stack[:, 1, 2] = (1e308, -1e308)
        with np.errstate(over="ignore"), pytest.raises(CalibrationError) as info:
            with_one_stage("static", stack, 100.0, other=np.zeros((2, 4, 3)))
        assert type(info.value) is CalibrationError
        assert str(info.value) == "standard deviation must be nonnegative, got inf"

    def test_samples_come_first(self):
        # A stage count is read from the leading axis: (1, R, 3) is one sample.
        with pytest.raises(ProtocolViolation, match="needs at least 2 samples, got 1"):
            with_one_stage("static", np.ones((1, 8, 3)), 100.0)
        shape = "expected an (N, 3) sample array, got shape (4, 3, 2)"
        with pytest.raises(CalibrationError, match=re.escape(shape)):
            with_one_stage("rotation", np.ones((4, 3, 2)), 100.0)


class TestStillStage:
    def test_from_samples(self):
        samples = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        view = with_one_stage("static", samples, 100.0)
        np.testing.assert_allclose(view.static_means, [2.0, 2.0, 2.0])
        assert view.static_duration == pytest.approx(0.02)
        np.testing.assert_allclose(view.static_stds, np.std(samples, axis=0, ddof=1))

    def test_needs_two_samples(self):
        with pytest.raises(ProtocolViolation):
            with_one_stage("static", np.zeros((1, 3)), 100.0)


class TestTurns:
    def test_from_samples_time_scaled_sums(self):
        samples = np.array([[100.0, 0.0, 0.0]] * 10)
        view = with_one_stage("rotation", samples, 100.0)
        np.testing.assert_allclose(view.sums, [[10.0, 0.0, 0.0]])
        assert view.durations == pytest.approx([0.1])
        assert view.theta_sq.tolist() == [360.0 ** 2]

    def test_corrected_sums_shift(self):
        view = session_view([[360.0, 0.0, 0.0]], durations=3.0)
        np.testing.assert_allclose(
            view.corrected_sums([0.5, 0.0, -1.0]), [[361.5, 0.0, -3.0]])

    @pytest.mark.parametrize("theta", [0.0, -360.0, float("nan")])
    def test_reference_angle_must_be_positive(self, theta):
        with pytest.raises(CalibrationError):
            with_one_stage("rotation", np.ones((10, 3)), 100.0, theta)


class TestSession:
    def test_requires_three_rotations(self):
        with pytest.raises(ProtocolViolation, match="at least 3 rotation"):
            calibrate(session_view([[360.0, 0.0, 0.0]]))


class TestCostFunctions:
    def test_residual_known_value(self):
        # 180^2 - 360^2 = -97200 with identity parameters
        rots = session_view([(180.0, 0.0, 0.0)])
        r = rotation_residuals(CalibrationParams.identity(), rots)
        np.testing.assert_allclose(r, [-97200.0])
        assert squared_cost(CalibrationParams.identity(), rots) == pytest.approx(97200.0 ** 2)

    def test_zero_at_consistent_observation(self):
        rots = session_view([(360.0, 0.0, 0.0)])
        assert squared_cost(CalibrationParams.identity(), rots) == 0.0

    def test_scale_enters_squared(self):
        p = CalibrationParams(2.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        rots = session_view([(180.0, 0.0, 0.0)])
        np.testing.assert_allclose(
            rotation_residuals(p, rots), [(2.0 * 180.0) ** 2 - 360.0 ** 2])

    @given(params_strategy())
    @settings(max_examples=25)
    def test_cost_nonnegative(self, p):
        rots = session_view([(200.0, -30.0, 15.0)])
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
    # the stack's shape
    run = SINGLE_SESSION_FUNCTIONS[name]
    session = session_view(360.0 * np.eye(3))
    run(session)
    stack = stack_views([session, session])
    with pytest.raises(CalibrationError, match=r"turn sums of shape \(2, 3, 3\)"):
        run(stack)
