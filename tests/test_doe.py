import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyrocal.doe import (
    Design,
    SingularDesignError,
    canonical_design,
    is_g_optimal,
    max_spv_sphere,
    moment_matrix,
    spv,
)
from gyrocal.model import CalibrationError

unit_vectors = arrays(
    np.float64, (3,),
    elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


class TestDesign:
    def test_canonical_rows_and_moment(self):
        design = canonical_design()
        assert design.n == 3
        np.testing.assert_array_equal(design.rows, np.eye(3))
        np.testing.assert_array_equal(moment_matrix(design), np.eye(3))

    def test_needs_three_rows(self):
        with pytest.raises(CalibrationError):
            Design(np.eye(3)[:2])

    def test_rows_frozen(self):
        design = canonical_design()
        with pytest.raises(ValueError):
            design.rows[0, 0] = 5.0


class TestSpv:
    def test_axis_point_value(self):
        assert spv(canonical_design(), [1.0, 0.0, 0.0]) == pytest.approx(3.0)

    def test_origin_is_zero(self):
        assert spv(canonical_design(), [0.0, 0.0, 0.0]) == 0.0

    @given(unit_vectors)
    @settings(max_examples=60)
    def test_sphere_is_flat_at_three(self, point):
        assert spv(canonical_design(), point) == pytest.approx(3.0, abs=1e-9)

    @given(unit_vectors, st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=40)
    def test_scales_with_radius_squared(self, point, radius):
        base = spv(canonical_design(), point)
        scaled = spv(canonical_design(), radius * point)
        assert scaled == pytest.approx(radius ** 2 * base, rel=1e-9)

    def test_row_permutation_invariance(self):
        rows = np.array([[0.3, 0.6, 0.1], [0.9, -0.2, 0.4], [0.1, 0.5, -0.8]])
        point = np.array([0.5, -0.1, 0.7])
        reference = spv(Design(rows), point)
        for order in ([1, 2, 0], [2, 0, 1], [2, 1, 0]):
            assert spv(Design(rows[order]), point) == pytest.approx(reference)

    def test_singular_design_rejected(self):
        flat = Design(np.array([[1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0],
                                [1.0, 1.0, 0.0]]))
        with pytest.raises(SingularDesignError):
            spv(flat, [0.0, 0.0, 1.0])


class TestMaxSpvSphere:
    def test_canonical_hits_parameter_count(self):
        assert max_spv_sphere(canonical_design()) == pytest.approx(3.0, abs=1e-12)

    def test_redundant_fourth_rotation(self):
        # doubling the x row: XtX = diag(2,1,1), max = 4 / 1
        design = Design(np.array([[1.0, 0.0, 0.0],
                                  [1.0, 0.0, 0.0],
                                  [0.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0]]))
        assert max_spv_sphere(design) == pytest.approx(4.0)

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
    def test_shrunk_rotations_scale_inverse_square(self, c):
        design = Design(c * np.eye(3))
        assert max_spv_sphere(design) == pytest.approx(3.0 / c ** 2, rel=1e-12)

    @given(arrays(np.float64, (5, 3),
                  elements=st.floats(min_value=-1.0, max_value=1.0)))
    @settings(max_examples=60)
    def test_never_below_parameter_count(self, rows):
        # the bound holds for design points inside the spherical region,
        # so rows are projected into the unit ball first
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        design = Design(rows / np.maximum(norms, 1.0))
        try:
            worst = max_spv_sphere(design)
        except SingularDesignError:
            return
        assert worst >= 3.0 - 1e-9


class TestIsGOptimal:
    def test_canonical_certified(self):
        assert is_g_optimal(canonical_design(), tolerance=1e-9) is True
        assert max_spv_sphere(canonical_design()) == pytest.approx(3.0, abs=1e-12)

    def test_permuted_canonical_certified(self):
        rows = np.eye(3)[[2, 0, 1]]
        assert is_g_optimal(Design(rows), tolerance=1e-9) is True

    def test_redundant_design_rejected(self):
        design = Design(np.array([[1.0, 0.0, 0.0],
                                  [1.0, 0.0, 0.0],
                                  [0.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0]]))
        assert is_g_optimal(design, tolerance=1e-9) is False

    def test_negative_tolerance_rejected(self):
        with pytest.raises(CalibrationError):
            is_g_optimal(canonical_design(), tolerance=-1.0)
