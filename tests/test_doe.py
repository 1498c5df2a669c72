import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyrocal import doe
from gyrocal.doe import SingularDesignError, is_g_optimal, max_spv_sphere, spv
from gyrocal.model import CalibrationError

#: The one-turn-per-axis design.
CANONICAL = np.eye(3)

#: Every function that takes a design, as a function of its rows alone.
ON_ROWS = (max_spv_sphere, is_g_optimal, lambda rows: spv(rows, [1.0, 0.0, 0.0]))

unit_vectors = arrays(
    np.float64, (3,),
    elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


class TestDesign:
    def test_canonical_rows_and_moment(self):
        # the one-turn-per-axis rows have the identity as moment matrix
        n, eigenvalues, eigenvectors = doe._checked_eigendecomposition(CANONICAL)
        assert n == 3
        np.testing.assert_array_equal(eigenvectors @ np.diag(eigenvalues) @ eigenvectors.T,
                                      np.eye(3))

    def test_needs_three_rows(self):
        for check in ON_ROWS:
            with pytest.raises(CalibrationError, match="at least 3 observations"):
                check(np.eye(3)[:2])

    @pytest.mark.parametrize("rows", [np.ones(3), np.ones((4, 2)), np.ones((2, 3, 3))])
    def test_rows_must_be_an_n_by_3_array(self, rows):
        for check in ON_ROWS:
            with pytest.raises(CalibrationError, match="must form an \\(n, 3\\) array"):
                check(rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rows_must_be_finite(self, bad):
        rows = np.eye(3)
        rows[1, 2] = bad
        for check in ON_ROWS:
            with pytest.raises(CalibrationError, match="finite"):
                check(rows)

    def test_plain_lists_accepted(self):
        assert max_spv_sphere([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == pytest.approx(3.0)


class TestSpv:
    def test_axis_point_value(self):
        assert spv(CANONICAL, [1.0, 0.0, 0.0]) == pytest.approx(3.0)

    def test_origin_is_zero(self):
        assert spv(CANONICAL, [0.0, 0.0, 0.0]) == 0.0

    @given(unit_vectors)
    @settings(max_examples=60)
    def test_sphere_is_flat_at_three(self, point):
        assert spv(CANONICAL, point) == pytest.approx(3.0, abs=1e-9)

    @given(unit_vectors, st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=40)
    def test_scales_with_radius_squared(self, point, radius):
        base = spv(CANONICAL, point)
        scaled = spv(CANONICAL, radius * point)
        assert scaled == pytest.approx(radius ** 2 * base, rel=1e-9)

    def test_row_permutation_invariance(self):
        rows = np.array([[0.3, 0.6, 0.1], [0.9, -0.2, 0.4], [0.1, 0.5, -0.8]])
        point = np.array([0.5, -0.1, 0.7])
        reference = spv(rows, point)
        for order in ([1, 2, 0], [2, 0, 1], [2, 1, 0]):
            assert spv(rows[order], point) == pytest.approx(reference)

    def test_singular_design_rejected(self):
        flat = np.array([[1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0],
                         [1.0, 1.0, 0.0]])
        with pytest.raises(SingularDesignError):
            spv(flat, [0.0, 0.0, 1.0])


class TestMaxSpvSphere:
    def test_canonical_hits_parameter_count(self):
        assert max_spv_sphere(CANONICAL) == pytest.approx(3.0, abs=1e-12)

    def test_redundant_fourth_rotation(self):
        # doubling the x row: XtX = diag(2,1,1), max = 4 / 1
        design = np.array([[1.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]])
        assert max_spv_sphere(design) == pytest.approx(4.0)

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
    def test_shrunk_rotations_scale_inverse_square(self, c):
        design = c * np.eye(3)
        assert max_spv_sphere(design) == pytest.approx(3.0 / c ** 2, rel=1e-12)

    @given(arrays(np.float64, (5, 3),
                  elements=st.floats(min_value=-1.0, max_value=1.0)))
    @settings(max_examples=60)
    def test_never_below_parameter_count(self, rows):
        # the bound holds for design points inside the spherical region,
        # so rows are projected into the unit ball first
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        design = rows / np.maximum(norms, 1.0)
        try:
            worst = max_spv_sphere(design)
        except SingularDesignError:
            return
        assert worst >= 3.0 - 1e-9


class TestIsGOptimal:
    def test_canonical_certified(self):
        assert is_g_optimal(CANONICAL) is True
        assert max_spv_sphere(CANONICAL) == pytest.approx(3.0, abs=1e-12)

    def test_permuted_canonical_certified(self):
        rows = np.eye(3)[[2, 0, 1]]
        assert is_g_optimal(rows) is True

    def test_redundant_design_rejected(self):
        design = np.array([[1.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]])
        assert is_g_optimal(design) is False

    def test_tolerance_is_read_at_call_time(self, monkeypatch):
        near = np.diag([1.0, 1.0, 1.0 - 1e-6])  # worst case 3 / (1 - 1e-6)^2
        assert is_g_optimal(near) is False
        monkeypatch.setattr(doe, "G_OPTIMALITY_TOLERANCE", 1e-5)
        assert is_g_optimal(near) is True
