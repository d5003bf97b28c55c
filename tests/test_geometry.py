import numpy as np
import pytest

from chordlab.geometry import J_MATRIX, random_symplectic, skew


def test_j_matrix_squares_to_minus_identity():
    assert np.array_equal(J_MATRIX @ J_MATRIX, -np.eye(2))


def test_skew_is_j_inner_product():
    """a ^ b = (J a) . b, and it is antisymmetric."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        s = skew(a, b)
        assert np.isclose(s, (J_MATRIX @ a) @ b)
        assert np.isclose(s, a[0] * b[1] - a[1] * b[0])
        assert np.isclose(skew(b, a), -s)
    assert skew([1.0, 0.0], [0.0, 1.0]) == 1.0  # p ^ q orientation


def test_skew_broadcasts():
    a = np.ones((3, 1, 2))
    b = np.ones((4, 2))
    assert skew(a, b).shape == (3, 4)


def test_skew_rejects_bad_trailing_axis():
    with pytest.raises(ValueError):
        skew(np.zeros(3), np.zeros(3))


def test_random_symplectic_draws_are_symplectic():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = random_symplectic(rng)
        assert np.allclose(m.T @ J_MATRIX @ m, J_MATRIX, atol=1e-10)
        assert np.isclose(np.linalg.det(m), 1.0)


def test_random_symplectic_scale_zero_is_identity():
    rng = np.random.default_rng(0)
    assert np.allclose(random_symplectic(rng, scale=0.0), np.eye(2))
