"""Float-lane kernels on numpy arrays: consistency with exact values."""

from fractions import Fraction

import numpy as np
import pytest

from alphaperm import fastpath
from alphaperm.kernels import hafnian, per_alpha_dp, permanent
from alphaperm.matrices import random_matrix, random_symmetric_matrix
from alphaperm.scalars import to_float_scalar

F = Fraction


def _sym(n, seed):
    return random_symmetric_matrix(n, scale=3, seed=seed)


def _array(A):
    """The n x n binary64 array of an exact matrix (n = 0 too)."""
    return np.array(A.to_float().rows).reshape(A.n, A.n)


class TestPythonBackendVsExact:
    """The float lane's pure-Python loops against exact values."""

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_per_alpha(self, n):
        A = _sym(n, seed=n)
        exact = float(per_alpha_dp(A, F(3, 2)))
        got = fastpath.per_alpha_dp(_array(A), 1.5)
        assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 3, 5, 7])
    def test_permanent(self, n):
        A = random_matrix(n, "rational", scale=3, seed=n + 50)
        exact = float(permanent(A))
        got = fastpath.permanent(_array(A))
        assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 2, 4, 6])
    def test_hafnian(self, n):
        A = _sym(n, seed=n + 90)
        exact = float(hafnian(A))
        got = fastpath.hafnian(_array(A))
        assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_complex_inputs(self):
        A = random_matrix(4, "complex-rational", scale=3, seed=7)
        exact = to_float_scalar(permanent(A))
        got = fastpath.permanent(_array(A))
        assert type(got) is complex
        assert got == pytest.approx(exact, rel=1e-10)


class TestInputHandling:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            fastpath.permanent(np.ones((2, 3)))

    def test_odd_hafnian_rejected(self):
        with pytest.raises(ValueError):
            fastpath.hafnian(np.ones((3, 3)))

    def test_accepts_int_arrays(self):
        a = np.arange(1, 5).reshape(2, 2)
        assert fastpath.permanent(a.astype(np.int64)) == \
            pytest.approx(10.0)
