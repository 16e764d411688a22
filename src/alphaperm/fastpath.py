"""Float-mode kernels on numpy arrays.

Each function takes a square 2-d array, turns it into a float or
complex-float Matrix and calls the kernel of the same name in kernels, so
an array gets exactly the value its float Matrix gets. The package itself
does not use this module.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .matrices import Matrix
from .scalars import COMPLEX_FLOAT, FLOAT


def _as_matrix(a) -> Matrix:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square 2-d array")
    if np.iscomplexobj(a):
        return Matrix(a.astype(np.complex128).tolist(), kind=COMPLEX_FLOAT)
    return Matrix(a.astype(np.float64).tolist(), kind=FLOAT)


def per_alpha_dp(a, alpha):
    alpha = complex(alpha) if isinstance(alpha, complex) else float(alpha)
    return kernels.per_alpha_dp(_as_matrix(a), alpha)


def permanent(a):
    return kernels.permanent(_as_matrix(a))


def hafnian(a):
    return kernels.hafnian(_as_matrix(a))
