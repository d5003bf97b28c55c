"""Symplectic geometry primitives on the phase plane.

Points live in R^2 with coordinate order ``(p, q)`` everywhere in this
package: momentum first, position second.  The symplectic (skew) product is

    skew(a, b) = a_p * b_q - a_q * b_p = (J a) . b,

with the rotation-like matrix J mapping (p, q) -> (-q, p).  J @ J = -I, so J
plays the role of a 90-degree rotation and ``skew`` is the signed area of the
parallelogram spanned by its arguments.

Broadcasting: every function accepts arrays whose *last* axis has length 2,
so grids of points can be pushed through without loops.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "J_MATRIX",
    "skew",
    "random_symplectic",
    "is_symplectic",
]

#: 2x2 symplectic unit in (p, q) ordering: J @ (p, q) = (-q, p).
J_MATRIX = np.array([[0.0, -1.0], [1.0, 0.0]])


def _check_phase_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError(f"phase-space point must have trailing axis 2, got shape {x.shape}")
    return x


def skew(a, b) -> np.ndarray:
    """Skew product a ^ b = a_p b_q - a_q b_p, broadcasting over leading axes."""
    a = _check_phase_point(a)
    b = _check_phase_point(b)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def random_symplectic(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Draw a random 2x2 symplectic matrix.

    Exponentiates J @ S for a random symmetric S (entries ~ scale * N(0,1)),
    which sweeps out the identity component of Sp(2, R) = SL(2, R).
    """
    s = rng.standard_normal(3) * scale
    return scipy.linalg.expm(J_MATRIX @ np.array([[s[0], s[1]], [s[1], s[2]]]))


def is_symplectic(m, tol: float = 1e-10) -> bool:
    """True when m^T J m = J to within tol (for 2x2, det m = 1)."""
    m = np.asarray(m, dtype=float)
    return bool(np.allclose(m.T @ J_MATRIX @ m, J_MATRIX, atol=tol))
