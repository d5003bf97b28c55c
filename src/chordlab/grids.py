"""Centered grids and the symplectic Fourier transform pair.

Layout convention for 2-D fields: axis 0 indexes the first coordinate, axis 1
the second.  Centre-representation fields are indexed ``[p, q]``, chord fields
``[xi_p, xi_q]``.  The transform pair implemented here is

    chi(xi) = (2 pi hbar)^(-1) Int dx  W(x)    exp(+(i/hbar) x ^ xi)
    W(x)    = (2 pi hbar)^(-1) Int dxi chi(xi) exp(+(i/hbar) xi ^ x)

Because x ^ xi = p xi_q - q xi_p, the p axis pairs with xi_q and the q axis
with xi_p.  Grid spacings must satisfy the FFT pairing dx * dxi = 2 pi hbar/M
per conjugate axis pair, so the conjugate grid is derived, never chosen.

Grids are origin-centered with an even point count M: x_n = (n - M/2) dx,
which puts 0 exactly on the grid.  With that layout each 1-D stage below is
an exact evaluation of the discrete plane-wave sum, and the full round trip
is exact up to floating round-off.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import GridDomainWarning

__all__ = [
    "CenteredGrid",
    "ft_axis",
    "chord_from_centre",
    "centre_from_chord",
    "reflect_values",
    "boundary_decay_ok",
    "simpson_weights",
]


@dataclass(frozen=True)
class CenteredGrid:
    """Even, origin-centered 2-D grid.

    For centre grids the two axes are (p, q); for chord grids they are
    (xi_p, xi_q).  The field names keep the p/q spelling in both cases.
    """

    half_width_p: float
    half_width_q: float
    points: int
    hbar: float

    def __post_init__(self):
        if self.points < 2 or self.points % 2:
            raise ValueError("points must be an even integer >= 2")
        if self.half_width_p <= 0 or self.half_width_q <= 0:
            raise ValueError("half widths must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def dp(self) -> float:
        return 2.0 * self.half_width_p / self.points

    @property
    def dq(self) -> float:
        return 2.0 * self.half_width_q / self.points

    @property
    def p_axis(self) -> np.ndarray:
        n = np.arange(self.points) - self.points // 2
        return n * self.dp

    @property
    def q_axis(self) -> np.ndarray:
        n = np.arange(self.points) - self.points // 2
        return n * self.dq

    def meshgrid(self):
        """(P, Q) arrays of shape (points, points), indexed [p, q]."""
        return np.meshgrid(self.p_axis, self.q_axis, indexing="ij")

    def conjugate(self) -> "CenteredGrid":
        """Grid of the Fourier-conjugate variables.

        The p axis pairs with xi_q and the q axis with xi_p, so the
        conjugate half widths cross over: spacing along xi_q is
        2 pi hbar / (M dp), and so on.  Applying conjugate() twice returns
        the original grid.
        """
        m = self.points
        return CenteredGrid(
            half_width_p=np.pi * self.hbar * m / (2.0 * self.half_width_q),
            half_width_q=np.pi * self.hbar * m / (2.0 * self.half_width_p),
            points=m,
            hbar=self.hbar,
        )

    def is_conjugate_of(self, other: "CenteredGrid", rtol: float = 1e-9) -> bool:
        if self.points != other.points or abs(self.hbar - other.hbar) > rtol * self.hbar:
            return False
        want = other.conjugate()
        return bool(
            np.isclose(self.half_width_p, want.half_width_p, rtol=rtol)
            and np.isclose(self.half_width_q, want.half_width_q, rtol=rtol)
        )


def ft_axis(values: np.ndarray, dx: float, hbar: float, axis: int, sign: int) -> np.ndarray:
    """One Fourier stage: dx * sum_n f(x_n) exp(sign * i x_n k_m / hbar).

    The output lives on the conjugate centered grid k_m = (m - M/2) dk with
    dk = 2 pi hbar / (M dx).  Exact for even M thanks to the shift pair.
    """
    n = values.shape[axis]
    shifted = np.fft.ifftshift(values, axes=axis)
    if sign < 0:
        out = np.fft.fft(shifted, axis=axis)
    else:
        out = np.fft.ifft(shifted, axis=axis) * n
    return dx * np.fft.fftshift(out, axes=axis)


def boundary_decay_ok(values: np.ndarray, rel: float = 1e-14) -> bool:
    """True when the grid boundary carries less than ``rel`` of the peak."""
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return True
    edge = max(
        np.max(np.abs(values[0, :])),
        np.max(np.abs(values[-1, :])),
        np.max(np.abs(values[:, 0])),
        np.max(np.abs(values[:, -1])),
    )
    return bool(edge <= rel * peak)


def _check_shape(values, grid):
    if values.shape != (grid.points, grid.points):
        raise ValueError(
            f"values shape {values.shape} does not match grid {grid.points}x{grid.points}"
        )


def _warn_boundary(values, where: str):
    if not boundary_decay_ok(values):
        warnings.warn(
            f"{where}: input does not decay below 1e-14 of peak at the grid boundary; "
            "transform may be contaminated by truncation",
            GridDomainWarning,
            stacklevel=3,
        )


def chord_from_centre(values: np.ndarray, grid: CenteredGrid):
    """Chord function chi(xi_p, xi_q) from a centre field W(p, q).

    chi(xi) = (2 pi hbar)^(-1) Int dp dq W exp[(i/hbar)(p xi_q - q xi_p)].
    Returns (chi_values, chord_grid) with chi indexed [xi_p, xi_q].
    """
    _check_shape(values, grid)
    _warn_boundary(values, "chord_from_centre")
    # p axis (0) -> xi_q with kernel e^{+i p xi_q / hbar}
    tmp = ft_axis(values.astype(complex), grid.dp, grid.hbar, axis=0, sign=+1)
    # q axis (1) -> xi_p with kernel e^{-i q xi_p / hbar}
    tmp = ft_axis(tmp, grid.dq, grid.hbar, axis=1, sign=-1)
    chi = tmp.T / (2.0 * np.pi * grid.hbar)  # [xi_q, xi_p] -> [xi_p, xi_q]
    return np.ascontiguousarray(chi), grid.conjugate()


def centre_from_chord(values: np.ndarray, grid: CenteredGrid):
    """Centre field W(p, q) from a chord function chi(xi_p, xi_q).

    W(x) = (2 pi hbar)^(-1) Int dxi chi exp[(i/hbar)(xi_p q - xi_q p)].
    Returns (W_values, centre_grid); W is complex with imaginary part at
    round-off level for hermitian chi.
    """
    _check_shape(values, grid)
    _warn_boundary(values, "centre_from_chord")
    # xi_p axis (0) -> q with kernel e^{+i xi_p q / hbar}
    tmp = ft_axis(values.astype(complex), grid.dp, grid.hbar, axis=0, sign=+1)
    # xi_q axis (1) -> p with kernel e^{-i xi_q p / hbar}
    tmp = ft_axis(tmp, grid.dq, grid.hbar, axis=1, sign=-1)
    w = tmp.T / (2.0 * np.pi * grid.hbar)  # [q, p] -> [p, q]
    return np.ascontiguousarray(w), grid.conjugate()


#: complex elements per exponential table; bounds the kernel's scratch memory
_BLOCK_ELEMENTS = 1 << 20


def _outer_grid(xi_p, xi_q):
    """(xi_p column, xi_q row) when the broadcast pair is an outer grid, else None.

    An outer grid is 2-D with xi_p constant along axis 1 and xi_q constant
    along axis 0: a ``meshgrid(..., indexing="ij")`` pair, or an (a, 1) and
    (1, b) pair.
    """
    xp, xq = np.broadcast_arrays(xi_p, xi_q)
    if xp.ndim != 2 or not (np.all(xp == xp[:, :1]) and np.all(xq == xq[:1, :])):
        return None
    return xp[:, 0], xq[0, :]


def _plane_wave_sum(points, weights, xi_p, xi_q, hbar: float, phi=None) -> np.ndarray:
    """sum_k w_k exp[(i/hbar) x_k ^ xi] exp[-xi . Phi_k xi / (2 hbar)].

    ``points`` are the x_k = (p_k, q_k), shape (n, 2).  ``weights`` is (n,),
    or, when the amplitudes vary with the chord, (n,) + a shape of the same
    rank as (xi_p, xi_q) that broadcasts against theirs.  ``phi`` is None, one shared symmetric
    (2, 2) matrix, or one per sample (n, 2, 2).  Returns the broadcast shape
    of (xi_p, xi_q).

    On an outer grid (see ``_outer_grid``), with weights that vary along
    xi_q at most and Phi absent or shared, x_k ^ xi = p_k xi_q - q_k xi_p
    splits the sum into exp(-i xi_p q_k / hbar) w_k @ exp(i p_k xi_q / hbar),
    times one Gaussian on the grid.  Every other input is summed point by
    point.  Both paths work in blocks of about ``_BLOCK_ELEMENTS`` table
    entries (at least one sample or chord per block).
    """
    p, q = points[:, 0], points[:, 1]
    w = np.asarray(weights)
    xi_p, xi_q = np.broadcast_arrays(np.asarray(xi_p, dtype=float), np.asarray(xi_q, dtype=float))
    shape = xi_p.shape
    phi = None if phi is None else np.asarray(phi, dtype=float)
    # -xi.Phi xi / 2 hbar as coefficients of (xi_p^2, xi_p xi_q, xi_q^2)
    gauss = None if phi is None else np.stack(
        [phi[..., 0, 0], 2.0 * phi[..., 0, 1], phi[..., 1, 1]], axis=-1) / (-2.0 * hbar)
    shared = gauss is not None and gauss.ndim == 1
    axes = _outer_grid(xi_p, xi_q)
    if (axes is not None and (gauss is None or shared)
            and (w.ndim == 1 or (w.ndim == 3 and w.shape[1] == 1))):
        col, row = axes
        w = w[:, None] if w.ndim == 1 else w[:, 0, :]
        out = np.zeros(shape, dtype=complex)
        step = max(1, _BLOCK_ELEMENTS // (col.size + row.size))
        for k in range(0, p.size, step):
            ks = slice(k, k + step)
            left = np.exp((-1j / hbar) * np.outer(col, q[ks]))
            out += left @ (np.exp((1j / hbar) * np.outer(p[ks], row)) * w[ks])
    else:
        xp, xq = xi_p.ravel(), xi_q.ravel()
        if w.ndim > 1:
            w = np.broadcast_to(w, w.shape[:1] + shape).reshape(w.shape[0], -1)
        out = np.empty(xp.size, dtype=complex)
        step = max(1, _BLOCK_ELEMENTS // max(p.size, 1))
        for j in range(0, xp.size, step):
            js = slice(j, j + step)
            e = np.empty((p.size, xp[js].size), dtype=complex)  # the exponent, then exp in place
            e.imag = points @ (np.stack([xq[js], -xp[js]]) / hbar)
            e.real = 0.0 if gauss is None or shared else gauss @ _monomials(xp[js], xq[js])
            np.exp(e, out=e)
            out[js] = w @ e if w.ndim == 1 else np.einsum("kj,kj->j", w[:, js], e)
            del e  # one table alive at a time
        out = out.reshape(shape)
    if shared:
        out *= np.exp(np.tensordot(gauss, _monomials(xi_p, xi_q), axes=1))
    return out


def _monomials(xi_p, xi_q):
    return np.stack([xi_p**2, xi_p * xi_q, xi_q**2])


def reflect_values(values: np.ndarray) -> np.ndarray:
    """Samples of f(-x) on the same centered grid.

    The centered grid is asymmetric (index M/2 holds 0, index 0 holds the
    unpaired -M/2 point), so negation is reversal followed by a one-step
    roll on both axes.
    """
    return np.roll(values[::-1, ::-1], 1, axis=(0, 1))


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson quadrature weights for n uniform samples.

    Even counts (odd interval numbers) get a trapezoid last panel, which is
    harmless for the decayed integrands these are used on.  Exposed as
    weights rather than an integral so kernels can fold them into GEMMs.
    """
    if n < 3:
        raise ValueError("need at least 3 quadrature points")
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    w[1:m:2] = 4.0
    w[2:m - 1:2] = 2.0
    w[0] = 1.0
    w[m - 1] = 1.0
    w[:m] *= h / 3.0
    if m < n:
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w
