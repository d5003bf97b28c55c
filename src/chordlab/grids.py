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
from scipy.special import gammainc

from .diagnostics import GridDomainWarning

__all__ = [
    "CenteredGrid",
    "ft_axis",
    "chord_from_centre",
    "centre_from_chord",
    "reflect_values",
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
        _check_positive(self.half_width_p, "half_width_p")
        _check_positive(self.half_width_q, "half_width_q")
        _check_positive(self.hbar, "hbar")

    @property
    def dp(self) -> float:
        return 2.0 * self.half_width_p / self.points

    @property
    def dq(self) -> float:
        return 2.0 * self.half_width_q / self.points

    @property
    def p_axis(self) -> np.ndarray:
        return _centred_axis(self.points, self.dp)

    @property
    def q_axis(self) -> np.ndarray:
        return _centred_axis(self.points, self.dq)

    def _node_index(self, x, axis: int) -> np.ndarray:
        """Indices along ``axis`` (0 for p, 1 for q) of the nodes at x, the
        inverse of x_n = (n - M/2) d.  Every x must lie within 1e-6 steps of a
        node inside the grid: sampled fields are not interpolated."""
        i = np.asarray(x, dtype=float) / (self.dp, self.dq)[axis] + self.points // 2
        n = np.rint(i)
        if not np.all(np.abs(i - n) <= 1e-6):
            raise ValueError("requested point is not a grid node; sampled functions "
                             "are not interpolated")
        if np.any(n < 0) or np.any(n >= self.points):
            raise ValueError("requested point lies outside the sampled grid")
        return n.astype(int)

    def _check_field(self, values) -> None:
        """ValueError unless ``values`` holds one sample per node, shape (M, M)."""
        m = self.points
        if np.shape(values) != (m, m):
            raise ValueError(f"values have shape {np.shape(values)}; the grid needs {(m, m)}")

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


def _centred_axis(points: int, step: float) -> np.ndarray:
    """The centred layout x_n = (n - M/2) d of M = ``points`` nodes."""
    return (np.arange(points) - points // 2) * step


def _check_positive(value, what: str) -> None:
    """ValueError naming ``what`` unless value is finite and positive."""
    if not 0 < value < np.inf:
        raise ValueError(f"{what} must be finite and positive, got {value!r}")


def _uniform_step(axis, what: str, points: int) -> float:
    """The step of a 1-D finite axis of at least ``points`` (>= 2) nodes that
    increases in equal steps (to 1e-9 of a step); ValueError naming ``what``
    otherwise."""
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < points or not np.all(np.isfinite(axis)):
        raise ValueError(f"{what} must be 1-D and finite, with at least {points} points")
    d = float(axis[1] - axis[0])
    if not (d > 0 and np.allclose(np.diff(axis), d, rtol=0, atol=1e-9 * d)):
        raise ValueError(f"{what} must increase in equal steps")
    return d


def _edge_decayed(values, rel: float, axes) -> bool:
    """True when the first and last slices of |values| along each of ``axes``
    carry at most ``rel`` of its peak, or the field is all zero."""
    mags = np.abs(values)
    peak = np.max(mags)
    if peak == 0.0:
        return True
    edge = max(np.max(np.take(mags, [0, -1], axis=a)) for a in axes)
    return bool(edge <= rel * peak)


def _symplectic_ft(values, grid: CenteredGrid, where: str):
    """The two stages both directions of the pair share: axis 0 with kernel
    e^{+i x_0 k / hbar}, axis 1 with e^{-i x_1 k / hbar}, then the transpose
    (output axis 0 pairs with input axis 1) and the 1 / (2 pi hbar)
    normalisation.  ``where`` names the public caller in the boundary warning."""
    grid._check_field(values)
    if not _edge_decayed(values, 1e-14, (0, 1)):
        warnings.warn(
            f"{where}: input does not decay below 1e-14 of peak at the grid boundary; "
            "transform may be contaminated by truncation",
            GridDomainWarning,
            stacklevel=3,
        )
    tmp = ft_axis(values.astype(complex), grid.dp, grid.hbar, axis=0, sign=+1)
    tmp = ft_axis(tmp, grid.dq, grid.hbar, axis=1, sign=-1)
    return np.ascontiguousarray(tmp.T / (2.0 * np.pi * grid.hbar)), grid.conjugate()


def chord_from_centre(values: np.ndarray, grid: CenteredGrid):
    """Chord function chi(xi_p, xi_q) from a centre field W(p, q).

    chi(xi) = (2 pi hbar)^(-1) Int dp dq W exp[(i/hbar)(p xi_q - q xi_p)]:
    the p axis goes to xi_q, the q axis to xi_p.
    Returns (chi_values, chord_grid) with chi indexed [xi_p, xi_q].
    """
    return _symplectic_ft(values, grid, "chord_from_centre")


def centre_from_chord(values: np.ndarray, grid: CenteredGrid):
    """Centre field W(p, q) from a chord function chi(xi_p, xi_q).

    W(x) = (2 pi hbar)^(-1) Int dxi chi exp[(i/hbar)(xi_p q - xi_q p)]:
    the xi_p axis goes to q, the xi_q axis to p.
    Returns (W_values, centre_grid); W is complex with imaginary part at
    round-off level for hermitian chi.
    """
    return _symplectic_ft(values, grid, "centre_from_chord")


#: complex elements per exponential table; bounds the kernel's scratch memory
_BLOCK_ELEMENTS = 1 << 20

#: bound on the Taylor tail of the cross factor, relative to sum |w_k|
_SERIES_TAIL = 2.0**-53

#: most Taylor terms for which the outer-grid series beats the point-by-point
#: sum: with one BLAS thread the two cost the same near 56 terms on a 16x16
#: grid and near 80 on 48x48, 128x128 and 1025x8 grids (320-2000 samples)
_SERIES_MAX_TERMS = 48


def _outer_grid(xi_p, xi_q):
    """(xi_p column, xi_q row) when the broadcast pair is a non-empty outer
    grid, else None.

    An outer grid is 2-D with xi_p constant along axis 1 and xi_q constant
    along axis 0: a ``meshgrid(..., indexing="ij")`` pair, or an (a, 1) and
    (1, b) pair.
    """
    xp, xq = np.broadcast_arrays(xi_p, xi_q)
    if xp.ndim != 2 or xp.size == 0 or not (
            np.all(xp == xp[:, :1]) and np.all(xq == xq[:1, :])):
        return None
    return xp[:, 0], xq[0, :]


def _series_terms(gauss, col, row):
    """Taylor terms of the cross factor exp(g1_k xi_p xi_q) on an outer grid,
    or None when the outer-grid sum must not take them.

    ``gauss`` holds the per-sample (g0, g1, g2) of the exponent
    g0 xi_p^2 + g1 xi_p xi_q + g2 xi_q^2.  When every Phi_k is positive
    semidefinite, g0 xi_p^2 + g2 xi_q^2 <= -|g1 xi_p xi_q|, so cutting the
    series after R terms moves the sum by at most sum_k |w_k| P(N >= R),
    N ~ Poisson(X), X = max|g1| max|xi_p| max|xi_q|.  R is the least count
    that puts P(N >= R) = gammainc(R, X) below ``_SERIES_TAIL``.  None for a
    non-finite or indefinite Phi_k, or when R passes ``_SERIES_MAX_TERMS``.
    """
    g0, g1, g2 = gauss.T
    # mid -+ rad are the eigenvalues of Phi_k / hbar
    mid, rad = -(g0 + g2), np.hypot(g0 - g2, g1)
    if not np.all(mid - rad >= -16.0 * np.finfo(float).eps * (np.abs(mid) + rad)):
        return None  # also catches nan
    x = np.max(np.abs(g1)) * np.max(np.abs(col)) * np.max(np.abs(row))
    r = np.arange(1, _SERIES_MAX_TERMS + 1)
    fits = np.flatnonzero(gammainc(r, x) <= _SERIES_TAIL)  # none for x = inf
    return int(r[fits[0]]) if fits.size else None


def _plane_wave_sum(points, weights, xi_p, xi_q, hbar: float, phi=None) -> np.ndarray:
    """sum_k w_k exp[(i/hbar) x_k ^ xi] exp[-xi . Phi_k xi / (2 hbar)].

    ``points`` are the x_k = (p_k, q_k), shape (n, 2).  ``weights`` is (n,),
    or, when the amplitudes vary with the chord, (n,) + a shape of the same
    rank as (xi_p, xi_q) that broadcasts against theirs.  ``phi`` is None, one shared symmetric
    (2, 2) matrix, or one per sample (n, 2, 2).  Returns the broadcast shape
    of (xi_p, xi_q).

    On an outer grid (see ``_outer_grid``), with weights that vary along
    xi_q at most, x_k ^ xi = p_k xi_q - q_k xi_p splits each term into
    L_k(xi_p) R_k(xi_q) exp(g1_k xi_p xi_q), with
    L_k = exp(-i q_k xi_p / hbar + g0_k xi_p^2),
    R_k = w_k exp(i p_k xi_q / hbar + g2_k xi_q^2) and
    (g0, g1, g2) = -(Phi_pp, 2 Phi_pq, Phi_qq) / (2 hbar).  The cross factor
    is the Taylor series sum_r (g1_k xi_p xi_q)^r / r! of ``_series_terms``
    (Greengard & Lee, SIAM Rev. 46, 443, 2004): its powers are stacked on
    the narrower chord axis, one GEMM sums the samples, and Horner's rule in
    the other axis sums the powers.  With Phi absent or shared there is no
    per-sample Gaussian and one term; a shared Gaussian multiplies the grid
    afterwards.  Every other input (scattered chords, chord-dependent
    weights across xi_p, or a per-sample Phi that is non-finite, indefinite
    or needs too many terms) is summed point by point.  Both paths work in
    blocks of about ``_BLOCK_ELEMENTS`` table entries (at least one sample
    or chord per block).
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
    each = gauss is not None and not shared
    axes = _outer_grid(xi_p, xi_q)
    terms = _series_terms(gauss, *axes) if each and axes is not None else 1
    if (axes is not None and terms is not None
            and (w.ndim == 1 or (w.ndim == 3 and w.shape[1] == 1))):
        # the linear exponent coefficients of L_k on xi_p and R_k on xi_q, and
        # the amplitudes, which ride on xi_q
        lin = [(-1j / hbar) * q, (1j / hbar) * p]
        amp = np.broadcast_to(w[:, None] if w.ndim == 1 else w[:, 0, :], (p.size, axes[1].size))
        wide = int(axes[0].size < axes[1].size)
        narrow = 1 - wide
        nodes = axes[narrow]
        scale = max(float(np.max(np.abs(axes[wide]))), np.finfo(float).tiny)
        out = np.zeros(shape, dtype=complex)
        view = out.T if wide else out  # indexed [wide, narrow]
        chunk = max(1, _BLOCK_ELEMENTS // (terms * nodes.size))
        step = max(1, _BLOCK_ELEMENTS // (min(chunk, axes[wide].size) + terms * nodes.size))

        def table(i, ks, cs):
            """L_k (i = 0) or R_k (i = 1) at the samples ks and the nodes cs of axis i."""
            x = axes[i][cs]
            e = lin[i][ks, None] * x
            if each:
                e += gauss[ks, 2 * i, None] * x**2  # g0 on xi_p, g2 on xi_q
            return np.exp(e, out=e) * amp[ks, cs] if i else np.exp(e, out=e)

        for a in range(0, axes[wide].size, chunk):
            cs = slice(a, a + chunk)
            y = axes[wide][cs, None] / scale
            for k in range(0, p.size, step):
                ks = slice(k, k + step)
                left = table(wide, ks, cs)
                # the narrow table times the powers (g1_k scale xi)^r / r!, r < terms
                stack = np.empty((left.shape[0], terms, nodes.size), dtype=complex)
                stack[:, 0] = table(narrow, ks, slice(None))
                if terms > 1:
                    z = gauss[ks, 1:2] * scale * nodes
                    for r in range(1, terms):
                        np.multiply(stack[:, r - 1], z / r, out=stack[:, r])
                prod = (left.T @ stack.reshape(left.shape[0], -1)).reshape(-1, terms, nodes.size)
                acc = prod[:, -1]
                for r in range(terms - 2, -1, -1):
                    acc = acc * y + prod[:, r]
                view[cs] += acc
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
