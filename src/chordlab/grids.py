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
is exact up to floating round-off.  Even M also makes the centring a sign
pattern: fftshift(fft(ifftshift(v))) = (-1)^(M/2) s fft(s v) with
s_n = (-1)^n, so ``_centred_dft`` modulates a field once on the way in, runs
plain FFTs, and leaves the output modulation to the caller's one pass over
the result (for the pair, the pass that scales and transposes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .diagnostics import GridDomainWarning, _measured

__all__ = [
    "CenteredGrid",
    "ft_axis",
    "chord_from_centre",
    "centre_from_chord",
    "reflect_values",
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
        """Indices along ``axis`` (0 for p, 1 for q) of the nodes at x, each of
        which must be a grid node: sampled fields are not interpolated."""
        return _nearest_node(self.q_axis if axis else self.p_axis, np.asarray(x, dtype=float),
                             "requested point is not a grid node; sampled functions are "
                             "not interpolated")

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

    def is_conjugate_of(self, other: "CenteredGrid") -> bool:
        """Whether this grid is ``other.conjugate()`` to a relative 1e-9."""
        if self.points != other.points or abs(self.hbar - other.hbar) > 1e-9 * self.hbar:
            return False
        want = other.conjugate()
        return bool(
            np.isclose(self.half_width_p, want.half_width_p, rtol=1e-9)
            and np.isclose(self.half_width_q, want.half_width_q, rtol=1e-9)
        )


def ft_axis(values: np.ndarray, dx: float, hbar: float, axis: int, sign: int) -> np.ndarray:
    """One Fourier stage: dx * sum_n f(x_n) exp(sign * i x_n k_m / hbar).

    The output lives on the conjugate centered grid k_m = (m - M/2) dk with
    dk = 2 pi hbar / (M dx).  Exact for even M, through ``_centred_dft``'s
    sign identity.  ValueError unless ``sign`` is +1 or -1 and the axis
    length M is even.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if values.shape[axis] % 2:
        raise ValueError(f"ft_axis needs an even axis length, got {values.shape[axis]}")
    out, post = _centred_dft(values, (axis,), (sign,), dx)
    return out * post


def _centred_dft(values, axes, signs, scale: float):
    """The centred DFT stages along ``axes`` (each of even length), kernel
    exp(sign 2 pi i (n - M/2)(m - M/2) / M) per axis, as (raw, post): the
    stages are ``scale * raw * post``, with ``post`` real and broadcastable.

    For even M, fftshift(fft(ifftshift(v))) = (-1)^(M/2) s fft(s v) with
    s_n = (-1)^n, and likewise for the unscaled inverse: so the input is
    modulated once by the product of every axis's s, each axis takes one
    plain FFT (``norm="forward"`` leaves the inverse unscaled), and ``post``
    holds the output modulation, the signs (-1)^(M/2) and ``scale``, for the
    caller to fold into its one pass over the result.
    """
    mod = np.ones((1,) * values.ndim)
    for axis in axes:
        m = values.shape[axis]
        shape = [1] * values.ndim
        shape[axis] = m
        mod = mod * np.resize([1.0, -1.0], m).reshape(shape)
        scale *= (-1) ** (m // 2)
    out = values * mod
    for axis, sign in zip(axes, signs):
        out = (np.fft.fft(out, axis=axis) if sign < 0
               else np.fft.ifft(out, axis=axis, norm="forward"))
    return out, mod * scale


def _centred_axis(points: int, step: float) -> np.ndarray:
    """The centred layout x_n = (n - M/2) d of M = ``points`` nodes."""
    return (np.arange(points) - points // 2) * step


def _check_positive(value, what: str) -> None:
    """ValueError naming ``what`` unless value is finite and positive."""
    if not 0 < value < np.inf:
        raise ValueError(f"{what} must be finite and positive, got {value!r}")


def _check_finite(value, what: str) -> None:
    """ValueError naming ``what`` unless value (a scalar or a tuple) is finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{what} must be finite, got {value!r}")


def _check_hbar(hbar, theirs, whose: str) -> None:
    """ValueError unless ``hbar`` is None (not given) or the ``whose``'s ``theirs``."""
    if hbar is not None and hbar != theirs:
        raise ValueError(f"hbar = {hbar!r} differs from the {whose}'s {theirs!r}")


def _nearest_node(axis, x, message: str) -> np.ndarray:
    """Index into ``axis`` (nonempty, in any order) of the node nearest each
    x, in x's shape; ValueError(message) unless each x lies within 1e-6 of
    that node's spacing, the gap to its nearer neighbour (1 on a one-node
    axis).  A nan x raises."""
    order = np.argsort(axis, kind="stable")
    nodes, gaps = axis[order], np.diff(axis[order])
    k = np.searchsorted(0.5 * (nodes[1:] + nodes[:-1]), x)
    spacing = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf]) if gaps.size else np.ones(1)
    if not np.all(np.abs(nodes[k] - x) <= 1e-6 * np.maximum(spacing[k], 1e-12)):
        raise ValueError(message)
    return order[k]


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


def _edge_ratio(values, axes) -> float:
    """The largest |values| on the first and last slices along each of
    ``axes``, over the peak of |values| (0 for an all-zero field, nan when
    any value is not finite)."""
    mags = np.abs(values)
    peak = np.max(mags)
    if not np.isfinite(peak):
        return np.nan
    if peak == 0.0:
        return 0.0
    return float(max(np.max(np.take(mags, [0, -1], axis=a)) for a in axes) / peak)


def _symplectic_ft(values, grid: CenteredGrid, where: str):
    """The two stages both directions of the pair share: axis 0 with kernel
    e^{+i x_0 k / hbar}, axis 1 with e^{-i x_1 k / hbar}, then the transpose
    (output axis 0 pairs with input axis 1) and the 1 / (2 pi hbar)
    normalisation, taken with the output modulation of ``_centred_dft`` in
    one pass.  ``where`` names the public caller in the boundary warning and
    in the ValueError a non-finite value raises."""
    grid._check_field(values)
    ratio = _edge_ratio(values, (0, 1))
    if np.isnan(ratio):
        raise ValueError(f"{where}: values must be finite")
    _measured(None, ratio, 1e-14,
              f"{where}: input does not decay below 1e-14 of peak at the grid boundary; "
              "transform may be contaminated by truncation", GridDomainWarning)
    scale = grid.dp * grid.dq / (2.0 * np.pi * grid.hbar)
    tmp, post = _centred_dft(values, (0, 1), (+1, -1), scale)
    return np.multiply(tmp.T, post.T, order="C"), grid.conjugate()


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
    x = np.max(np.abs(g1), initial=0.0) * np.max(np.abs(col)) * np.max(np.abs(row))
    r = np.arange(1, _SERIES_MAX_TERMS + 1)
    fits = np.flatnonzero(gammainc(r, x) <= _SERIES_TAIL)  # none for x = inf
    return int(r[fits[0]]) if fits.size else None


def _centred_step(axis):
    """The step d when ``axis`` is exactly the centred layout (j - M/2) d of an
    even count M (so x[M/2] = 0 and x[M - j] = -x[j]), else None."""
    m = axis.size
    if m % 2:
        return None
    d = -axis[m // 2 - 1]
    return d if np.array_equal(axis, _centred_axis(m, d)) else None


def _phase_table(c, n) -> np.ndarray:
    """exp(i c_k n_j) for real c (K,) and integers n (J,), shape (K, J), from
    about 2 sqrt(max|n|) complex exponentials per row: |n| = b u + v with
    0 <= v < b ~ sqrt(max|n|) gives exp(i c_k b u) exp(i c_k v), and a
    negative n takes the conjugate.  The entry at n = 0 is exactly 1."""
    m = np.abs(n)
    b = max(1, int(np.ceil(np.sqrt(m.max()))))
    coarse = np.exp(1j * np.outer(c, b * np.arange(m.max() // b + 1)))
    fine = np.exp(1j * np.outer(c, np.arange(b)))
    t = np.take((coarse[:, :, None] * fine[:, None, :]).reshape(c.size, -1), m, axis=1)
    return np.conjugate(t, out=t, where=n < 0)


def _plane_wave_sum(points, weights, xi_p, xi_q, hbar: float, phi=None) -> np.ndarray:
    """sum_k w_k exp[(i/hbar) x_k ^ xi] exp[-xi . Phi_k xi / (2 hbar)].

    ``points`` are the x_k = (p_k, q_k), shape (n, 2), and ``weights`` the
    w_k, shape (n,).  ``phi`` is None, one shared symmetric (2, 2) matrix, or
    one per sample (n, 2, 2).  Returns the broadcast shape of (xi_p, xi_q).

    One factored form: real weights on an outer grid (``_outer_grid``) of two
    centred axes (``_centred_step``: x_j = n_j d, n_j = j - M/2, M even), the
    layout of every ``CenteredGrid``.  There x_k ^ xi = p_k xi_q - q_k xi_p
    splits each term into L_k(xi_p) R_k(xi_q) exp(g1_k xi_p xi_q), with
    L_k = exp(-i q_k xi_p / hbar + g0_k xi_p^2),
    R_k = w_k exp(i p_k xi_q / hbar + g2_k xi_q^2) and
    (g0, g1, g2) = -(Phi_pp, 2 Phi_pq, Phi_qq) / (2 hbar).  Their phases come
    from ``_phase_table`` at c_k d and the integer n_j, about 2 sqrt(M)
    complex exponentials per sample instead of M, and each Gaussian is one
    real exponential.  The cross factor is the Taylor series
    sum_r (g1_k xi_p xi_q)^r / r! of ``_series_terms`` (Greengard & Lee,
    SIAM Rev. 46, 443, 2004); with Phi absent or shared there is one term,
    and a shared Gaussian multiplies the grid afterwards.  The sum is
    Hermitian, chi(-xi) = conj chi(xi), so xi_p keeps only its nodes n >= 0
    and its unpaired n = -M/2, and xi_q gains the mirror +M/2 of its unpaired
    node (whose conjugates fill that unpaired line).  The powers are stacked
    on the xi_p half, one GEMM per chunk of xi_q sums the samples, Horner's
    rule in xi_q sums the powers, and every other xi_p line is the conjugate
    of its mirror with xi_q reversed.

    Every other input (complex weights, an odd or off-centre axis, scattered
    chords, or a per-sample Phi that is non-finite, indefinite or needs too
    many terms) is summed point by point, at M_p M_q complex exponentials per
    sample.  On one Xeon core a 1,024-sample sum without Phi on a 129 x 129
    ``np.linspace`` grid takes 0.42 s that way (12 ms when factored), and a
    320-sample per-sample-Phi sum on a 4,097 x 8 grid with an off-centre
    xi_p axis 0.30 s (53 ms).  Both forms work in blocks of about
    ``_BLOCK_ELEMENTS`` table entries (at least one sample or chord per
    block).
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
    axes = _outer_grid(xi_p, xi_q) if np.isrealobj(w) else None
    steps = None if axes is None else [_centred_step(a) for a in axes]
    factored = steps is not None and None not in steps
    terms = _series_terms(gauss, *axes) if factored and each else 1
    if factored and terms is not None:
        # xi_p: nodes n >= 0 and -M/2; xi_q: every node and the mirror +M/2
        half = axes[0].size // 2
        rows = np.r_[half:2 * half, 0]
        xs, ns = axes[0][rows], rows - half
        ys = np.append(axes[1], -axes[1][0])
        ms = np.arange(ys.size) - axes[1].size // 2
        # the phase of L_k per xi_p step and of R_k per xi_q step
        cp, cq = (-1.0 / hbar) * q * steps[0], (1.0 / hbar) * p * steps[1]
        scale = max(float(np.max(np.abs(axes[1]))), np.finfo(float).tiny)
        sums = np.zeros((ys.size, xs.size), dtype=complex)  # [xi_q and +M/2, xi_p half]
        chunk = max(1, _BLOCK_ELEMENTS // (terms * xs.size))
        step = max(1, _BLOCK_ELEMENTS // (min(chunk, ys.size) + terms * xs.size))
        for a in range(0, ys.size, chunk):
            cs = slice(a, a + chunk)
            y = ys[cs, None] / scale
            for k in range(0, p.size, step):
                ks = slice(k, k + step)
                right = _phase_table(cq[ks], ms[cs])
                left = _phase_table(cp[ks], ns)
                if each:
                    right *= np.exp(gauss[ks, 2, None] * ys[cs]**2)
                    left *= np.exp(gauss[ks, 0, None] * xs**2)
                right *= w[ks, None]
                # L_k times the powers (g1_k scale xi_p)^r / r!, r < terms
                stack = np.empty((left.shape[0], terms, xs.size), dtype=complex)
                stack[:, 0] = left
                if terms > 1:
                    z = gauss[ks, 1:2] * scale * xs
                    for r in range(1, terms):
                        np.multiply(stack[:, r - 1], z / r, out=stack[:, r])
                prod = (right.T @ stack.reshape(left.shape[0], -1)).reshape(-1, terms, xs.size)
                acc = prod[:, -1]
                for r in range(terms - 2, -1, -1):
                    acc = acc * y + prod[:, r]
                sums[cs] += acc
        out = np.empty(shape, dtype=complex)
        out[rows] = sums[:-1].T
        out[1:half] = sums[:0:-1, half - 1:0:-1].T.conj()
    else:
        xp, xq = xi_p.ravel(), xi_q.ravel()
        out = np.empty(xp.size, dtype=complex)
        step = max(1, _BLOCK_ELEMENTS // max(p.size, 1))
        for j in range(0, xp.size, step):
            js = slice(j, j + step)
            e = np.empty((p.size, xp[js].size), dtype=complex)  # the exponent, then exp in place
            e.imag = points @ (np.stack([xq[js], -xp[js]]) / hbar)
            e.real = 0.0 if gauss is None or shared else gauss @ _monomials(xp[js], xq[js])
            np.exp(e, out=e)
            out[js] = w @ e
            del e  # one table alive at a time
        out = out.reshape(shape)
    if shared:
        out *= np.exp(np.tensordot(gauss, _monomials(xi_p, xi_q), axes=1))
    return out


def _trig_doubled(values) -> np.ndarray:
    """The trigonometric interpolant of n real periodic samples (along axis 0)
    at 2n uniform points: FFT zero padding, with an even n's Nyquist bin split
    evenly between its two copies.  The given samples recur at the even
    indices, to rounding."""
    n = values.shape[0]
    c = np.fft.rfft(values, axis=0)
    if n % 2 == 0:
        c[-1] *= 0.5
    return np.fft.irfft(c, 2 * n, axis=0) * 2.0


def _monomials(xi_p, xi_q):
    return np.stack([xi_p**2, xi_p * xi_q, xi_q**2])


def reflect_values(values: np.ndarray) -> np.ndarray:
    """Samples of f(-x) on the same centered grid.

    The centered grid is asymmetric (index M/2 holds 0, index 0 holds the
    unpaired -M/2 point), so negation is reversal followed by a one-step
    roll on both axes.
    """
    return np.roll(values[::-1, ::-1], 1, axis=(0, 1))

