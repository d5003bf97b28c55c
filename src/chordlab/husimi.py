"""Gaussian-smoothed phase-space densities (unit-mass convention).

The smoothed density is the Wigner function convolved with the round
Gaussian (pi hbar)^-1 exp(-u^2 / hbar), which preserves total mass; a
coherent state peaks at (2 pi hbar)^-1.  In chord space the smoothing is a
plain multiplication by exp(-xi^2 / 4 hbar).

A full smoothed density can also be rebuilt from windowed correlations,
but only for window width Delta = sqrt(hbar / 2): that is the unique width
at which the window Gaussian and the chord damping combine to the smoothing
kernel exactly.  Other widths are rejected rather than approximated.
"""

from __future__ import annotations

import math

import numpy as np

from . import diagnostics
from .chordfn import ChordFunction
from .grids import CenteredGrid, _uniform_step, simpson_weights
from .lwc import LwcWindow

__all__ = [
    "husimi_from_wigner",
    "husimi_fourier",
    "husimi_from_lwc",
]


def husimi_from_wigner(values, grid: CenteredGrid, sink=None) -> np.ndarray:
    """Circular FFT convolution of W with the unit-mass Gaussian kernel.

    The wrap-around error is negligible only if W has decayed a few
    sqrt(hbar) inside the grid edge; mass in that margin triggers a
    GridDomainWarning.
    """
    values = np.asarray(values)
    grid._check_field(values)
    hb = grid.hbar
    margin = 3.0 * math.sqrt(hb)
    pp, qq = grid.meshgrid()
    near_edge = ((np.abs(pp) > grid.half_width_p - margin)
                 | (np.abs(qq) > grid.half_width_q - margin))
    total = float(np.sum(np.abs(values)))
    if total > 0:
        frac = float(np.sum(np.abs(values)[near_edge])) / total
        if frac > 1e-12:
            diagnostics.report(
                sink,
                f"{frac:.2e} of |W| lies within 3 sqrt(hbar) of the grid edge; "
                "smoothing will wrap around",
                diagnostics.GridDomainWarning,
            )
    kernel = np.exp(-(pp**2 + qq**2) / hb) / (math.pi * hb)
    conv = np.fft.ifft2(np.fft.fft2(values) * np.fft.fft2(np.fft.ifftshift(kernel)))
    return np.real(conv) * grid.dp * grid.dq


def husimi_fourier(chi: ChordFunction) -> ChordFunction:
    """Chord-space form of the smoothing: F(xi) = exp(-xi^2 / 4 hbar) chi(xi),
    in chi's form.  A term sum keeps its terms with each Phi raised by I/2
    (Phi = I/2 where chi has none); a grid is damped node by node.  The result
    keeps chi's warnings."""
    chi._check_form()
    if chi.terms is not None:
        points, weights, phi = chi.terms
        half = 0.5 * np.eye(2)
        return ChordFunction.from_terms(points, weights, half if phi is None else phi + half,
                                        chi.hbar, warnings=chi.warnings)
    xp, xq = chi.grid.meshgrid()
    out = ChordFunction.from_grid(chi.values * np.exp(-(xp**2 + xq**2) / (4.0 * chi.hbar)),
                                  chi.grid)
    out.warnings = list(chi.warnings)
    return out


def husimi_from_lwc(samples, p_axis, sink=None) -> np.ndarray:
    """Rebuild smoothed-density sections from windowed correlations:

        rho_H(P, Q_k) = (2 pi hbar)^-1 Int dxi_q C(xi_q, Q_k)
                        exp(+i P xi_q / hbar) exp(-Delta^2 xi_q^2 / 2 hbar^2),

    exact if and only if every window has Delta = sqrt(hbar / 2).  The shared
    xi_q grid must be uniform and increasing.  Returns an array of shape
    (len(p_axis), len(samples)), one column per window centre.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one windowed sample")
    if any(s.window is None for s in samples):
        raise ValueError("samples must carry their windows")
    hb = samples[0].window.hbar
    want = LwcWindow.husimi_matched(0.0, hb).delta
    xi_q = samples[0].xi_q
    for s in samples:
        if abs(s.window.delta - want) > 1e-12 * want or s.window.hbar != hb:
            raise ValueError(
                "reconstruction requires window width sqrt(hbar/2) exactly; "
                f"got delta = {s.window.delta!r}")
        if s.xi_q.shape != xi_q.shape or not np.allclose(s.xi_q, xi_q, rtol=0, atol=1e-12):
            raise ValueError("all samples must share one xi_q grid")
    p_axis = np.asarray(p_axis, dtype=float)
    d = _uniform_step(xi_q, "xi_q grid", 3)
    w = simpson_weights(xi_q.size, d) * np.exp(-(want * xi_q) ** 2 / (2.0 * hb**2))
    kernel = np.exp(1j * np.outer(p_axis, xi_q) / hb) * w
    c_mat = np.stack([s.values for s in samples], axis=1)
    out = kernel @ c_mat / (2.0 * math.pi * hb)
    return diagnostics._real_part(out, "reconstructed density", sink)[0]
