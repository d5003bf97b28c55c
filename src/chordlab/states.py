"""Reference states: coherent states and short-chord WKB curve states.

All closed forms below are for unit frequency (round Gaussians).  The chord
representation of a coherent state centred at eta is a Gaussian of width
sqrt(2 hbar) around the origin times a plane wave in eta, normalized so that
chi(0) = 1 / (2 pi hbar).

A curve state is represented in the short-chord regime by the uniform
average of plane waves exp(i x(theta) ^ xi / hbar) over the curve; this is
accurate for |xi| well below the validity radius (8 hbar R)^(1/3) set by the
curve's minimum osculating radius R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chordfn import ChordFunction, _doubled
from .curves import LagrangianCurve
from .grids import _check_finite, _check_positive
from . import diagnostics

__all__ = [
    "CoherentState",
    "coherent_chord_function",
    "coherent_wigner",
    "coherent_husimi",
    "coherent_wavefunction",
    "coherent_position_slices",
    "coherent_chord",
    "wkb_chord",
]


@dataclass(frozen=True)
class CoherentState:
    """Minimum-uncertainty Gaussian centred at eta = (eta_p, eta_q)."""

    eta: tuple
    hbar: float

    def __post_init__(self):
        eta = (float(self.eta[0]), float(self.eta[1]))
        object.__setattr__(self, "eta", eta)
        _check_finite(eta, "eta")
        _check_positive(self.hbar, "hbar")


def coherent_chord_function(state: CoherentState, xi_p, xi_q):
    """chi(xi) = (2 pi hbar)^-1 exp[i eta^xi / hbar - xi^2 / 4 hbar].

    The product of an xi_p factor exp[-i eta_q xi_p / hbar - xi_p^2 / 4 hbar]
    and an xi_q factor exp[i eta_p xi_q / hbar - xi_q^2 / 4 hbar], each taken
    on its own argument: on a grid pass the axes as an (M, 1) column and a
    (1, M) row, not a meshgrid, and the closed form costs 2M complex
    exponentials instead of M^2."""
    hb = state.hbar
    ep, eq = state.eta
    xi_p = np.asarray(xi_p, dtype=float)
    xi_q = np.asarray(xi_q, dtype=float)
    left = np.exp(-xi_p**2 / (4.0 * hb) - 1j * (eq / hb) * xi_p) / (2.0 * math.pi * hb)
    return left * np.exp(-xi_q**2 / (4.0 * hb) + 1j * (ep / hb) * xi_q)


def coherent_wigner(state: CoherentState, p, q):
    """W(x) = (pi hbar)^-1 exp[-(x - eta)^2 / hbar]."""
    hb = state.hbar
    ep, eq = state.eta
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.exp(-((p - ep) ** 2 + (q - eq) ** 2) / hb) / (math.pi * hb)


def coherent_husimi(state: CoherentState, p, q):
    """Unit-mass Gaussian smoothing of the Wigner function, peak (2 pi hbar)^-1."""
    hb = state.hbar
    ep, eq = state.eta
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.exp(-((p - ep) ** 2 + (q - eq) ** 2) / (2.0 * hb)) / (2.0 * math.pi * hb)


def coherent_wavefunction(state: CoherentState, q):
    """<q|eta> with the symmetric phase convention (mid-point gauge)."""
    hb = state.hbar
    ep, eq = state.eta
    q = np.asarray(q, dtype=float)
    amp = (math.pi * hb) ** -0.25
    return amp * np.exp(-((q - eq) ** 2) / (2.0 * hb) + 1j * ep * (q - 0.5 * eq) / hb)


def coherent_position_slices(state: CoherentState, q, s):
    """rho(q - s/2, q + s/2) on the outer product of the two axes.

    The pure coherent state's slices factor into a(q) b(s), with
    a = (pi hbar)^-1/2 exp[-(q - eta_q)^2 / hbar] and
    b = exp[-s^2 / 4 hbar - i eta_p s / hbar]: one outer product.
    """
    hb = state.hbar
    ep, eq = state.eta
    q = np.asarray(q, dtype=float)
    s = np.asarray(s, dtype=float)
    a = np.exp(-((q - eq) ** 2) / hb) / math.sqrt(math.pi * hb)
    b = np.exp(-(s**2) / (4.0 * hb) - 1j * (ep / hb) * s)
    return np.multiply.outer(a, b)


def coherent_chord(state: CoherentState) -> ChordFunction:
    """``coherent_chord_function`` as the one-term sum at eta with weight 1 and Phi = I/2."""
    return ChordFunction.from_terms([state.eta], [1.0], 0.5 * np.eye(2), state.hbar)


def wkb_chord(curve: LagrangianCurve, hbar: float) -> ChordFunction:
    """Short-chord curve state: the uniform average of translation symbols over
    the curve, times (2 pi hbar)^-1, as the term sum of the curve points with
    weights 1/n and no Phi (``ChordFunction.from_terms``).

    For the harmonic circle of action I this is (2 pi hbar)^-1 J0(sqrt(2 I) |xi| / hbar).
    The sampling is checked once by ``ChordFunction._drift``: chi at eight
    probe chords against the average over the points' trigonometric
    interpolant at twice the sample count.  A drift above 1e-8 of chi(0)
    reports a ConvergenceWarning, kept in the result's ``warnings``.
    """
    _check_positive(hbar, "hbar")
    n = curve.points.shape[0]
    chi = ChordFunction.from_terms(curve.points, np.full(n, 1.0 / n), None, hbar)
    diagnostics._measured(chi.warnings, chi._drift(*_doubled(curve.points, None)), 1e-8,
                          "curve average drifts by {:.2e} under doubled sampling; increase "
                          "the curve sample count", diagnostics.ConvergenceWarning)
    return chi
