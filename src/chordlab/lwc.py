"""Locally windowed correlations C(xi_q, Q) and their momentum spectra.

C is the expectation of a position translation by xi_q, windowed by a
Gaussian of width Delta centred at Q:

    C(xi_q, Q) = (sqrt(2 pi) Delta)^-1 Int dq exp[-(q - Q)^2 / 2 Delta^2]
                 <q - xi_q/2| rho |q + xi_q/2>.

Two exact routes are provided (from a chord function, and directly from
position-space density slices) plus one semiclassical branch sum for curve
states.  Each branch j of the (evolved) curve at Q is one spectral line
A_j N(p_j, sigma_j^2) with sigma_j^2 = hbar Phi_qq(shear) + Delta^2 slope_j^2,
and C(xi_q) = sum_j A_j exp(-i p_j xi_q / hbar - sigma_j^2 xi_q^2 / 2 hbar^2)
is its exact Fourier pair.  ``branch_lines`` gives every window's lines from
one evolved curve and one anchor pass (bare plane waves at delta = t = 0);
``lwc_sc_markov`` and ``sc_spectrum_closed_form`` are one window of it.

Gaussian lines have one record, ``Lines``: ``Lines.sample`` is the only
builder of a sample from lines (one call of the plane-wave kernel) and
``Lines.spectrum`` the only closed-form spectrum.  The chord route
integrates a term-sum chord function in closed form: each term is one line,
broadened by its Phi.  Either sample keeps its lines as ``lines``, so its
spectrum needs no second pass, no xi_q grid and no FFT.
A chord grid is integrated by Simpson along its own xi_p axis.

The symplectic Fourier transform of C over xi_q is the local momentum
spectral density; ``sc_spectrum_closed_form`` samples the lines themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, dynamics
from .chordfn import ChordFunction
from .curves import LagrangianCurve, BranchData, branches_at, evolve_curve_classically
from .grids import (CenteredGrid, _centred_axis, _check_finite, _check_hbar, _check_positive,
                    _edge_ratio, _nearest_node, _plane_wave_sum, _uniform_step, ft_axis,
                    simpson_weights)
from .states import CoherentState

__all__ = [
    "LwcWindow",
    "LwcSample",
    "Lines",
    "SpectralDensity",
    "Peak",
    "ResolutionVerdict",
    "local_translation_weyl",
    "lwc_from_chord",
    "lwc_direct",
    "lwc_coherent_closed_form",
    "branch_lines",
    "lwc_sc_markov",
    "shear_phi_qq",
    "spectrum",
    "sc_spectrum_closed_form",
    "fit_peaks",
    "resolution_verdict",
    "suggest_xi_q_grid",
]


@dataclass(frozen=True)
class LwcWindow:
    """Gaussian position window exp[-(q - Q)^2 / 2 Delta^2], unit mass."""

    Q: float
    delta: float
    hbar: float

    def __post_init__(self):
        _check_finite(self.Q, "Q")
        _check_positive(self.delta, "delta")
        _check_positive(self.hbar, "hbar")

    @classmethod
    def canonical(cls, Q: float, hbar: float) -> "LwcWindow":
        """delta = sqrt(hbar): balances shear and decoherence sensitivity."""
        _check_positive(hbar, "hbar")
        return cls(Q, math.sqrt(hbar), hbar)

    @classmethod
    def husimi_matched(cls, Q: float, hbar: float) -> "LwcWindow":
        """delta = sqrt(hbar / 2): the width that rebuilds a Husimi section."""
        _check_positive(hbar, "hbar")
        return cls(Q, math.sqrt(0.5 * hbar), hbar)


@dataclass(frozen=True)
class LwcSample:
    """C(xi_q) on a 1-D xi_q grid, one value per chord; a sample summed from
    lines (branch or term lines) keeps them."""

    xi_q: np.ndarray
    values: np.ndarray
    window: LwcWindow | None
    warnings: list = field(default_factory=list)
    lines: Lines | None = None

    def __post_init__(self):
        shapes = np.shape(self.xi_q), np.shape(self.values)
        if len(shapes[0]) != 1 or shapes[1] != shapes[0]:
            raise ValueError(f"xi_q must be 1-D and values of its shape, got shapes {shapes[0]} "
                             f"and {shapes[1]}")

    @property
    def branches(self) -> BranchData | None:
        return None if self.lines is None else self.lines.branches

    @property
    def phi_qq(self) -> tuple:
        return () if self.lines is None else self.lines.phi_qq

    def c0(self) -> complex:
        a = np.abs(self.xi_q)
        if a.size == 0 or a.min() > 1e-9 * max(1.0, float(a.max())):
            raise ValueError("xi_q grid does not contain 0")
        return complex(self.values[np.argmin(a)])

    def normalized(self) -> np.ndarray:
        c0 = self.c0()
        if c0 == 0:
            raise ValueError("C(0) = 0: the window holds no weight to normalize by")
        return self.values / c0


@dataclass(frozen=True)
class Peak:
    position: float
    height: float
    variance: float
    index: int | None = None
    flagged: bool = False


@dataclass(frozen=True)
class SpectralDensity:
    """Real local momentum density S(p') and its sampling axis."""

    p: np.ndarray
    values: np.ndarray
    imag_residue: float = 0.0
    warnings: list = field(default_factory=list)
    peaks: tuple = ()


@dataclass(frozen=True)
class ResolutionVerdict:
    resolved: bool
    separation: float
    widths: tuple


def _read_xi_q(xi_q, keep_shape: bool = False) -> np.ndarray:
    """xi_q as a float array, 1-D unless ``keep_shape``; a nan or inf chord raises."""
    xi_q = np.asarray(xi_q, dtype=float)
    if not np.all(np.isfinite(xi_q)):
        raise ValueError("every xi_q must be finite")
    return xi_q if keep_shape else np.atleast_1d(xi_q)


@dataclass(frozen=True)
class Lines:
    """Gaussian lines A_k N(p_k, sigma_k^2) (``variance``), every one of them
    summed, with the notes of the pass that made them.  Branch lines (one
    per live branch) also keep the window's branches, caustic ones included,
    and each branch's Phi_qq (nan on caustic branches); term lines keep
    neither."""

    amplitude: np.ndarray
    p: np.ndarray
    variance: np.ndarray
    hbar: float
    warnings: list
    branches: BranchData | None = None
    phi_qq: tuple = ()

    def sample(self, xi_q, window: LwcWindow | None) -> LwcSample:
        """C(xi_q) = sum_k A_k exp(-i p_k xi_q / hbar - sigma_k^2 xi_q^2 / 2 hbar^2),
        the Fourier pair of the lines, as a sample of ``window`` (None for width
        0, else of the lines' hbar) that keeps these lines and their notes: the
        plane-wave sum of the terms (p_k, 0) with Phi_qq,k = sigma_k^2 / hbar
        at the chords (0, -xi_q)."""
        if window is not None:
            _check_hbar(window.hbar, self.hbar, "lines")
        xi_q = _read_xi_q(xi_q)
        phi = np.zeros((self.p.size, 2, 2))
        phi[:, 1, 1] = self.variance / self.hbar
        values = _plane_wave_sum(np.stack([self.p, np.zeros(self.p.size)], axis=-1),
                                 self.amplitude, 0.0, -xi_q.ravel(), self.hbar, phi)
        return LwcSample(xi_q, values, window, self.warnings, self)

    def spectrum(self, p_axis) -> SpectralDensity:
        """The lines sampled on p_axis, tallest peak first; a line of complex
        amplitude counts by Re A_k (the imaginary parts of a Hermitian C's
        lines cancel).  A variance below the axis spacing squared is floored
        there and flagged (the true peak is narrower than the axis shows); the
        warnings are the record's plus one note naming how many lines were
        floored and the first one's p.  p_axis must be finite, with at least
        two points and none repeated."""
        p_axis = np.asarray(p_axis, dtype=float)
        if p_axis.ndim != 1 or p_axis.size < 2 or not np.all(np.isfinite(p_axis)) \
                or np.unique(p_axis).size < p_axis.size:
            raise ValueError("p_axis must be 1-D and finite, with at least two distinct points")
        dp = float(np.min(np.abs(np.diff(p_axis))))
        notes = list(self.warnings)
        vals = np.zeros(p_axis.size)
        peaks = []
        for a, pk, var in zip(np.real(self.amplitude), self.p, self.variance.tolist()):
            flagged = var < dp**2
            if flagged:
                var = max(dp**2, 1e-300)
            height = a / math.sqrt(2.0 * math.pi * var)
            vals += height * np.exp(-((p_axis - pk) ** 2) / (2.0 * var))
            peaks.append(Peak(float(pk), float(height), var, flagged=flagged))
        floored = [pk.position for pk in peaks if pk.flagged]
        if floored:
            diagnostics.report(notes, f"{len(floored)} spectral peak(s) narrower than the p "
                               f"axis spacing, the first at p = {floored[0]:g}; widths "
                               "floored to one bin", diagnostics.TruncationWarning)
        peaks.sort(key=lambda pk: -pk.height)
        return SpectralDensity(p_axis, vals, 0.0, notes, tuple(peaks))


def local_translation_weyl(window: LwcWindow, xi_q, p, q):
    """Weyl symbol of the windowed position translation at centre (p, q)."""
    xi_q = np.asarray(xi_q, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * window.delta)
    return norm * np.exp(-1j * p * xi_q / window.hbar
                         - (window.Q - q) ** 2 / (2.0 * window.delta**2))


def _term_lines(terms, window: LwcWindow, warnings: list) -> Lines:
    """The line A_k N(p~_k, sigma_k^2) of each plane-wave term of a chord
    function under the window's xi_p integral (see ``lwc_from_chord``), with
    the given notes."""
    x, w, phi = terms
    hb = window.hbar
    phi = np.zeros((2, 2)) if phi is None else phi
    f_pp, f_pq, f_qq = phi[..., 0, 0], phi[..., 0, 1], phi[..., 1, 1]
    a = f_pp / (2.0 * hb) + window.delta**2 / (2.0 * hb**2)
    d = window.Q - x[:, 1]
    amp = w * np.sqrt(math.pi / a) * np.exp(-d**2 / (4.0 * a * hb**2)) / (2.0 * math.pi * hb)
    p = x[:, 0] - d * f_pq / (2.0 * a * hb)
    var = np.broadcast_to(hb * f_qq - f_pq**2 / (2.0 * a), p.shape)
    return Lines(amp, p, var, hb, warnings)


def lwc_from_chord(chi: ChordFunction, window: LwcWindow, xi_q,
                   xi_p_points: int = 2049) -> LwcSample:
    """Windowed correlation as a chord-space integral,

        C(xi_q) = Int dxi_p chi(xi_p, -xi_q)
                  exp[i xi_p Q / hbar - Delta^2 xi_p^2 / 2 hbar^2].

    A chord function that keeps its plane-wave terms (``chi.terms``: a
    coherent state, an evolved chord function or a WKB curve state) is
    integrated exactly, term by term.  With
    a_k = Phi_pp,k / 2 hbar + Delta^2 / 2 hbar^2 each term is one spectral
    line A_k N(p~_k, sigma_k^2),

        A_k       = w_k (2 pi hbar)^-1 sqrt(pi / a_k) exp[-(Q - q_k)^2 / 4 a_k hbar^2]
        p~_k      = p_k - (Q - q_k) Phi_pq,k / 2 a_k hbar
        sigma_k^2 = hbar Phi_qq,k - Phi_pq,k^2 / 2 a_k      (>= 0 for Phi_k >= 0),

    summed by ``Lines.sample``; the sample keeps its lines, so
    ``sample.lines.spectrum(p)`` is its spectrum in closed form.  A
    grid-backed chord function is integrated by Simpson along its own xi_p
    axis (so each -xi_q must land on a grid node), with a TruncationWarning
    when the integrand has not decayed at the grid edge.

    ``xi_p_points`` is ignored: neither form has xi_p nodes to choose.  It is
    kept because the benchmark's transport workload still passes it and its
    tracer reads it.
    """
    hb = window.hbar
    _check_hbar(hb, chi.hbar, "chord function")
    xi_q = _read_xi_q(xi_q)
    notes = list(chi.warnings)

    if chi.terms is not None:
        return _term_lines(chi.terms, window, notes).sample(xi_q, window)
    grid = chi.grid  # chord grids store (xi_p, xi_q) on the (p, q) axes
    xp = grid.p_axis
    f = chi.values[:, grid._node_index(-xi_q, 1)]
    w = simpson_weights(xp.size, grid.dp) * np.exp(
        1j * xp * window.Q / hb - (window.delta * xp) ** 2 / (2.0 * hb**2))
    diagnostics._measured(notes, _edge_ratio(np.abs(f) * np.abs(w)[:, None], (0,)), 1e-12,
                          "lwc integrand not decayed at the xi_p grid edge; widen the chord "
                          "grid", diagnostics.TruncationWarning)
    return LwcSample(xi_q, w @ f, window, notes)


def lwc_direct(rho_slices, q_axis, s_axis, window: LwcWindow, xi_q) -> LwcSample:
    """Windowed correlation straight from rho(q - s/2, q + s/2) samples.

    Every requested xi_q must lie within 1e-6 spacings of its nearest node
    of s_axis (nonempty, in any order), and q_axis must be uniform and
    increasing, and cover the window out to Q +- 6 Delta.  The table may
    hold any subset of s columns, with s_axis the matching chords: each value
    is its own column's contraction with the q weights, so a caller can
    stream the columns in blocks.
    """
    rho_slices = np.asarray(rho_slices)
    q_axis = np.asarray(q_axis, dtype=float)
    s_axis = np.asarray(s_axis, dtype=float)
    if rho_slices.shape != (q_axis.size, s_axis.size) or s_axis.size == 0:
        raise ValueError("need a nonempty s_axis and rho_slices of shape "
                         "(len(q_axis), len(s_axis))")
    dq = _uniform_step(q_axis, "q_axis", 3)
    lo, hi = window.Q - 6.0 * window.delta, window.Q + 6.0 * window.delta
    if q_axis[0] > lo or q_axis[-1] < hi:
        raise ValueError("q_axis must cover the window out to Q +- 6 Delta")
    xi_q = _read_xi_q(xi_q)
    cols = _nearest_node(s_axis, xi_q, "every xi_q must coincide with an s_axis node")
    wq = simpson_weights(q_axis.size, dq) * np.exp(
        -((q_axis - window.Q) ** 2) / (2.0 * window.delta**2))
    wq /= math.sqrt(2.0 * math.pi) * window.delta
    vals = (wq @ rho_slices)[cols]  # contract first: no gathered copy of the table
    return LwcSample(xi_q, vals, window, [])


def lwc_coherent_closed_form(state: CoherentState, window: LwcWindow, xi_q):
    """Exact C(xi_q) for a coherent state: a Gaussian of chord width
    sqrt(2 hbar) carried by the plane wave exp(-i eta_p xi_q / hbar), with a
    window-weight factor from the overlap of the two position Gaussians."""
    _check_hbar(window.hbar, state.hbar, "state")
    hb = state.hbar
    ep, eq = state.eta
    xi_q = _read_xi_q(xi_q, keep_shape=True)
    var = window.delta**2 + 0.5 * hb
    return (np.exp(-1j * ep * xi_q / hb - xi_q**2 / (4.0 * hb)
                   - (window.Q - eq) ** 2 / (2.0 * var))
            / math.sqrt(2.0 * math.pi * var))


def shear_phi_qq(phi, slope: float) -> float:
    """Effective qq decoherence along a sheared branch: u . Phi u, u = (slope, 1)."""
    u = np.array([float(slope), 1.0])
    return float(u @ np.asarray(phi, dtype=float) @ u)


def branch_lines(curve: LagrangianCurve, qs, hbar: float, delta: float,
                 H, channels, t: float, dt: float = dynamics.PER_ROW) -> list:
    """The branch sum's ``Lines`` at each window centre in ``qs``, in order:
    the curve evolved to t once, then one line per live branch at Q (caustic
    beyond |slope| = 1/sqrt(hbar)) at window width delta, finite and >= 0.
    Each record keeps every branch and their sheared Phi_qq from one
    backward ``dynamics._flow`` over every window's live branches (nan on
    caustic branches, 0 when t = 0 or there are no channels), with each
    branch's error-estimate note.  Both flows take ``dt`` as
    ``dynamics.evolve_chord_function`` does: each trajectory's own step count
    by default, equal steps of at most a given dt.  At delta = 0
    and t = 0, ``[0].sample(xi_q, None)`` is the bare sum
    C = sum_j A_j exp(-i p_j xi_q / hbar), normalized relative to C(0) (the
    curve average carries its own 1/2 pi)."""
    _check_positive(hbar, "hbar")
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    dynamics._check_time(t)
    if t > 0:
        curve = evolve_curve_classically(curve, H, channels, t, dt)
    brs = [branches_at(curve, Q, 1.0 / math.sqrt(hbar)) for Q in qs]
    lives = [np.flatnonzero(~br.caustic) for br in brs]
    anchors = np.array([(p, br.Q) for br, live in zip(brs, lives)
                        for p in br.p[live]]).reshape(-1, 2)  # (0, 2) for no windows
    if t > 0 and channels and anchors.size:  # Phi anchored at each end: the flow run backward
        _, phis, errs = dynamics._flow(H, channels, anchors, -t, dt, "start")
        phis = np.broadcast_to(phis, (len(anchors), 2, 2))
    out = []
    for Q, br, live in zip(qs, brs, lives):
        notes = []
        if len(br) == 0:
            diagnostics.report(notes, f"no real branches at Q = {Q:g} (evanescent region)",
                               diagnostics.ConvergenceWarning)
        elif np.any(br.caustic):
            diagnostics.report(notes, f"excluded {int(np.sum(br.caustic))} caustic branch(es) "
                               f"at Q = {Q:g}; {live.size} kept", diagnostics.ConvergenceWarning)
        phi_qq = [math.nan if c else 0.0 for c in br.caustic]
        if t > 0 and channels and live.size:
            for err in errs[:live.size]:
                diagnostics._measured(notes, err, 1e-8, dynamics._STEP_NOTE,
                                      diagnostics.ConvergenceWarning)
            for j, phi in zip(live, phis):
                phi_qq[j] = shear_phi_qq(phi, br.slope[j])
            phis, errs = phis[live.size:], errs[live.size:]
        variance = hbar * np.asarray(phi_qq)[live] + (delta * br.slope[live]) ** 2
        out.append(Lines(br.amplitude[live], br.p[live], variance, hbar, notes, br, tuple(phi_qq)))
    return out


def lwc_sc_markov(curve: LagrangianCurve, H, channels, t: float,
                  window: LwcWindow, xi_q, dt: float = dynamics.PER_ROW) -> LwcSample:
    """Branches of the dissipatively evolved curve, damped per-branch by the
    sheared decoherence width exp[-Phi_qq xi_q^2 / 2 hbar] on top of the
    window shear factor exp[-(Delta slope xi_q)^2 / 2 hbar^2].  At t = 0 this
    is the window-shear (quadratic) approximant.  One window of
    ``branch_lines`` (``dt`` as there), kept for the acceptance tests and the
    benchmark."""
    [lines] = branch_lines(curve, [window.Q], window.hbar, window.delta, H, channels, t, dt)
    return lines.sample(xi_q, window)


def spectrum(sample: LwcSample, hbar: float | None = None) -> SpectralDensity:
    """Symplectic Fourier transform of C over xi_q:

        S(p') = (2 pi hbar)^-1 Int dxi_q C(xi_q) exp(+i p' xi_q / hbar).

    Requires a centred, increasing, uniform xi_q grid with an even point
    count of at least 8.  S is real up to an edge-bin residue, which is
    recorded.  A window-free sample needs a finite positive ``hbar``; a
    windowed one carries its own, which a given ``hbar`` must equal.
    """
    if sample.window is None:
        if hbar is None:
            raise ValueError("pass hbar explicitly for window-free samples")
        _check_positive(hbar, "hbar")
    else:
        _check_hbar(hbar, sample.window.hbar, "window")
        hbar = sample.window.hbar
    xq = sample.xi_q
    n = xq.size
    d = _uniform_step(xq, "xi_q grid", 8)
    if n % 2 or abs(xq[n // 2]) > 1e-9 * d:
        raise ValueError("spectrum needs a centred uniform even-count xi_q grid")
    notes = list(sample.warnings)
    diagnostics._measured(notes, _edge_ratio(sample.values, (0,)), 1e-10,
                          "C(xi_q) not decayed at the grid edge; widen the xi_q grid",
                          diagnostics.TruncationWarning)
    s_c = ft_axis(np.asarray(sample.values, dtype=complex), d, hbar,
                  axis=0, sign=+1) / (2.0 * math.pi * hbar)
    p_axis = _centred_axis(n, 2.0 * math.pi * hbar / (n * d))
    re, residue = diagnostics._real_part(s_c, "spectrum", notes)
    return SpectralDensity(p_axis, re, residue, notes)


def sc_spectrum_closed_form(curve: LagrangianCurve, H, channels, t: float,
                            window: LwcWindow, p_axis,
                            dt: float = dynamics.PER_ROW) -> SpectralDensity:
    """Sum of branch Gaussians A_j N(p_j, sigma_j^2) with
    sigma_j^2 = hbar Phi_qq(shear) + Delta^2 slope_j^2, the exact spectrum of
    ``lwc_sc_markov`` on the same arguments: ``Lines.spectrum`` of one window
    of ``branch_lines`` (``dt`` as there), after a second branch pass, kept
    for the acceptance tests and the benchmark.  Every sample summed from
    lines keeps them (``lwc_sc_markov``, a ``branch_lines`` record's
    ``sample``, and ``lwc_from_chord`` of a term sum: a coherent state or an
    evolved chord function), so ``sample.lines.spectrum(p_axis)`` needs no
    second pass.
    """
    [lines] = branch_lines(curve, [window.Q], window.hbar, window.delta, H, channels, t, dt)
    return lines.spectrum(p_axis)


def fit_peaks(p_axis, values, min_rel_height: float = 1e-3) -> list:
    """Local maxima refined by a 5-point log-parabola fit.

    Exact for sampled Gaussians: returns vertex position and variance
    -1 / (2 a) of the fitted log-parabola.  Peaks whose neighbourhood is not
    log-concave are reported at grid resolution and flagged.  p_axis must be
    uniform and increasing, the values finite and min_rel_height in [0, 1].

    For a line that is not exactly Gaussian the fit reads the curvature over
    +-2 bins, so the variance depends on the p spacing: the exact spectrum of
    a Fock ring at hbar = 0.05 gives 0.030445, 0.029952 and 0.030170 at
    spacings of 0.42, 0.21 and 0.11 line widths.  Compare fitted widths at
    one spacing.
    """
    p_axis = np.asarray(p_axis, dtype=float)
    v = np.asarray(values, dtype=float)
    if p_axis.size != v.size or v.size < 5:
        raise ValueError("need matching axes with at least 5 samples")
    dp = _uniform_step(p_axis, "p_axis", 5)
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    _check_finite(min_rel_height, "min_rel_height")
    if not 0.0 <= min_rel_height <= 1.0:
        raise ValueError(f"min_rel_height must be in [0, 1], got {min_rel_height!r}")
    top = float(np.max(v))
    mid = v[2:-2]
    local_max = (mid > v[1:-3]) & (mid >= v[3:-1]) & (mid >= min_rel_height * top)
    peaks = []
    for i in (np.flatnonzero(local_max) + 2).tolist():
        seg = v[i - 2:i + 3]
        if np.any(seg <= 0):
            peaks.append(Peak(float(p_axis[i]), float(v[i]), math.nan, i, True))
            continue
        k = np.arange(-2.0, 3.0)
        a, b, c = np.polyfit(k, np.log(seg), 2)
        if a >= 0:
            peaks.append(Peak(float(p_axis[i]), float(v[i]), math.nan, i, True))
            continue
        shift = -b / (2.0 * a)
        peaks.append(Peak(
            float(p_axis[i] + shift * dp),
            float(math.exp(c - b**2 / (4.0 * a))),
            float(-dp**2 / (2.0 * a)),
            i,
            False,
        ))
    peaks.sort(key=lambda pk: -pk.height)
    return peaks


def resolution_verdict(peaks) -> ResolutionVerdict:
    """Are the two dominant peaks distinguishable?  Resolved when every
    width sqrt(variance) is below the peak separation."""
    if len(peaks) < 2:
        return ResolutionVerdict(False, 0.0, tuple(
            math.sqrt(pk.variance) if pk.variance == pk.variance else math.nan
            for pk in peaks[:1]))
    a, b = peaks[0], peaks[1]
    sep = abs(a.position - b.position)
    widths = tuple(math.sqrt(pk.variance) for pk in (a, b))
    ok = all(w == w and w < sep for w in widths)
    return ResolutionVerdict(bool(ok), float(sep), widths)


def suggest_xi_q_grid(hbar: float, envelope_sigma: float | None = None,
                      points: int = 1024) -> np.ndarray:
    """Centred even xi_q grid (a ``CenteredGrid`` q axis) wide enough that a
    Gaussian envelope of the given sigma decays to 1e-12 (default sigma: the
    coherent chord width sqrt(2 hbar)).  hbar and sigma must be finite and
    positive."""
    _check_positive(hbar, "hbar")
    if points % 2 or points < 8:
        raise ValueError("points must be even and at least 8")
    if envelope_sigma is None:
        envelope_sigma = math.sqrt(2.0 * hbar)
    _check_positive(envelope_sigma, "envelope_sigma")
    half = envelope_sigma * math.sqrt(2.0 * math.log(1e12))
    return CenteredGrid(half, half, points, hbar).q_axis
