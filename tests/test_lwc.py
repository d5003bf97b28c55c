import copy
import gc
import inspect
import math
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from chordlab import dynamics, hamiltonians, lwc
from chordlab.curves import (LagrangianCurve, branches_at, harmonic_circle,
                             pendulum_level_curve, quartic_level_curve)
from chordlab.diagnostics import ConvergenceWarning, TruncationWarning
from chordlab.fock import (build_linear_lindblad, cat_density_matrix, chord_function_exact,
                           fock_density_matrix, hamiltonian_matrix, lindblad_evolve,
                           position_density_matrix, wigner_exact)
from chordlab.grids import CenteredGrid, _edge_ratio, simpson_weights
from chordlab.lwc import (
    LwcSample,
    LwcWindow,
    Peak,
    branch_lines,
    fit_peaks,
    local_translation_weyl,
    lwc_coherent_closed_form,
    lwc_direct,
    lwc_from_chord,
    lwc_sc_markov,
    resolution_verdict,
    sc_spectrum_closed_form,
    shear_phi_qq,
    spectrum,
    suggest_xi_q_grid,
)
from chordlab.states import (
    CoherentState,
    coherent_chord,
    coherent_position_slices,
    coherent_wigner,
    wkb_chord,
)

HBAR = 0.05


def _bare_branch_sum(curve, Q, xi_q, hbar=HBAR):
    """The stationary-branch sum C = sum_j A_j exp(-i p_j xi_q / hbar) at Q:
    one window of ``branch_lines`` at width 0 and t = 0, with no window."""
    [lines] = branch_lines(curve, [Q], hbar, 0.0, hamiltonians.zero(), (), 0.0)
    return lines.sample(xi_q, None)


def _simpson_lwc(chi, window, xi_q, points):
    """The windowed xi_p integral of a callable chi(xi_p, xi_q) by composite
    Simpson on ``points`` uniform nodes over +-9 hbar / Delta, asking chi for
    every column in one call: the reference the closed-form term lines and
    the Fock spectrum are checked with.  The integrand must have decayed to
    1e-12 of its peak at the range edge."""
    return _simpson_sum(*_simpson_table(chi, window, xi_q, points), window)


def _simpson_table(chi, window, xi_q, points):
    """The Simpson nodes xi_p of ``_simpson_lwc`` and chi at (xi_p, -xi_q),
    shape (points, xi_q.size): one table serves every window of this width."""
    half = 9.0 * window.hbar / window.delta
    xp = np.linspace(-half, half, points)
    return xp, np.broadcast_to(chi(xp[:, None], -xi_q[None, :]), (xp.size, xi_q.size))


def _simpson_sum(xp, f, window):
    """The windowed Simpson sum of ``_simpson_lwc`` over a ``_simpson_table``
    built at this window's width."""
    hb = window.hbar
    assert xp[-1] == 9.0 * hb / window.delta
    w = simpson_weights(xp.size, xp[1] - xp[0]) * np.exp(
        1j * xp * window.Q / hb - (window.delta * xp) ** 2 / (2.0 * hb**2))
    assert _edge_ratio(np.abs(f) * np.abs(w)[:, None], (0,)) <= 1e-12
    return w @ f


def test_window_constructors():
    assert LwcWindow.canonical(0.2, HBAR).delta == pytest.approx(math.sqrt(HBAR))
    assert LwcWindow.husimi_matched(0.2, HBAR).delta == pytest.approx(math.sqrt(HBAR / 2))
    with pytest.raises(ValueError):
        LwcWindow(0.0, 0.0, HBAR)
    with pytest.raises(ValueError):
        LwcWindow(0.0, 0.1, -1.0)
    with pytest.raises(ValueError, match="hbar = 0.1 differs from the state's 0.05"):
        lwc_coherent_closed_form(CoherentState((0.4, 0.3), HBAR), LwcWindow.canonical(0.1, 2 * HBAR),
                                 [0.0])


@pytest.mark.parametrize("build", [LwcWindow.canonical, LwcWindow.husimi_matched,
                                   lambda Q, hbar: suggest_xi_q_grid(hbar, points=64)],
                         ids=["canonical", "husimi-matched", "suggest-xi-q-grid"])
@pytest.mark.parametrize("hbar", [-HBAR, 0.0, math.nan])
def test_window_widths_check_hbar_first(build, hbar):
    """Before, a negative hbar raised math's "math domain error"."""
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        build(0.2, hbar)


@pytest.mark.parametrize("route, args", [
    ("window", (0.0, math.nan, HBAR)),
    ("window", (math.nan, 0.2, HBAR)),
    ("window", (math.inf, 0.2, HBAR)),
    ("window", (0.0, math.inf, HBAR)),
    ("window", (0.0, 0.2, math.nan)),
    ("window", (0.0, 0.2, -math.inf)),
    ("berry", (0.0, 0.0)),
    ("berry", (0.0, -0.05)),
    ("berry", (0.0, math.nan)),
    ("berry", (0.0, math.inf)),
    ("berry", (math.nan, HBAR)),
    ("berry", (math.inf, HBAR)),
    ("spectrum", -0.05),
    ("spectrum", 0.0),
    ("spectrum", math.nan),
], ids=["delta-nan", "Q-nan", "Q-inf", "delta-inf", "hbar-nan", "hbar-minus-inf",
        "berry-hbar-0", "berry-hbar-negative", "berry-hbar-nan", "berry-hbar-inf",
        "berry-Q-nan", "berry-Q-inf", "spectrum-hbar-negative", "spectrum-hbar-0",
        "spectrum-hbar-nan"])
def test_non_finite_window_and_bad_hbar_raise(route, args):
    """A window with a non-finite Q, delta or hbar, a branch pass at an hbar
    that is not finite and positive (or a non-finite Q), and the spectrum of
    a window-free sample at such an hbar fail loudly instead of returning
    nan, +-inf or stopping inside the root finder."""
    with pytest.raises(ValueError, match="finite"):
        if route == "window":
            LwcWindow(*args)
        elif route == "berry":
            Q, hbar = args
            _bare_branch_sum(harmonic_circle(0.5, 256), Q, [0.0, 0.1], hbar)
        else:
            xi_q = suggest_xi_q_grid(HBAR, points=64)
            spectrum(LwcSample(xi_q, np.exp(-10.0 * xi_q**2), None), hbar=args)


def test_routes_agree_on_coherent_state():
    state = CoherentState((0.4, 0.3), HBAR)
    window = LwcWindow.canonical(0.1, HBAR)
    grid = CenteredGrid(3.0, 3.0, 1024, HBAR)
    xi_q = grid.dq * np.arange(-160, 161, 8)
    want = lwc_coherent_closed_form(state, window, xi_q)
    scale = float(np.max(np.abs(want)))

    from_terms = lwc_from_chord(coherent_chord(state), window, xi_q)
    assert np.max(np.abs(from_terms.values - want)) < 1e-6 * scale

    gridded = coherent_chord(state).sample(grid)
    from_grid = lwc_from_chord(gridded, window, xi_q)
    assert np.max(np.abs(from_grid.values - want)) < 1e-6 * scale

    q_axis = np.linspace(-2.2, 2.6, 3001)
    slices = coherent_position_slices(state, q_axis, xi_q)
    direct = lwc_direct(slices, q_axis, xi_q, window, xi_q)
    assert np.max(np.abs(direct.values - want)) < 1e-6 * scale


def test_translation_covariance():
    """Displacing the state by a = (a_p, a_q) multiplies C by exp(-i a_p xi_q / hbar)
    once the window is dragged along to Q - a_q."""
    base = CoherentState((0.0, 0.0), HBAR)
    ap, aq = 0.35, -0.2
    moved = CoherentState((ap, aq), HBAR)
    xi_q = np.linspace(-0.6, 0.6, 41)
    Q = 0.15
    c_moved = lwc_from_chord(coherent_chord(moved), LwcWindow.canonical(Q, HBAR), xi_q)
    c_base = lwc_from_chord(coherent_chord(base), LwcWindow.canonical(Q - aq, HBAR), xi_q)
    want = np.exp(-1j * ap * xi_q / HBAR) * c_base.values
    assert np.max(np.abs(c_moved.values - want)) < 1e-10 * np.max(np.abs(want))


def test_weyl_symbol_pairs_with_wigner():
    """Integrating the windowed-translation Weyl symbol against the Wigner
    function reproduces the closed-form correlation."""
    state = CoherentState((0.3, -0.1), HBAR)
    window = LwcWindow.canonical(0.2, HBAR)
    p = np.linspace(-1.4, 2.0, 1201)
    q = np.linspace(-1.8, 1.9, 1201)
    w = coherent_wigner(state, p[:, None], q[None, :])
    for xq in (0.0, 0.17, -0.31):
        sym = local_translation_weyl(window, xq, p[:, None], q[None, :])
        got = np.trapezoid(np.trapezoid(w * sym, q, axis=1), p)
        want = complex(lwc_coherent_closed_form(state, window, np.array([xq]))[0])
        assert abs(got - want) < 1e-8 * abs(want)


def test_lwc_direct_matches_weyl_symbol_average():
    """C(xi_q) = tr(rho T_Q(xi_q)): the windowed-translation Weyl symbol
    averaged over the exact Wigner function of number-basis states with no
    closed form (a cat and a Fock state) gives lwc_direct's position-slice
    quadrature."""
    window = LwcWindow.canonical(0.3, HBAR)
    xi_q = np.linspace(-0.8, 0.8, 33)
    q_axis = np.linspace(-1.5, 2.1, 721)
    grid = CenteredGrid(2.0, 2.0, 128, HBAR)
    pp, qq = grid.meshgrid()
    sym = local_translation_weyl(window, xi_q[:, None, None], pp, qq)
    for rho in (cat_density_matrix((0.2, 0.6), HBAR, 48), fock_density_matrix(3, HBAR, 48)):
        direct = lwc_direct(position_density_matrix(rho, q_axis, xi_q), q_axis, xi_q,
                            window, xi_q)
        weyl = np.einsum("pq,kpq->k", wigner_exact(rho, grid), sym) * grid.dp * grid.dq
        assert np.max(np.abs(weyl - direct.values)) < 1e-11 * abs(direct.c0())


def test_berry_quadratic_shear_relation():
    curve = harmonic_circle(0.5, 2048)
    Q = 0.3
    window = LwcWindow.canonical(Q, HBAR)
    xi_q = np.linspace(-math.sqrt(HBAR), math.sqrt(HBAR), 33)
    berry = _bare_branch_sum(curve, Q, xi_q)
    quad = lwc_sc_markov(curve, hamiltonians.zero(), [], 0.0, window, xi_q)
    # same branches, so the two differ exactly by the shared shear Gaussian
    slope = abs(berry.branches.slope[0])
    shear = np.exp(-((window.delta * slope * xi_q) ** 2) / (2.0 * HBAR**2))
    assert np.max(np.abs(quad.values - berry.values * shear)) < 1e-12


def test_quadratic_approximant_converges_semiclassically():
    """The branch form carries an hbar-independent phase error from curve
    curvature across the window; at delta = sqrt(hbar) and |xi_q| <= sqrt(hbar)
    the normalized mismatch against the exact chord integral shrinks ~sqrt(hbar)."""
    curve = harmonic_circle(0.5, 2048)
    Q = 0.3
    diffs = []
    for hbar in (0.05, 0.0125, 0.003125):
        window = LwcWindow.canonical(Q, hbar)
        xi_q = np.linspace(-math.sqrt(hbar), math.sqrt(hbar), 33)
        quad = lwc_sc_markov(curve, hamiltonians.zero(), [], 0.0, window, xi_q)
        exact = lwc_from_chord(wkb_chord(curve, hbar), window, xi_q)
        diffs.append(float(np.max(np.abs(quad.normalized() - exact.normalized()))))
    assert diffs[0] < 0.12
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 0.4 * diffs[0]


def test_sc_lines_converge_to_exact_spectrum_as_hbar_shrinks():
    """The paper's lines against the number-basis oracle: a Fock ring
    |n>, I = (n + 1/2) hbar ~ 1/2, under a weak q-channel to the positivity
    time, windowed at Q = 0.  The exact spectrum's fitted line sits below
    the branch momentum and is wider than hbar Phi_qq + Delta^2 slope^2 by
    errors that shrink at first order in hbar (measured orders 0.97 and
    0.85 for the position and relative variance)."""
    H = hamiltonians.harmonic()
    weak = dynamics.LindbladChannel((0.0, 0.5))
    tp = dynamics.positivity_time(H, [weak])
    errors = []
    for hbar, n, dim in ((0.05, 10, 80), (0.025, 20, 152)):
        rho = lindblad_evolve(fock_density_matrix(n, hbar, dim), hamiltonian_matrix(H, dim, hbar),
                              [build_linear_lindblad(weak, hbar, dim)], tp, hbar, dt=1e-2)
        window = LwcWindow.canonical(0.0, hbar)
        # the xi_q range grows as sqrt(hbar), like the line widths, so the
        # p spacing stays a fixed fraction (~0.2) of the line width
        half = 4.4 * math.sqrt(hbar / 0.05)
        xi_q = (np.arange(128) - 64) * (2.0 * half / 128)
        c = _simpson_lwc(lambda xp, xq: chord_function_exact(rho, xp, xq, method="position"),
                         window, xi_q, 257)
        sd = spectrum(LwcSample(xi_q, c, window))
        exact = max(fit_peaks(sd.p, sd.values)[:2], key=lambda pk: pk.position)
        lines = sc_spectrum_closed_form(harmonic_circle((n + 0.5) * hbar, 1024), H, [weak], tp,
                                        window, sd.p)
        line = max(lines.peaks, key=lambda pk: pk.position)
        assert not sd.warnings and not lines.warnings
        errors.append((line.position - exact.position,
                       (exact.variance - line.variance) / line.variance))
    (dp_coarse, dv_coarse), (dp_fine, dv_fine) = errors
    assert dp_fine > 0 and dv_fine > 0
    assert 0.75 < math.log2(dp_coarse / dp_fine) < 1.25
    assert 0.75 < math.log2(dv_coarse / dv_fine) < 1.25


@pytest.mark.parametrize("hbar, n, bound", [(0.05, 10, 0.015), (0.025, 20, 0.011)])
def test_sample_lines_map_a_fock_ring_at_t0_to_the_turning_point(hbar, n, bound):
    """The t = 0 map of a Fock ring |n> against harmonic_circle((n + 1/2)
    hbar): the WKB state's term lines (one per curve sample) give the
    normalized C of the number-basis oracle within ``bound`` at every
    canonical window out to the turning point Q = R (measured 0.0083-0.0125
    at hbar = 0.05 and 0.0035-0.0098 at 0.025, for |xi_q| <= sqrt(hbar)),
    while the branch lines, wherever a live branch exists, are at least five
    times further off (measured 0.064-0.252)."""
    rho = fock_density_matrix(n, hbar, n + 40)
    curve = harmonic_circle((n + 0.5) * hbar, 2048)
    chi = wkb_chord(curve, hbar)
    radius = math.sqrt((2 * n + 1) * hbar)
    xi_q = np.linspace(-math.sqrt(hbar), math.sqrt(hbar), 41)
    live = 0
    for frac in (0.0, 0.5, 0.7, 0.9, 0.99, 1.0):
        window = LwcWindow.canonical(frac * radius, hbar)
        q_axis = np.linspace(window.Q - 7.0 * window.delta, window.Q + 7.0 * window.delta, 401)
        oracle = lwc_direct(position_density_matrix(rho, q_axis, xi_q), q_axis, xi_q,
                            window, xi_q).normalized()
        err = np.max(np.abs(lwc_from_chord(chi, window, xi_q).normalized() - oracle))
        assert err < bound
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)  # caustic near Q = R
            branch = lwc_sc_markov(curve, None, (), 0.0, window, xi_q)
        if branch.lines.p.size:
            live += 1
            assert np.max(np.abs(branch.normalized() - oracle)) > 5.0 * err
    assert live == 4


def test_term_sample_keeps_lines_that_give_its_spectrum_in_closed_form():
    """A term-sum sample keeps its lines: their closed-form spectrum matches
    the FFT spectrum of the sample on a xi_q grid where C decays (measured
    5.6e-14 and 2.5e-13 of max for a coherent state and a harmonic ring
    under a q-channel at t = 0.4), and integrates to Re C(0)."""
    ring = dynamics.evolve_chord_function(harmonic_circle(0.5, 320), hamiltonians.harmonic(),
                                          [dynamics.LindbladChannel((0.0, 1.0))], 0.4,
                                          hbar=HBAR)
    cases = [(coherent_chord(CoherentState((0.3, -0.2), HBAR)), None, 0.1, 1),
             (ring, math.sqrt(HBAR / 0.4), 0.3, 320)]
    for chi, sigma, Q, count in cases:
        xi_q = suggest_xi_q_grid(HBAR, sigma, points=1024)
        sample = lwc_from_chord(chi, LwcWindow.canonical(Q, HBAR), xi_q)
        assert isinstance(sample.lines, lwc.Lines) and sample.lines.p.size == count
        assert sample.branches is None and sample.phi_qq == ()
        sd = spectrum(sample)
        closed = sample.lines.spectrum(sd.p)
        assert sd.warnings == [] and closed.warnings == []
        assert np.max(np.abs(closed.values - sd.values)) <= 1e-9 * np.max(sd.values)
        area = np.sum(closed.values) * (sd.p[1] - sd.p[0])
        assert area == pytest.approx(sample.c0().real, rel=1e-9)


def test_markov_reduces_to_quadratic_at_t0():
    """At t = 0 a channel has had no time to act: C is the window-shear sum
    sum_j A_j exp(-i p_j xi_q / hbar - (Delta s_j xi_q)^2 / 2 hbar^2)."""
    curve = harmonic_circle(0.5, 1024)
    window = LwcWindow.canonical(0.3, HBAR)
    xi_q = np.linspace(-0.4, 0.4, 17)
    markov = lwc_sc_markov(curve, hamiltonians.harmonic(),
                           [dynamics.LindbladChannel((0.0, 1.0))], 0.0, window, xi_q)
    br = branches_at(curve, window.Q, 1.0 / math.sqrt(HBAR))
    assert len(br) == 2 and not np.any(br.caustic)
    want = sum(a * np.exp(-1j * p * xi_q / HBAR - (window.delta * s * xi_q) ** 2 / (2.0 * HBAR**2))
               for a, p, s in zip(br.amplitude, br.p, br.slope))
    assert np.max(np.abs(markov.values - want)) < 1e-14 * np.max(np.abs(want))
    assert markov.phi_qq == (0.0, 0.0)


def test_markov_half_period_damping():
    """Harmonic motion brings the circle back onto itself at t = pi, so the
    markov sample is the quadratic one damped by the Phi(pi) = (pi/2) I widths."""
    curve = harmonic_circle(0.5, 1024)
    window = LwcWindow.canonical(0.3, HBAR)
    xi_q = np.linspace(-0.4, 0.4, 17)
    channel = dynamics.LindbladChannel((0.0, 1.0))
    t = math.pi
    markov = lwc_sc_markov(curve, hamiltonians.harmonic(), [channel], t, window, xi_q)
    quad = lwc_sc_markov(curve, hamiltonians.zero(), [], 0.0, window, xi_q)
    slope = abs(quad.branches.slope[0])
    phi_qq = 0.5 * math.pi * (slope**2 + 1.0)
    damp = np.exp(-phi_qq * xi_q**2 / (2.0 * HBAR))
    scale = np.max(np.abs(quad.values))
    assert np.max(np.abs(markov.values - quad.values * damp)) < 1e-6 * scale
    assert markov.phi_qq == pytest.approx((phi_qq, phi_qq), rel=1e-6)


@pytest.mark.parametrize("channels, t, Q", [
    ([dynamics.LindbladChannel((0.0, 1.0))], 1.0, 0.3),
    ([dynamics.LindbladChannel((0.0, 1.0), (1.0, 0.0)), dynamics.LindbladChannel((0.0, 1.0))],
     0.3, 0.2),
], ids=["q-channel", "damping+q"])
def test_spectrum_of_markov_sample_is_its_closed_form(channels, t, Q):
    """The branch lines A_j N(p_j, sigma_j^2) are the exact Fourier pair of
    the markov sum, so the numerical spectrum reproduces them."""
    curve = harmonic_circle(0.5, 1024)
    H = hamiltonians.harmonic()
    window = LwcWindow.canonical(Q, HBAR)
    probe = lwc_sc_markov(curve, H, channels, t, window, [0.0])
    var_min = min(HBAR * f + (window.delta * s) ** 2
                  for f, s in zip(probe.phi_qq, probe.branches.slope))
    xi_q = suggest_xi_q_grid(HBAR, envelope_sigma=HBAR / math.sqrt(var_min))
    sd = spectrum(lwc_sc_markov(curve, H, channels, t, window, xi_q))
    closed = sc_spectrum_closed_form(curve, H, channels, t, window, sd.p)
    assert len(closed.peaks) == 2
    top = float(np.max(closed.values))
    assert np.max(np.abs(sd.values - closed.values)) < 1e-10 * top


def test_shear_phi_qq():
    phi = np.array([[2.0, 0.5], [0.5, 3.0]])
    assert shear_phi_qq(phi, 0.0) == pytest.approx(3.0)
    assert shear_phi_qq(phi, 1.0) == pytest.approx(2.0 + 1.0 + 3.0)


def test_spectrum_of_coherent_sample():
    state = CoherentState((0.4, 0.3), HBAR)
    window = LwcWindow.canonical(0.25, HBAR)
    xi_q = suggest_xi_q_grid(HBAR)
    sample = LwcSample(xi_q, lwc_coherent_closed_form(state, window, xi_q), window)
    dens = spectrum(sample)
    # S(p) = B (pi hbar)^(-1/2) exp(-(p - eta_p)^2 / hbar)
    var = window.delta**2 + 0.5 * HBAR
    b = math.exp(-((window.Q - 0.3) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    want = b / math.sqrt(math.pi * HBAR) * np.exp(-((dens.p - 0.4) ** 2) / HBAR)
    assert np.max(np.abs(dens.values - want)) < 1e-10 * np.max(want)
    assert dens.imag_residue < 1e-10

    peaks = fit_peaks(dens.p, dens.values)
    dp = dens.p[1] - dens.p[0]
    assert len(peaks) == 1
    assert abs(peaks[0].position - 0.4) < dp
    assert peaks[0].variance == pytest.approx(0.5 * HBAR, rel=1e-6)


def test_spectrum_grid_validation():
    window = LwcWindow.canonical(0.0, HBAR)
    ok = suggest_xi_q_grid(HBAR, points=64)
    vals = np.exp(-10.0 * ok**2)
    spectrum(LwcSample(ok, vals, window))
    with pytest.raises(ValueError):
        spectrum(LwcSample(ok[:1], vals[:1], window))  # one point
    with pytest.raises(ValueError):
        spectrum(LwcSample(ok[:-1], vals[:-1], window))  # odd count
    with pytest.raises(ValueError):
        spectrum(LwcSample(ok + ok[-1], vals, window))  # not centred
    with pytest.raises(ValueError):
        spectrum(LwcSample(ok**3, vals, window))  # not uniform
    with pytest.raises(ValueError, match="increase in equal steps"):
        spectrum(LwcSample(-ok, vals, window))  # centred and uniform, but decreasing
    with pytest.raises(ValueError):
        spectrum(LwcSample(ok, vals, None))  # window-free needs hbar
    assert spectrum(LwcSample(ok, vals, None), hbar=HBAR).p.size == ok.size
    # a windowed sample carries its hbar: another one given beside it raises
    # (before, it was used and put every line at twice its momentum)
    with pytest.raises(ValueError, match="hbar = 0.1 differs from the window's 0.05"):
        spectrum(LwcSample(ok, vals, window), hbar=0.1)
    assert np.array_equal(spectrum(LwcSample(ok, vals, window), hbar=HBAR).values,
                          spectrum(LwcSample(ok, vals, window)).values)


def test_spectrum_truncation_warning():
    window = LwcWindow.canonical(0.0, HBAR)
    xi_q = suggest_xi_q_grid(HBAR, points=64)
    wide = np.exp(-(xi_q**2) / (50.0 * np.max(xi_q) ** 2))
    with pytest.warns(TruncationWarning) as rec:
        line = inspect.currentframe().f_lineno + 1
        dens = spectrum(LwcSample(xi_q, wide.astype(complex), window))
    assert any("not decayed" in msg for msg in dens.warnings)
    [edge] = [w for w in rec if "not decayed" in str(w.message)]
    assert (edge.filename, edge.lineno) == (__file__, line)  # the caller's line


def test_spectrum_of_non_hermitian_correlation_warns_once():
    """C(-xi) != conj C(xi) gives a complex S(p); the residue is reported
    once, in the shared wording."""
    window = LwcWindow.canonical(0.0, HBAR)
    xi_q = suggest_xi_q_grid(HBAR, points=64)
    vals = np.exp(-10.0 * xi_q**2) * (1.0 + 0.5 * xi_q)  # real and not even
    with pytest.warns(TruncationWarning, match="imaginary residue") as rec:
        dens = spectrum(LwcSample(xi_q, vals.astype(complex), window))
    notes = [m for m in dens.warnings if "imaginary residue" in m]
    assert len(rec) == 1 and len(notes) == 1
    assert notes[0] == f"spectrum imaginary residue {dens.imag_residue:.2e} above 1e-8"
    assert dens.imag_residue > 1e-3


@pytest.mark.parametrize("p_axis", [[0.9], [0.9, 0.9, 1.0], [0.0, math.nan, 1.0],
                                    [-math.inf, 0.0, 1.0], []],
                         ids=["one-point", "repeated-point", "nan", "inf", "empty"])
def test_lines_spectrum_rejects_degenerate_p_axis(p_axis):
    """Before, a one-point or repeated-point axis gave nan values and peaks
    of height inf, with numpy RuntimeWarnings only."""
    curve = harmonic_circle(0.5, 256)
    window = LwcWindow.canonical(0.3, HBAR)
    lines = _bare_branch_sum(curve, 0.3, [0.0]).lines
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="p_axis"):
            lines.spectrum(p_axis)
        with pytest.raises(ValueError, match="p_axis"):
            sc_spectrum_closed_form(curve, hamiltonians.zero(), [], 0.0, window, p_axis)


def test_fit_peaks_recovers_gaussians():
    p = np.linspace(-2.5, 2.5, 501)
    gauss = lambda a, mu, sig: a / math.sqrt(2 * math.pi * sig**2) * np.exp(
        -((p - mu) ** 2) / (2 * sig**2))
    vals = gauss(1.0, -1.0, 0.15) + gauss(0.6, 1.03, 0.21)
    peaks = fit_peaks(p, vals)
    assert len(peaks) == 2
    assert peaks[0].position == pytest.approx(-1.0, abs=1e-8)
    assert peaks[0].variance == pytest.approx(0.15**2, rel=1e-7)
    assert peaks[1].position == pytest.approx(1.03, abs=1e-8)
    assert peaks[1].variance == pytest.approx(0.21**2, rel=1e-7)
    assert peaks[0].height > peaks[1].height

    # a bump below the relative height floor is dropped
    vals2 = vals + gauss(1e-5, 2.3, 0.15)
    assert len(fit_peaks(p, vals2)) == 2
    assert len(fit_peaks(p, vals2, min_rel_height=1e-7)) == 3

    # a two-sample plateau (v[i] == v[i + 1]) is one peak, at its first sample
    (plateau,) = fit_peaks(np.arange(8.0), np.exp(-(np.arange(8.0) - 3.5) ** 2))
    assert plateau.index == 3 and not plateau.flagged
    assert plateau.position == pytest.approx(3.5, abs=1e-12)
    assert plateau.variance == pytest.approx(0.5, rel=1e-12)
    # the local-maximum rule written as a loop, on a coarse spectrum full of ties
    v = np.random.default_rng(6).integers(1, 5, 200).astype(float)
    want = [i for i in range(2, v.size - 2)
            if v[i] > v[i - 1] and v[i] >= v[i + 1] and v[i] >= 1e-3 * v.max()]
    assert sorted(pk.index for pk in fit_peaks(np.arange(200.0), v)) == want

    with pytest.raises(ValueError):
        fit_peaks(p[:4], vals[:4])
    with pytest.raises(ValueError, match="p_axis must increase in equal steps"):
        fit_peaks(p + 0.05 * np.sin(p), vals)  # increasing, not uniform
    with pytest.raises(ValueError, match="p_axis must increase in equal steps"):
        fit_peaks(np.full(p.size, 0.3), vals)  # a zero step
    with pytest.raises(ValueError, match="values must be finite"):
        fit_peaks(p, np.full(p.size, math.nan))


@pytest.mark.parametrize("height, match", [
    (math.nan, "min_rel_height must be finite, got nan"),
    (math.inf, "min_rel_height must be finite"),
    (-1.0, r"min_rel_height must be in \[0, 1\], got -1.0"),
    (1.5, r"must be in \[0, 1\]"),
])
def test_fit_peaks_rejects_a_height_floor_outside_0_1(height, match):
    """Before, nan and -1 kept a 1e-6 side peak the default floor drops."""
    p = np.linspace(-2.5, 2.5, 501)
    vals = np.exp(-(p + 1.0) ** 2 / 0.05) + 1e-6 * np.exp(-(p - 1.0) ** 2 / 0.05)
    assert len(fit_peaks(p, vals)) == 1
    assert len(fit_peaks(p, vals, 0.0)) == 2
    assert len(fit_peaks(p, vals, 1.0)) == 1
    with pytest.raises(ValueError, match=match):
        fit_peaks(p, vals, height)


def test_fit_peaks_flags_non_log_concave():
    p = np.arange(11.0)
    v = np.zeros(11)
    v[5] = 1.0
    v[4] = v[6] = 0.1
    peaks = fit_peaks(p, v)
    assert peaks[0].flagged and math.isnan(peaks[0].variance)
    assert peaks[0].position == 5.0
    # positive, but the log-parabola through the five samples opens upward
    peaks = fit_peaks(np.arange(7.0), np.exp([2.0, 2.0, 0.0, 1.0, 0.0, 2.0, 2.0]))
    assert len(peaks) == 1 and peaks[0].flagged and math.isnan(peaks[0].variance)
    assert peaks[0].position == 3.0


def test_resolution_verdict():
    two = [Peak(1.0, 1.0, 0.01), Peak(-1.0, 0.8, 0.04)]
    v = resolution_verdict(two)
    assert v.resolved and v.separation == pytest.approx(2.0)
    assert v.widths == pytest.approx((0.1, 0.2))
    assert not resolution_verdict([Peak(1.0, 1.0, 9.0), Peak(-1.0, 0.8, 0.04)]).resolved
    assert not resolution_verdict([Peak(1.0, 1.0, 0.01)]).resolved
    assert not resolution_verdict(
        [Peak(1.0, 1.0, math.nan), Peak(-1.0, 0.8, 0.04)]).resolved


def test_merged_peaks_are_unresolved():
    p = np.linspace(-6.0, 6.0, 401)
    vals = (np.exp(-((p - 1.0) ** 2) / (2 * 2.5**2))
            + np.exp(-((p + 1.0) ** 2) / (2 * 2.5**2)))
    peaks = fit_peaks(p, vals)
    assert len(peaks) == 1
    assert not resolution_verdict(peaks).resolved


def test_sample_c0_and_normalized():
    xi_q = np.linspace(-0.2, 0.2, 11)
    vals = (2.0 + 1.0j) * np.exp(-(xi_q**2))
    sample = LwcSample(xi_q, vals, None)
    assert sample.c0() == pytest.approx(2.0 + 1.0j)
    assert sample.normalized()[5] == pytest.approx(1.0)
    off = LwcSample(xi_q + 0.777, vals, None)
    with pytest.raises(ValueError):
        off.c0()
    # an empty grid names the missing 0 instead of numpy's empty argmin
    with pytest.raises(ValueError, match="xi_q grid does not contain 0"):
        LwcSample(np.zeros(0), np.zeros(0, dtype=complex), None).c0()
    with pytest.raises(ValueError):  # a window with no weight has nothing to divide by
        LwcSample(xi_q, np.zeros(11, dtype=complex), None).normalized()


def test_suggest_xi_q_grid():
    g = suggest_xi_q_grid(HBAR)
    assert g.size == 1024 and g[g.size // 2] == 0.0
    d = g[1] - g[0]
    assert np.allclose(np.diff(g), d)
    assert g[-1] >= math.sqrt(2 * HBAR) * math.sqrt(2 * math.log(1e12)) - d
    with pytest.raises(ValueError):
        suggest_xi_q_grid(HBAR, points=255)
    with pytest.raises(ValueError):
        suggest_xi_q_grid(HBAR, points=4)
    # an hbar or width that would give an all-zero, nan or descending axis
    for hbar, sigma, name in ((0.0, None, "hbar"), (math.nan, None, "hbar"),
                              (HBAR, -0.1, "envelope_sigma"), (HBAR, 0.0, "envelope_sigma"),
                              (HBAR, math.nan, "envelope_sigma")):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            suggest_xi_q_grid(hbar, sigma, points=64)


def test_lwc_from_chord_validation_and_warnings():
    state = CoherentState((0.0, 0.0), HBAR)
    window = LwcWindow.canonical(0.2, HBAR)
    fn = coherent_chord(state)
    with pytest.raises(ValueError):
        lwc_from_chord(fn, LwcWindow.canonical(0.0, 2 * HBAR), [0.0])

    grid = CenteredGrid(0.5, 0.5, 64, HBAR)
    cramped = coherent_chord(state).sample(grid)
    with pytest.warns(TruncationWarning):
        lwc_from_chord(cramped, window, [0.0])
    with pytest.raises(ValueError):
        big = coherent_chord(state).sample(CenteredGrid(3.0, 3.0, 256, HBAR))
        lwc_from_chord(big, window, [0.4321])  # off the xi_q nodes


def test_lwc_direct_validation():
    state = CoherentState((0.0, 0.0), HBAR)
    window = LwcWindow.canonical(0.0, HBAR)
    q_axis = np.linspace(-2.0, 2.0, 401)
    s_axis = np.linspace(-0.5, 0.5, 21)
    slices = coherent_position_slices(state, q_axis, s_axis)
    with pytest.raises(ValueError):
        lwc_direct(slices[:, :-1], q_axis, s_axis, window, [0.0])
    with pytest.raises(ValueError):
        lwc_direct(slices, q_axis, s_axis, window, [0.123456])  # off the s nodes
    narrow_q = np.linspace(-0.5, 0.5, 101)
    with pytest.raises(ValueError):
        lwc_direct(coherent_position_slices(state, narrow_q, s_axis),
                   narrow_q, s_axis, window, [0.0])
    # an increasing q_axis in unequal steps would be summed with the first step
    warped = q_axis + 0.3 * np.sin(0.5 * math.pi * q_axis)
    with pytest.raises(ValueError, match="q_axis must increase in equal steps"):
        lwc_direct(coherent_position_slices(state, warped, s_axis), warped, s_axis,
                   window, [0.0])


def test_lwc_direct_names_the_first_window_q_axis_does_not_cover():
    """Before, the coverage error named no window."""
    q_axis = np.linspace(-2.0, 2.0, 401)
    s_axis = np.linspace(-0.5, 0.5, 21)
    slices = coherent_position_slices(CoherentState((0.0, 0.0), HBAR), q_axis, s_axis)
    windows = [LwcWindow(0.0, 0.2, HBAR), LwcWindow(1.25, 0.25, HBAR), LwcWindow(-1.9, 0.2, HBAR)]
    with pytest.raises(ValueError, match=r"window at Q = 1\.25, delta = 0\.25 out to Q \+- 6"):
        lwc_direct(slices, q_axis, s_axis, windows, [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_lwc_direct_rejects_a_non_finite_slice(bad):
    """A nan or inf slice, in a table or in any block a function gives,
    raises.  Before, a nan slice silently gave nan values."""
    state = CoherentState((0.2, 0.1), HBAR)
    q_axis = np.linspace(-2.0, 2.0, 801)  # blocks of 128 s columns
    s_axis = np.linspace(-1.0, 1.0, 301)
    window = LwcWindow.canonical(0.1, HBAR)
    table = coherent_position_slices(state, q_axis, s_axis)
    table[400, 200] = bad  # in the second block, at a column no xi_q asks for
    with pytest.raises(ValueError, match="every rho slice must be finite"):
        lwc_direct(table, q_axis, s_axis, window, [0.0])

    def slices(s):
        block = coherent_position_slices(state, q_axis, s)
        block[:, s > 0.9] = bad  # only the last block holds s > 0.9
        return block

    with pytest.raises(ValueError, match="every rho slice must be finite"):
        lwc_direct(slices, q_axis, s_axis, [window, LwcWindow.canonical(-0.1, HBAR)], s_axis)


def test_lwc_direct_windows_and_forms_agree_bit_for_bit():
    """Each window of a many-window call is the one-window call on the same
    table and axis bit for bit, the function form reads the table form's
    values bit for bit, each of its blocks holds at most _BLOCK_CELLS
    slices, and no windows give [] without reading a slice."""
    state = CoherentState((0.3, 0.1), HBAR)
    q_axis = np.linspace(-3.0, 3.0, 1001)
    s_axis = np.linspace(-1.5, 1.5, 512)
    xi_q = s_axis[::-3]
    table = coherent_position_slices(state, q_axis, s_axis)
    windows = [LwcWindow.canonical(-0.4, HBAR), LwcWindow(0.1, 0.3, HBAR),
               LwcWindow.husimi_matched(0.35, HBAR)]
    blocks = []

    def slices(s):
        blocks.append(s.copy())
        return coherent_position_slices(state, q_axis, s)

    many = lwc_direct(table, q_axis, s_axis, windows, xi_q)
    streamed = lwc_direct(slices, q_axis, s_axis, windows, xi_q)
    assert np.array_equal(np.concatenate(blocks), s_axis)
    assert max(b.size for b in blocks) * q_axis.size <= lwc._BLOCK_CELLS
    assert len(blocks) > 1
    for w, sample, other in zip(windows, many, streamed, strict=True):
        one = lwc_direct(table, q_axis, s_axis, w, xi_q)
        assert isinstance(one, LwcSample) and one.window == sample.window == w
        assert np.array_equal(sample.values, one.values)
        assert np.array_equal(other.values, one.values)
        assert np.array_equal(sample.xi_q, xi_q)
    blocks.clear()
    assert lwc_direct(table, q_axis, s_axis, [], xi_q) == []
    assert lwc_direct(slices, q_axis, s_axis, (), xi_q) == [] and blocks == []


def test_lwc_direct_checks_the_blocks_a_function_gives():
    q_axis = np.linspace(-2.0, 2.0, 401)
    s_axis = np.linspace(-0.5, 0.5, 21)
    with pytest.raises(ValueError, match=r"a table of shape \(401, 20\) for 21 s columns"):
        lwc_direct(lambda s: np.zeros((q_axis.size, s.size - 1)), q_axis, s_axis,
                   LwcWindow.canonical(0.0, HBAR), [0.0])


def test_lwc_direct_reads_the_nearest_node_of_any_s_axis():
    """Each xi_q is looked up on the sorted s_axis: a non-uniform axis and a
    decreasing one give the columns of the nodes they hold.  Before, a
    lookup that assumed a uniform increasing axis rejected xi_q = 1.1 on
    [0, 1, 1.1] and every node of a decreasing axis."""
    state = CoherentState((0.2, 0.1), HBAR)
    window = LwcWindow.canonical(0.1, HBAR)
    q_axis = np.linspace(-2.0, 2.0, 401)
    for s_axis in (np.array([0.0, 1.0, 1.1]), np.linspace(0.5, -0.5, 21)):
        slices = coherent_position_slices(state, q_axis, s_axis)
        for k in range(s_axis.size):
            got = lwc_direct(slices, q_axis, s_axis, window, [s_axis[k]])
            want = lwc_direct(slices[:, k:k + 1], q_axis, s_axis[k:k + 1], window,
                              [s_axis[k]])
            assert got.values == pytest.approx(want.values, rel=1e-13)
        mixed = lwc_direct(slices, q_axis, s_axis, window, s_axis[::-1])
        assert np.array_equal(mixed.values, lwc_direct(slices, q_axis, s_axis, window,
                                                       s_axis).values[::-1])
    # off the nodes: 1.05 lies midway in the 0.1 gap, 1.1 + 1e-5 is 1e-4 gaps out
    s_axis = np.array([0.0, 1.0, 1.1])
    slices = coherent_position_slices(state, q_axis, s_axis)
    for xi in (1.05, 1.1 + 1e-5, -0.5):
        with pytest.raises(ValueError, match="every xi_q must coincide with an s_axis node"):
            lwc_direct(slices, q_axis, s_axis, window, [xi])
    with pytest.raises(ValueError, match="every xi_q must be finite"):
        lwc_direct(slices, q_axis, s_axis, window, [math.nan])
    lwc_direct(slices, q_axis, s_axis, window, [1.1 + 1e-8])  # within 1e-6 of the 0.1 gap


def _xi_q_route(route):
    """One lwc route of a coherent state or a ring: xi_q to C(xi_q)."""
    state = CoherentState((0.2, 0.1), HBAR)
    window = LwcWindow.canonical(0.1, HBAR)
    curve = harmonic_circle(0.5, 256)
    if route == "closed-form":
        return lambda xi_q: lwc_coherent_closed_form(state, window, xi_q)
    if route == "chord-terms":
        return lambda xi_q: lwc_from_chord(coherent_chord(state), window, xi_q).values
    if route == "chord-grid":
        chi = coherent_chord(state).sample(CenteredGrid(3.2, 3.2, 64, HBAR))  # step 0.1
        return lambda xi_q: lwc_from_chord(chi, window, xi_q).values
    if route == "direct":
        q_axis, s_axis = np.linspace(-2.0, 2.0, 401), np.array([0.0, 0.1])
        slices = coherent_position_slices(state, q_axis, s_axis)
        return lambda xi_q: lwc_direct(slices, q_axis, s_axis, window, xi_q).values
    if route == "sc-markov":
        return lambda xi_q: lwc_sc_markov(curve, hamiltonians.zero(), [], 0.0, window,
                                          xi_q).values
    return lambda xi_q: _bare_branch_sum(curve, 0.1, xi_q).values


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("route", ["closed-form", "chord-terms", "chord-grid", "direct",
                                   "sc-markov", "branch-lines"])
def test_every_route_rejects_a_non_finite_xi_q(route, bad):
    """Every lwc route reads xi_q through one reader, which names a nan or inf
    chord.  Before, the closed form, the term route and every sample of lines
    returned nan for it, and the grid route and lwc_direct raised their own
    node messages."""
    correlation = _xi_q_route(route)
    assert np.all(np.isfinite(correlation([0.0, 0.1])))
    with pytest.raises(ValueError, match="every xi_q must be finite"):
        correlation([0.0, bad])


def test_lwc_direct_rejects_an_empty_s_axis():
    """An empty s_axis (with its (len(q_axis), 0) table) is named, not an
    IndexError from the nearest-node lookup."""
    q_axis = np.linspace(-2.0, 2.0, 401)
    with pytest.raises(ValueError, match="need a nonempty s_axis"):
        lwc_direct(np.zeros((q_axis.size, 0)), q_axis, np.zeros(0),
                   LwcWindow.canonical(0.0, HBAR), [0.0])


def test_lwc_from_chord_rejects_a_window_of_another_hbar():
    chi = coherent_chord(CoherentState((0.3, 0.0), HBAR))
    with pytest.raises(ValueError, match="hbar = 0.1 differs from the chord function's 0.05"):
        lwc_from_chord(chi, LwcWindow.canonical(0.0, 2 * HBAR), [0.0])


def test_lines_sample_rejects_a_window_of_another_hbar():
    """Before, lines at hbar 0.05 sampled for a window at 0.1 gave a sample
    whose spectrum built its p axis at 0.1, silently."""
    [lines] = branch_lines(harmonic_circle(0.5, 256), [0.1], HBAR, 0.0, hamiltonians.zero(), (),
                           0.0)
    with pytest.raises(ValueError, match="hbar = 0.1 differs from the lines's 0.05"):
        lines.sample([0.0], LwcWindow.canonical(0.1, 2 * HBAR))
    assert lines.sample([0.0], LwcWindow.canonical(0.1, HBAR)).window.hbar == HBAR


@pytest.mark.parametrize("xi_q, values", [
    (np.linspace(-1.0, 1.0, 8), np.ones(10, dtype=complex)),
    (np.zeros((2, 4)), np.ones((2, 4), dtype=complex)),
    (0.0, np.ones((), dtype=complex)),
], ids=["values-longer", "xi_q-2d", "xi_q-scalar"])
def test_lwc_sample_checks_its_shape(xi_q, values):
    """Before, 8 chords with 10 values gave a spectrum of 8 momenta over 10
    values, and a 2-D xi_q failed later in c0() with numpy's TypeError."""
    with pytest.raises(ValueError, match="xi_q must be 1-D and values of its shape"):
        LwcSample(xi_q, values, LwcWindow.canonical(0.0, HBAR))
    empty = LwcSample(np.zeros(0), np.zeros(0, dtype=complex), None)
    assert empty.values.shape == (0,)


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.1])
def test_branch_pass_rejects_a_bad_time(t):
    """A nan, infinite or negative time raises instead of giving the t = 0 lines."""
    curve = harmonic_circle(0.5, 256)
    window = LwcWindow.canonical(0.1, HBAR)
    channels = [dynamics.LindbladChannel((0.0, 0.5))]
    H = hamiltonians.harmonic()
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        lwc_sc_markov(curve, H, channels, t, window, [0.0, 0.1])
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        sc_spectrum_closed_form(curve, H, channels, t, window, np.linspace(-1.0, 1.0, 11))


def test_branch_notes():
    curve = harmonic_circle(0.5, 1024)
    with pytest.warns(ConvergenceWarning):
        empty = _bare_branch_sum(curve, 1.5, np.array([0.0]))
    assert np.allclose(empty.values, 0.0)
    assert any("no real branches" in msg for msg in empty.warnings)
    with pytest.warns(ConvergenceWarning):
        near = _bare_branch_sum(curve, 0.99, np.array([0.0]))
    assert any("caustic" in msg for msg in near.warnings)
    assert np.allclose(near.values, 0.0)  # both branches excluded


@pytest.mark.parametrize("family", ["quartic", "pendulum"])
@pytest.mark.parametrize("dt", [1e-2, 0.25], ids=["fine", "coarse"])
def test_branch_pass_matches_per_branch_decoherence_matrices(family, dt):
    """One Dormand-Prince pass over every live branch gives each branch's Phi
    bit for bit, and (at the coarse step) the same error-estimate warnings in
    branch order."""
    if family == "quartic":
        curve, H = quartic_level_curve(0.3, samples=128), hamiltonians.quartic()
    else:
        curve, H = pendulum_level_curve(-0.6, samples=128), hamiltonians.pendulum()
    channels = [dynamics.LindbladChannel((0.0, 0.8))]
    t, Q = 1.0, 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        [lines] = branch_lines(curve, [Q], HBAR, 0.2, H, channels, t, dt)
        br, phi_qq, notes = lines.branches, lines.phi_qq, lines.warnings
        want, want_notes = [], []
        for j in np.flatnonzero(~br.caustic):
            dm = dynamics.decoherence_matrix(H, channels, np.array([br.p[j], Q]), t, dt=dt)
            want.append(shear_phi_qq(dm.phi, br.slope[j]))
            want_notes.extend(dm.warnings)
    assert len(want) == 2
    assert [phi_qq[j] for j in np.flatnonzero(~br.caustic)] == want
    assert notes == want_notes
    assert len(notes) == (2 if dt == 0.25 else 0)


def test_each_window_keeps_its_own_halving_notes(monkeypatch):
    """One anchor pass serves two windows at a coarse step; each record keeps
    the notes of its own branches, as a single-window call on a fresh copy of
    the curve gives them, and the notes print the errors the pass measured."""
    curve, H = quartic_level_curve(0.3, samples=128), hamiltonians.quartic()
    channels = [dynamics.LindbladChannel((0.0, 0.8))]
    t, dt, qs = 1.0, 0.25, [-0.3, 0.2]
    errs = []
    real = dynamics._flow

    def recording(H, channels, x, t, dt, phi=None):
        out = real(H, channels, x, t, dt, phi)
        if phi is not None:  # the anchor pass, not the curve's centre flow
            errs.append(out[2])
        return out

    monkeypatch.setattr(dynamics, "_flow", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        lines = branch_lines(curve, qs, HBAR, 0.2, H, channels, t, dt)
        assert len(errs) == 1 and errs[0].shape == (4,)  # two live branches a window
        want = [lwc_sc_markov(_fresh(curve), H, channels, t, LwcWindow(Q, 0.2, HBAR), [0.0],
                              dt=dt).warnings for Q in qs]
    assert [record.warnings for record in lines] == want
    assert [len(notes) for notes in want] == [2, 2]
    assert want[0] + want[1] == [f"the step's error estimate for Phi is {e:.3e} (> 1e-8); "
                                 "reduce dt" for e in errs[0]]


def test_branch_lines_of_no_windows_is_empty():
    """No window centres give no records.  Before, the anchor pass raised
    numpy's "need at least one array to concatenate".  The inputs are still
    checked."""
    curve = harmonic_circle(0.5, 256)
    channels = [dynamics.LindbladChannel((0.0, 1.0))]
    assert branch_lines(curve, [], HBAR, 0.2, hamiltonians.zero(), (), 0.0) == []
    assert branch_lines(curve, np.zeros(0), HBAR, 0.2, hamiltonians.harmonic(), channels,
                        0.5) == []
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        branch_lines(curve, [], -HBAR, 0.2, hamiltonians.zero(), (), 0.0)
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        branch_lines(curve, [], HBAR, 0.2, hamiltonians.harmonic(), channels, math.nan)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -0.2])
def test_branch_lines_checks_the_window_width(delta):
    """Before, a nan or infinite width gave nan or inf line variances and a
    negative one read as its absolute value.  A width of 0 is the bare sum
    of the sc-berry route: every line variance is 0 at t = 0."""
    curve = harmonic_circle(0.5, 256)
    with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
        branch_lines(curve, [0.3], HBAR, delta, hamiltonians.zero(), (), 0.0)
    [bare] = branch_lines(curve, [0.3], HBAR, 0.0, hamiltonians.zero(), (), 0.0)
    assert bare.variance.size == 2 and not np.any(bare.variance)


@pytest.mark.parametrize("qs", [0.3, [[0.1, 0.2]]], ids=["scalar", "2d"])
def test_branch_lines_reads_qs_as_a_1d_array(qs):
    """Before, a scalar raised "'float' object is not iterable" and a 2-D
    array a broadcasting error from inside the spline."""
    with pytest.raises(ValueError, match=r"qs must be a 1-D sequence of window centres, "
                                         r"got shape \("):
        branch_lines(harmonic_circle(0.5, 256), qs, HBAR, 0.2, hamiltonians.zero(), (), 0.0)


def _fresh(curve):
    """The same samples as a new curve, which keeps nothing of earlier calls."""
    return LagrangianCurve(curve.theta, curve.points, curve.action)


def _bits(result):
    """A branch-sum sample or spectrum as bytes and text: its values and
    notes, a spectrum's axis and peaks, a sample's lines, Phi_qq and
    branches."""
    out = [result.values.tobytes(), list(result.warnings)]
    if isinstance(result, lwc.SpectralDensity):
        return out + [result.p.tobytes(), result.peaks]
    lines, br = result.lines, result.branches
    return out + [a.tobytes() for a in (lines.amplitude, lines.p, lines.variance,
                                        np.array(result.phi_qq), br.theta, br.p,
                                        br.amplitude, br.slope, br.caustic)] + [br.Q.hex()]


def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))


@pytest.mark.parametrize("family", ["ring", "quartic", "pendulum"])
def test_one_window_wrappers_share_one_flow_per_curve(family, monkeypatch):
    """Two windows x (lwc_sc_markov, sc_spectrum_closed_form), as the sweep
    benchmark and acceptance criteria 5 and 6 call them, advect the curve
    once and run one anchor flow a window; each result equals the same call
    on a fresh copy of the curve bit for bit, notes, Phi_qq and branches
    included."""
    curve, H, t, window = _window_case(family)
    channels = [dynamics.LindbladChannel((0.0, 1.0))]
    windows = [window, LwcWindow.canonical(-0.2, HBAR)]
    xi_q, p = suggest_xi_q_grid(HBAR, points=64), np.linspace(-2.0, 2.0, 801)
    advected, flows = [], []
    _spy(monkeypatch, dynamics, "advect", advected)
    _spy(monkeypatch, dynamics, "_flow", flows)
    calls = [(f, w, arg) for w in windows
             for f, arg in ((lwc_sc_markov, xi_q), (sc_spectrum_closed_form, p))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = [_bits(f(curve, H, channels, t, w, arg)) for f, w, arg in calls]
        assert len(advected) == 1 and len(flows) == 3  # the curve's flow, one anchor flow a window
        want = [_bits(f(_fresh(curve), H, channels, t, w, arg)) for f, w, arg in calls]
    assert got == want
    assert len(advected) == 5


_MISSES = {  # one argument of the second call changed: (edit, image reused, result moves)
    "model": (lambda a: dict(a, H=hamiltonians.quartic()), False, False),
    "channel": (lambda a: dict(a, channels=[dynamics.LindbladChannel((0.0, 0.8))]), False,
                False),
    "t": (lambda a: dict(a, t=0.11), False, True),
    "dt": (lambda a: dict(a, dt=1e-2), False, True),
    "hbar": (lambda a: dict(a, window=LwcWindow.canonical(0.0, 0.04)), True, True),
    "negative-zero": (lambda a: dict(a, window=LwcWindow(-0.0, 0.2, HBAR)), True, True),
}


@pytest.mark.parametrize("change", list(_MISSES))
def test_another_flow_or_window_is_solved_afresh(change, monkeypatch):
    """Another model object of the same family, another channel object,
    another t or step rule (dt = 1e-2 after the PER_ROW default, 1e-2 as a
    float) evolves the curve again; another hbar or a window at -0.0 after
    0.0 reuses the image but solves its branches again.  A repeat is solved
    from the wrappers' record of their last call, and each result equals the
    call on a fresh copy of the curve bit for bit (which the record forgets
    the first curve for, so the repeat runs first)."""
    curve = quartic_level_curve(0.3, samples=256)
    first = dict(H=hamiltonians.quartic(), channels=[dynamics.LindbladChannel((0.0, 0.8))],
                 t=0.1, window=LwcWindow(0.0, 0.2, HBAR))
    edit, image_kept, moves = _MISSES[change]
    second = edit(first)
    advected, solved = [], []
    _spy(monkeypatch, dynamics, "advect", advected)
    _spy(monkeypatch, lwc, "branches_at", solved)

    def call(c, a):
        return _bits(lwc_sc_markov(c, a["H"], a["channels"], a["t"], a["window"], [0.0, 0.1],
                                   a.get("dt", dynamics.PER_ROW)))

    before = call(curve, first)
    got = call(curve, second)
    assert (len(advected), len(solved)) == ((1 if image_kept else 2), 2)
    assert (got != before) == moves  # where it moves, a reused result would have been wrong
    counts = len(advected), len(solved)
    assert call(curve, second) == got and (len(advected), len(solved)) == counts
    assert got == call(_fresh(curve), second)


def test_a_reused_flow_warns_every_note_at_the_callers_line(monkeypatch):
    """A repeat of a one-window call runs no flow of its own, and warns the
    notes of the first (step-error, caustic or no-branch), in the same order,
    at the calling line."""
    curve, H = quartic_level_curve(0.3, samples=128), hamiltonians.quartic()
    channels = [dynamics.LindbladChannel((0.0, 0.8))]
    flows, messages = [], []
    _spy(monkeypatch, dynamics, "_flow", flows)
    for Q, count in ((0.2, 2), (1.04, 1), (2.0, 1)):
        window = LwcWindow(Q, 0.2, HBAR)
        call = lambda: lwc_sc_markov(curve, H, channels, 1.0, window, [0.0], 0.25)  # noqa: E731
        runs = []
        for k in range(2):
            ran = len(flows)
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                assert len(call().warnings) == count
            runs.append([(w.category, str(w.message), w.filename, w.lineno) for w in rec])
        assert len(flows) == ran and runs[0] == runs[1] and len(runs[0]) == count
        assert {(c, f, n) for c, _, f, n in runs[1]} == {
            (ConvergenceWarning, __file__, call.__code__.co_firstlineno)}
        messages += [m for _, m, _, _ in runs[1]]
    assert messages[2:] == ["excluded 2 caustic branch(es) at Q = 1.04; 0 kept",
                            "no real branches at Q = 2 (evanescent region)"]


def test_a_curve_pickles_and_copies_without_its_flow():
    """What branch_lines keeps holds the model, whose functions need not
    pickle: a pickled or copied curve leaves it behind, and gives the same
    bits."""
    curve, H, t, window = _window_case("quartic")
    channels = [dynamics.LindbladChannel((0.0, 1.0))]
    want = _bits(lwc_sc_markov(curve, H, channels, t, window, [0.0, 0.1]))
    for other in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve), copy.copy(curve)):
        assert np.array_equal(other.points, curve.points) and other.action == curve.action
        assert _bits(lwc_sc_markov(other, H, channels, t, window, [0.0, 0.1])) == want


def test_a_curve_keeps_one_image_over_a_scan_of_t(monkeypatch):
    """Each new t replaces what the curve keeps: after 50 times only the last
    image is alive."""
    images = []
    real = lwc.evolve_curve_classically

    def keep(*args):
        image = real(*args)
        images.append(weakref.ref(image))
        return image

    monkeypatch.setattr(lwc, "evolve_curve_classically", keep)
    curve, window = harmonic_circle(0.5, 256), LwcWindow.canonical(0.3, HBAR)
    H, channels = hamiltonians.harmonic(), [dynamics.LindbladChannel((0.0, 1.0))]
    for t in np.linspace(0.01, 0.5, 50):
        lwc_sc_markov(curve, H, channels, t, window, [0.0])
    gc.collect()
    assert [ref() is not None for ref in images] == [False] * 49 + [True]


@pytest.mark.parametrize("family", ["ring", "quartic", "pendulum"])
def test_each_window_of_branch_lines_is_the_one_window_call(family):
    """One branch_lines call over three windows (one evolution, one anchor
    pass) gives each window what lwc_sc_markov (values, warnings) and
    sc_spectrum_closed_form (values, peaks) give for it alone on a fresh copy
    of the curve, bit for bit."""
    curve, H, t, window = _window_case(family)
    channels = [dynamics.LindbladChannel((0.0, 1.0))]
    qs = [window.Q, -0.2, 0.0]
    xi_q = suggest_xi_q_grid(HBAR, points=64)
    p = np.linspace(-2.0, 2.0, 801)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lines = branch_lines(curve, qs, HBAR, window.delta, H, channels, t)
        assert len(lines) == len(qs)
        for Q, record in zip(qs, lines):
            one = LwcWindow(Q, window.delta, HBAR)
            got = record.sample(xi_q, one)
            want = lwc_sc_markov(_fresh(curve), H, channels, t, one, xi_q)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.warnings == want.warnings
            got_sd = record.spectrum(p)
            want_sd = sc_spectrum_closed_form(_fresh(curve), H, channels, t, one, p)
            assert got_sd.values.tobytes() == want_sd.values.tobytes()
            assert got_sd.peaks == want_sd.peaks and len(got_sd.peaks) == 2


def test_branch_lines_keeps_nothing_on_the_curve():
    """The branch pass and the one-window wrappers leave a curve holding its
    samples and spline fits alone, with or without a flow."""
    curve = quartic_level_curve(0.3, samples=256)
    H, channels = hamiltonians.quartic(), [dynamics.LindbladChannel((0.0, 0.8))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in (0.0, 0.1):
            branch_lines(curve, [0.1, -0.2, 0.1], HBAR, 0.2, H, channels, t)
            lwc_sc_markov(curve, H, channels, t, LwcWindow.canonical(0.1, HBAR), [0.0])
    assert set(curve.__dict__) == {"theta", "points", "action", "_q_spline", "_splines"}


@pytest.mark.parametrize("wrapper", [lwc_sc_markov, sc_spectrum_closed_form],
                         ids=["sample", "spectrum"])
def test_a_repeated_wrapper_call_solves_nothing(wrapper, monkeypatch):
    """A repeat of a wrapper's last call runs no advect, anchor flow or
    branch solve, gives the same bits and warns its notes again at the
    calling line."""
    curve, H = quartic_level_curve(0.3, samples=128), hamiltonians.quartic()
    channels, window = [dynamics.LindbladChannel((0.0, 0.8))], LwcWindow(0.2, 0.2, HBAR)
    arg = [0.0, 0.1] if wrapper is lwc_sc_markov else np.linspace(-2.0, 2.0, 401)
    call = lambda: wrapper(curve, H, channels, 1.0, window, arg, 0.25)  # noqa: E731
    runs, work = [], []
    for k in range(2):
        if k:
            _spy(monkeypatch, dynamics, "advect", work)
            _spy(monkeypatch, dynamics, "_flow", work)
            _spy(monkeypatch, lwc, "branches_at", work)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            got = _bits(call())
        runs.append((got, [(w.category, str(w.message), w.filename, w.lineno) for w in rec]))
    assert work == [] and runs[0] == runs[1]
    assert [c for c, _, _, _ in runs[1][1]].count(ConvergenceWarning) == 2  # the step notes
    assert {(f, n) for _, _, f, n in runs[1][1]} == {(__file__, call.__code__.co_firstlineno)}


@pytest.mark.parametrize("change", [*_MISSES, "width"])
def test_the_spectrum_wrapper_after_another_sample_call_is_a_fresh_call(change):
    """sc_spectrum_closed_form right after lwc_sc_markov with one argument
    changed (the model or a channel object, t, the step rule, hbar, a -0.0
    window or the window width) equals its call on a fresh copy of the curve
    bit for bit."""
    curve = quartic_level_curve(0.3, samples=256)
    first = dict(H=hamiltonians.quartic(), channels=[dynamics.LindbladChannel((0.0, 0.8))],
                 t=0.1, window=LwcWindow(0.0, 0.2, HBAR))
    second = (dict(first, window=LwcWindow(0.0, 0.3, HBAR)) if change == "width"
              else _MISSES[change][0](first))
    p = np.linspace(-2.0, 2.0, 401)

    def call(f, c, a, arg):
        return _bits(f(c, a["H"], a["channels"], a["t"], a["window"], arg,
                       a.get("dt", dynamics.PER_ROW)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        call(lwc_sc_markov, curve, first, [0.0, 0.1])
        got = call(sc_spectrum_closed_form, curve, second, p)
        assert got == call(sc_spectrum_closed_form, _fresh(curve), second, p)


def test_a_changed_result_cannot_change_the_next_repeat():
    """Every array and list a wrapper hands back is its own: zeroing a
    sample's values and lines, and editing its notes and a spectrum's,
    leaves the next repeat of either wrapper as it was."""
    curve, H = quartic_level_curve(0.3, samples=128), hamiltonians.quartic()
    channels, window = [dynamics.LindbladChannel((0.0, 0.8))], LwcWindow(0.2, 0.2, HBAR)
    p = np.linspace(-2.0, 2.0, 401)
    calls = ((lwc_sc_markov, [0.0, 0.1]), (sc_spectrum_closed_form, p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sample, dens = (f(curve, H, channels, 1.0, window, arg, 0.25) for f, arg in calls)
        want = [_bits(sample), _bits(dens)]
        lines = sample.lines
        for values in (sample.values, lines.amplitude, lines.p, lines.variance, dens.values):
            values[:] = 0.0
        sample.warnings.append("edited")
        dens.warnings.clear()
        assert [_bits(f(curve, H, channels, 1.0, window, arg, 0.25))
                for f, arg in calls] == want


def _window_case(family):
    if family == "ring":
        return (harmonic_circle(0.5, 512), hamiltonians.harmonic(), 0.65,
                LwcWindow.canonical(0.3, HBAR))
    if family == "quartic":
        return (quartic_level_curve(0.3, samples=512), hamiltonians.quartic(), 0.1,
                LwcWindow.canonical(0.1, HBAR))
    return (pendulum_level_curve(-0.6, samples=512), hamiltonians.pendulum(), 0.1,
            LwcWindow.canonical(0.05, HBAR))


@pytest.mark.parametrize("family", ["ring", "quartic", "pendulum"])
def test_sample_lines_spectrum_is_the_closed_form(family):
    """The lines a markov sample keeps give sc_spectrum_closed_form bit for
    bit (values, peaks and warnings), on a fine axis and on one coarse
    enough to floor every line."""
    curve, H, t, window = _window_case(family)
    channels = [dynamics.LindbladChannel((0.0, 1.0))]
    sample = lwc_sc_markov(curve, H, channels, t, window, [0.0])
    assert isinstance(sample.lines, lwc.Lines)
    assert sample.branches is sample.lines.branches
    assert sample.phi_qq is sample.lines.phi_qq
    for p in (np.linspace(-2.0, 2.0, 801), np.linspace(-2.0, 2.0, 5)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            got = sample.lines.spectrum(p)
            want = sc_spectrum_closed_form(curve, H, channels, t, window, p)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.peaks == want.peaks and len(got.peaks) == 2
        assert got.warnings == want.warnings


def test_lines_spectrum_notes_a_record_s_floored_lines_once():
    """Every line of a WKB term sample at t = 0 has variance 0 and is floored:
    one note names the count and the first line's p, and each line keeps its
    own flagged peak."""
    sample = lwc_from_chord(wkb_chord(harmonic_circle(0.5, 2048), HBAR),
                            LwcWindow.canonical(0.3, HBAR), [0.0])
    assert sample.warnings == []
    with pytest.warns(TruncationWarning) as rec:
        dens = sample.lines.spectrum(np.linspace(-2.0, 2.0, 801))
    assert len(rec) == 1
    assert len(dens.peaks) == 2048 and all(pk.flagged for pk in dens.peaks)
    assert dens.warnings == [
        f"2048 spectral peak(s) narrower than the p axis spacing, the first at "
        f"p = {sample.lines.p[0]:g}; widths floored to one bin"]


def test_lines_spectrum_reads_the_spacing_of_a_permuted_axis():
    """A permuted p axis gives the permuted values bit for bit, with the same
    peaks and flags.  Before, the floor spacing was the smallest step between
    consecutive entries: a line of variance 0.5 was floored to 98.01 and
    flagged on [0, 10, 0.1, 10.1], and kept at 0.5 on [0, 0.1, 10, 10.1]."""
    lines = lwc.Lines(np.array([1.0, 0.5]), np.array([0.05, 10.0]), np.array([0.5, 1e-4]),
                      HBAR, [])
    axis, order = np.array([0.0, 0.1, 10.0, 10.1]), np.array([0, 2, 1, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 1e-4 line is floored on either axis
        want, got = lines.spectrum(axis), lines.spectrum(axis[order])
    assert got.values.tobytes() == want.values[order].tobytes()
    assert got.peaks == want.peaks and got.warnings == want.warnings
    assert [(pk.variance, pk.flagged) for pk in got.peaks] == [
        (pytest.approx(0.01, rel=1e-12), True), (0.5, False)]


def test_lines_spectrum_copies_warnings_and_reuses_the_branch_pass(monkeypatch):
    """lwc_sc_markov then lines.spectrum finds the branches once; spectrum
    hands back a fresh warning list and leaves the record's own alone."""
    calls = []
    real = lwc.branches_at
    monkeypatch.setattr(lwc, "branches_at", lambda *a: calls.append(a) or real(*a))
    curve, H, t, window = _window_case("pendulum")
    channels = [dynamics.LindbladChannel((0.0, 0.8))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sample = lwc_sc_markov(curve, H, channels, t, window, [0.0], dt=0.1)
        before = list(sample.lines.warnings)
        coarse = np.linspace(-2.0, 2.0, 5)
        first, second = sample.lines.spectrum(coarse), sample.lines.spectrum(coarse)
    assert len(calls) == 1
    assert len(before) == 2  # the coarse step's error-estimate notes
    assert sample.lines.warnings == before and sample.warnings == before
    assert first.warnings == second.warnings
    assert first.warnings[:2] == before and len(first.warnings) == 3  # one note, two floored lines
    assert first.warnings is not sample.lines.warnings

    plain = LwcSample(np.zeros(1), np.ones(1, dtype=complex), window, [])
    assert plain.lines is None and plain.branches is None and plain.phi_qq == ()


def test_chord_function_warnings_reach_the_lwc_sample():
    """lwc_from_chord starts from a copy of chi's warnings, for a term-sum chi
    and its grid sample; the grid route appends its own after them."""
    channels = [dynamics.LindbladChannel((0.0, 1.0))]
    with pytest.warns(ConvergenceWarning, match="sample count moves chi by 3.0"):
        chi = dynamics.evolve_chord_function(harmonic_circle(0.5, 16), hamiltonians.harmonic(),
                                             channels, 0.3, hbar=HBAR)
    assert len(chi.warnings) == 1
    window = LwcWindow.canonical(0.2, HBAR)
    for source in (chi, chi.sample(CenteredGrid(3.0, 3.0, 64, HBAR))):
        assert lwc_from_chord(source, window, [0.0]).warnings == chi.warnings
    with pytest.warns(TruncationWarning, match="widen"):
        sample = lwc_from_chord(chi.sample(CenteredGrid(0.3, 0.3, 16, HBAR)), window, [0.0])
    assert sample.warnings[:1] == chi.warnings and len(sample.warnings) == 2
    assert len(chi.warnings) == 1


def _term_sources():
    """Transported chord functions that keep their terms, one per source kind:
    a coherent Wigner grid (harmonic, damped; one shared Phi), a circle
    (harmonic, q-channel) and quartic and pendulum level curves (one Phi per
    sample), each at t = 0.1."""
    q_channel = dynamics.LindbladChannel((0.0, 1.0))
    damping = dynamics.LindbladChannel((0.0, 0.7), (0.7, 0.0))
    grid = CenteredGrid(1.9, 1.9, 64, HBAR)
    pp, qq = grid.meshgrid()
    cases = [((coherent_wigner(CoherentState((0.3, -0.2), HBAR), pp, qq), grid),
              hamiltonians.harmonic(), damping),
             (harmonic_circle(0.5, 320), hamiltonians.harmonic(), q_channel),
             (quartic_level_curve(0.3, samples=320), hamiltonians.quartic(), q_channel),
             (pendulum_level_curve(-0.6, samples=320), hamiltonians.pendulum(), damping)]
    return [dynamics.evolve_chord_function(src, H, [ch], 0.1, hbar=HBAR)
            for src, H, ch in cases]


def test_term_route_matches_simpson_on_every_transport_source():
    """A term sum integrates exactly, one Gaussian line per term.  It matches
    Simpson on chi at 4,097 nodes (measured 1.3e-13 of max, which is
    Simpson's own change from 1,025 to 4,097 nodes), and every line variance
    is nonnegative."""
    xi_q = 0.04 * (np.arange(8) - 4)
    for chi in _term_sources():
        assert chi.warnings == []
        # the canonical windows share one width, so one table of chi serves all three
        table = _simpson_table(chi, LwcWindow.canonical(0.0, HBAR), xi_q, 4097)
        for Q in (0.0, 0.3, -0.3):
            window = LwcWindow.canonical(Q, HBAR)
            got = lwc_from_chord(chi, window, xi_q)
            want = _simpson_sum(*table, window)
            assert got.warnings == []
            assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.all(lwc._term_lines(chi.terms, window, []).variance >= 0.0)


def test_term_route_matches_the_moved_coherent_state():
    """Damping moves a coherent state to exp(-t) R(t) eta and keeps it
    coherent, so the transported Wigner grid's correlation is the closed form
    of the moved state (measured 8.3e-16 of max)."""
    state = CoherentState((0.3, -0.2), HBAR)
    grid = CenteredGrid(0.3 + 8.0 * math.sqrt(HBAR), 0.3 + 8.0 * math.sqrt(HBAR), 128, HBAR)
    pp, qq = grid.meshgrid()
    t = 0.3
    chi = dynamics.evolve_chord_function((coherent_wigner(state, pp, qq), grid),
                                         hamiltonians.harmonic(),
                                         [dynamics.LindbladChannel((0.0, 1.0), (1.0, 0.0))], t)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    moved = CoherentState(tuple(math.exp(-t) * rot @ np.array(state.eta)), HBAR)
    xi_q = suggest_xi_q_grid(HBAR, points=256)
    for Q in (0.0, 0.25, -0.3):
        window = LwcWindow.canonical(Q, HBAR)
        want = lwc_coherent_closed_form(moved, window, xi_q)
        got = lwc_from_chord(chi, window, xi_q).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_term_route_memory_is_bounded():
    """The line sum works in blocks of xi_q: on a 128^2 coherent grid source
    (5,432 kept samples) at 1,024 xi_q, one table of every line would alone
    be 89 MB."""
    state = CoherentState((0.3, -0.2), HBAR)
    grid = CenteredGrid(0.3 + 8.0 * math.sqrt(HBAR), 0.3 + 8.0 * math.sqrt(HBAR), 128, HBAR)
    pp, qq = grid.meshgrid()
    chi = dynamics.evolve_chord_function((coherent_wigner(state, pp, qq), grid),
                                         hamiltonians.harmonic(),
                                         [dynamics.LindbladChannel((0.0, 1.0), (1.0, 0.0))], 0.3)
    assert chi.samples == 5432
    xi_q = suggest_xi_q_grid(HBAR, points=1024)
    tracemalloc.start()
    try:
        lwc_from_chord(chi, LwcWindow.canonical(0.0, HBAR), xi_q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _line_loop(amplitude, p, variance, xi_q):
    """The line sum written out line by line, in extended precision: summed in
    doubles, the loop's own rounding reaches 2.6e-15 of max on 1,640 lines."""
    x, hb = xi_q.astype(np.longdouble), np.longdouble(HBAR)
    out = np.zeros(xi_q.size, dtype=np.clongdouble)
    for a, pk, var in zip(amplitude, p, variance):
        out += np.longdouble(a) * np.exp(-1j * np.longdouble(pk) * x / hb
                                         - np.longdouble(var) * x**2 / (2 * hb**2))
    return out.astype(complex)


def test_line_sum_matches_the_line_by_line_sum():
    """Branch lines of a ring and the term lines of an absent (WKB), a shared
    (harmonic grid source) and a per-sample Phi (quartic curve) each equal
    their line-by-line sum to 2e-15 of max (measured at most 1.4e-15); an
    empty line set sums to zeros."""
    xi_q = suggest_xi_q_grid(HBAR, points=256)
    window = LwcWindow.canonical(0.3, HBAR)
    ring = lwc_sc_markov(harmonic_circle(0.5, 512), hamiltonians.harmonic(),
                         [dynamics.LindbladChannel((0.0, 1.0))], 0.6, window, xi_q)
    cases = [(ring.lines, ring.values)]
    sources = _term_sources()
    for chi in (wkb_chord(harmonic_circle(0.5, 320), HBAR), sources[0], sources[2]):
        cases.append((lwc._term_lines(chi.terms, window, []),
                      lwc_from_chord(chi, window, xi_q).values))
    assert [np.ndim(chi.terms[2]) for chi in (sources[0], sources[2])] == [2, 3]
    for lines, got in cases:
        want = _line_loop(lines.amplitude, lines.p, lines.variance, xi_q)
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
    none = lwc.Lines(np.zeros(0), np.zeros(0), np.zeros(0), HBAR, []).sample(xi_q, None).values
    assert none.shape == xi_q.shape and not np.any(none)


def test_lwc_from_callable_chord_memory_is_bounded():
    """The term route of a non-quadratic evolved chi (one Phi per sample)
    works in bounded memory and gives each column's Simpson integral over
    1,025 xi_p nodes.  One complex table of the whole 320-sample x 1025-node
    x 8-column sum would alone be 42 MB."""
    curve = quartic_level_curve(0.3, samples=320)
    chi = dynamics.evolve_chord_function(curve, hamiltonians.quartic(),
                                         [dynamics.LindbladChannel((0.0, 1.0))], 0.1, hbar=HBAR)
    xi_q = 0.04 * (np.arange(8) - 4)
    window = LwcWindow.canonical(0.0, HBAR)
    tracemalloc.start()
    try:
        sample = lwc_from_chord(chi, window, xi_q, xi_p_points=1025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    # the single call gives the column-by-column integrals
    xp = np.linspace(-9.0 * HBAR / window.delta, 9.0 * HBAR / window.delta, 1025)
    w = simpson_weights(xp.size, xp[1] - xp[0]) * np.exp(
        1j * xp * window.Q / HBAR - (window.delta * xp) ** 2 / (2.0 * HBAR**2))
    scale = np.max(np.abs(sample.values))
    for j in (0, 5):
        column = np.sum(w * chi(xp, np.full_like(xp, -xi_q[j])))
        assert abs(sample.values[j] - column) < 1e-12 * scale
