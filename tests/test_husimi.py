import math

import numpy as np
import pytest

from chordlab import hamiltonians
from chordlab.chordfn import ChordFunction
from chordlab.curves import harmonic_circle, quartic_level_curve
from chordlab.diagnostics import ConvergenceWarning, GridDomainWarning, TruncationWarning
from chordlab.dynamics import LindbladChannel, evolve_chord_function
from chordlab.grids import CenteredGrid, centre_from_chord
from chordlab.husimi import husimi_fourier, husimi_from_lwc, husimi_from_wigner
from chordlab.lwc import (
    LwcSample,
    LwcWindow,
    lwc_coherent_closed_form,
    lwc_from_chord,
    suggest_xi_q_grid,
)
from chordlab.states import (
    CoherentState,
    coherent_chord,
    coherent_chord_function,
    coherent_husimi,
    coherent_wigner,
    wkb_chord,
)

HBAR = 0.05


def test_matched_window_delta():
    """husimi_from_lwc takes LwcWindow.husimi_matched's width, sqrt(hbar / 2)."""
    assert LwcWindow.husimi_matched(0.0, HBAR).delta == pytest.approx(math.sqrt(HBAR / 2))
    xi_q = suggest_xi_q_grid(HBAR, points=64)
    vals = np.exp(-(xi_q**2) / (2.0 * HBAR)).astype(complex)
    for delta in (math.sqrt(HBAR / 2), math.sqrt(HBAR / 2) * (1.0 + 1e-13)):
        husimi_from_lwc([LwcSample(xi_q, vals, LwcWindow(0.0, delta, HBAR))], [0.0])
    with pytest.raises(ValueError, match="sqrt"):
        wide = LwcWindow(0.0, math.sqrt(HBAR / 2) * (1.0 + 1e-9), HBAR)
        husimi_from_lwc([LwcSample(xi_q, vals, wide)], [0.0])


def test_husimi_from_lwc_reports_an_imaginary_residue():
    """C(-xi) != conj C(xi) rebuilds a complex density; the residue is
    reported in the shared wording."""
    xi_q = suggest_xi_q_grid(HBAR, points=64)
    vals = (np.exp(-(xi_q**2) / (2.0 * HBAR)) * (1.0 + 0.5 * xi_q)).astype(complex)
    sink = []
    with pytest.warns(TruncationWarning, match="^reconstructed density imaginary residue"):
        husimi_from_lwc([LwcSample(xi_q, vals, LwcWindow.husimi_matched(0.0, HBAR))],
                        np.linspace(-1.0, 1.0, 9), sink)
    assert len(sink) == 1 and sink[0].endswith("above 1e-8")


def test_husimi_from_wigner_matches_closed_form():
    state = CoherentState((0.3, -0.2), HBAR)
    grid = CenteredGrid(2.5, 2.5, 256, HBAR)
    pp, qq = grid.meshgrid()
    w = coherent_wigner(state, pp, qq)
    smoothed = husimi_from_wigner(w, grid)
    want = coherent_husimi(state, pp, qq)
    peak = 1.0 / (2.0 * math.pi * HBAR)
    assert np.max(np.abs(smoothed - want)) < 1e-12 * peak
    # unit-mass smoothing kernel preserves the total mass
    assert np.sum(smoothed) * grid.dp * grid.dq == pytest.approx(1.0, abs=1e-10)


def test_husimi_from_wigner_guards():
    grid = CenteredGrid(0.8, 0.8, 64, HBAR)
    state = CoherentState((0.0, 0.0), HBAR)
    pp, qq = grid.meshgrid()
    w = coherent_wigner(state, pp, qq)
    with pytest.warns(GridDomainWarning):
        husimi_from_wigner(w, grid)
    sink = []
    with pytest.warns(GridDomainWarning):
        husimi_from_wigner(w, grid, sink=sink)
    assert len(sink) == 1
    with pytest.raises(ValueError):
        husimi_from_wigner(w[:-1], grid)


def test_husimi_fourier_term_and_grid_forms():
    """A term sum stays a term sum; a sampled chord function and raw grid
    values through ChordFunction.from_grid stay grids."""
    state = CoherentState((0.4, 0.1), HBAR)
    xi_p = np.array([0.0, 0.2, -0.35])
    xi_q = np.array([0.1, 0.0, 0.3])
    damp = np.exp(-(xi_p**2 + xi_q**2) / (4.0 * HBAR))
    want = coherent_chord_function(state, xi_p, xi_q) * damp

    from_terms = husimi_fourier(coherent_chord(state))
    assert from_terms.terms is not None and not from_terms.gridded
    assert np.allclose(from_terms(xi_p, xi_q), want)

    grid = CenteredGrid(2.0, 2.0, 128, HBAR)
    sampled = coherent_chord(state).sample(grid)
    from_grid = husimi_fourier(sampled)
    assert from_grid.gridded
    xp, xq = grid.meshgrid()
    full = coherent_chord_function(state, xp, xq) * np.exp(
        -(xp**2 + xq**2) / (4.0 * HBAR))
    assert np.allclose(from_grid.values, full)

    from_raw = husimi_fourier(ChordFunction.from_grid(sampled.values, grid))
    assert np.allclose(from_raw.values, full)


def _husimi_term_sources():
    """Term sums with a shared Phi (coherent state), no Phi (a coarse WKB
    circle, which warns of its sampling) and one Phi per term (a quartic
    curve evolved under a q-channel)."""
    with pytest.warns(ConvergenceWarning):
        coarse = wkb_chord(harmonic_circle(0.5, 12), HBAR)
    quartic = evolve_chord_function(quartic_level_curve(0.3, samples=320), hamiltonians.quartic(),
                                    [LindbladChannel((0.0, 1.0))], 0.1, hbar=HBAR)
    return [coherent_chord(CoherentState((0.3, -0.2), HBAR)), coarse, quartic]


def test_husimi_fourier_keeps_terms():
    """The smoothing of a term sum is the same terms with Phi + I/2: its
    values are chi exp(-|xi|^2 / 4 hbar) at scattered chords, it keeps chi's
    warnings, and its closed-form windowed correlation equals the grid
    route's on the smoothed grid sample (measured at most 9.3e-16 of max)."""
    sources = _husimi_term_sources()
    assert [np.ndim(chi.terms[2]) for chi in sources] == [2, 0, 3]
    assert sources[1].warnings
    rng = np.random.default_rng(3)
    xi = rng.normal(scale=2.0 * math.sqrt(HBAR), size=(64, 2))
    scale = 1.0 / (2.0 * math.pi * HBAR)
    grid = CenteredGrid(2.6, 2.6, 256, HBAR)
    xi_q = grid.dq * (np.arange(64) - 32)
    for chi in sources:
        smooth = husimi_fourier(chi)
        assert smooth.terms is not None and smooth.samples == chi.samples
        assert smooth.warnings == chi.warnings
        want = chi(xi[:, 0], xi[:, 1]) * np.exp(-(xi**2).sum(axis=1) / (4.0 * HBAR))
        assert np.max(np.abs(smooth(xi[:, 0], xi[:, 1]) - want)) <= 1e-14 * scale
        gridded = husimi_fourier(chi.sample(grid))
        for Q in (0.0, 0.35, -0.6):
            window = LwcWindow.canonical(Q, HBAR)
            got = lwc_from_chord(smooth, window, xi_q).values
            ref = lwc_from_chord(gridded, window, xi_q).values
            assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_husimi_fourier_keeps_input_warnings():
    with pytest.warns(ConvergenceWarning):
        chi = wkb_chord(harmonic_circle(0.5, 12), HBAR)
    assert len(chi.warnings) == 1
    assert husimi_fourier(chi).warnings == chi.warnings
    sampled = chi.sample(CenteredGrid(0.5, 0.5, 8, HBAR))
    assert husimi_fourier(sampled).warnings == chi.warnings


def test_husimi_from_lwc_coherent():
    state = CoherentState((0.2, -0.1), HBAR)
    xi_q = suggest_xi_q_grid(HBAR, points=512)
    q_centres = np.linspace(-1.0, 1.0, 21)
    samples = []
    for qc in q_centres:
        win = LwcWindow.husimi_matched(qc, HBAR)
        samples.append(LwcSample(xi_q, lwc_coherent_closed_form(state, win, xi_q), win))
    p_axis = np.linspace(-1.0, 1.2, 45)
    out = husimi_from_lwc(samples, p_axis)
    assert out.shape == (p_axis.size, q_centres.size)
    want = coherent_husimi(state, p_axis[:, None], q_centres[None, :])
    peak = 1.0 / (2.0 * math.pi * HBAR)
    assert np.max(np.abs(out - want)) < 1e-10 * peak


def test_husimi_from_lwc_matches_grid_route_for_wkb():
    """One window column of the reconstruction equals the P section of the
    full smoothed density computed through the chord grid."""
    curve = harmonic_circle(0.5, 512)
    fn = wkb_chord(curve, HBAR)

    grid = CenteredGrid(2.6, 2.6, 256, HBAR)
    f_vals = husimi_fourier(fn).sample(grid).values
    dens, centre_grid = centre_from_chord(f_vals, grid)
    dens = np.real(dens)
    peak = float(np.max(dens))

    q0_col = centre_grid.points // 2
    assert centre_grid.q_axis[q0_col] == 0.0
    keep = np.abs(centre_grid.p_axis) <= 1.5
    p_nodes = centre_grid.p_axis[keep]

    window = LwcWindow.husimi_matched(0.0, HBAR)
    xi_q = suggest_xi_q_grid(HBAR, points=256)
    sample = lwc_from_chord(fn, window, xi_q, xi_p_points=1025)
    recon = husimi_from_lwc([sample], p_nodes)[:, 0]

    assert np.max(np.abs(recon - dens[keep, q0_col])) < 1e-5 * peak
    assert recon.min() > -1e-6 * peak


def test_husimi_from_lwc_validation():
    xi_q = suggest_xi_q_grid(HBAR, points=64)
    good = LwcWindow.husimi_matched(0.0, HBAR)
    vals = np.exp(-(xi_q**2) / (2.0 * HBAR)).astype(complex)
    ok = LwcSample(xi_q, vals, good)
    with pytest.raises(ValueError):
        husimi_from_lwc([], [0.0])
    with pytest.raises(ValueError):
        husimi_from_lwc([LwcSample(xi_q, vals, None)], [0.0])
    with pytest.raises(ValueError):
        bad = LwcSample(xi_q, vals, LwcWindow.canonical(0.0, HBAR))
        husimi_from_lwc([bad], [0.0])
    with pytest.raises(ValueError):
        other = LwcSample(xi_q * 2.0, vals, LwcWindow.husimi_matched(0.1, HBAR))
        husimi_from_lwc([ok, other], [0.0])
    with pytest.raises(ValueError):
        husimi_from_lwc([LwcSample(xi_q[:2], vals[:2], good)], [0.0])
    with pytest.raises(ValueError):
        crooked = LwcSample(xi_q**3, vals, good)
        husimi_from_lwc([crooked], [0.0])
    # a later sample without its window is refused like the first
    with pytest.raises(ValueError, match="carry their windows"):
        husimi_from_lwc([ok, LwcSample(xi_q, vals, None)], [0.0])
    # read with its negative step, a decreasing axis gave the density negated
    assert husimi_from_lwc([ok], [0.0])[0, 0] > 0.0
    with pytest.raises(ValueError, match="increase in equal steps"):
        husimi_from_lwc([LwcSample(-xi_q, vals, good)], [0.0])


def test_husimi_from_lwc_imag_residue_warning():
    xi_q = suggest_xi_q_grid(HBAR, points=64)
    win = LwcWindow.husimi_matched(0.0, HBAR)
    rng = np.random.default_rng(3)
    # violates C(-xi) = conj C(xi), so the rebuilt density cannot be real
    vals = (rng.normal(size=xi_q.size) + 1j * rng.normal(size=xi_q.size)) \
        * np.exp(-(xi_q**2) / (2.0 * HBAR))
    sink = []
    with pytest.warns(TruncationWarning):
        husimi_from_lwc([LwcSample(xi_q, vals, win)], np.linspace(-1, 1, 11), sink=sink)
    assert sink and "imaginary" in sink[0]
