import math
import warnings

import numpy as np
import pytest
from scipy.special import j0

from chordlab.diagnostics import ConvergenceWarning
from chordlab.curves import harmonic_circle
from chordlab.grids import CenteredGrid
from chordlab.states import (
    CoherentState,
    coherent_chord,
    coherent_chord_function,
    coherent_husimi,
    coherent_position_slices,
    coherent_wavefunction,
    coherent_wigner,
    wkb_chord,
)

HBAR = 0.05


def test_state_validation():
    with pytest.raises(ValueError):
        CoherentState((0.0, 0.0), 0.0)


@pytest.mark.parametrize("eta, hbar", [
    ((0.0, 0.0), math.nan), ((0.0, 0.0), math.inf), ((math.nan, 0.0), HBAR),
    ((0.0, math.inf), HBAR), ((0.0, -math.inf), HBAR),
], ids=["hbar-nan", "hbar-inf", "eta-p-nan", "eta-q-inf", "eta-q-minus-inf"])
def test_state_rejects_non_finite_values(eta, hbar):
    """Before, coherent_wigner then returned nan or 0."""
    with pytest.raises(ValueError, match="finite"):
        CoherentState(eta, hbar)


@pytest.mark.parametrize("hbar", [-0.05, 0.0, math.nan])
def test_wkb_rejects_an_hbar_that_is_not_finite_and_positive(hbar):
    """Before, hbar = -0.05 gave the values of hbar = 0.05 and hbar = 0 gave nan."""
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        wkb_chord(harmonic_circle(0.5, 64), hbar)


def test_wavefunction_normalized():
    state = CoherentState((0.4, -0.3), HBAR)
    q = np.linspace(-3.0, 3.0, 4001)
    psi = coherent_wavefunction(state, q)
    mass = np.trapezoid(np.abs(psi) ** 2, q)
    assert abs(mass - 1.0) < 1e-12


def test_wigner_from_wavefunction_oracle():
    """W(p, q) = (2 pi hbar)^-1 Int ds exp(i p s / hbar) rho(q - s/2, q + s/2)."""
    state = CoherentState((0.3, 0.2), HBAR)
    s = np.linspace(-3.0, 3.0, 12001)
    for p0, q0 in [(0.0, 0.0), (0.3, 0.2), (-0.1, 0.5)]:
        rho = coherent_position_slices(state, np.array([q0]), s)[0]
        integrand = np.exp(1j * p0 * s / HBAR) * rho
        w = np.trapezoid(integrand, s) / (2.0 * math.pi * HBAR)
        assert abs(w.imag) < 1e-10
        assert abs(w.real - coherent_wigner(state, p0, q0)) < 1e-9


def test_position_slices_are_the_wavefunction_product():
    state = CoherentState((0.7, -0.25), HBAR)
    q = np.linspace(-1.5, 1.0, 81)
    s = np.linspace(-1.2, 0.9, 64)
    got = coherent_position_slices(state, q, s)
    want = (coherent_wavefunction(state, q[:, None] - 0.5 * s)
            * np.conj(coherent_wavefunction(state, q[:, None] + 0.5 * s)))
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def test_chord_from_slices_oracle():
    """chi(xi_p, xi_q) = (2 pi hbar)^-1 Int dq exp(-i xi_p q / hbar) rho(q + xi_q/2, q - xi_q/2)."""
    state = CoherentState((-0.2, 0.45), HBAR)
    q = np.linspace(-2.5, 3.5, 12001)
    for xp, xq in [(0.0, 0.0), (0.1, 0.05), (-0.3, 0.2)]:
        rho = coherent_position_slices(state, q, np.array([-xq]))[:, 0]
        integrand = np.exp(-1j * xp * q / HBAR) * rho
        chi = np.trapezoid(integrand, q) / (2.0 * math.pi * HBAR)
        assert abs(chi - coherent_chord_function(state, xp, xq)) < 1e-9


def test_chord_function_structure():
    state = CoherentState((0.7, -0.1), HBAR)
    assert np.isclose(coherent_chord_function(state, 0.0, 0.0),
                      1.0 / (2.0 * math.pi * HBAR))
    xi_p = np.array([0.1, -0.04, 0.22])
    xi_q = np.array([0.0, 0.31, -0.17])
    chi = coherent_chord_function(state, xi_p, xi_q)
    assert np.allclose(coherent_chord_function(state, -xi_p, -xi_q), np.conj(chi))
    # displacing the state only multiplies on the plane-wave phase
    base = coherent_chord_function(CoherentState((0.0, 0.0), HBAR), xi_p, xi_q)
    phase = np.exp(1j * (0.7 * xi_q - (-0.1) * xi_p) / HBAR)
    assert np.allclose(chi, base * phase)


@pytest.mark.parametrize("points, hbar, eta", [(8, 0.05, (0.7, -0.1)),
                                               (64, 0.02, (-0.4, 0.9)),
                                               (192, 0.1, (0.3, -0.25))])
def test_chord_function_on_axes_matches_the_meshgrid(points, hbar, eta):
    """On a column and a row of chord axes the factored closed form equals its
    own meshgrid evaluation to 2 ulps of chi(0), and the one-exponential form
    exp[i eta^xi / hbar - xi^2 / 4 hbar] / (2 pi hbar) on the meshgrid to
    2 eps (1 + |e|) of each value, |e| the size of the exponent's phase and
    Gaussian parts: the rounding of an exponent that large (at most 1.4 eps
    (1 + |e|) seen over 200 random grids)."""
    state = CoherentState(eta, hbar)
    g = CenteredGrid(2.0, 1.5, points, hbar).conjugate()
    xp, xq = g.meshgrid()
    got = coherent_chord_function(state, g.p_axis[:, None], g.q_axis[None, :])
    assert got.shape == (points, points)
    ulp = np.spacing(1.0 / (2.0 * math.pi * hbar))
    assert np.max(np.abs(got - coherent_chord_function(state, xp, xq))) <= 2 * ulp
    one = np.exp(1j * (eta[0] * xq - eta[1] * xp) / hbar
                 - (xp**2 + xq**2) / (4.0 * hbar)) / (2.0 * math.pi * hbar)
    size = (np.abs(eta[0] * xq) + np.abs(eta[1] * xp)) / hbar + (xp**2 + xq**2) / (4.0 * hbar)
    bound = 2 * np.finfo(float).eps * (1.0 + size) * np.abs(one) + np.finfo(float).tiny
    assert np.all(np.abs(got - one) <= bound)


def test_husimi_peak_and_mass():
    state = CoherentState((0.2, 0.6), HBAR)
    assert np.isclose(coherent_husimi(state, 0.2, 0.6), 1.0 / (2.0 * math.pi * HBAR))
    p = np.linspace(-1.5, 1.9, 501)
    q = np.linspace(-1.3, 2.4, 501)
    vals = coherent_husimi(state, p[:, None], q[None, :])
    mass = np.trapezoid(np.trapezoid(vals, q, axis=1), p)
    assert abs(mass - 1.0) < 1e-10


def test_wkb_circle_is_bessel():
    """Uniform average over the circle of action I:
    chi(xi) = (2 pi hbar)^-1 J0(sqrt(2 I) |xi| / hbar)."""
    action = 0.5
    curve = harmonic_circle(action, 2048)
    rng = np.random.default_rng(9)
    xi_p = math.sqrt(HBAR) * rng.uniform(-2.5, 2.5, 40)
    xi_q = math.sqrt(HBAR) * rng.uniform(-2.5, 2.5, 40)
    got = wkb_chord(curve, HBAR)(xi_p, xi_q)
    want = j0(math.sqrt(2.0 * action) * np.hypot(xi_p, xi_q) / HBAR) / (2.0 * math.pi * HBAR)
    assert np.max(np.abs(got - want)) < 1e-8 / (2.0 * math.pi * HBAR)
    assert np.max(np.abs(got.imag)) < 1e-12 / (2.0 * math.pi * HBAR)


def test_wkb_scalar_and_broadcast():
    fn = wkb_chord(harmonic_circle(0.5, 1024), HBAR)
    v = fn(0.1, 0.0)
    assert np.ndim(v) == 0
    assert fn(np.zeros((2, 3)), 0.1).shape == (2, 3)


def test_wkb_chord_wrapper():
    curve = harmonic_circle(0.5, 2048)
    fn = wkb_chord(curve, HBAR)
    assert not fn.gridded
    xi = math.sqrt(HBAR) * np.array([0.5, 1.0])
    p, q = curve.points.T
    direct = np.mean(np.exp(1j * (p[:, None] - q[:, None]) * xi / HBAR), axis=0)
    assert np.allclose(fn(xi, xi), direct / (2.0 * math.pi * HBAR))
    with pytest.warns(ConvergenceWarning):
        wkb_chord(harmonic_circle(0.5, 16), HBAR)


def _probe_error(chi, action, hbar):
    """max |chi - (2 pi hbar)^-1 J0(sqrt(2 I) |xi| / hbar)| over the check's eight
    probe chords sqrt(hbar) (+-a_i, a_{3-i}), in units of chi(0)."""
    a = math.sqrt(hbar) * np.array([0.3, 0.7, 1.3, 2.1])
    xi_p, xi_q = np.concatenate([a, -a]), np.concatenate([a[::-1], a])
    truth = j0(math.sqrt(2.0 * action) * np.hypot(xi_p, xi_q) / hbar)
    return np.max(np.abs(chi(xi_p, xi_q) * 2.0 * math.pi * hbar - truth))


def test_wkb_chord_check_reads_the_sampling_error():
    """The check compares the average with that over the points' trigonometric
    interpolant at twice the count, so it reads the sum's own sampling error
    (J0 at the eight probe chords gives the truth): 8.09e-02 at 16 samples,
    and no warning at 64.  A spline resample read 1.89e-07 at 64."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        chi = wkb_chord(harmonic_circle(0.5, 64), HBAR)
    assert chi.warnings == []
    with pytest.warns(ConvergenceWarning, match="drifts by 8.09e-02"):
        coarse = wkb_chord(harmonic_circle(0.5, 16), HBAR)
    assert f"{_probe_error(coarse, 0.5, HBAR):.2e}" == "8.09e-02"


@pytest.mark.parametrize("samples, hbar, reading", [(64, 0.0125, "1.33e-03"),
                                                    (48, 0.025, "8.65e-04")])
def test_wkb_chord_check_reads_every_probe_chord(samples, hbar, reading):
    """A circle of action 2 sampled this coarsely is off J0 only at the probe
    chords (-a_i, a_{3-i}); a check at the four chords (a_i, a_{3-i}) alone
    let these through without a warning."""
    with pytest.warns(ConvergenceWarning, match=f"drifts by {reading}"):
        chi = wkb_chord(harmonic_circle(2.0, samples), hbar)
    assert f"{_probe_error(chi, 2.0, hbar):.2e}" == reading


def test_coherent_chord_container():
    state = CoherentState((0.1, 0.1), HBAR)
    fn = coherent_chord(state)
    assert fn.hbar == HBAR
    assert fn.samples == 1
    assert np.isclose(fn(0.0, 0.0), 1.0 / (2.0 * math.pi * HBAR))


def test_wkb_chord_keeps_its_sampling_warning():
    with pytest.warns(ConvergenceWarning):
        chi = wkb_chord(harmonic_circle(0.5, 12), HBAR)
    assert len(chi.warnings) == 1 and "doubled sampling" in chi.warnings[0]
    assert chi.samples == 12
    g = CenteredGrid(0.5, 0.5, 8, HBAR)
    assert chi.sample(g).warnings == chi.warnings
    assert wkb_chord(harmonic_circle(0.5, 2048), HBAR).warnings == []
