import numpy as np
import pytest

from chordlab.chordfn import ChordFunction
from chordlab.grids import CenteredGrid
from chordlab.husimi import husimi_fourier
from chordlab.lwc import LwcWindow, lwc_from_chord
from chordlab.states import CoherentState, coherent_chord, coherent_chord_function

HBAR = 0.05


def test_callable_form_evaluates_anywhere():
    state = CoherentState((0.1, 0.2), HBAR)
    fn = coherent_chord(state)
    assert not fn.gridded
    xp = np.array([0.0, 0.037, -0.5])
    xq = np.array([0.0, -0.011, 0.3])
    assert np.allclose(fn(xp, xq), coherent_chord_function(state, xp, xq))


def test_sample_onto_grid_then_lookup():
    state = CoherentState((0.0, 0.4), HBAR)
    grid = CenteredGrid(1.0, 1.0, 32, HBAR)
    sampled = coherent_chord(state).sample(grid)
    assert sampled.gridded
    # node lookups reproduce the sampled table
    xp, xq = grid.meshgrid()
    assert np.allclose(sampled(xp, xq), sampled.values)
    # single off-grid point is refused, not interpolated
    with pytest.raises(ValueError):
        sampled(grid.dp * 0.5, 0.0)
    with pytest.raises(ValueError):
        sampled(grid.half_width_p + grid.dp, 0.0)  # outside
    with pytest.raises(ValueError, match="not a grid node"):
        sampled(0.0, np.nan)


def test_sample_requires_matching_hbar():
    state = CoherentState((0.0, 0.0), HBAR)
    with pytest.raises(ValueError):
        coherent_chord(state).sample(CenteredGrid(1.0, 1.0, 16, 2.0 * HBAR))
    # compared exactly, like every other hbar check: before, a grid 1e-13 off
    # was accepted and the sample took the grid's hbar
    with pytest.raises(ValueError, match="grid hbar"):
        coherent_chord(state).sample(CenteredGrid(1.0, 1.0, 16, HBAR * (1.0 + 1e-13)))


def test_from_grid_shape_check():
    grid = CenteredGrid(1.0, 1.0, 16, HBAR)
    with pytest.raises(ValueError):
        ChordFunction.from_grid(np.zeros((8, 8)), grid)


def test_gridded_cannot_resample():
    grid = CenteredGrid(1.0, 1.0, 16, HBAR)
    fn = ChordFunction.from_grid(np.zeros((16, 16)), grid)
    with pytest.raises(ValueError):
        fn.sample(grid)


def test_gridded_lookup_of_no_chords_is_empty():
    grid = CenteredGrid(1.0, 1.0, 16, HBAR)
    fn = ChordFunction.from_grid(np.ones((16, 16)), grid)
    for shape in ((0, 3), (3, 0), (0,)):
        got = fn(np.zeros(shape), np.zeros(shape))
        assert got.shape == shape and got.dtype == complex
    assert fn(np.zeros((0, 1)), np.zeros((1, 3))).shape == (0, 3)


def _terms(n=5, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.5, 0.5, (n, 2))
    weights = rng.uniform(0.1, 1.0, n)
    a = rng.uniform(-0.3, 0.3, (n, 2, 2))
    phis = a @ np.swapaxes(a, -1, -2)  # positive semidefinite
    return points, weights, phis


@pytest.mark.parametrize("case", ["points-1d", "points-3-columns", "weights-2d",
                                  "weights-too-few", "phi-shape", "phi-count",
                                  "points-nan", "weights-inf", "phi-nan"])
def test_from_terms_rejects_malformed_terms(case):
    points, weights, phis = _terms()
    phi = phis
    if case == "points-1d":
        points = points[:, 0]
    elif case == "points-3-columns":
        points = np.hstack([points, points[:, :1]])
    elif case == "weights-2d":
        weights = weights[:, None]
    elif case == "weights-too-few":
        weights = weights[:-1]
    elif case == "phi-shape":
        phi = phis[0, :, :1]
    elif case == "phi-count":
        phi = phis[:-1]
    elif case == "points-nan":
        points[2, 1] = np.nan
    elif case == "weights-inf":
        weights[0] = np.inf
    else:
        phi = phis[0].copy()
        phi[0, 1] = np.nan
    with pytest.raises(ValueError):
        ChordFunction.from_terms(points, weights, phi, HBAR)


def test_from_terms_sums_the_terms():
    """chi = (2 pi hbar)^-1 sum_k w_k exp[(i/hbar) x_k ^ xi] exp[-xi.Phi_k xi / 2 hbar],
    written out term by term, on scattered chords and on an outer grid."""
    points, weights, phis = _terms(40, seed=1)
    chi = ChordFunction.from_terms(points, weights, phis, HBAR)
    assert chi.samples == 40
    xi_p, xi_q = np.random.default_rng(2).uniform(-0.6, 0.6, (2, 30))
    mesh = np.meshgrid(np.linspace(-0.6, 0.5, 9), np.linspace(-0.4, 0.7, 11), indexing="ij")
    for xp, xq in ((xi_p, xi_q), mesh):
        want = np.zeros(xp.shape, dtype=complex)
        for (p, q), w, f in zip(points, weights, phis):
            quad = f[0, 0] * xp**2 + 2.0 * f[0, 1] * xp * xq + f[1, 1] * xq**2
            want += w * np.exp(1j * (p * xq - q * xp) / HBAR - quad / (2.0 * HBAR))
        want /= 2.0 * np.pi * HBAR
        assert np.max(np.abs(chi(xp, xq) - want)) <= 1e-13 * np.max(np.abs(want))


def test_readouts_refuse_a_chord_function_of_neither_form():
    """A ChordFunction built around a bare callable holds neither terms nor a
    grid; the readouts name the two forms instead of failing on chi.grid."""
    bare = ChordFunction(HBAR, fn=coherent_chord(CoherentState((0.1, 0.2), HBAR)).fn)
    for readout in (husimi_fourier,
                    lambda chi: lwc_from_chord(chi, LwcWindow.canonical(0.0, HBAR), [0.0])):
        with pytest.raises(ValueError, match=r"terms \(from_terms\) or grid samples \(from_grid\)"):
            readout(bare)
