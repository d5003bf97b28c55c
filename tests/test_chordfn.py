import numpy as np
import pytest

from chordlab.chordfn import ChordFunction
from chordlab.grids import CenteredGrid
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
    with pytest.raises(ValueError, match="differs from the chord function's 0.05"):
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


@pytest.mark.parametrize("phi", [None, np.eye(2), np.zeros((0, 2, 2))],
                         ids=["absent", "shared", "per-sample"])
def test_no_terms_sum_to_zero_at_any_chords(phi):
    """An empty term set is chi = 0 wherever it is read: on a centred grid,
    on an (a, 1) by (1, b) pair and on scattered chords, whatever form Phi takes."""
    chi = ChordFunction.from_terms(np.zeros((0, 2)), np.zeros(0), phi, HBAR)
    grid = CenteredGrid(1.0, 1.0, 8, HBAR)
    assert not np.any(chi.sample(grid).values)
    axis = np.linspace(-0.5, 0.5, 5)
    scattered = np.random.default_rng(4).uniform(-0.5, 0.5, (2, 3, 4))
    for xi_p, xi_q in ((axis[:, None], axis[None, :6]), (axis, axis[::-1]), scattered):
        got = chi(xi_p, xi_q)
        assert got.shape == np.broadcast_shapes(np.shape(xi_p), np.shape(xi_q))
        assert not np.any(got)


def test_a_chord_function_holds_exactly_one_form():
    """A record holds plane-wave terms, or grid values on a grid of its hbar,
    checked when it is built.  Before, a record of neither form or of both
    was read one way by ``lwc_from_chord`` and another by ``__call__``, and
    mis-shaped values passed until a lookup broadcast them."""
    points, weights, phis = _terms()
    grid, values = CenteredGrid(1.0, 1.0, 4, HBAR), np.zeros((4, 4))
    for bad in ({}, dict(values=values, grid=grid, terms=(points, weights, phis)),
                dict(grid=grid, terms=(points, weights, phis)), dict(values=values),
                dict(grid=grid), dict(values=np.zeros((3, 3)), grid=grid),
                dict(values=values, grid=CenteredGrid(1.0, 1.0, 4, 2.0 * HBAR)),
                dict(terms=(points[:, :1], weights, phis)), dict(terms=(points, weights)),
                dict(terms=(points, weights, phis[:-1]))):
        with pytest.raises(ValueError):
            ChordFunction(HBAR, **bad)
    direct = ChordFunction(HBAR, terms=(points, weights, phis))
    made = ChordFunction.from_terms(points, weights, phis, HBAR)
    xi_p, xi_q = np.random.default_rng(5).uniform(-0.6, 0.6, (2, 17))
    assert np.array_equal(direct(xi_p, xi_q), made(xi_p, xi_q))
    assert ChordFunction(HBAR, values, grid).values.dtype == complex


def test_a_rebound_fn_is_what_call_and_sample_read():
    """A term sum's ``fn`` can be wrapped after construction (the benchmark's
    tracer does), and ``__call__`` and ``sample`` both go through the wrapper."""
    chi = coherent_chord(CoherentState((0.1, 0.2), HBAR))
    inner, shapes = chi.fn, []

    def wrapped(xi_p, xi_q):
        shapes.append(np.shape(xi_p))
        return inner(xi_p, xi_q)

    chi.fn = wrapped
    grid = CenteredGrid(1.0, 1.0, 8, HBAR)
    assert chi(0.1, -0.2) == inner(np.float64(0.1), np.float64(-0.2))
    assert np.array_equal(chi.sample(grid).values, inner(*grid.meshgrid()))
    assert shapes == [(), (8, 8)]
