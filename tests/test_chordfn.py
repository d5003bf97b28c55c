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
