import ast
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest

from chordlab import cli, grids
from chordlab.chordfn import ChordFunction
from chordlab.curves import harmonic_circle
from chordlab.diagnostics import GridDomainWarning
from chordlab.grids import (
    CenteredGrid,
    centre_from_chord,
    chord_from_centre,
    ft_axis,
    reflect_values,
    simpson_weights,
)
from chordlab.states import CoherentState, coherent_chord_function, coherent_wigner, wkb_chord

HBAR = 0.05


def test_grid_axes_center_zero():
    g = CenteredGrid(2.0, 3.0, 64, HBAR)
    assert g.p_axis[32] == 0.0
    assert g.q_axis[32] == 0.0
    assert np.isclose(g.p_axis[0], -2.0)
    assert np.isclose(g.q_axis[0], -3.0)
    # right edge stops one step short of +half_width
    assert np.isclose(g.p_axis[-1], 2.0 - g.dp)


def test_grid_validation():
    with pytest.raises(ValueError):
        CenteredGrid(1.0, 1.0, 65, HBAR)  # odd
    with pytest.raises(ValueError):
        CenteredGrid(-1.0, 1.0, 64, HBAR)
    with pytest.raises(ValueError):
        CenteredGrid(1.0, 1.0, 64, 0.0)


@pytest.mark.parametrize("args", [
    (1.0, 1.0, 64, math.nan), (1.0, 1.0, 64, math.inf), (math.nan, 1.0, 64, HBAR),
    (1.0, math.nan, 64, HBAR), (math.inf, 1.0, 64, HBAR),
], ids=["hbar-nan", "hbar-inf", "half-width-p-nan", "half-width-q-nan", "half-width-inf"])
def test_grid_rejects_non_finite_values(args):
    """Before, these gave nan axes and a nan conjugate grid."""
    with pytest.raises(ValueError, match="finite and positive"):
        CenteredGrid(*args)


def test_conjugate_grid_crosses_half_widths():
    """dp pairs with d(xi_q): dp * dxi_q = 2 pi hbar / M."""
    g = CenteredGrid(1.5, 2.5, 128, HBAR)
    c = g.conjugate()
    assert np.isclose(g.dp * c.dq, 2.0 * math.pi * HBAR / g.points)
    assert np.isclose(g.dq * c.dp, 2.0 * math.pi * HBAR / g.points)
    back = c.conjugate()
    assert np.isclose(back.half_width_p, g.half_width_p)
    assert np.isclose(back.half_width_q, g.half_width_q)
    assert c.is_conjugate_of(g) and g.is_conjugate_of(c)
    assert not g.is_conjugate_of(g)
    assert not CenteredGrid(c.half_width_p, c.half_width_q, 64, HBAR).is_conjugate_of(g)
    assert not CenteredGrid(c.half_width_p, c.half_width_q, 128, 2 * HBAR).is_conjugate_of(g)


def test_ft_axis_matches_direct_dft():
    """Both signs against an explicit O(M^2) sum."""
    rng = np.random.default_rng(5)
    m = 32
    dx = 0.21
    x = (np.arange(m) - m // 2) * dx
    dk = 2.0 * math.pi * HBAR / (m * dx)
    k = (np.arange(m) - m // 2) * dk
    f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    for sign in (+1, -1):
        direct = dx * np.array([np.sum(f * np.exp(sign * 1j * x * kk / HBAR)) for kk in k])
        got = ft_axis(f, dx, HBAR, axis=0, sign=sign)
        assert np.max(np.abs(got - direct)) < 1e-12 * np.max(np.abs(direct))


def test_ft_axis_respects_axis_argument():
    rng = np.random.default_rng(8)
    f = rng.standard_normal((16, 16))
    a0 = ft_axis(f, 0.1, HBAR, axis=0, sign=-1)
    a1 = ft_axis(f.T, 0.1, HBAR, axis=1, sign=-1).T
    assert np.allclose(a0, a1)


def _shift_pair_stage(values, dx, axis, sign):
    """One centred stage as the shift pair writes it: ifftshift, the FFT of
    the sign (times M for the inverse), fftshift, times dx."""
    n = values.shape[axis]
    shifted = np.fft.ifftshift(values, axes=axis)
    out = np.fft.fft(shifted, axis=axis) if sign < 0 else np.fft.ifft(shifted, axis=axis) * n
    return dx * np.fft.fftshift(out, axes=axis)


def _shift_pair_transform(values, grid):
    """Either direction of the pair through two shift-pair stages."""
    tmp = _shift_pair_stage(values.astype(complex), grid.dp, 0, +1)
    tmp = _shift_pair_stage(tmp, grid.dq, 1, -1)
    return tmp.T / (2.0 * math.pi * grid.hbar)


@pytest.mark.parametrize("points", [2, 8, 64, 192])
@pytest.mark.parametrize("half_widths", [(1.0, 1.0), (1.3, 0.7)], ids=["square", "oblong"])
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
def test_transforms_match_the_shift_pair_stages(points, half_widths, complex_data):
    """The sign-modulated stages give the shift pair's values to 4 eps of the
    largest (at most 1.9 eps seen over these cases), in both directions and
    for ``ft_axis`` alone with either sign."""
    rng = np.random.default_rng(points)
    g = CenteredGrid(*half_widths, points, HBAR)
    v = rng.standard_normal((points, points))
    if complex_data:
        v = v + 1j * rng.standard_normal((points, points))
    eps = np.finfo(float).eps
    for transform in (chord_from_centre, centre_from_chord):
        with pytest.warns(GridDomainWarning):  # white noise does not decay
            got, _ = transform(v, g)
        want = _shift_pair_transform(v, g)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))
    for axis in (0, 1, -1):
        for sign in (+1, -1):
            want = _shift_pair_stage(v, g.dq, axis, sign)
            got = ft_axis(v, g.dq, HBAR, axis=axis, sign=sign)
            assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
def test_ft_axis_rejects_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign must be"):
        ft_axis(np.ones(8), 0.1, HBAR, axis=0, sign=sign)


def test_ft_axis_rejects_an_odd_axis_length():
    with pytest.raises(ValueError, match="even axis length, got 7"):
        ft_axis(np.ones((8, 7)), 0.1, HBAR, axis=1, sign=1)
    assert ft_axis(np.ones((8, 7)), 0.1, HBAR, axis=0, sign=1).shape == (8, 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("transform", [chord_from_centre, centre_from_chord],
                         ids=lambda f: f.__name__)
def test_transforms_reject_a_non_finite_value(transform, bad):
    """One bad cell raises ValueError naming the transform, before any
    warning (the parent returned an all-nan field)."""
    g = CenteredGrid(1.0, 1.0, 32, HBAR)
    pp, qq = g.meshgrid()
    v = np.exp(-(pp**2 + qq**2) / 0.005)
    v[20, 11] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{transform.__name__}: values must be finite"):
            transform(v, g)


def test_transform_pair_calls_no_shift_or_roll():
    """The centring is the sign identity: no fftshift, ifftshift or roll in
    the stages (``reflect_values`` keeps its roll; it is no stage)."""
    banned = {"fftshift", "ifftshift", "roll"}
    for fn in (ft_axis, grids._centred_dft, grids._symplectic_ft):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        called = {node.func.attr if isinstance(node.func, ast.Attribute) else
                  getattr(node.func, "id", None)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not called & banned, (fn.__name__, called & banned)


def test_coherent_chord_from_wigner():
    """FFT of the coherent Wigner function lands on the closed-form chi."""
    state = CoherentState((0.3, -0.4), HBAR)
    grid = CenteredGrid(2.0, 2.0, 128, HBAR)
    pp, qq = grid.meshgrid()
    w = coherent_wigner(state, pp, qq)
    chi, cgrid = chord_from_centre(w, grid)
    xp, xq = cgrid.meshgrid()
    want = coherent_chord_function(state, xp, xq)
    assert np.max(np.abs(chi - want)) < 1e-10
    # chi(0) carries the total mass
    m = grid.points
    assert np.isclose(chi[m // 2, m // 2].real, 1.0 / (2.0 * math.pi * HBAR))


def test_round_trip_is_exact():
    rng = np.random.default_rng(11)
    grid = CenteredGrid(1.0, 1.0, 64, HBAR)
    pp, qq = grid.meshgrid()
    w = np.exp(-(pp**2 + qq**2) / 0.02) * (1.0 + 0.1 * rng.standard_normal(pp.shape))
    with np.errstate(all="ignore"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chi, cgrid = chord_from_centre(w, grid)
            back, bgrid = centre_from_chord(chi, cgrid)
    assert np.max(np.abs(back - w)) < 1e-12
    assert bgrid.is_conjugate_of(cgrid)


def test_chord_hermiticity_for_real_wigner():
    """Real W gives chi(-xi) = conj chi(xi) on the grid."""
    state = CoherentState((0.2, 0.5), HBAR)
    grid = CenteredGrid(2.0, 2.0, 64, HBAR)
    pp, qq = grid.meshgrid()
    chi, _ = chord_from_centre(coherent_wigner(state, pp, qq), grid)
    assert np.max(np.abs(reflect_values(chi) - np.conj(chi))) < 1e-12


def test_reflect_values_hits_negated_nodes():
    g = CenteredGrid(1.0, 1.0, 8, HBAR)
    pp, qq = g.meshgrid()
    f = np.sin(pp + 2.0 * qq) + pp**2
    want = np.sin(-pp - 2.0 * qq) + pp**2
    got = reflect_values(f)
    # the unpaired -M/2 row/column has no mirror; compare the interior
    assert np.allclose(got[1:, 1:], want[1:, 1:])


def test_boundary_decay_flags_and_warning():
    g = CenteredGrid(1.0, 1.0, 32, HBAR)
    pp, qq = g.meshgrid()
    wide = np.exp(-(pp**2 + qq**2) / 2.0)  # nowhere near decayed
    assert not grids._edge_ratio(wide, (0, 1)) <= 1e-14
    with pytest.warns(GridDomainWarning):
        chord_from_centre(wide, g)
    tight = np.exp(-(pp**2 + qq**2) / 0.005)
    assert grids._edge_ratio(tight, (0, 1)) <= 1e-14
    assert grids._edge_ratio(np.zeros((8, 8)), (0, 1)) <= 1e-14


@pytest.mark.parametrize("transform", [chord_from_centre, centre_from_chord],
                         ids=lambda f: f.__name__)
def test_boundary_warning_names_its_transform(transform):
    """Both directions share one transform body, and each still names
    itself in the warning, which points at the caller's line."""
    g = CenteredGrid(1.0, 1.0, 32, HBAR)
    pp, qq = g.meshgrid()
    with pytest.warns(GridDomainWarning, match=f"^{transform.__name__}: input") as rec:
        line = inspect.currentframe().f_lineno + 1
        transform(np.exp(-(pp**2 + qq**2) / 2.0), g)
    assert len(rec) == 1 and (rec[0].filename, rec[0].lineno) == (__file__, line)


def test_shape_mismatch_raises():
    g = CenteredGrid(1.0, 1.0, 16, HBAR)
    with pytest.raises(ValueError):
        chord_from_centre(np.zeros((8, 8)), g)


def test_simpson_weights_sum_and_order():
    for n in (3, 5, 11, 4, 10):
        w = simpson_weights(n, 0.2)
        assert np.isclose(w.sum(), (n - 1) * 0.2)
    x = np.linspace(0.0, 1.0, 7)
    w = simpson_weights(7, x[1] - x[0])
    assert np.isclose(w @ x**3, 0.25)  # exact on cubics
    x = np.linspace(0.2, 1.7, 301)
    w = simpson_weights(301, x[1] - x[0])
    assert abs(w @ np.exp(x) - (math.exp(1.7) - math.exp(0.2))) < 1e-9
    with pytest.raises(ValueError):
        simpson_weights(2, 0.1)


def _plane_wave_case(n=150, seed=3):
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=0.6, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, n)
    weights /= weights.sum()  # chi(0) = 1 for the sum without a prefactor
    a = rng.normal(size=(n, 2, 2))
    phis = 0.02 * np.einsum("kab,kcb->kac", a, a)  # symmetric, positive semidefinite
    return points, weights, phis


def _plane_wave_direct(points, weights, xi_p, xi_q, phi):
    """The sum term by term, with no factorization and no blocking."""
    xi_p, xi_q = np.broadcast_arrays(xi_p, xi_q)
    out = np.zeros(xi_p.shape, dtype=complex)
    for k, (p, q) in enumerate(points):
        f = phi if phi is None or phi.ndim == 2 else phi[k]
        quad = 0.0 if f is None else f[0, 0] * xi_p**2 + 2 * f[0, 1] * xi_p * xi_q + f[1, 1] * xi_q**2
        out += weights[k] * np.exp(1j * (p * xi_q - q * xi_p) / HBAR - quad / (2 * HBAR))
    return out


@pytest.mark.parametrize("phi_kind", ["none", "shared", "per-sample", "diagonal"])
def test_plane_wave_sum_gemm_and_pointwise_paths_agree(phi_kind, monkeypatch):
    points, weights, phis = _plane_wave_case()
    diagonal = phis * np.eye(2)  # no cross term: one series term, per-sample Gaussians
    phi = {"none": None, "shared": phis[0], "per-sample": phis, "diagonal": diagonal}[phi_kind]
    xp_axis = grids._centred_axis(24, 0.05)
    xq_axis = grids._centred_axis(18, 0.06)
    mesh = np.meshgrid(xp_axis, xq_axis, indexing="ij")
    pair = (xp_axis[:, None], xq_axis[None, :])
    for xi_p, xi_q in (mesh, pair):
        assert grids._outer_grid(xi_p, xi_q) is not None
        seen = _spy_phase_tables(monkeypatch)
        got = grids._plane_wave_sum(points, weights, xi_p, xi_q, HBAR, phi)
        monkeypatch.undo()
        assert got.shape == (24, 18) and len(seen) == 2  # the factored sum ran
        # raveled chords are not an outer grid, so they are summed point by point
        flat = grids._plane_wave_sum(points, weights, mesh[0].ravel(), mesh[1].ravel(), HBAR, phi)
        assert np.max(np.abs(got - flat.reshape(got.shape))) <= 1e-13
        want = _plane_wave_direct(points, weights, mesh[0], mesh[1], phi)
        assert np.max(np.abs(got - want)) <= 1e-13
    if phi_kind == "shared":
        # one Phi repeated per sample takes the per-sample series and gives the same sum
        each = np.broadcast_to(phi, phis.shape)
        again = grids._plane_wave_sum(points, weights, *mesh, HBAR, each)
        assert np.max(np.abs(got - again)) <= 1e-13


def test_plane_wave_sum_scattered_2d_takes_pointwise_path(monkeypatch):
    points, weights, phis = _plane_wave_case()
    rng = np.random.default_rng(5)
    xi_p, xi_q = rng.uniform(-0.6, 0.6, (2, 6, 5))
    seen = []

    def spy(a, b):
        seen.append(real(a, b))
        return seen[-1]

    real = grids._outer_grid
    monkeypatch.setattr(grids, "_outer_grid", spy)
    for phi in (None, phis[0]):
        got = grids._plane_wave_sum(points, weights, xi_p, xi_q, HBAR, phi)
        assert got.shape == (6, 5)
        assert np.max(np.abs(got - _plane_wave_direct(points, weights, xi_p, xi_q, phi))) <= 1e-13
    assert seen == [None, None]
    # an xy-indexed meshgrid varies xi_p along axis 1: not an outer grid either
    xy = np.meshgrid(np.linspace(-0.5, 0.5, 4), np.linspace(-0.3, 0.3, 3))
    assert real(*xy) is None
    assert real(np.zeros(3), np.zeros(3)) is None


def test_plane_wave_sum_blocks_agree(monkeypatch):
    """Small element budgets split both paths into many blocks, and the
    series over per-sample Phi into chunks of xi_q as well, without changing
    the sum."""
    points, weights, phis = _plane_wave_case()
    xp_axis = grids._centred_axis(16, 0.07)
    xq_axis = grids._centred_axis(14, 0.08)
    assert grids._series_terms(_gauss(phis), xp_axis, xq_axis) > 1  # the series runs
    for xi_p, xi_q in ((xp_axis[:, None], xq_axis[None, :]), (xq_axis[:, None], xp_axis[None, :])):
        whole = [grids._plane_wave_sum(points, weights, xi_p, xi_q, HBAR, f)
                 for f in (phis[0], phis)]
        for budget in (97, 2000):
            monkeypatch.setattr(grids, "_BLOCK_ELEMENTS", budget)
            split = [grids._plane_wave_sum(points, weights, xi_p, xi_q, HBAR, f)
                     for f in (phis[0], phis)]
            monkeypatch.undo()
            for a, b in zip(whole, split):
                assert np.max(np.abs(a - b)) <= 1e-13


def _exact_phase(a, n, d):
    """exp(i a n d) with the product taken in long double."""
    arg = np.longdouble(a)[:, None] * (np.longdouble(n) * np.longdouble(d))[None, :]
    return (np.cos(arg) + 1j * np.sin(arg)).astype(np.clongdouble)


def test_phase_table_is_as_accurate_as_exp():
    """The split table exp(i a_k d n) against a long-double reference: its
    error stays within twice np.exp's own on the products a_k x_n, over
    |a x| up to 75, it is exactly 1 at n = 0 and its negative nodes are the
    exact conjugates of the positive ones."""
    rng = np.random.default_rng(8)
    n = np.arange(-256, 257)
    for d in (1.0 / 64.0, 0.01, 0.0123, 3.0 / 128.0):
        a = rng.uniform(-1.0, 1.0, 500) * 75.0 / (256 * d)
        want = _exact_phase(a, n, d)
        split = grids._phase_table(a * d, n)
        direct = np.exp(1j * (a[:, None] * (n * d)))
        assert np.max(np.abs(split - want)) <= 2.0 * np.max(np.abs(direct - want))
        assert np.all(split[:, 256] == 1.0)
        assert np.array_equal(split[:, :256], np.conj(split[:, 512:256:-1]))


def _centred_case(m_p, m_q, phi_kind, weights=None, shift=0.0):
    """The arguments of an outer-grid sum on centred axes of m_p and m_q nodes
    (the xi_q axis moved by ``shift`` steps), and the point sum of the same
    terms at the raveled chords."""
    points, w, phis = _plane_wave_case()
    phi = {"none": None, "shared": phis[0], "per-sample": phis}[phi_kind]
    xp, xq = grids._centred_axis(m_p, 0.9 / m_p), grids._centred_axis(m_q, 1.1 / m_q)
    xq = xq + shift * 1.1 / m_q
    mesh = np.meshgrid(xp, xq, indexing="ij")
    w = w if weights is None else weights
    flat = grids._plane_wave_sum(points, w, mesh[0].ravel(), mesh[1].ravel(), HBAR, phi)
    return (points, w, xp[:, None], xq[None, :], HBAR, phi), flat.reshape(m_p, m_q)


def _spy_phase_tables(monkeypatch):
    """Record the node offsets of every split phase table."""
    seen = []
    real = grids._phase_table

    def spy(c, n):
        seen.append(np.array(n))
        return real(c, n)

    monkeypatch.setattr(grids, "_phase_table", spy)
    return seen


@pytest.mark.parametrize("phi_kind", ["none", "shared", "per-sample"])
@pytest.mark.parametrize("shape", [(48, 32), (32, 48)])
def test_plane_wave_sum_half_grid_matches_point_sum(shape, phi_kind, monkeypatch):
    """Real weights on two centred axes: the outer-grid sum takes xi_p's
    nodes n >= 0 and its unpaired -M/2 against xi_q's nodes and the mirror
    +M/2 of its unpaired one, and fills the rest as conjugates, whichever
    axis is wider.  Every node, the unpaired row and column among them,
    equals the point sum to 1e-14 of max, and chi(0) is exact."""
    args, want = _centred_case(*shape, phi_kind)
    seen = _spy_phase_tables(monkeypatch)
    got = grids._plane_wave_sum(*args)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    for edge in (got[0] - want[0], got[:, 0] - want[:, 0]):
        assert np.max(np.abs(edge)) <= 1e-14 * scale
    assert got[shape[0] // 2, shape[1] // 2] == np.sum(args[1])
    half_p, half_q = shape[0] // 2, shape[1] // 2
    assert sorted(list(n) for n in seen) == sorted([list(range(half_p)) + [-half_p],
                                                    list(range(-half_q, half_q + 1))])


@pytest.mark.parametrize("case", ["complex-weights", "odd", "off-centre"])
def test_plane_wave_sum_half_grid_needs_real_weights_and_centred_axes(case, monkeypatch):
    """Complex weights, an odd axis or an off-centre axis leave the factored
    form: the outer grid is the point sum of its raveled chords, bit for bit,
    with no split phase table."""
    _, w, _ = _plane_wave_case()
    weights = w * np.exp(1j * np.arange(w.size)) if case == "complex-weights" else None
    args, want = _centred_case(48, 33 if case == "odd" else 32, "per-sample", weights,
                               shift=0.25 if case == "off-centre" else 0.0)
    seen = _spy_phase_tables(monkeypatch)
    got = grids._plane_wave_sum(*args)
    assert np.array_equal(got, want)
    assert seen == []


def _has_xi_p_half(seen, m):
    """Whether a recorded table has the xi_p half-grid offsets 0 .. M/2 - 1, -M/2."""
    return any(list(n) == list(range(m // 2)) + [-(m // 2)] for n in seen)


@pytest.mark.parametrize("phi", ["absent", "shared", "per-sample"])
def test_sampling_onto_a_centred_grid_takes_the_factored_sum(phi, monkeypatch):
    """A term sum sampled onto a CenteredGrid takes the centred half-grid sum
    with Phi absent, shared or per sample: a grid whose axes fell to the
    point sum fails."""
    points, weights, phis = _plane_wave_case(n=40)
    chi = ChordFunction.from_terms(points, weights,
                                   {"absent": None, "shared": phis[0], "per-sample": phis}[phi],
                                   HBAR)
    seen = _spy_phase_tables(monkeypatch)
    chi.sample(CenteredGrid(1.2, 0.9, 32, HBAR))
    assert _has_xi_p_half(seen, 32)


def test_wkb_and_cli_chord_grids_take_the_factored_sum(tmp_path, monkeypatch):
    """A WKB curve state sampled onto a CenteredGrid, and the evolve-chord
    run's chord grid for a Wigner grid source (one shared Phi) and a quartic
    level curve (one Phi per sample), take the centred half-grid sum."""
    seen = _spy_phase_tables(monkeypatch)
    wkb_chord(harmonic_circle(0.4, 64), HBAR).sample(CenteredGrid(1.0, 1.0, 24, HBAR))
    assert _has_xi_p_half(seen, 24)
    runs = ["state.eta = 0 0.2\ngrid.points = 16\nhamiltonian.omega = 1.5\nchannel = 0 1 0 0\n"
            "time.t = 0.1\nxi.half_width = 1\n",
            "state.family = quartic\nstate.energy = 0.3\nstate.samples = 64\n"
            "hamiltonian.family = quartic\nchannel = 0 1.2 0 0\ntime.t = 0.1\nxi.points = 16\n"]
    for k, text in enumerate(runs):
        del seen[:]
        cfg = tmp_path / f"r{k}.cfg"
        cfg.write_text(f"hbar = {HBAR}\n" + text)
        assert cli.run(["evolve-chord", "--config", str(cfg), "--out", str(tmp_path / f"o{k}")]) == 0
        assert _has_xi_p_half(seen, 16)


def test_plane_wave_sum_outer_grid_takes_few_complex_exponentials(monkeypatch):
    """640 real-weight samples on a centred 128 x 128 grid: the split tables
    take at most 2 sqrt(M) complex exponentials per sample and axis, where a
    table of np.exp took M = 128."""
    rng = np.random.default_rng(6)
    points = rng.normal(scale=0.6, size=(640, 2))
    weights = np.full(640, 1.0 / 640)
    axis = grids._centred_axis(128, 0.02)
    count = [0]
    real = np.exp

    def spy(x, *args, **kwargs):
        if np.iscomplexobj(x):
            count[0] += np.size(x)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    got = grids._plane_wave_sum(points, weights, axis[:, None], axis[None, :], HBAR)
    monkeypatch.undo()
    assert count[0] <= 640 * 2 * 2 * math.isqrt(128)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    want = _plane_wave_direct(points, weights, *mesh, None)
    assert np.max(np.abs(got - want)) <= 1e-13


def _gauss(phis):
    """Per-sample (g0, g1, g2) = -(Phi_pp, 2 Phi_pq, Phi_qq) / (2 hbar)."""
    return np.stack([phis[:, 0, 0], 2.0 * phis[:, 0, 1], phis[:, 1, 1]], axis=-1) / (-2.0 * HBAR)


def _poisson_tail(x, r):
    """P(N >= r) for N ~ Poisson(x), summed term by term."""
    k = np.arange(r, r + 200)
    return float(np.sum(np.exp(k * math.log(x) - x - [math.lgamma(j + 1.0) for j in k])))


def test_series_terms_meet_the_tail_bound():
    gauss = np.array([[-1.0, -1.0, -1.0], [-0.5, 0.25, -2.0]])  # PSD, max|g1| = 1
    for x in (0.5, 2.0, 5.0):
        r = grids._series_terms(gauss, np.array([-x, 0.5]), np.array([0.0, 1.0]))
        assert _poisson_tail(x, r) <= 2.0**-53 < _poisson_tail(x, r - 1)
    assert grids._series_terms(gauss, np.zeros(3), np.ones(2)) == 1
    # the count ends, on no term, for every non-finite input
    assert grids._series_terms(gauss, np.array([np.inf]), np.ones(2)) is None
    assert grids._series_terms(np.full((1, 3), np.nan), np.ones(2), np.ones(2)) is None
    assert grids._series_terms(np.array([[-1.0, np.inf, -1.0]]), np.ones(2), np.ones(2)) is None


@pytest.mark.parametrize("broken", ["nan", "indefinite", "too-many-terms"])
def test_plane_wave_sum_series_falls_back_to_point_sum(broken, monkeypatch):
    points, weights, phis = _plane_wave_case()
    phis = phis.copy()
    if broken == "nan":
        phis[3, 0, 1] = phis[3, 1, 0] = np.nan
    elif broken == "indefinite":
        phis[3] = [[0.02, 0.05], [0.05, 0.02]]  # eigenvalues 0.07 and -0.03
    else:
        phis *= 40.0  # X = 34, past the measured crossover
    xp_axis = grids._centred_axis(12, 0.1)
    xq_axis = grids._centred_axis(10, 0.11)
    seen = []
    real = grids._series_terms

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(grids, "_series_terms", spy)
    with np.errstate(invalid="ignore"):  # exp(nan)
        got = grids._plane_wave_sum(points, weights, xp_axis[:, None], xq_axis[None, :], HBAR, phis)
        want = _plane_wave_direct(points, weights, *np.meshgrid(xp_axis, xq_axis, indexing="ij"),
                                  phis)
    assert seen == [None]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert broken != "nan" or not ok.any()
    if ok.any():
        assert np.max(np.abs(got[ok] - want[ok])) <= 1e-13 * np.max(np.abs(want[ok]))
