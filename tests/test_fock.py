import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from chordlab import dynamics, fock, hamiltonians
from chordlab.diagnostics import GridDomainWarning, TruncationWarning
from chordlab.dynamics import LindbladChannel
from chordlab.fock import (
    FockDensityMatrix,
    TruncationLeakError,
    build_linear_lindblad,
    cat_density_matrix,
    chord_function_exact,
    chord_function_grid,
    coherent_amplitudes,
    coherent_density_matrix,
    displacement_matrix,
    evolve_state,
    fock_density_matrix,
    hamiltonian_matrix,
    hermite_functions,
    lindblad_evolve,
    lowering,
    p_operator,
    position_density_matrix,
    pure_density,
    q_operator,
    wigner_exact,
)
from chordlab.grids import CenteredGrid
from chordlab.states import (
    CoherentState,
    coherent_chord_function,
    coherent_position_slices,
    coherent_wavefunction,
    coherent_wigner,
)

HBAR = 0.05

DAMPING = LindbladChannel((0.0, 1.0), (1.0, 0.0))
PUMP = LindbladChannel((1.0, 0.0), (0.0, 1.0))
Q_MEASURE = LindbladChannel((0.0, 1.0))


def test_canonical_commutator():
    dim = 24
    q = q_operator(dim, HBAR)
    p = p_operator(dim, HBAR)
    comm = q @ p - p @ q
    want = 1j * HBAR * np.eye(dim - 1)
    assert np.max(np.abs(comm[:-1, :-1] - want)) < 1e-14


def test_lowering_entries():
    a = lowering(4)
    assert a[0, 1] == 1.0 and a[1, 2] == pytest.approx(math.sqrt(2.0))
    assert np.count_nonzero(a) == 3


def test_damping_channel_is_lowering():
    dim = 16
    want = math.sqrt(2.0 * HBAR) * lowering(dim)
    got = build_linear_lindblad(DAMPING, HBAR, dim)
    assert np.max(np.abs(got - want)) < 1e-14


def test_coherent_amplitudes_formula():
    eta = (0.3, -0.4)
    alpha = (eta[1] + 1j * eta[0]) / math.sqrt(2.0 * HBAR)
    c = coherent_amplitudes(eta, HBAR, 64)
    for n in range(6):
        want = math.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))
        assert abs(c[n] - want) < 1e-14
    assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-12
    with pytest.warns(TruncationWarning):
        coherent_amplitudes((0.0, 1.0), HBAR, 12)


def test_chord_function_matches_closed_form():
    state = CoherentState((0.3, -0.4), HBAR)
    rho = coherent_density_matrix(state.eta, HBAR, 96)
    s = 3.0 * math.sqrt(HBAR)
    xi_p, xi_q = np.meshgrid(np.linspace(-s, s, 5), np.linspace(-s, s, 5),
                             indexing="ij")
    want = coherent_chord_function(state, xi_p, xi_q)
    scale = 1.0 / (2.0 * math.pi * HBAR)
    for method in ("displacement", "position"):
        got = chord_function_exact(rho, xi_p, xi_q, method=method)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-8 * scale
    v = chord_function_exact(rho, 0.0, 0.0)
    assert np.ndim(v) == 0
    assert abs(v - scale) < 1e-8 * scale
    with pytest.raises(ValueError):
        chord_function_exact(rho, 0.0, 0.0, method="nope")


def test_position_route_matches_displacement_on_grid_and_scattered_points():
    """The position route is one GEMM on an outer grid of chords and a
    pointwise sum on scattered chords; both reproduce the displacement trace."""
    rho = cat_density_matrix((0.3, -0.2), HBAR, 64)
    s = 3.0 * math.sqrt(HBAR)
    grid = np.meshgrid(np.linspace(-s, s, 7), np.linspace(-s, 0.8 * s, 6), indexing="ij")
    scattered = np.random.default_rng(1).uniform(-s, s, (2, 5, 4))
    scale = 1.0 / (2.0 * math.pi * HBAR)
    for xi_p, xi_q in (grid, scattered):
        got = chord_function_exact(rho, xi_p, xi_q, method="position")
        want = chord_function_exact(rho, xi_p, xi_q, method="displacement")
        assert got.shape == xi_p.shape
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_chord_function_defaults_to_the_position_route():
    """The default is the position route at any point count; "auto" is gone."""
    rho = coherent_density_matrix((0.3, -0.4), HBAR, 48)
    xi_p, xi_q = np.random.default_rng(5).uniform(-0.5, 0.5, (2, 6))
    got = chord_function_exact(rho, xi_p, xi_q)
    assert got.tobytes() == chord_function_exact(rho, xi_p, xi_q, method="position").tobytes()
    want = chord_function_exact(rho, xi_p, xi_q, method="displacement")
    assert np.max(np.abs(got - want)) < 1e-12 / (2.0 * math.pi * HBAR)
    with pytest.raises(ValueError, match="position or displacement"):
        chord_function_exact(rho, xi_p, xi_q, method="auto")


def test_displacement_matrix_properties():
    alpha = 0.5 + 0.2j
    dim = 48
    d = displacement_matrix(alpha, dim)
    a = lowering(dim)
    via_expm = expm(alpha * a.conj().T - np.conj(alpha) * a)
    assert np.max(np.abs(d[:24, :24] - via_expm[:24, :24])) < 1e-10
    unit = d.conj().T @ d
    assert np.max(np.abs(unit[:24, :24] - np.eye(24))) < 1e-10


def test_hermite_functions_orthonormal():
    x = np.linspace(-3.0, 3.0, 4001)
    psi = hermite_functions(12, x, HBAR)
    gram = psi @ psi.T * (x[1] - x[0])
    assert np.max(np.abs(gram - np.eye(13))) < 1e-8
    ground = coherent_wavefunction(CoherentState((0.0, 0.0), HBAR), x)
    assert np.max(np.abs(psi[0] - np.real(ground))) < 1e-12


def test_position_density_matrix_vs_coherent():
    state = CoherentState((0.3, 0.2), HBAR)
    rho = coherent_density_matrix(state.eta, HBAR, 96)
    q_axis = np.linspace(-0.8, 1.2, 21)
    s_axis = np.linspace(-0.6, 0.6, 7)
    got = position_density_matrix(rho, q_axis, s_axis)
    want = coherent_position_slices(state, q_axis, s_axis)
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def _complex_slices(rho, q_axis, s_axis):
    """psi(q-)^T rho psi(q+) as one complex product per node."""
    qm = (q_axis[:, None] - 0.5 * s_axis[None, :]).ravel()
    qp = (q_axis[:, None] + 0.5 * s_axis[None, :]).ravel()
    psi_m = hermite_functions(rho.dim - 1, qm, rho.hbar).astype(complex)
    psi_p = hermite_functions(rho.dim - 1, qp, rho.hbar).astype(complex)
    return np.sum(psi_m * (rho.rho @ psi_p), axis=0).reshape(q_axis.size, s_axis.size)


def _evolved_cat(dim):
    rho0 = cat_density_matrix((0.3, 0.4), HBAR, dim)
    H = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    return lindblad_evolve(rho0, H, [build_linear_lindblad(Q_MEASURE, HBAR, dim)], 0.3, HBAR,
                           dt=4e-3)


@pytest.mark.parametrize("state", ["cat48", "cat56", "fock3"])
@pytest.mark.parametrize("axes", ["centred", "asymmetric"])
def test_position_density_matrix_matches_complex_reference(state, axes):
    """The |s| half axis in real arithmetic reproduces the complex product on
    every node: the unpaired -M/2 node of a centred even axis, s = 0, and s
    values whose mirror image is not on the axis."""
    rho = fock_density_matrix(3, HBAR, 48) if state == "fock3" else _evolved_cat(int(state[3:]))
    if state != "fock3":
        assert np.max(np.abs(rho.rho.imag)) > 1e-3  # complex off-diagonals
    if axes == "centred":
        grid = CenteredGrid(2.2, 2.2, 64, HBAR)
        q_axis, s_axis = grid.q_axis, grid.conjugate().q_axis
    else:
        q_axis = np.linspace(-1.7, 1.3, 61)
        s_axis = np.array([-0.9, -0.45, -0.3, -0.05, 0.0, 0.05, 0.2, 0.45, 0.7, 1.1])
    got = position_density_matrix(rho, q_axis, s_axis)
    want = _complex_slices(rho, q_axis, s_axis)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def test_position_density_matrix_rejects_non_hermitian():
    rho = coherent_density_matrix((0.3, 0.2), HBAR, 24)
    skewed = FockDensityMatrix(rho.rho + 1e-6 * np.triu(np.ones((24, 24)), 1), HBAR)
    with pytest.raises(ValueError, match="Hermitian"):
        position_density_matrix(skewed, np.zeros(3), np.linspace(-0.2, 0.2, 3))


def test_wigner_exact_fock_states_at_origin():
    grid = CenteredGrid(2.5, 2.5, 128, HBAR)
    mid = grid.points // 2
    for n in range(4):
        rho = fock_density_matrix(n, HBAR, 64)
        w = wigner_exact(rho, grid)
        want = (-1.0) ** n / (math.pi * HBAR)
        assert abs(w[mid, mid] - want) < 1e-8 / (math.pi * HBAR)


def test_wigner_exact_coherent_grid():
    state = CoherentState((0.2, -0.3), HBAR)
    rho = coherent_density_matrix(state.eta, HBAR, 96)
    grid = CenteredGrid(2.0, 2.0, 128, HBAR)
    w = wigner_exact(rho, grid)
    pp, qq = grid.meshgrid()
    want = coherent_wigner(state, pp, qq)
    assert np.max(np.abs(w - want)) < 1e-8 / (math.pi * HBAR)
    with pytest.raises(ValueError):
        wigner_exact(rho, CenteredGrid(2.0, 2.0, 128, 2 * HBAR))
    with pytest.raises(ValueError):
        chord_function_grid(rho, CenteredGrid(2.0, 2.0, 128, 2 * HBAR))


def test_damped_harmonic_first_moments():
    dim = 64
    t = 0.4
    rho0 = coherent_density_matrix((0.0, 1.0), HBAR, dim)
    out = evolve_state(rho0, hamiltonians.harmonic(), [DAMPING], t)
    q = q_operator(dim, HBAR)
    p = p_operator(dim, HBAR)
    mean_q = float(np.real(np.trace(out.rho @ q)))
    mean_p = float(np.real(np.trace(out.rho @ p)))
    decay = math.exp(-t)
    assert abs(mean_p - (-decay * math.sin(t))) < 1e-14
    assert abs(mean_q - decay * math.cos(t)) < 1e-14
    # pure damping carries a coherent state into a coherent state
    assert np.real(np.trace(out.rho @ out.rho)) > 1.0 - 1e-8


def test_quadratic_form_first_moments_follow_centre_map():
    """A custom quadratic model with pq and linear terms has a matrix by its
    Weyl form; under linear channels the Fock first moments of a coherent
    state follow dynamics.advect's closed-form centre map."""
    s = np.array([[1.0, 0.4], [0.4, 0.7]])
    g = np.array([0.2, -0.3])
    model = dynamics.HamiltonianModel(
        name="quadratic-form",
        value=lambda x: 0.5 * np.einsum("...a,ab,...b->...", x, s, x) + x @ g + 0.1,
        gradient=lambda x: np.einsum("ab,...b->...a", s, x) + g,
        hessian=lambda x: np.broadcast_to(s, x.shape[:-1] + (2, 2)).copy(),
        quadratic=True,
    )
    dim = 64
    eta = (0.3, -0.4)
    q = q_operator(dim, HBAR)
    p = p_operator(dim, HBAR)
    rho0 = coherent_density_matrix(eta, HBAR, dim)
    for channels in ([DAMPING], [DAMPING, Q_MEASURE]):
        out = evolve_state(rho0, model, channels, 1.1)
        got = np.real([np.trace(out.rho @ p), np.trace(out.rho @ q)])
        want = dynamics.advect(model, channels, np.array([eta]), 1.1, 1e-3)[0]
        assert np.max(np.abs(got - want)) < 1e-13


def test_measurement_channel_decoheres():
    dim = 48
    rho0 = coherent_density_matrix((0.0, 0.5), HBAR, dim)
    out = evolve_state(rho0, hamiltonians.zero(), [Q_MEASURE], 0.5)
    assert np.real(np.trace(out.rho @ out.rho)) < 0.9
    rep = out.validate()
    assert rep["trace_error"] < 1e-10
    assert rep["hermiticity_error"] < 1e-12
    assert rep["min_eigenvalue"] > -1e-10
    assert rep["leak_fraction"] < 1e-8


def test_zero_generator_keeps_state():
    rho0 = coherent_density_matrix((0.3, 0.3), HBAR, 32)
    out = evolve_state(rho0, hamiltonians.zero(), [], 0.2)
    assert np.max(np.abs(out.rho - rho0.rho)) < 1e-12


def test_cat_parity_and_trace():
    rho = cat_density_matrix((0.0, 1.0), HBAR, 64)
    pops = rho.populations()
    assert np.allclose(pops[1::2], 0.0)
    assert rho.trace() == pytest.approx(1.0)
    assert np.real(np.trace(rho.rho @ rho.rho)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("build", [coherent_density_matrix, cat_density_matrix])
def test_pure_states_carry_their_amplitude_warnings(build):
    """The amplitude tail note lands in the returned record, whose rho is the
    normalized pure state of the amplitudes."""
    with pytest.warns(TruncationWarning, match="tail"):
        rho = build((0.0, 1.0), HBAR, 12)
    assert len(rho.warnings) == 1 and "tail" in rho.warnings[0]
    assert rho.hbar == HBAR and rho.trace() == pytest.approx(1.0, abs=1e-14)
    assert build((0.0, 0.3), HBAR, 48).warnings == []


@pytest.mark.parametrize("build", [coherent_density_matrix, cat_density_matrix])
@pytest.mark.parametrize("eta", [(math.nan, 0.0), (0.0, math.inf)], ids=["p-nan", "q-inf"])
def test_pure_states_reject_a_non_finite_centre(build, eta):
    """Before, these gave an all-nan rho."""
    with pytest.raises(ValueError, match="eta must be finite"):
        build(eta, HBAR, 16)


def test_fock_density_validation():
    with pytest.raises(ValueError):
        fock_density_matrix(-1, HBAR, 8)
    with pytest.raises(ValueError):
        fock_density_matrix(8, HBAR, 8)
    for bad in (-0.05, 0.0, math.nan):  # before, every state record took any hbar
        with pytest.raises(ValueError, match="hbar must be finite and positive"):
            fock_density_matrix(1, bad, 8)
        with pytest.raises(ValueError, match="hbar must be finite and positive"):
            pure_density(np.ones(4), bad)
    rho = fock_density_matrix(3, HBAR, 8)
    assert rho.populations()[3] == 1.0 and rho.dim == 8


def test_truncation_leak_raises():
    dim = 32
    rho0 = coherent_density_matrix((0.0, 0.0), HBAR, dim)
    h = hamiltonian_matrix(hamiltonians.zero(), dim, HBAR)
    l_pump = build_linear_lindblad(PUMP, HBAR, dim)
    with pytest.raises(TruncationLeakError) as err:
        lindblad_evolve(rho0, h, [l_pump], 2.0, HBAR)
    assert err.value.dim == dim
    with pytest.raises(ValueError):
        lindblad_evolve(rho0, h, [l_pump], -1.0, HBAR)
    # a non-finite operator must not pass for a zero one
    h[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        lindblad_evolve(rho0, h, [l_pump], 0.1, HBAR)


def test_pumped_vacuum_occupation():
    """The mean occupation of the pumped vacuum grows as e^{2t} - 1; an
    undersized basis raises instead of truncating silently."""
    def evolve(dim, t):
        rho0 = coherent_density_matrix((0.0, 0.0), HBAR, dim)
        h = hamiltonian_matrix(hamiltonians.zero(), dim, HBAR)
        return lindblad_evolve(rho0, h, [build_linear_lindblad(PUMP, HBAR, dim)], t, HBAR)

    out = evolve(64, 0.5)
    assert out.leak_fraction() < 1e-6
    mean_n = float(np.sum(np.arange(out.dim) * out.populations()))
    assert mean_n == pytest.approx(math.exp(1.0) - 1.0, rel=1e-11)
    with pytest.raises(TruncationLeakError):
        evolve(16, 2.5)


def test_checkpoint_spacing_does_not_change_the_state():
    """dt only spaces the leak checks: the evolution itself is exact."""
    dim = 48
    rho0 = cat_density_matrix((0.3, -0.2), HBAR, dim)
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    l_ops = [build_linear_lindblad(Q_MEASURE, HBAR, dim)]
    fine = lindblad_evolve(rho0, h, l_ops, 1.3, HBAR, dt=1e-3)
    coarse = lindblad_evolve(rho0, h, l_ops, 1.3, HBAR, dt=0.05)
    assert np.max(np.abs(fine.rho - coarse.rho)) < 1e-13


def test_lindblad_evolve_matches_dense_generator_exponential():
    """Reference: the generator assembled column by column from the matrix
    form of the master equation, exponentiated densely.  The pendulum's
    eigh-built cos q carries rounding noise in every entry, which the sparse
    build drops."""
    h, l_ops, gen = _dense_pendulum_generator()
    rho0 = coherent_density_matrix((0.2, 0.3), HBAR, 24)
    want = (expm(0.7 * gen) @ rho0.rho.ravel()).reshape(24, 24)
    got = lindblad_evolve(rho0, h, l_ops, 0.7, HBAR)
    assert np.max(np.abs(got.rho - want)) < 5e-14


def _dense_pendulum_generator(dim=24):
    """H and L of a damped, measured pendulum, and the generator assembled
    column by column from the matrix form of the master equation."""
    h = hamiltonian_matrix(hamiltonians.pendulum(1.0), dim, HBAR)
    l_ops = [build_linear_lindblad(ch, HBAR, dim) for ch in (DAMPING, Q_MEASURE)]

    def rhs(rho):
        out = (-1j / HBAR) * (h @ rho - rho @ h)
        for lm in l_ops:
            ldl = lm.conj().T @ lm
            out += (lm @ rho @ lm.conj().T - 0.5 * (ldl @ rho + rho @ ldl)) / HBAR
        return out

    gen = np.stack([rhs(e).ravel() for e in np.eye(dim * dim).reshape(-1, dim, dim)], axis=1)
    return h, l_ops, gen


def test_one_segment_beyond_condition_3_13_matches_dense_exponential():
    """dt = 1 makes t = 0.7 one segment whose 1-norm fails Al-Mohy & Higham's
    condition 3.13, where their algorithm would lower s from norm estimates
    of powers; the 1-norm's larger s must still be exact."""
    h, l_ops, gen = _dense_pendulum_generator()
    assert np.abs(0.7 * gen).sum(axis=0).max() > 63.36
    rho0 = coherent_density_matrix((0.2, 0.3), HBAR, 24)
    want = (expm(0.7 * gen) @ rho0.rho.ravel()).reshape(24, 24)
    got = lindblad_evolve(rho0, h, l_ops, 0.7, HBAR, dt=1.0)
    assert np.max(np.abs(got.rho - want)) < 5e-14


def _per_segment_reference(rho0, h, l_ops, t, dt):
    """The evolution as scipy's expm_multiply, called once per segment."""
    segments = max(1, math.ceil(t / (25 * dt)))
    step = fock._liouvillian(h, l_ops, HBAR) * (t / segments)
    vec = rho0.rho.ravel()
    for _ in range(segments):
        vec = expm_multiply(step, vec, traceA=0.0)
    rho = vec.reshape(rho0.dim, rho0.dim)
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("channels", [(Q_MEASURE,), (DAMPING,), (Q_MEASURE, DAMPING)],
                         ids=["q", "damping", "both"])
@pytest.mark.parametrize("model, dim", [
    (hamiltonians.harmonic(), 24), (hamiltonians.harmonic(), 64),
    (hamiltonians.quartic(1.0, 1.0), 48), (hamiltonians.quartic(1.0, 1.0), 120),
    (hamiltonians.pendulum(1.0), 32), (hamiltonians.pendulum(1.0), 80),
], ids=["harmonic-24", "harmonic-64", "quartic-48", "quartic-120", "pendulum-32",
        "pendulum-80"])
def test_taylor_loop_matches_per_segment_expm_multiply(model, dim, channels):
    """Segment 1-norms here satisfy condition 3.13, where the loop's (m*, s) is
    scipy's choice: the same terms in the same order."""
    rho0 = cat_density_matrix((0.25, 0.3), HBAR, dim)
    h = hamiltonian_matrix(model, dim, HBAR)
    l_ops = [build_linear_lindblad(ch, HBAR, dim) for ch in channels]
    got = lindblad_evolve(rho0, h, l_ops, 0.1, HBAR, dt=1e-3).rho
    want = _per_segment_reference(rho0, h, l_ops, 0.1, 1e-3)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_zero_generator_returns_rho0_unchanged():
    # exactly Hermitian, so the closing symmetrization is the identity
    cat = cat_density_matrix((0.3, -0.2), HBAR, 24).rho
    rho0 = FockDensityMatrix(0.5 * (cat + cat.conj().T), HBAR)
    h = np.zeros((24, 24))
    for l_ops in ([], [np.zeros((24, 24))]):
        out = lindblad_evolve(rho0, h, l_ops, 0.4, HBAR)
        assert np.array_equal(out.rho, rho0.rho)
    # t = 0 scales a nonzero generator to zero
    l_ops = [build_linear_lindblad(DAMPING, HBAR, 24)]
    out = lindblad_evolve(rho0, hamiltonian_matrix(hamiltonians.harmonic(), 24, HBAR), l_ops,
                          0.0, HBAR)
    assert np.array_equal(out.rho, rho0.rho)


def test_leak_error_comes_from_the_first_segment_past_the_tolerance():
    """The pumped vacuum's top-decile population grows with every segment; the
    error must report the first segment's population over 1e-6, not the last."""
    dim, t, dt = 16, 2.5, 4e-3
    rho0 = coherent_density_matrix((0.0, 0.0), HBAR, dim)
    h = hamiltonian_matrix(hamiltonians.zero(), dim, HBAR)
    l_ops = [build_linear_lindblad(PUMP, HBAR, dim)]
    segments = math.ceil(t / (25 * dt))
    step = fock._liouvillian(h, l_ops, HBAR) * (t / segments)
    vec = rho0.rho.ravel()
    leaks = []
    for _ in range(segments):
        vec = expm_multiply(step, vec, traceA=0.0)
        leaks.append(fock._top_decile(np.real(vec[::dim + 1])))
    first = next(k for k, leak in enumerate(leaks) if leak > 1e-6)
    assert 0 < first < segments - 1 and leaks[-1] > 10 * leaks[first]
    with pytest.raises(TruncationLeakError, match=f"population {leaks[first]:.2e} reached"):
        lindblad_evolve(rho0, h, l_ops, t, HBAR, dt=dt)


@pytest.mark.parametrize("kwargs, message", [
    ({"t": math.nan}, "t must be finite"),
    ({"t": math.inf}, "t must be finite"),
    ({"t": -1.0}, "t must be finite and nonnegative"),
    ({"dt": 0.0}, "dt must be finite and positive"),
    ({"dt": -1.0}, "dt must be finite and positive"),
    ({"dt": math.nan}, "dt must be finite and positive"),
    ({"dt": math.inf}, "dt must be finite and positive"),
    ({"hbar": 0.0}, "hbar must be finite and positive"),
    ({"hbar": -HBAR}, "hbar must be finite and positive"),
    ({"hbar": math.inf}, "hbar must be finite and positive"),
    ({"hbar": math.nan}, "hbar must be finite and positive"),
    ({"h_mat": np.zeros((23, 23))}, r"h_mat has shape \(23, 23\)"),
    ({"l_mats": [np.zeros((24, 24)), np.zeros((24, 25))]}, r"l_mats\[1\] has shape"),
], ids=["t-nan", "t-inf", "t-negative", "dt-zero", "dt-negative", "dt-nan", "dt-inf",
        "hbar-zero", "hbar-negative", "hbar-inf", "hbar-nan", "h-shape", "l-shape"])
def test_lindblad_evolve_rejects_bad_times_and_shapes(kwargs, message):
    dim = 24
    args = {"rho0": coherent_density_matrix((0.0, 0.0), HBAR, dim),
            "h_mat": hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR),
            "l_mats": [build_linear_lindblad(DAMPING, HBAR, dim)],
            "t": 3.0, "hbar": HBAR, "dt": 1e-3}
    args.update(kwargs)
    with pytest.raises(ValueError, match=message):
        lindblad_evolve(**args)


def test_lindblad_evolve_rejects_another_hbar_and_a_non_hermitian_state():
    """Before, a state built at another hbar came back relabelled, and a
    non-Hermitian rho0 was evolved as its Hermitian part."""
    dim = 24
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, 0.1)
    rho0 = coherent_density_matrix((0.0, 0.0), HBAR, dim)
    with pytest.raises(ValueError, match="hbar = 0.1 differs from the state's 0.05"):
        lindblad_evolve(rho0, h, [], 0.5, 0.1)
    raw = np.zeros((dim, dim), dtype=complex)
    raw[0, 0] = raw[1, 1] = 0.5
    raw[0, 1] = 0.3
    with pytest.raises(ValueError, match="not Hermitian"):
        lindblad_evolve(raw, h, [], 0.5, 0.1)


@pytest.mark.parametrize("hbar", [-HBAR, 0.0, math.nan])
def test_hermite_functions_reject_an_hbar_that_is_not_finite_and_positive(hbar):
    """Before, a negative hbar raised math's "math domain error"."""
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        hermite_functions(3, np.linspace(-1.0, 1.0, 5), hbar)


def test_hamiltonian_matrix_families():
    dim = 64
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    want = HBAR * (np.arange(dim) + 0.5)
    # the very last diagonal element feels the basis truncation; the rest
    # of the matrix is the exact ladder spectrum
    assert np.max(np.abs(h[:-1, :-1] - np.diag(want[:-1]))) < 1e-12

    zero = hamiltonian_matrix(hamiltonians.zero(), dim, HBAR)
    assert np.count_nonzero(zero) == 0

    free = hamiltonian_matrix(hamiltonians.free(2.0), dim, HBAR)
    p = p_operator(dim, HBAR)
    assert np.max(np.abs(free - p @ p / 4.0)) < 1e-12

    quart = hamiltonian_matrix(hamiltonians.quartic(1.0, 0.5), dim, HBAR)
    assert np.max(np.abs(quart - quart.conj().T)) < 1e-12

    pend = hamiltonian_matrix(hamiltonians.pendulum(1.0), dim, HBAR)
    assert np.max(np.abs(pend - pend.conj().T)) < 1e-10
    ground = float(np.linalg.eigvalsh(pend)[0])
    # near the bottom of the cosine well: -g + hbar omega_0 / 2
    assert ground == pytest.approx(-1.0 + 0.5 * HBAR, abs=5e-3)

    # a quadratic model is built from its Weyl form whatever its name; a
    # non-quadratic one must be a family known by name
    bogus = hamiltonians.harmonic()
    renamed = type(bogus)("rotor", bogus.value, bogus.gradient, bogus.hessian,
                         True, bogus.params)
    assert np.max(np.abs(hamiltonian_matrix(renamed, dim, HBAR) - h)) < 1e-14
    fake = type(bogus)("rotor", bogus.value, bogus.gradient, bogus.hessian,
                      False, bogus.params)
    with pytest.raises(ValueError):
        hamiltonian_matrix(fake, dim, HBAR)


def test_pure_density_normalizes():
    psi = np.array([3.0, 4.0], dtype=complex)
    rho = pure_density(psi, HBAR)
    assert rho.trace() == pytest.approx(1.0)
    assert rho.rho[0, 0] == pytest.approx(0.36)


def test_wigner_grid_warning_on_cramped_axis():
    rho = coherent_density_matrix((0.0, 1.2), HBAR, 96)
    # coarse p axis makes the conjugate s range too short for the slices
    grid = CenteredGrid(10.0, 2.0, 64, HBAR)
    sink = []
    with pytest.warns(GridDomainWarning):
        wigner_exact(rho, grid, sink=sink)
    assert sink
