import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
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


def _sparse(mat) -> sparse.csr_array:
    """CSR copy of mat without the entries at most eps times its largest, the
    rounding noise the generator build drops."""
    mat = np.asarray(mat, dtype=complex)
    return sparse.csr_array(np.where(np.abs(mat) > np.finfo(float).eps * np.abs(mat).max(),
                                     mat, 0.0))


def _liouvillian(h_mat, l_mats, hbar) -> sparse.csr_array:
    """Reference: the Lindblad generator acting on rho.ravel() (row-major) as a
    sum of Kronecker products, in CSR:
    -(i/hbar)(H (x) I - I (x) H^T) + sum_k (L (x) L* - L+L (x) I/2 - I (x) (L+L)^T/2)/hbar."""
    h = _sparse(h_mat)
    eye = sparse.eye_array(h.shape[0], dtype=complex, format="csr")
    gen = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for lm in map(_sparse, l_mats):
        ldl = lm.conj().T @ lm
        gen = gen + sparse.kron(lm, lm.conj()) \
            - 0.5 * (sparse.kron(ldl, eye) + sparse.kron(eye, ldl.T))
    return sparse.csr_array(gen / hbar)


def _norm(gen) -> float:
    """The 1-norm of a sparse matrix: its largest column sum of |entries|."""
    return float(abs(gen).sum(axis=0).max())


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


@pytest.mark.parametrize("build", [coherent_amplitudes, coherent_density_matrix,
                                   cat_density_matrix])
@pytest.mark.parametrize("dim", [0, -2])
def test_an_empty_basis_raises_naming_dim(build, dim):
    """Before, dim = 0 raised IndexError from the first amplitude's store."""
    with pytest.raises(ValueError, match="dim must be at least 1"):
        build((0.3, -0.4), HBAR, dim)


@pytest.mark.parametrize("call, message", [
    (lambda: fock_density_matrix(2.5, HBAR, 10),
     r"n must be in \[0, 10\), a whole number, got 2.5$"),
    (lambda: fock_density_matrix(10, HBAR, 10), r"n must be in \[0, 10\), a whole number, got 10"),
    (lambda: fock_density_matrix(-1, HBAR, 10), r"n must be in \[0, 10\)"),
    (lambda: fock_density_matrix(math.nan, HBAR, 10), r"n must be in \[0, 10\)"),
    (lambda: fock_density_matrix(0, HBAR, 12.5), "dim must be at least 1, a whole number, got 12"),
    (lambda: fock_density_matrix(0, HBAR, 0), "dim must be at least 1"),
    (lambda: coherent_amplitudes((0.3, -0.4), HBAR, 12.5), "dim must be at least 1, a whole"),
    (lambda: coherent_density_matrix((0.3, -0.4), HBAR, 12.5), "dim must be at least 1, a whole"),
    (lambda: cat_density_matrix((0.3, -0.4), HBAR, math.inf), "dim must be at least 1, a whole"),
    (lambda: hermite_functions(-1, [0.0], HBAR), "n_max must be at least 0, a whole number"),
    (lambda: hermite_functions(2.5, [0.0], HBAR), "n_max must be at least 0, a whole number"),
], ids=["fock-n-half", "fock-n-dim", "fock-n-negative", "fock-n-nan", "fock-dim-half",
        "fock-dim-zero", "amplitudes-dim-half", "coherent-dim-half", "cat-dim-inf",
        "hermite-negative", "hermite-half"])
def test_number_basis_counts_name_themselves(call, message):
    """Before, these raised numpy's IndexError or TypeError, naming nothing."""
    with pytest.raises(ValueError, match=message):
        call()


def test_whole_float_counts_pass():
    rho = fock_density_matrix(2.0, HBAR, 10.0)
    assert rho.dim == 10 and rho.populations()[2] == 1.0
    assert hermite_functions(3.0, [0.1], HBAR).shape == (4, 1)


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
    """The position route is two GEMMs on an outer grid of chords and one
    contraction per point on scattered chords; both reproduce the
    displacement trace."""
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
    """Up to order 238, the table of a dim-120 rotated readout."""
    x = np.arange(-7.0, 7.0, 0.005)
    psi = hermite_functions(238, x, HBAR)
    gram = psi @ psi.T * 0.005
    assert np.max(np.abs(gram - np.eye(239))) <= 1e-12
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
    return lindblad_evolve(rho0, H, [build_linear_lindblad(Q_MEASURE, HBAR, dim)], 0.3, HBAR)


@pytest.mark.parametrize("state", ["cat48", "cat56", "fock3"])
@pytest.mark.parametrize("axes", ["centred", "asymmetric"])
def test_position_density_matrix_matches_complex_reference(state, axes):
    """The rotated-basis GEMMs in real arithmetic reproduce the complex
    product on every node: the unpaired -M/2 node of a centred even axis,
    s = 0, and s values whose mirror image is not on the axis."""
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
def test_pure_states_that_mostly_miss_the_basis_raise(build):
    """Before, (3, 3) at dim 8 came back normalized with 0.961 of its
    population on n = 7, flagged only by the tail note: the state was mostly
    outside the basis.  A tail of at least 1/2 now raises after that note;
    the tail of 0.303 at (0, 1), dim 12, still returns."""
    with pytest.warns(TruncationWarning, match="tail 1.00e\\+00 at dim 8"), \
            pytest.raises(ValueError, match="a dim-8 basis misses 1.00e\\+00 of the coherent amplitudes"):
        build((3.0, 3.0), HBAR, 8)
    with pytest.warns(TruncationWarning, match="tail 3.03e-01"):
        build((0.0, 1.0), HBAR, 12)


@pytest.mark.parametrize("build", [coherent_density_matrix, cat_density_matrix])
@pytest.mark.parametrize("eta", [(math.nan, 0.0), (0.0, math.inf)], ids=["p-nan", "q-inf"])
def test_pure_states_reject_a_non_finite_centre(build, eta):
    """Before, these gave an all-nan rho."""
    with pytest.raises(ValueError, match="eta must be finite"):
        build(eta, HBAR, 16)


@pytest.mark.parametrize("build", [coherent_density_matrix, cat_density_matrix])
def test_pure_states_reject_amplitudes_that_all_underflow(build):
    """Far from the origin every amplitude underflows to 0 (tail 1.00e+00);
    before, the state was 0 / 0, an all-nan rho."""
    with pytest.warns(TruncationWarning, match="tail 1.00e\\+00"), \
            pytest.raises(ValueError, match="norm must be finite and positive"):
        build((30.0, 30.0), 0.05, 8)


@pytest.mark.parametrize("psi", [np.zeros(4), np.array([1.0, np.nan]), np.array([np.inf, 0.0])],
                         ids=["zero", "nan", "inf"])
def test_pure_density_rejects_a_zero_or_non_finite_vector(psi):
    with pytest.raises(ValueError, match="norm must be finite and positive"):
        pure_density(psi, HBAR)


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


def test_a_leak_seen_only_mid_evolution_raises():
    """A pendulum swing carries 6.37e-6 of the population into the top decile
    near t = 1.22 and back out to 2.95e-8 by t = 3, where a check at the end
    alone passes; the round checkpoints catch it.  The dim-16 pumped vacuum,
    which leaks for good, still raises."""
    dim = 40
    rho0 = coherent_density_matrix((0.8, 0.6), HBAR, dim)
    h = hamiltonian_matrix(hamiltonians.pendulum(1.0), dim, HBAR)
    final = expm_multiply(_liouvillian(h, [], HBAR) * 3.0, rho0.rho.ravel(), traceA=0.0)
    assert fock._top_decile(final[::dim + 1].real) < 1e-7
    with pytest.raises(TruncationLeakError, match="dim-40 basis"):
        lindblad_evolve(rho0, h, [], 3.0, HBAR)
    vacuum = coherent_density_matrix((0.0, 0.0), HBAR, 16)
    with pytest.raises(TruncationLeakError, match="dim-16 basis"):
        lindblad_evolve(vacuum, hamiltonian_matrix(hamiltonians.zero(), 16, HBAR),
                        [build_linear_lindblad(PUMP, HBAR, 16)], 2.5, HBAR)


def test_checkpoint_spacing_does_not_change_the_state():
    """The Taylor rounds space the leak checks, so the dt the acceptance
    tests and the benchmark pass is ignored and changes no bit."""
    dim = 48
    rho0 = cat_density_matrix((0.3, -0.2), HBAR, dim)
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    l_ops = [build_linear_lindblad(Q_MEASURE, HBAR, dim)]
    want = lindblad_evolve(rho0, h, l_ops, 1.3, HBAR).rho
    for dt in (1e-3, 4e-3, 1.0):
        assert np.array_equal(lindblad_evolve(rho0, h, l_ops, 1.3, HBAR, dt=dt).rho, want)


def test_lindblad_evolve_matches_dense_generator_exponential():
    """Reference: the generator assembled column by column from the matrix
    form of the master equation, exponentiated densely.  The pendulum's
    eigh-built cos q carries rounding noise in every entry, which the sparse
    build drops.  At t = 0.05 the plan is one round within condition 3.13."""
    h, l_ops, gen = _dense_pendulum_generator()
    assert np.abs(0.05 * gen).sum(axis=0).max() <= 63.36
    rho0 = coherent_density_matrix((0.2, 0.3), HBAR, 24)
    want = (expm(0.05 * gen) @ rho0.rho.ravel()).reshape(24, 24)
    got = lindblad_evolve(rho0, h, l_ops, 0.05, HBAR)
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
    """The plan for t = 0.7 has a 1-norm that fails Al-Mohy & Higham's
    condition 3.13, where their algorithm would lower s from norm estimates
    of powers; the 1-norm's larger s must still be exact."""
    h, l_ops, gen = _dense_pendulum_generator()
    assert np.abs(0.7 * gen).sum(axis=0).max() > 63.36
    rho0 = coherent_density_matrix((0.2, 0.3), HBAR, 24)
    want = (expm(0.7 * gen) @ rho0.rho.ravel()).reshape(24, 24)
    got = lindblad_evolve(rho0, h, l_ops, 0.7, HBAR)
    assert np.max(np.abs(got.rho - want)) < 5e-14


def _expm_multiply_reference(rho0, h, l_ops, t):
    """The evolution as one call of scipy's expm_multiply."""
    vec = expm_multiply(_liouvillian(h, l_ops, HBAR) * t, rho0.rho.ravel(), traceA=0.0)
    rho = vec.reshape(rho0.dim, rho0.dim)
    return 0.5 * (rho + rho.conj().T)


def _h_of(model, q_shift=0.0):
    """H(dim) of ``model``, plus q_shift q (which breaks the parity of m + n)."""
    return lambda dim: hamiltonian_matrix(model, dim, HBAR) + q_shift * q_operator(dim, HBAR)


@pytest.mark.parametrize("channels", [(Q_MEASURE,), (DAMPING,), (Q_MEASURE, DAMPING)],
                         ids=["q", "damping", "both"])
@pytest.mark.parametrize("h_of, dim, build", [
    (_h_of(hamiltonians.harmonic()), 24, cat_density_matrix),
    (_h_of(hamiltonians.harmonic()), 64, cat_density_matrix),
    (_h_of(hamiltonians.quartic(1.0, 1.0)), 48, cat_density_matrix),
    (_h_of(hamiltonians.quartic(1.0, 1.0)), 120, cat_density_matrix),
    (_h_of(hamiltonians.pendulum(1.0)), 32, cat_density_matrix),
    (_h_of(hamiltonians.pendulum(1.0)), 80, cat_density_matrix),
    (_h_of(hamiltonians.harmonic()), 48, coherent_density_matrix),
    (_h_of(hamiltonians.harmonic(), 0.3), 48, cat_density_matrix),
], ids=["harmonic-24", "harmonic-64", "quartic-48", "quartic-120", "pendulum-32",
        "pendulum-80", "coherent-harmonic-48", "harmonic-plus-q-48"])
def test_taylor_loop_matches_per_segment_expm_multiply(h_of, dim, build, channels):
    """The whole span t = 0.025 is the one segment.  Its 1-norms here satisfy
    condition 3.13, where the plan's (m*, s) is scipy's choice: the same
    terms in the same order.  A cat state under a parity-keeping model
    evolves on its parity block only; a coherent state, or a cat under
    harmonic + 0.3 q, on the whole space."""
    rho0 = build((0.25, 0.3), HBAR, dim)
    h = h_of(dim)
    l_ops = [build_linear_lindblad(ch, HBAR, dim) for ch in channels]
    assert _norm(_liouvillian(h, l_ops, HBAR) * 0.025) <= 63.36
    got = lindblad_evolve(rho0, h, l_ops, 0.025, HBAR).rho
    want = _expm_multiply_reference(rho0, h, l_ops, 0.025)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_zero_generator_returns_rho0_unchanged():
    # exactly Hermitian, so packing and unpacking it is exact
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


def test_leak_error_comes_from_the_first_round_past_the_tolerance():
    """The pumped vacuum's top-decile population grows with every Taylor
    round; the error must report the first round's population over 1e-6, not
    the last.  The reference runs expm_multiply once per round of the plan."""
    dim, t = 16, 2.5
    rho0 = coherent_density_matrix((0.0, 0.0), HBAR, dim)
    h = hamiltonian_matrix(hamiltonians.zero(), dim, HBAR)
    l_ops = [build_linear_lindblad(PUMP, HBAR, dim)]
    gen = _liouvillian(h, l_ops, HBAR) * t
    _, s = fock._taylor_plan(fock._generator(h, l_ops, HBAR, t)[1])
    vec = rho0.rho.ravel()
    leaks = []
    for _ in range(s):
        vec = expm_multiply(gen / s, vec, traceA=0.0)
        leaks.append(fock._top_decile(np.real(vec[::dim + 1])))
    first = next(k for k, leak in enumerate(leaks) if leak > 1e-6)
    assert 0 < first < s - 1 and leaks[-1] > 10 * leaks[first]
    with pytest.raises(TruncationLeakError, match=f"population {leaks[first]:.2e} reached"):
        lindblad_evolve(rho0, h, l_ops, t, HBAR)


@pytest.mark.parametrize("kwargs, message", [
    ({"t": math.nan}, "t must be finite"),
    ({"t": math.inf}, "t must be finite"),
    ({"t": -1.0}, "t must be finite and nonnegative"),
    ({"hbar": 0.0}, "hbar must be finite and positive"),
    ({"hbar": -HBAR}, "hbar must be finite and positive"),
    ({"hbar": math.inf}, "hbar must be finite and positive"),
    ({"hbar": math.nan}, "hbar must be finite and positive"),
    ({"h_mat": np.zeros((23, 23))}, r"h_mat has shape \(23, 23\)"),
    ({"l_mats": [np.zeros((24, 24)), np.zeros((24, 25))]}, r"l_mats\[1\] has shape"),
    ({"rho0": np.eye(2, 3)}, r"rho0 must be a nonempty square matrix, got shape \(2, 3\)"),
    ({"rho0": np.zeros((0, 0))}, r"rho0 must be a nonempty square matrix, got shape \(0, 0\)"),
], ids=["t-nan", "t-inf", "t-negative", "hbar-zero", "hbar-negative", "hbar-inf", "hbar-nan",
        "h-shape", "l-shape", "rho-not-square", "rho-empty"])
def test_lindblad_evolve_rejects_bad_times_and_shapes(kwargs, message):
    dim = 24
    args = {"rho0": coherent_density_matrix((0.0, 0.0), HBAR, dim),
            "h_mat": hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR),
            "l_mats": [build_linear_lindblad(DAMPING, HBAR, dim)],
            "t": 3.0, "hbar": HBAR}
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


def test_lindblad_evolve_rejects_a_non_hermitian_hamiltonian():
    """The packed real state holds only Hermitian matrices, so a generator that
    does not keep rho Hermitian must not reach it.  Every built H passes."""
    dim = 24
    rho0 = coherent_density_matrix((0.1, 0.2), HBAR, dim)
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR).astype(complex)
    h[0, 1] += 1e-6j
    with pytest.raises(ValueError, match=r"h_mat is not Hermitian \(max \|h_mat - h_mat\+\|"):
        lindblad_evolve(rho0, h, [], 0.1, HBAR)
    for model in (hamiltonians.harmonic(), hamiltonians.quartic(1.0, 1.0),
                  hamiltonians.pendulum(1.0)):
        for d in (48, 220):
            fock._check_hermitian(hamiltonian_matrix(model, d, HBAR), "h_mat")


def _three_levels(dim=10):
    """H coupling levels 0, 1 and 2 of a dim-level space, and one decay 1 -> 0."""
    h_mat = np.zeros((dim, dim))
    h_mat[0, 1] = h_mat[1, 0] = 1.0
    h_mat[1, 2] = h_mat[2, 1] = 0.7
    decay = np.zeros((dim, dim))
    decay[0, 1] = 0.3
    return h_mat, [decay]


def test_lindblad_evolve_warns_of_trace_drift(monkeypatch):
    """The generator conserves the trace, so a drift is rounding, and the check
    is relative to the initial trace: three coupled levels with one decay warn
    at no scale (before, at trace 1e12 the absolute check warned of a drift of
    rounding).  A generator that loses 1e-6 of the trace per unit time warns
    at every scale."""
    h_mat, l_ops = _three_levels()

    def evolve(scale):
        rho0 = np.zeros((10, 10))
        rho0[1, 1] = scale
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = lindblad_evolve(rho0, h_mat, l_ops, 1.0, 0.05)
        assert len(caught) == len(out.warnings)
        return out.warnings

    scales = (1e-9, 1.0, 1e9, 1e12)
    assert all(evolve(scale) == [] for scale in scales)
    generator = fock._generator

    def leaky(h, l, hbar, t):
        gen, norm = generator(h, l, hbar, t)
        return gen - 1e-6 * t * sparse.eye_array(gen.shape[0], format="csr"), norm + 1e-6 * t

    monkeypatch.setattr(fock, "_generator", leaky)
    for scale in scales:
        notes = evolve(scale)
        assert len(notes) == 1
        assert notes[0].startswith("trace drifted by 1.00e-06 of its initial value")


def test_leak_check_is_relative_to_the_initial_trace():
    """The pumped vacuum at dim 16 leaks at every scale of its trace, and the
    error reports the same fraction; before, at trace 1e-9 it passed silently
    with 0.90 of its population in the top decile."""
    dim = 16
    h = hamiltonian_matrix(hamiltonians.zero(), dim, HBAR)
    l_ops = [build_linear_lindblad(PUMP, HBAR, dim)]
    vacuum = coherent_density_matrix((0.0, 0.0), HBAR, dim).rho
    with pytest.raises(TruncationLeakError) as err:
        lindblad_evolve(vacuum, h, l_ops, 2.5, HBAR)
    message = str(err.value)
    for scale in (1e-9, 1e9):
        with pytest.raises(TruncationLeakError) as err:
            lindblad_evolve(scale * vacuum, h, l_ops, 2.5, HBAR)
        assert str(err.value) == message


@pytest.mark.parametrize("scale", [0.0, -1.0, 1e308], ids=["zero", "negative", "overflow"])
def test_lindblad_evolve_rejects_a_trace_that_is_not_finite_and_positive(scale):
    """The leak and drift checks are relative to the initial trace, so a state
    without a finite positive one has no scale to check against.  Before, a
    zero rho0 came back as zeros."""
    rho0 = np.zeros((8, 8))
    rho0[2, 2] = rho0[3, 3] = scale
    with pytest.raises(ValueError, match="rho0 must have a finite positive trace"):
        lindblad_evolve(rho0, hamiltonian_matrix(hamiltonians.harmonic(), 8, HBAR), [], 0.1, HBAR)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_states_are_rejected(bad):
    """Before, a nan population evolved to a nan rho with no warning, and the
    readouts read it."""
    rho = fock_density_matrix(1, HBAR, 8).rho.copy()
    rho[1, 1] = bad
    with pytest.raises(ValueError, match="rho0 has non-finite entries"):
        lindblad_evolve(rho, hamiltonian_matrix(hamiltonians.harmonic(), 8, HBAR), [], 0.1, HBAR)
    with pytest.raises(ValueError, match="rho has non-finite entries"):
        wigner_exact(FockDensityMatrix(rho, HBAR), CenteredGrid(1.0, 1.0, 8, HBAR))


def _full_space_evolution(rho0, h, l_ops, t, hbar):
    """The evolution as ``_taylor_round`` on the whole packed space, round by
    round, with lindblad_evolve's plan."""
    rho0 = np.asarray(getattr(rho0, "rho", rho0), dtype=complex)
    real, norm = fock._generator(h, l_ops, hbar, t)
    m_star, s = fock._taylor_plan(norm)
    x = fock._pack(rho0)
    for _ in range(s):
        x = fock._taylor_round(real, x, m_star, s)
    return fock._unpack(x, len(rho0))


def _three_level_case():
    h_mat, l_ops = _three_levels()
    rho0 = np.zeros((10, 10))
    rho0[1, 1] = 1.0
    return rho0, h_mat, l_ops, 1.0, 0.05


@pytest.mark.parametrize("case, restricted", [
    (lambda: (fock_density_matrix(3, HBAR, 48), hamiltonian_matrix(hamiltonians.harmonic(), 48, HBAR),
              [build_linear_lindblad(Q_MEASURE, HBAR, 48)], 1.2, HBAR), True),
    (lambda: (cat_density_matrix((0.3, -0.2), HBAR, 40),
              hamiltonian_matrix(hamiltonians.quartic(1.0, 1.0), 40, HBAR),
              [build_linear_lindblad(ch, HBAR, 40) for ch in (Q_MEASURE, DAMPING)], 0.3, HBAR),
     True),
    (_three_level_case, True),
    (lambda: (coherent_density_matrix((0.3, -0.2), HBAR, 40),
              hamiltonian_matrix(hamiltonians.harmonic(), 40, HBAR),
              [build_linear_lindblad(Q_MEASURE, HBAR, 40)], 0.3, HBAR), False),
], ids=["number", "cat", "three-level", "coherent"])
def test_block_evolution_equals_the_full_space_loop_bit_for_bit(monkeypatch, case, restricted):
    """Entries outside the components rho0 reaches stay exactly zero, and each
    row of the restricted generator sums the same products in the same order,
    so evolving the block alone gives the full loop's rho bit for bit.  A
    number or cat state reaches half of the space, the three-level state its
    levels' block; a coherent state reaches all of it.

    Either way the generator the rounds read holds exactly its entries: its
    value and column-index buffers are nnz long.  The fold product behind
    ``_generator`` over-allocates (14,864 entries on 26,494 slots for the
    coherent case), and the unrestricted evolution kept that slack before."""
    rho0, h, l_ops, t, hbar = case()
    want = _full_space_evolution(rho0, h, l_ops, t, hbar)
    sizes, buffers = [], []
    taylor_round = fock._taylor_round

    def spy(gen, vec, m_star, s):
        sizes.append(vec.size)
        buffers.append((gen.nnz, _buffer_size(gen.data), _buffer_size(gen.indices)))
        return taylor_round(gen, vec, m_star, s)

    monkeypatch.setattr(fock, "_taylor_round", spy)
    got = lindblad_evolve(rho0, h, l_ops, t, hbar).rho
    assert np.array_equal(got, want)
    full = len(want) ** 2
    assert sizes and all(size < full if restricted else size == full for size in sizes)
    assert all(nnz == data == indices for nnz, data, indices in buffers)


def _buffer_size(arr):
    """Entries of the array that owns ``arr``'s memory."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.size


def _numpy_taylor_round(gen, vec, m_star, s):
    """The Taylor round as numpy calls (``b *=``, ``np.abs(b).max()`` and
    ``f + b``), the form ``fock._taylor_round`` had before its BLAS-1 calls."""
    f = b = vec
    c1 = top = np.abs(b).max()
    for j in range(m_star):
        b = gen @ b
        b *= 1.0 / (s * (j + 1))
        c2 = np.abs(b).max()
        f = f + b
        top += c2
        if c1 + c2 <= 2.0 ** -53 * top and c1 + c2 <= 2.0 ** -53 * np.abs(f).max():
            break
        c1 = c2
    return f


class _Counted:
    """A generator that counts its ``gen @ vec`` products."""

    def __init__(self, gen, counts):
        self.gen, self.counts = gen, counts

    def __matmul__(self, vec):
        self.counts.append(1)
        return self.gen @ vec


@pytest.mark.parametrize("case", [
    lambda: (fock_density_matrix(3, HBAR, 48), hamiltonian_matrix(hamiltonians.harmonic(), 48, HBAR),
             [build_linear_lindblad(Q_MEASURE, HBAR, 48)], 1.2, HBAR),
    lambda: (cat_density_matrix((0.3, -0.2), HBAR, 40),
             hamiltonian_matrix(hamiltonians.quartic(1.0, 1.0), 40, HBAR),
             [build_linear_lindblad(ch, HBAR, 40) for ch in (Q_MEASURE, DAMPING)], 0.3, HBAR),
    _three_level_case,
    lambda: (coherent_density_matrix((0.3, -0.2), HBAR, 40),
             hamiltonian_matrix(hamiltonians.harmonic(), 40, HBAR),
             [build_linear_lindblad(Q_MEASURE, HBAR, 40)], 0.3, HBAR),
], ids=["number", "cat", "three-level", "coherent"])
def test_blas_rounds_equal_the_numpy_rounds_bit_for_bit(monkeypatch, case):
    """The BLAS-1 round is the numpy round's arithmetic: lindblad_evolve gives
    the full-space loop of the numpy round bit for bit, from the same number
    of generator products."""
    rho0, h, l_ops, t, hbar = case()
    want_products: list = []
    rho = np.asarray(getattr(rho0, "rho", rho0), dtype=complex)
    real, norm = fock._generator(h, l_ops, hbar, t)
    m_star, s = fock._taylor_plan(norm)
    x = fock._pack(rho)
    for _ in range(s):
        x = _numpy_taylor_round(_Counted(real, want_products), x, m_star, s)
    products: list = []
    taylor_round = fock._taylor_round
    monkeypatch.setattr(fock, "_taylor_round",
                        lambda gen, vec, m, r: taylor_round(_Counted(gen, products), vec, m, r))
    got = lindblad_evolve(rho0, h, l_ops, t, hbar).rho
    assert np.array_equal(got, fock._unpack(x, len(rho)))
    assert len(products) == len(want_products) > s


def test_lindblad_evolve_leaves_its_inputs_as_they_were():
    """Real rho0 and H (a real array's .conj() is the array itself) and the
    state record come back unchanged."""
    rho0, h_mat, l_ops, t, hbar = _three_level_case()
    copies = [rho0.copy(), h_mat.copy(), l_ops[0].copy()]
    record = coherent_density_matrix((0.3, -0.2), HBAR, 16)
    kept = record.rho.copy()
    lindblad_evolve(rho0, h_mat, l_ops, t, hbar)
    lindblad_evolve(record, hamiltonian_matrix(hamiltonians.harmonic(), 16, HBAR), [], 0.3, HBAR)
    assert all(np.array_equal(a, b) for a, b in zip(copies, [rho0, h_mat, l_ops[0]]))
    assert np.array_equal(record.rho, kept)


def _labelled_reach(gen, x):
    """The reached block by labelling every weakly connected component."""
    _, labels = connected_components(gen, connection="weak")
    return np.flatnonzero(np.isin(labels, labels[x != 0]))


def test_the_reach_is_every_component_the_state_touches():
    """One search from the first nonzero entry, or the labels when the nonzero
    entries lie in several components (levels 1 and 5 of the three-level
    model: level 5 is a component of its own), or everything when the
    nonzero entries cover it, always gives the labelled reach."""
    h_mat, l_ops = _three_levels()
    two = np.zeros((10, 10))
    two[1, 1] = two[5, 5] = 0.5
    dim = 16
    harmonic = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    q = [build_linear_lindblad(Q_MEASURE, HBAR, dim)]
    for rho0, h, ls in [(two, h_mat, l_ops), (_three_level_case()[0], h_mat, l_ops),
                        (fock_density_matrix(3, HBAR, dim).rho, harmonic, q),
                        (cat_density_matrix((0.3, -0.2), HBAR, dim).rho, harmonic, q),
                        (coherent_density_matrix((0.3, -0.2), HBAR, dim).rho, harmonic, q)]:
        gen, _ = fock._generator(h, ls, HBAR, 1.0)
        x = fock._pack(np.asarray(rho0, dtype=complex))
        assert np.array_equal(fock._reached(gen, x), _labelled_reach(gen, x))
    live = fock._reached(fock._generator(h_mat, l_ops, HBAR, 1.0)[0], fock._pack(two.astype(complex)))
    assert 55 in live and live.size == 7


@pytest.mark.parametrize("dim", [48, 56])
def test_the_set_up_allocates_in_proportion_to_the_generator(dim):
    """The build, reach and restriction of a number state under the harmonic
    model and a q-channel peak within 5.5 times the packed generator's own
    bytes, 12 per stored entry (a float64 value and an int32 column index):
    4.97 times at dim 48 and 4.92 at dim 56 when measured.  The build that
    multiplied in the phase and folded in complex arithmetic, with int64
    indices, peaked at 6.2 times at both."""
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    l_ops = [build_linear_lindblad(Q_MEASURE, HBAR, dim)]
    x = fock._pack(fock_density_matrix(3, HBAR, dim).rho)
    fock._generator(h, l_ops, HBAR, 4.0)
    tracemalloc.start()
    try:
        gen, _ = fock._generator(h, l_ops, HBAR, 4.0)
        live = fock._reached(gen, x)
        block = fock._restricted(gen, live)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape[0] < gen.shape[0]
    assert peak <= 5.5 * 12 * gen.nnz


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T  # Hermitian bit for bit


@pytest.mark.parametrize("channels", [(Q_MEASURE,), (DAMPING,), (PUMP,), (Q_MEASURE, DAMPING)],
                         ids=["q", "damping", "pump", "both"])
@pytest.mark.parametrize("model, dim", [
    (hamiltonians.harmonic(), 8), (hamiltonians.quartic(1.0, 1.0), 16),
    (hamiltonians.pendulum(1.0), 32),
], ids=["harmonic-8", "quartic-16", "pendulum-32"])
def test_packed_generator_acts_as_the_liouvillian(model, dim, channels):
    """On Hermitian rho the real generator is the complex one: unpacking
    R pack(rho) gives G vec(rho).  The evolved state is Hermitian bit for bit."""
    h = hamiltonian_matrix(model, dim, HBAR)
    l_ops = [build_linear_lindblad(ch, HBAR, dim) for ch in channels]
    gen = _liouvillian(h, l_ops, HBAR)
    real, _ = fock._generator(h, l_ops, HBAR, 1.0)
    assert real.dtype == np.float64
    for seed in range(3):
        rho = _random_hermitian(dim, seed)
        want = (gen @ rho.ravel()).reshape(dim, dim)
        got = fock._unpack(real @ fock._pack(rho), dim)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    out = lindblad_evolve(coherent_density_matrix((0.05, 0.05), HBAR, dim), h, l_ops, 0.05,
                          HBAR).rho
    assert np.array_equal(out, out.conj().T)


def test_packed_generator_of_a_zero_generator_is_empty():
    dim = 12
    real, norm = fock._generator(np.zeros((dim, dim)), [np.zeros((dim, dim))], HBAR, 1.0)
    assert real.nnz == 0 and norm == 0.0
    rho = _random_hermitian(dim, 0)
    assert np.array_equal(fock._unpack(fock._pack(rho), dim), rho)


def _packed_reference(gen, dim) -> np.ndarray:
    """_pack o gen o _unpack as a dense real matrix, column by column."""
    images = gen @ np.stack([fock._unpack(e, dim).ravel() for e in np.eye(dim * dim)], axis=1)
    return np.stack([fock._pack(m) for m in images.T.reshape(-1, dim, dim)], axis=1)


def _assert_generator_matches_the_reference(h, l_ops, t=0.7):
    """The build is _pack o (t G) o _unpack for the Kronecker-sum Liouvillian
    G up to rounding (it adds the terms in another order): every entry within
    4 eps of the largest (the most seen is 1.07 eps for the built-in models
    and channels, 2.2 eps for random dense L), on the same nonzeros, none of
    them stored as zero.  Its norm is G's 1-norm over every row, to the same
    bound, and plans the same Taylor rounds."""
    want_gen = _liouvillian(h, l_ops, HBAR) * t
    real, norm = fock._generator(h, l_ops, HBAR, t)
    want, got = _packed_reference(want_gen, len(h)), real.toarray()
    bound = 4 * np.finfo(float).eps
    assert np.abs(got - want).max() <= bound * np.abs(want).max(initial=0.0)
    assert np.array_equal(got != 0, want != 0)
    assert real.nnz == np.count_nonzero(want)
    assert abs(norm - _norm(want_gen)) <= bound * _norm(want_gen)
    assert fock._taylor_plan(norm) == fock._taylor_plan(_norm(want_gen))


@pytest.mark.parametrize("channels", [(Q_MEASURE,), (DAMPING,), (PUMP,), (Q_MEASURE, DAMPING)],
                         ids=["q", "damping", "pump", "both"])
@pytest.mark.parametrize("model, dim", [
    (hamiltonians.harmonic(), 8), (hamiltonians.quartic(1.0, 1.0), 16),
    (hamiltonians.pendulum(1.0), 32),
], ids=["harmonic-8", "quartic-16", "pendulum-32"])
def test_generator_matches_the_kronecker_liouvillian(model, dim, channels):
    """The pendulum's eigh noise is dropped alike: the same nonzeros."""
    _assert_generator_matches_the_reference(
        hamiltonian_matrix(model, dim, HBAR),
        [build_linear_lindblad(ch, HBAR, dim) for ch in channels])


def test_generator_of_zero_and_dense_operators_matches_the_kronecker_liouvillian():
    """The zero generator is empty with a zero norm.  A random dense complex L
    puts a jump term on every entry, on top of the drift terms wherever a
    row or column index is shared, and its diagonal adds to them.  An L whose
    jump terms at columns (2, 3) and (3, 2) of row (0, 1) cancel in their
    shared slot leaves no entry there."""
    rng = np.random.default_rng(3)
    l_op = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    cancel = np.zeros((4, 4))
    cancel[0, 2] = cancel[1, 3] = cancel[0, 3] = 1.0
    cancel[1, 2] = -1.0
    for h, l_ops in [(np.zeros((8, 8)), [np.zeros((8, 8))]), (_random_hermitian(6, 3), [l_op]),
                     (np.zeros((4, 4)), [cancel])]:
        _assert_generator_matches_the_reference(h, l_ops)


def _reset(dim) -> np.ndarray:
    """L = |0><psi| for a random psi: a jump operator with one full row."""
    rng = np.random.default_rng(5)
    l_op = np.zeros((dim, dim), dtype=complex)
    l_op[0] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return l_op


def test_a_jump_operator_with_one_wide_row_builds_in_proportion_to_its_nonzeros():
    """A reset |0><psi| has dim nonzeros in one row, and K = |psi><psi| is
    dense.  The build matches the reference, and at dim 64 its peak
    allocation stays within 1.5 times that of the complex Kronecker-sum
    Liouvillian alone (1.18 times when measured; a table padded to the
    widest row would hold dim^4 complex entries, 270 MB)."""
    h = hamiltonian_matrix(hamiltonians.harmonic(), 12, HBAR)
    _assert_generator_matches_the_reference(h, [_reset(12)])
    dim = 64
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    l_ops = [_reset(dim)]
    tracemalloc.start()
    try:
        _liouvillian(h, l_ops, HBAR)
        kron_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fock._generator(h, l_ops, HBAR, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * kron_peak


def test_a_non_finite_jump_operator_is_named():
    """Before, a nan in an L raised an anonymous "operator has non-finite
    entries" from inside the generator build."""
    dim = 8
    rho0 = fock_density_matrix(1, HBAR, dim)
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    l_ops = [build_linear_lindblad(ch, HBAR, dim) for ch in (Q_MEASURE, DAMPING)]
    l_ops[1][2, 3] = np.inf
    with pytest.raises(ValueError, match=r"^l_mats\[1\] has non-finite entries$"):
        lindblad_evolve(rho0, h, l_ops, 0.1, HBAR)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale_h, scale_l, t", [(1.0, 1e160, 0.1), (1e307, 1.0, 1e3)],
                         ids=["huge-L", "huge-H"])
def test_an_overflowing_generator_raises_one_value_error(scale_h, scale_l, t):
    """Finite H and L whose t G overflows: before, 1e160 L ended in "cannot
    convert float NaN to integer" after numpy warnings, and 1e307 H at t = 1e3
    in an OverflowError."""
    dim = 8
    rho0 = fock_density_matrix(1, HBAR, dim)
    h = scale_h * hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    l_ops = [scale_l * build_linear_lindblad(DAMPING, HBAR, dim)]
    with pytest.raises(ValueError, match=f"the Lindblad generator overflows over t = {t!r}"):
        lindblad_evolve(rho0, h, l_ops, t, HBAR)


def test_a_plan_of_too_many_rounds_raises_before_any_round(monkeypatch):
    """1e14 H passes every check, and its plan asks for s = 6e13 rounds,
    which before ran with no error; s eps > 1e-8 now raises at once."""
    dim = 8
    rho0 = fock_density_matrix(1, HBAR, dim)
    h = 1e14 * hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    _, s = fock._taylor_plan(fock._generator(h, [], HBAR, 1.0)[1])
    assert s * np.finfo(float).eps > fock._TRACE_TOL
    monkeypatch.setattr(fock, "_taylor_round", lambda *a: pytest.fail("a round ran"))
    with pytest.raises(ValueError, match=f"needs s = {s} rounds"):
        lindblad_evolve(rho0, h, [], 1.0, HBAR)


@pytest.mark.parametrize("hbar", [-HBAR, 0.0, math.nan])
def test_hermite_functions_reject_an_hbar_that_is_not_finite_and_positive(hbar):
    """Before, a negative hbar raised math's "math domain error"."""
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        hermite_functions(3, np.linspace(-1.0, 1.0, 5), hbar)


@pytest.mark.parametrize("x", [np.zeros((2, 2)), [0.1, math.nan], math.inf],
                         ids=["2d", "nan", "inf"])
def test_hermite_functions_reject_an_x_that_is_not_a_finite_scalar_or_1d(x):
    """Before, a 2-D x raised numpy's "could not broadcast input array" and
    a nan x gave a nan column."""
    with pytest.raises(ValueError, match="x must be a finite scalar or 1-D array"):
        hermite_functions(3, x, HBAR)
    assert hermite_functions(3, 0.2, HBAR).shape == (4, 1)


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


def test_wigner_exact_on_a_wide_coarse_p_axis_matches_the_closed_form():
    """The closed form has no s range, so a coarse p axis (whose conjugate
    used to cut the s integral short) costs no digits and warns nothing."""
    state = CoherentState((0.0, 1.2), HBAR)
    rho = coherent_density_matrix(state.eta, HBAR, 96)
    grid = CenteredGrid(10.0, 2.0, 64, HBAR)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridDomainWarning)
        w = wigner_exact(rho, grid)
    want = coherent_wigner(state, *grid.meshgrid())
    assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))


def _number56():
    """The oracle benchmark's number56 state: |3> at dim 56 under the
    harmonic flow and a q-channel, at 1.15 t_p."""
    dim = 56
    channel = LindbladChannel((0.0, 1.0))
    model = hamiltonians.harmonic()
    t = 1.15 * dynamics.positivity_time(model, [channel])
    return lindblad_evolve(fock_density_matrix(3, HBAR, dim), hamiltonian_matrix(model, dim, HBAR),
                           [build_linear_lindblad(channel, HBAR, dim)], t, HBAR)


def test_number56_readouts_match_the_parity_and_displacement_references():
    """W(0, 0) is the parity sum(-1)^n rho_nn / (pi hbar) and chi is the
    displacement trace, both to rounding on the benchmark's own grids; a
    quadrature over s misses them by 8.9e-13 and 3.0e-14 (chi at 0)."""
    rho = _number56()
    dim = rho.dim
    half = math.sqrt(2.0 * HBAR * (dim + 1)) + 4.0 * math.sqrt(HBAR)
    grid = CenteredGrid(half, half, 192, HBAR)
    w = wigner_exact(rho, grid)
    parity = np.sum((-1.0) ** np.arange(dim) * rho.populations()) / (math.pi * HBAR)
    assert abs(w[96, 96] - parity) <= 1e-15
    cgrid = CenteredGrid(2.2, 2.2, 64, HBAR)
    chi = chord_function_grid(rho, cgrid)
    # the origin, where chi is largest, and 24 nodes drawn at random
    i, j = np.concatenate([[[32], [32]], np.random.default_rng(7).integers(0, 64, (2, 24))], axis=1)
    want = chord_function_exact(rho, cgrid.p_axis[i], cgrid.q_axis[j], method="displacement")
    assert np.max(np.abs(chi[i, j] - want)) <= 5e-15 / (2.0 * math.pi * HBAR)


@pytest.mark.parametrize("dim", [1, 2, 48, 120])
def test_rotation_levels_are_orthonormal(dim):
    levels = list(fock._rotation_levels(dim))
    assert len(levels) == 2 * dim - 1
    for n, c in enumerate(levels):
        assert c.shape == (min(n + 1, 2 * dim - 1 - n), n + 1)
        assert np.max(np.abs(c @ c.T - np.eye(c.shape[0]))) <= 1e-13


def test_rotation_levels_rotate_products_of_hermite_functions():
    """psi_m(x) psi_n(y) = sum_k C[m, k] psi_k(u) psi_{m+n-k}(v), u = (x+y)/sqrt2,
    v = (y-x)/sqrt2, for every kept row of every level."""
    dim = 7
    x, y = np.random.default_rng(3).uniform(-0.6, 0.6, (2, 40))
    psi_x, psi_y = hermite_functions(dim - 1, x, HBAR), hermite_functions(dim - 1, y, HBAR)
    psi_u = hermite_functions(2 * dim - 2, (x + y) / math.sqrt(2.0), HBAR)
    psi_v = hermite_functions(2 * dim - 2, (y - x) / math.sqrt(2.0), HBAR)
    scale = np.max(np.abs(psi_x)) * np.max(np.abs(psi_y))
    for n, c in enumerate(fock._rotation_levels(dim)):
        for row, m in enumerate(range(max(0, n - dim + 1), min(n, dim - 1) + 1)):
            rotated = sum(c[row, k] * psi_u[k] * psi_v[n - k] for k in range(n + 1))
            assert np.max(np.abs(rotated - psi_x[m] * psi_y[n - m])) <= 1e-13 * scale


@pytest.mark.parametrize("turns", [(0, 0), (-1, 0), (0, 1)],
                         ids=["slices", "chord", "wigner"])
def test_hermite_form_matches_the_term_by_term_sum(turns):
    """The kernel against sum_kl i^(turns . (k, l)) (G_A + i G_B)[k, l]
    psi_k(u) psi_l(v) taken term by term in complex arithmetic, on an outer
    grid (both layouts) and on paired points, for a random Hermitian rho with
    complex off-diagonals: a wrong parity or turn flips whole terms."""
    rho = FockDensityMatrix(_random_hermitian(7, 11), HBAR)
    g = fock._rotated(rho.rho).astype(complex)
    g[:, 1::2] *= 1j  # G_A on even columns, i G_B on odd ones
    size = g.shape[0]
    u, v = np.random.default_rng(12).uniform(-0.6, 0.6, (2, 9))
    psi_u, psi_v = hermite_functions(size - 1, u, HBAR), hermite_functions(size - 1, v, HBAR)
    grid = np.zeros((9, 9), dtype=complex)
    points = np.zeros(9, dtype=complex)
    for k in range(size):
        for l in range(size):
            term = 1j ** ((turns[0] * k + turns[1] * l) % 4) * g[k, l]
            grid += term * np.outer(psi_u[k], psi_v[l])
            points += term * psi_u[k] * psi_v[l]
    scale = np.max(np.abs(grid))
    for got, want in [(fock._hermite_form(rho, u, v, turns), grid),
                      (fock._hermite_form(rho, u, v, turns, v_rows=True), grid.T),
                      (fock._hermite_form(rho, u, v, turns, outer=False), points)]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert np.isrealobj(got) == (turns == (0, 1))


@pytest.mark.parametrize("readout", [
    lambda m, g: position_density_matrix(m, g.q_axis, g.p_axis),
    lambda m, g: chord_function_exact(m, g.p_axis, g.q_axis),
    lambda m, g: chord_function_exact(m, 0.1, -0.2, method="displacement"),
    chord_function_grid,
    wigner_exact,
], ids=["slices", "chi-position", "chi-displacement", "chi-grid", "wigner"])
def test_readouts_reject_a_raw_matrix(readout):
    """A bare array has no hbar; every readout says so by one ValueError."""
    mat = fock_density_matrix(1, HBAR, 12).rho
    with pytest.raises(ValueError, match="pass a FockDensityMatrix"):
        readout(mat, CenteredGrid(1.0, 1.0, 8, HBAR))


@pytest.mark.parametrize("readout", [chord_function_grid, wigner_exact],
                         ids=["chi-grid", "wigner"])
def test_grid_readouts_reject_a_grid_of_another_hbar(readout):
    rho = fock_density_matrix(1, HBAR, 12)
    with pytest.raises(ValueError, match="hbar = 0.1 differs from the state's 0.05"):
        readout(rho, CenteredGrid(1.0, 1.0, 8, 2 * HBAR))


def test_readout_symmetries_hold_bit_for_bit():
    """G_A rides on even orders only and G_B on odd ones, and psi_l(-x) =
    (-1)^l psi_l(x) exactly, so the slices at -s and s, and chi at -xi and
    xi, are conjugates bit for bit, and W is real."""
    rho = _evolved_cat(48)
    grid = CenteredGrid(2.2, 2.2, 64, HBAR)
    slices = position_density_matrix(rho, grid.q_axis, grid.conjugate().q_axis)
    assert np.array_equal(slices[:, 1:], np.conj(slices[:, :0:-1]))  # off the -M/2 node
    assert np.isrealobj(wigner_exact(rho, grid))
    chi = chord_function_grid(rho, grid)
    assert np.array_equal(chi[1:, 1:], np.conj(chi[:0:-1, :0:-1]))


def _two_table_form(rho, u, v, turns, v_rows=False):
    """``_hermite_form`` with a Hermite table built for each axis."""
    g = fock._rotated(rho.rho)
    parts = g * fock._phases(g.shape[0], turns)
    psi_u, psi_v = (hermite_functions(g.shape[0] - 1, x, rho.hbar) for x in (u, v))
    if v_rows:
        parts, psi_u, psi_v = parts.transpose(0, 2, 1), psi_v, psi_u
    out = psi_u.T @ (parts @ psi_v)
    return out[0] if len(out) == 1 else out[0] + 1j * out[1]


def test_square_grids_build_one_hermite_table(monkeypatch):
    """W reads both axes at the same points on a square grid, and chi at
    opposite ones, where psi_l(-x) is (-1)^l psi_l(x) bit for bit: one table
    serves both and the readouts equal the two-table form exactly.  A grid
    that is not square still builds two."""
    rho = FockDensityMatrix(_random_hermitian(12, 5), HBAR)
    calls = []
    monkeypatch.setattr(fock, "hermite_functions",
                        lambda *args: calls.append(1) or hermite_functions(*args))
    root = math.sqrt(2.0)
    for grid, tables in [(CenteredGrid(2.2, 2.2, 32, HBAR), 1),
                         (CenteredGrid(2.2, 1.5, 32, HBAR), 2)]:
        calls.clear()
        w = wigner_exact(rho, grid)
        assert len(calls) == tables
        assert np.array_equal(w, _two_table_form(
            rho, root * grid.q_axis, root * grid.p_axis, (0, 1), v_rows=True)
            / math.sqrt(math.pi * HBAR))
        calls.clear()
        chi = chord_function_grid(rho, grid)
        assert len(calls) == tables
        assert np.array_equal(chi, _two_table_form(
            rho, grid.p_axis / root, -grid.q_axis / root, (-1, 0))
            / math.sqrt(4.0 * math.pi * HBAR))


def _taylor_round_reading_every_norm(gen, vec, m_star, s):
    """Al-Mohy & Higham's round as written: the partial sum's largest entry
    read after every term."""
    f = b = vec
    c1 = np.abs(b).max()
    for j in range(m_star):
        b = gen @ b
        b *= 1.0 / (s * (j + 1))
        c2 = np.abs(b).max()
        f = f + b
        if c1 + c2 <= 2.0 ** -53 * np.abs(f).max():
            break
        c1 = c2
    return f


@pytest.mark.parametrize("build", [fock_density_matrix, coherent_density_matrix, cat_density_matrix])
@pytest.mark.parametrize("channels", [(Q_MEASURE,), (DAMPING,), (PUMP,)], ids=["q", "damping", "pump"])
def test_taylor_rounds_stop_at_the_term_the_exact_norm_picks(build, channels):
    """The running bound only skips reading the partial sum's largest entry
    where the round could not stop: each round stops at the same term, so
    the result is bit for bit the loop that reads it after every term."""
    dim = 32
    rho0 = build(2 if build is fock_density_matrix else (0.2, -0.3), HBAR, dim)
    l_ops = [build_linear_lindblad(ch, HBAR, dim) for ch in channels]
    h = hamiltonian_matrix(hamiltonians.harmonic(), dim, HBAR)
    for t in (0.01, 0.3, 1.1):
        real, norm = fock._generator(h, l_ops, HBAR, t)
        m_star, s = fock._taylor_plan(norm)
        x = fock._pack(rho0.rho)
        for _ in range(s):
            want = _taylor_round_reading_every_norm(real, x, m_star, s)
            x = fock._taylor_round(real, x, m_star, s)
            assert np.array_equal(x, want)
