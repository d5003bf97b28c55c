"""Number-basis oracle: exact finite-dimensional quantum evolution.

Everything here works with dense matrices in the harmonic oscillator
eigenbasis, scaled so that q = sqrt(hbar/2)(a + a+) and p comes with the
matching factor.  It provides the ground truth the phase-space machinery is
checked against: exact Lindblad evolution (the exponential of the sparse
Liouvillian acting on the state, by one truncated-Taylor loop whose degree and
scaling are chosen once per evolution from the generator's 1-norm), exact
chord functions via displacement traces or position-space slices, and exact
Wigner functions.

Truncation is monitored rather than hidden: populations leaking into the
top decile of the basis raise TruncationLeakError with advice to enlarge
the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import eval_genlaguerre, gammaln

from . import diagnostics
from .dynamics import HamiltonianModel, LindbladChannel, _as_channels, _check_time
from .grids import (_BLOCK_ELEMENTS, CenteredGrid, _check_positive, _edge_decayed, _outer_grid,
                    _plane_wave_sum, ft_axis, simpson_weights)
from .states import CoherentState

__all__ = [
    "TruncationLeakError",
    "FockDensityMatrix",
    "lowering",
    "q_operator",
    "p_operator",
    "build_linear_lindblad",
    "hamiltonian_matrix",
    "coherent_amplitudes",
    "coherent_density_matrix",
    "cat_density_matrix",
    "fock_density_matrix",
    "pure_density",
    "lindblad_evolve",
    "displacement_matrix",
    "chord_function_exact",
    "chord_function_grid",
    "wigner_exact",
    "hermite_functions",
    "position_density_matrix",
]

_LEAK_TOL = 1e-6
#: lindblad_evolve checks for leaked population every (at most) _CHECK_EVERY * dt
_CHECK_EVERY = 25
_TRACE_TOL = 1e-8
_EPS = np.finfo(float).eps
#: theta_m: the largest 1-norm of A for which the degree-m Taylor polynomial of
#: exp(A) has relative backward error at most 2^-53.  m <= 30 from Higham & Al-Mohy,
#: Acta Numerica 19, 159 (2010), Table A.3; m = 35..55 from Al-Mohy & Higham,
#: SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_TAYLOR_TOL = 2.0 ** -53


class TruncationLeakError(RuntimeError):
    """Raised when population reaches the top of the truncated basis."""

    def __init__(self, message: str, dim: int):
        super().__init__(message)
        self.dim = dim


def lowering(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def q_operator(dim: int, hbar: float) -> np.ndarray:
    a = lowering(dim)
    return math.sqrt(0.5 * hbar) * (a + a.T)


def p_operator(dim: int, hbar: float) -> np.ndarray:
    a = lowering(dim)
    return 1j * math.sqrt(0.5 * hbar) * (a.T - a)


def build_linear_lindblad(channel: LindbladChannel, hbar: float, dim: int) -> np.ndarray:
    """L = (l'_p + i l''_p) p + (l'_q + i l''_q) q.

    A pure damping channel l' = (0, 1), l'' = (1, 0) gives q + i p =
    sqrt(2 hbar) a, the lowering operator.
    """
    lp = channel.l_re[0] + 1j * channel.l_im[0]
    lq = channel.l_re[1] + 1j * channel.l_im[1]
    return lp * p_operator(dim, hbar) + lq * q_operator(dim, hbar)


def hamiltonian_matrix(model: HamiltonianModel, dim: int, hbar: float) -> np.ndarray:
    """Matrix of a Hamiltonian model in the number basis.

    A quadratic model is the Weyl quantization of its Taylor form at the
    origin, pq symmetrized; the quartic and pendulum families are built by
    name, the transcendental pendulum potential through the eigenbasis of q.
    """
    q = q_operator(dim, hbar)
    pm = p_operator(dim, hbar)
    p2 = pm @ pm
    if model.quadratic:
        origin = np.zeros(2)
        k = np.asarray(model.hessian(origin), dtype=float)
        g = np.asarray(model.gradient(origin), dtype=float)
        return (0.5 * k[0, 0] * p2 + 0.5 * k[1, 1] * (q @ q)
                + 0.5 * k[0, 1] * (pm @ q + q @ pm) + g[0] * pm + g[1] * q
                + float(model.value(origin)) * np.eye(dim))
    prm = model.params
    if model.name == "quartic":
        q2 = q @ q
        return 0.5 * p2 + 0.25 * prm["a"] * (q2 @ q2) + 0.5 * prm["b"] * q2
    if model.name == "pendulum":
        evals, vecs = np.linalg.eigh(q)
        cos_q = (vecs * np.cos(evals)) @ vecs.conj().T
        return 0.5 * p2 - prm["g"] * cos_q
    raise ValueError(f"no matrix for the non-quadratic Hamiltonian family {model.name!r}")


def _top_decile(populations) -> float:
    """Population in the top tenth of the basis (at least its top state)."""
    return float(np.sum(populations[-max(1, populations.size // 10):]))


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix in the number basis with its diagnostics."""

    rho: np.ndarray
    hbar: float
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        _check_positive(self.hbar, "hbar")

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.rho))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho))

    def leak_fraction(self) -> float:
        return _top_decile(self.populations())

    def validate(self) -> dict:
        rho = self.rho
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        tr = abs(self.trace() - 1.0)
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
        return {
            "trace_error": tr,
            "hermiticity_error": herm,
            "min_eigenvalue": min_eig,
            "leak_fraction": self.leak_fraction(),
        }


def pure_density(psi: np.ndarray, hbar: float) -> FockDensityMatrix:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return FockDensityMatrix(np.outer(psi, psi.conj()), hbar)


def coherent_amplitudes(eta, hbar: float, dim: int, sink=None) -> np.ndarray:
    """<n|eta> for the coherent state at centre eta = (eta_p, eta_q)."""
    eta_p, eta_q = CoherentState(eta, hbar).eta
    alpha = (eta_q + 1j * eta_p) / math.sqrt(2.0 * hbar)
    c = np.empty(dim, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    tail = 1.0 - float(np.sum(np.abs(c) ** 2))
    if tail > 1e-12:
        diagnostics.report(
            sink, f"coherent amplitude tail {tail:.2e} at dim {dim}; increase dim",
            diagnostics.TruncationWarning)
    return c


def coherent_density_matrix(eta, hbar: float, dim: int) -> FockDensityMatrix:
    sink: list = []
    c = coherent_amplitudes(eta, hbar, dim, sink)
    return FockDensityMatrix(pure_density(c, hbar).rho, hbar, sink)


def cat_density_matrix(eta, hbar: float, dim: int) -> FockDensityMatrix:
    """Even superposition of coherent states at +eta and -eta."""
    sink: list = []
    c = coherent_amplitudes(eta, hbar, dim, sink)
    psi = c.copy()
    psi[1::2] = 0.0
    psi[0::2] *= 2.0
    return FockDensityMatrix(pure_density(psi, hbar).rho, hbar, sink)


def fock_density_matrix(n: int, hbar: float, dim: int) -> FockDensityMatrix:
    if not 0 <= n < dim:
        raise ValueError("need 0 <= n < dim")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return FockDensityMatrix(rho, hbar)


def _check_hermitian(mat) -> None:
    """ValueError unless rho - rho+ is at most 1e-12 of rho's largest entry."""
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > 1e-12 * float(np.max(np.abs(mat))):
        raise ValueError(f"rho is not Hermitian (max |rho - rho+| = {herm:.2e})")


def _sparse(mat) -> sparse.csr_array:
    """CSR copy without the entries below eps times the largest: rounding noise
    (the eigh-built pendulum cos q is full of it) would fill a banded matrix."""
    mat = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator has non-finite entries")
    return sparse.csr_array(np.where(np.abs(mat) > _EPS * np.abs(mat).max(), mat, 0.0))


def _liouvillian(h_mat, l_mats, hbar) -> sparse.csr_array:
    """The Lindblad generator acting on rho.ravel() (row-major), in CSR:
    -(i/hbar)(H (x) I - I (x) H^T) + sum_k (L (x) L* - L+L (x) I/2 - I (x) (L+L)^T/2)/hbar."""
    h = _sparse(h_mat)
    eye = sparse.eye_array(h.shape[0], dtype=complex, format="csr")
    gen = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for lm in map(_sparse, l_mats):
        ldl = lm.conj().T @ lm
        gen = gen + sparse.kron(lm, lm.conj()) \
            - 0.5 * (sparse.kron(ldl, eye) + sparse.kron(eye, ldl.T))
    return sparse.csr_array(gen / hbar)


def _taylor_plan(step) -> tuple:
    """(m*, s) for exp(step): the degree m and the s = ceil(||step||_1 / theta_m)
    sub-steps that minimise the matvec count m s (the first such m on a tie).
    A zero generator needs no term: (0, 1)."""
    norm = float(abs(step).sum(axis=0).max())
    if norm == 0.0:
        return 0, 1
    return min(((m, math.ceil(norm / theta)) for m, theta in _TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def _taylor_action(step, vec, m_star: int, s: int) -> np.ndarray:
    """exp(step) vec as s rounds of the degree-m* Taylor series of exp(step/s),
    each round cut short once two consecutive terms sum below 2^-53 of the
    partial sum's largest entry (Al-Mohy & Higham 2011, Algorithm 3.2, with no
    trace shift)."""
    f = vec
    for _ in range(s):
        b = f
        c1 = np.abs(b).max()
        for j in range(m_star):
            b = step @ b
            b *= 1.0 / (s * (j + 1))
            c2 = np.abs(b).max()
            f = f + b
            if c1 + c2 <= _TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
    return f


def lindblad_evolve(rho0, h_mat, l_mats, t: float, hbar: float,
                    dt: float = 1e-3) -> FockDensityMatrix:
    """Exact solution of the Lindblad master equation,

        drho/dt = -(i/hbar)[H, rho] + (1/hbar) sum_k (L rho L+ - {L+L, rho}/2),

    by the action of the sparse Liouvillian's exponential over equal segments
    of at most 25 dt.  Population reaching the top decile of the basis after a
    segment raises TruncationLeakError; trace drift beyond 1e-8 reports a
    ConvergenceWarning.

    Each segment is s rounds of a truncated Taylor series (``_taylor_action``).
    Every segment has the same generator, so its degree m* and scaling s are
    chosen once per evolution, from the segment generator's exact 1-norm and
    the theta_m table (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011).
    Where their condition 3.13 holds (1-norm <= 63.36 for one vector) this is
    the choice their algorithm makes.  Beyond it they lower s with estimates of
    ||A^p||^(1/p), which the 1-norm bounds from above: this loop may then take
    more terms than needed, but it never loses digits.  No trace shift is
    applied: it would cost the state's trace an order of magnitude in rounding.

    t must be finite and nonnegative, dt and hbar finite and positive, rho0
    Hermitian (with a FockDensityMatrix's hbar equal to ``hbar``), and h_mat
    and every L the shape of rho0; anything else raises ValueError.
    """
    rho = np.array(getattr(rho0, "rho", rho0), dtype=complex)
    l_mats = list(l_mats)
    dim = rho.shape[0]
    _check_time(t)
    _check_positive(hbar, "hbar")
    _check_positive(dt, "dt")
    if getattr(rho0, "hbar", hbar) != hbar:
        raise ValueError(f"hbar = {hbar!r} differs from the state's {rho0.hbar!r}")
    for name, mat in [("h_mat", h_mat)] + [(f"l_mats[{k}]", lm) for k, lm in enumerate(l_mats)]:
        if np.shape(mat) != rho.shape:
            raise ValueError(f"{name} has shape {np.shape(mat)}, rho0 has {rho.shape}")
    _check_hermitian(rho)
    segments = max(1, int(math.ceil(t / (_CHECK_EVERY * dt))))
    step = _liouvillian(h_mat, l_mats, hbar) * (t / segments)
    m_star, s = _taylor_plan(step)
    tr0 = float(np.real(np.trace(rho)))
    vec = rho.ravel()
    for _ in range(segments):
        vec = _taylor_action(step, vec, m_star, s)
        leak = _top_decile(np.real(vec[::dim + 1]))
        if leak > _LEAK_TOL:
            raise TruncationLeakError(
                f"population {leak:.2e} reached the top decile of a dim-{dim} "
                "basis; increase dim", dim)
    rho = vec.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    notes: list = []
    drift = abs(float(np.real(np.trace(rho))) - tr0)
    if drift > _TRACE_TOL:
        diagnostics.report(
            notes, f"trace drifted by {drift:.2e} during evolution (the generator "
            "conserves it: rounding); check H and the channels for huge entries",
            diagnostics.ConvergenceWarning)
    return FockDensityMatrix(rho, float(hbar), notes)


def evolve_state(rho0: FockDensityMatrix, model: HamiltonianModel, channels,
                 t: float, dt: float = 1e-3) -> FockDensityMatrix:
    """Convenience wrapper: assemble matrices from models, then evolve."""
    dim = rho0.dim
    hb = rho0.hbar
    h_mat = hamiltonian_matrix(model, dim, hb)
    l_mats = [build_linear_lindblad(ch, hb, dim) for ch in _as_channels(channels)]
    return lindblad_evolve(rho0, h_mat, l_mats, t, hb, dt)


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """<m| D(alpha) |n> in closed form (associated Laguerre polynomials)."""
    alpha = complex(alpha)
    idx = np.arange(dim)
    mm, nn = np.meshgrid(idx, idx, indexing="ij")
    nmin = np.minimum(mm, nn)
    k = np.abs(mm - nn)
    x = abs(alpha) ** 2
    with np.errstate(over="ignore"):
        lag = eval_genlaguerre(nmin, k, x)
    log_ratio = 0.5 * (gammaln(nmin + 1.0) - gammaln(nmin + k + 1.0))
    base = (alpha ** np.where(mm >= nn, k, 0)) * ((-np.conj(alpha)) ** np.where(mm < nn, k, 0))
    return np.exp(log_ratio - 0.5 * x) * lag * base


def hermite_functions(n_max: int, x, hbar: float) -> np.ndarray:
    """Oscillator eigenfunctions psi_0..psi_n_max on x, shape (n_max+1, len(x)).

    Stable three-term recurrence; psi_0 is the round Gaussian of variance
    hbar/2 matching the coherent-state convention.
    """
    _check_positive(hbar, "hbar")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = x / math.sqrt(hbar)
    out = np.empty((n_max + 1, x.size))
    out[0] = (math.pi * hbar) ** -0.25 * np.exp(-0.5 * u**2)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for n in range(1, n_max):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * u * out[n]
                      - math.sqrt(n / (n + 1.0)) * out[n - 1])
    return out


def position_density_matrix(rho, q_axis, s_axis) -> np.ndarray:
    """rho(q - s/2, q + s/2) on the outer product of the two axes.

    With rho = A + iB (A = Re rho symmetric, B = Im rho antisymmetric) and
    real psi_n, a slice is psi(q-)^T A psi(q+) + i psi(q-)^T B psi(q+), and
    the slice at -s is the conjugate of the one at s.  So only |s| is
    evaluated, in real arithmetic: per block of nodes one GEMM of the stacked
    [A; B] with the psi(q+) table and two contractions with psi(q-).
    A non-Hermitian matrix has no such slices and raises ValueError.
    """
    mat = np.asarray(getattr(rho, "rho", rho))
    hb = getattr(rho, "hbar", None)
    if hb is None:
        raise ValueError("pass a FockDensityMatrix (hbar is needed for the basis)")
    _check_hermitian(mat)
    dim = mat.shape[0]
    stacked = np.concatenate([0.5 * (mat.real + mat.real.T), 0.5 * (mat.imag - mat.imag.T)])
    q_axis = np.asarray(q_axis, dtype=float)
    s_axis = np.asarray(s_axis, dtype=float)
    half, inv = np.unique(np.abs(s_axis), return_inverse=True)
    qm = (q_axis[:, None] - 0.5 * half[None, :]).ravel()
    qp = (q_axis[:, None] + 0.5 * half[None, :]).ravel()
    out = np.empty(qm.size, dtype=complex)
    # blocks keep the (dim, points) basis tables off the heap all at once
    block = max(1024, _BLOCK_ELEMENTS // dim)
    for i in range(0, qm.size, block):
        sl = slice(i, i + block)
        psi_m = hermite_functions(dim - 1, qm[sl], hb)
        prod = stacked @ hermite_functions(dim - 1, qp[sl], hb)
        out.real[sl] = np.einsum("mk,mk->k", psi_m, prod[:dim])
        out.imag[sl] = np.einsum("mk,mk->k", psi_m, prod[dim:])
    out = out.reshape(q_axis.size, half.size)[:, inv]
    np.conjugate(out, out=out, where=s_axis[None, :] < 0)
    return out


def _q_support(rho: FockDensityMatrix) -> float:
    pops = np.maximum(rho.populations(), 0.0)
    csum = np.cumsum(pops[::-1])[::-1]
    occupied = np.nonzero(csum > 1e-12)[0]
    n_top = int(occupied[-1]) + 1 if occupied.size else 1
    return math.sqrt(2.0 * rho.hbar * (n_top + 1.0)) + 8.0 * math.sqrt(rho.hbar)


def chord_function_exact(rho: FockDensityMatrix, xi_p, xi_q,
                         method: str = "position") -> np.ndarray:
    """chi(xi) = (2 pi hbar)^-1 tr(T(-xi) rho) at arbitrary chord points.

    method "position" integrates position slices against the xi_p phase (one
    GEMM on an outer grid of chords, see ``grids._plane_wave_sum``);
    "displacement" evaluates the displacement-matrix trace point by point,
    the slower reference that gives the same values.
    """
    hb = rho.hbar
    xi_p = np.asarray(xi_p, dtype=float)
    xi_q = np.asarray(xi_q, dtype=float)
    shape = np.broadcast(xi_p, xi_q).shape
    xp = np.broadcast_to(xi_p, shape).ravel()
    xq = np.broadcast_to(xi_q, shape).ravel()

    if method == "displacement":
        vals = np.empty(xp.size, dtype=complex)
        rho_t = rho.rho.T.copy()
        for i in range(xp.size):
            alpha = (xq[i] + 1j * xp[i]) / math.sqrt(2.0 * hb)
            vals[i] = np.sum(displacement_matrix(-alpha, rho.dim) * rho_t)
        vals = vals.reshape(shape) / (2.0 * math.pi * hb)
        return vals[()] if shape == () else vals

    if method != "position":
        raise ValueError("method must be position or displacement")
    q_max = _q_support(rho)
    p_max = math.sqrt(2.0 * hb * rho.dim) + 4.0 * math.sqrt(hb)
    freq = (float(np.max(np.abs(xp))) + p_max) / hb
    dq = min(math.pi / (2.0 * freq), 0.25 * math.sqrt(hb))
    nq = 2 * int(math.ceil(q_max / dq)) + 1
    q_axis = np.linspace(-q_max, q_max, nq)
    # chi = (2 pi hbar)^-1 sum_j w_j rho(q_j + xi_q/2, q_j - xi_q/2) exp(-i q_j xi_p / hbar):
    # a plane-wave sum over q nodes whose amplitudes depend on xi_q only
    axes = _outer_grid(xi_p, xi_q)
    s_axis, inv = np.unique(-(xq if axes is None else axes[1]), return_inverse=True)
    slices = position_density_matrix(rho, q_axis, s_axis)
    amp = (simpson_weights(nq, q_axis[1] - q_axis[0])[:, None] * slices)[:, inv]
    amp = amp.reshape((nq,) + (shape if axes is None else (1, -1)))
    nodes = np.stack([np.zeros(nq), q_axis], axis=-1)
    vals = _plane_wave_sum(nodes, amp, xi_p, xi_q, hb) / (2.0 * math.pi * hb)
    return vals[()] if shape == () else vals


def chord_function_grid(rho: FockDensityMatrix, grid: CenteredGrid) -> np.ndarray:
    """chi sampled on a full chord grid, via the position route."""
    if grid.hbar != rho.hbar:
        raise ValueError("grid and state disagree on hbar")
    xp, xq = grid.meshgrid()
    return chord_function_exact(rho, xp, xq, method="position")


def wigner_exact(rho: FockDensityMatrix, grid: CenteredGrid, sink=None) -> np.ndarray:
    """W on a centre grid by Fourier transforming exact position slices.

    The s integration runs over the grid conjugate to the p axis, so the
    transform lands exactly on grid.p_axis.
    """
    if grid.hbar != rho.hbar:
        raise ValueError("grid and state disagree on hbar")
    hb = rho.hbar
    conj = grid.conjugate()
    s_axis = conj.q_axis  # paired with p
    slices = position_density_matrix(rho, grid.q_axis, s_axis)
    if not _edge_decayed(slices, 1e-10, (1,)):
        diagnostics.report(
            sink, "position slices not decayed at the s range edge; refine the "
            "p axis (its conjugate sets the s range)",
            diagnostics.GridDomainWarning)
    w = ft_axis(slices, conj.dq, hb, axis=1, sign=+1) / (2.0 * math.pi * hb)
    return diagnostics._real_part(w.T, "Wigner", sink)[0]  # (q, p) -> (p, q)
