"""Number-basis oracle: exact finite-dimensional quantum evolution.

Everything here works with dense matrices in the harmonic oscillator
eigenbasis, scaled so that q = sqrt(hbar/2)(a + a+) and p comes with the
matching factor.  It provides the ground truth the phase-space machinery is
checked against: exact Lindblad evolution (the exponential of the Lindblad
generator acting on the state, by one truncated-Taylor plan per evolution
from the complex generator's 1-norm, whose rounds end on the exact states
the leak check reads), exact position slices, chord functions and Wigner
functions.  The evolution runs in real arithmetic on a packed state, d^2
reals triu(Re rho) + tril(Im rho, -1) with the populations on the diagonal,
under the real sparse generator the Liouvillian becomes on Hermitian
matrices, built from the nonzeros of H and each L in two sparse products
(no Kronecker product, no format conversion), the first of which gives the
plan's 1-norm; the evolved rho is Hermitian by construction.  Only the
blocks of that generator the initial state reaches are evolved (half the
space for a number or cat state), and the partial sum's largest entry is
read only when a running bound lets a Taylor round stop; neither changes a
bit of the result.

The readouts (position slices, chi and W) are one bilinear form in the
two-mode oscillator basis rotated by 45 degrees, ``_hermite_form``: real GEMMs
on Hermite tables at the requested points, with no quadrature nodes and no
FFT; each readout names only its points and turns, and a square grid builds
one Hermite table for both axes.  The displacement-matrix trace stays as the
point-by-point reference for chi.

Truncation is monitored rather than hidden: populations leaking into the
top decile of the basis (relative to the initial trace) after any round
raise TruncationLeakError with advice to enlarge the space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.special import eval_genlaguerre, gammaln

from . import diagnostics
from .dynamics import HamiltonianModel, LindbladChannel, _as_channels, _check_time
from .grids import CenteredGrid, _check_positive, _outer_grid
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
#: i^e for e = 0, 1, 2, 3
_UNITS = np.array([1.0, 1j, -1.0, -1j])


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


def _check_hermitian(mat, name: str) -> None:
    """ValueError naming ``name`` unless mat is finite and mat - mat+ is at
    most 1e-12 of mat's largest entry."""
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} has non-finite entries")
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > 1e-12 * float(np.max(np.abs(mat))):
        raise ValueError(f"{name} is not Hermitian (max |{name} - {name}+| = {herm:.2e})")


def _kept(mat) -> np.ndarray:
    """Complex copy of mat without the entries at most eps times its largest:
    rounding noise (the eigh-built pendulum cos q is full of it) would fill a
    banded generator."""
    mat = np.asarray(mat, dtype=complex)
    return np.where(np.abs(mat) > _EPS * np.abs(mat).max(), mat, 0.0)


def _indptr(counts) -> np.ndarray:
    """CSR row pointers for rows holding ``counts`` entries."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _csr_parts(mat) -> tuple:
    """(data, indices, indptr) of the nonzeros of a dense 2-d array, row by row."""
    rows, cols = np.nonzero(mat)
    return mat[rows, cols], cols.astype(np.int32), _indptr(np.bincount(rows, minlength=len(mat)))


def _runs(first, last) -> tuple:
    """(n, k) for every k in range(first[n], last[n]), n ascending."""
    counts = last - first
    n = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
    return n, np.arange(n.size) + (first - _indptr(counts)[:-1])[n]


def _complex_generator(h, ls, hbar, t) -> sparse.csr_array:
    """The Lindblad generator times t on complex rho.ravel() (row-major),

        G = t ((A (x) I + I (x) B^T + sum_k L_k (x) L_k*) / hbar),
        A = -i H - K/2,  B = i H - K/2,  K = sum_k L_k+ L_k

    (A rho + rho B is -i[H, rho] - {K, rho}/2), in CSR, as one sparse
    product kron(X, I) @ kron(I, Y) over the n terms X_u (x) Y_u = (A, I),
    (I, B^T), (L_k, L_k*) of d x d matrices: X[i, a n + u] = X_u[i, a] and
    Y[u d + j, b] = Y_u[j, b].  Both factors are written straight from the
    nonzeros of X and Y; the product adds up the terms that share an entry
    and drops the entries that vanish.  K sums the products of the entries
    in each row of each L."""
    dim = len(h)
    size = dim * dim
    ld, li, lp = _csr_parts(np.vstack(ls) if ls else np.zeros((0, dim), dtype=complex))
    row = np.repeat(np.arange(lp.size - 1), np.diff(lp))
    own, mate = _runs(lp[row], lp[row + 1])  # each entry with every entry of its row
    prod = ld[own].conj() * ld[mate]
    pos = li[own] * dim + li[mate]
    k = (np.bincount(pos, prod.real, minlength=size)
         + 1j * np.bincount(pos, prod.imag, minlength=size)).reshape(dim, dim)
    eye = np.eye(dim)
    xs = [-1j * h - 0.5 * k, eye] + ls
    ys = [eye, (1j * h - 0.5 * k).T] + [lm.conj() for lm in ls]
    xd, xi, xp = _csr_parts(np.stack(xs, axis=2).reshape(dim, -1))
    yd, yi, yp = _csr_parts(np.concatenate(ys))
    # kron(X, I): row (i, j) holds row i of X, column c moved to c dim + j
    row, e = _runs(np.repeat(xp[:-1], dim), np.repeat(xp[1:], dim))
    left = sparse.csr_array((xd[e], xi[e] * dim + row % dim, _indptr(np.repeat(np.diff(xp), dim))),
                            shape=(size, len(xs) * size))
    del row, e
    # kron(I, Y): dim copies of Y, copy a moved to columns a dim + b
    right = sparse.csr_array((np.tile(yd, dim), (np.arange(0, size, dim, dtype=np.int32)[:, None] + yi).ravel(),
                              _indptr(np.tile(np.diff(yp), dim))), shape=(len(ys) * size, size))
    gen = left @ right
    parts = gen.data.view(float)
    parts *= 1.0 / hbar
    parts *= t
    return gen


def _generator(h_mat, l_mats, hbar, t) -> tuple:
    """(R, norm): the real CSR matrix R with _pack(rho') = R _pack(rho) for
    Hermitian rho, where rho' is t times the Lindblad right-hand side, and the
    1-norm of that map on complex rho.ravel(), the generator G of
    ``_complex_generator`` with H and each L first stripped by ``_kept``:
    its largest column sum of |entries|, over every row.  The packed matrix's
    own 1-norm is larger, and would plan more Taylor terms.

    Entry (a, b) of a Hermitian rho is x[lo, hi] + i sign(a - b) x[hi, lo],
    with lo, hi the smaller and larger of a and b, so rho = E x.  x' holds
    Re rho' on and above the diagonal and Im rho' = Re(-i rho') below it, so
    R = Re(P G E), P = 1 on the rows (i, j), i <= j, and -i below them: a
    second sparse product, which leaves each row's columns unsorted.

    G adds its terms in another order than the Kronecker-sum Liouvillian
    -(i/hbar)(H (x) I - I (x) H^T) + sum_k (L (x) L* - L+L (x) I/2
    - I (x) (L+L)^T/2)/hbar does: each entry of R, and norm, is within a few
    units in the last place of the largest.  A generator whose entries or
    1-norm overflow raises ValueError, with no numpy warning.
    """
    size = len(h_mat) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        gen = _complex_generator(_kept(h_mat), [_kept(lm) for lm in l_mats], hbar, t)
        norm = float(np.bincount(gen.indices, np.abs(gen.data), minlength=1).max())
    if not math.isfinite(norm):
        raise ValueError(f"the Lindblad generator overflows over t = {t!r}: its 1-norm "
                         f"is {norm!r}; rescale H, the channels or t")
    col = np.arange(size, dtype=np.int32)
    a, b = np.divmod(col, len(h_mat))
    gen.data *= np.repeat(np.where(a <= b, 1.0, -1j), np.diff(gen.indptr))
    # row (a, b) of E: 1 at (lo, hi), i sign(a - b) at (hi, lo), the same slot when a = b
    turned = b * len(h_mat) + a
    fold = sparse.csr_array((np.stack([np.ones(size), 1j * np.sign(a - b)], axis=1).ravel(),
                             np.stack([np.minimum(col, turned), np.maximum(col, turned)], axis=1).ravel(),
                             np.arange(0, 2 * size + 1, 2)), shape=(size, size))
    gen = gen @ fold
    out = sparse.csr_array((gen.data.real.copy(), gen.indices, gen.indptr), shape=gen.shape)
    out.eliminate_zeros()
    return out, norm


def _taylor_plan(norm: float) -> tuple:
    """(m*, s) for exp(gen) with ||gen||_1 = norm: the degree m and the
    s = ceil(norm / theta_m) rounds that minimise the matvec count m s (the
    first such m on a tie).  A zero generator needs no term: (0, 1).  Each
    round's gen/s has 1-norm at most theta_m*.  Up to their condition 3.13
    (norm <= 63.36) this is Al-Mohy & Higham's choice.  A whole evolution
    nearly always exceeds it (270-320 for the benchmark's dim-48 ones); there
    they lower s with estimates of ||gen^p||^(1/p), which the 1-norm bounds
    from above, so this plan may take more rounds than theirs, never fewer
    digits."""
    if norm == 0.0:
        return 0, 1
    return min(((m, math.ceil(norm / theta)) for m, theta in _TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def _pack(rho) -> np.ndarray:
    """A Hermitian rho as d^2 reals: triu(Re rho) + tril(Im rho, -1), raveled
    row-major, so the diagonal (every dim+1-th entry) holds the populations."""
    return (np.triu(rho.real) + np.tril(rho.imag, -1)).ravel()


def _unpack(x, dim: int) -> np.ndarray:
    """The Hermitian matrix packed in x, Hermitian bit for bit."""
    x = x.reshape(dim, dim)
    lower = np.tril(x, -1)
    rho = np.empty((dim, dim), dtype=complex)
    rho.real = np.triu(x) + np.triu(x, 1).T
    rho.imag = lower - lower.T
    return rho


def _reached(gen, x) -> np.ndarray:
    """Sorted indices of the weakly connected components of the generator
    ``gen``'s graph that hold an exactly nonzero entry of x: the only entries
    exp(gen) x can reach.  Every built-in model and linear channel keeps the
    parity of m + n, so a number or cat state reaches half of the space."""
    _, labels = connected_components(gen, connection="weak")
    return np.flatnonzero(np.isin(labels, labels[x != 0]))


def _restricted(gen, live) -> sparse.csr_array:
    """gen[live][:, live] in one pass over the rows of ``live``, sorted indices of
    whole weakly connected components of gen's graph (``_reached``), whose
    rows hold no column outside it: each row keeps its entries in order."""
    counts = np.diff(gen.indptr)[live]
    indptr = np.zeros(live.size + 1, dtype=gen.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    take = np.repeat(gen.indptr[live] - indptr[:-1], counts) + np.arange(indptr[-1])
    pos = np.empty(gen.shape[0], dtype=gen.indices.dtype)
    pos[live] = np.arange(live.size)
    return sparse.csr_array((gen.data[take], pos[gen.indices[take]], indptr),
                            shape=(live.size,) * 2)


def _taylor_round(gen, vec, m_star: int, s: int) -> np.ndarray:
    """exp(gen/s) vec: one round of the degree-m* Taylor series, cut short once
    two consecutive terms sum below 2^-53 of the partial sum's largest entry
    (Al-Mohy & Higham 2011, Algorithm 3.2, with no trace shift).

    That entry is read only when the bound ``top`` on it lets the round stop,
    so the round stops at the same term: ``top`` is the round's first largest
    entry plus every term's, summed in floating point, and rounding is
    monotone, so it bounds each entry of the rounded partial sum."""
    f = b = vec
    c1 = top = np.abs(b).max()
    for j in range(m_star):
        b = gen @ b
        b *= 1.0 / (s * (j + 1))
        c2 = np.abs(b).max()
        f = f + b
        top += c2
        if c1 + c2 <= _TAYLOR_TOL * top and c1 + c2 <= _TAYLOR_TOL * np.abs(f).max():
            break
        c1 = c2
    return f


def lindblad_evolve(rho0, h_mat, l_mats, t: float, hbar: float,
                    dt: float | None = None) -> FockDensityMatrix:
    """Exact solution of the Lindblad master equation,

        drho/dt = -(i/hbar)[H, rho] + (1/hbar) sum_k (L rho L+ - {L+L, rho}/2),

    by the generator's exponential over the whole span t, in the s rounds of
    one truncated Taylor plan (``_taylor_plan``; Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488, 2011), chosen from the complex generator's 1-norm.
    Round k ends on the exact state at k t / s, where population above 1e-6
    of the initial trace in the top decile of the basis raises
    TruncationLeakError: the rounds follow the generator's fastest rate
    (0.041-0.06 apart in the benchmark's dim-48 and dim-56 evolutions; one
    round, checked at t only, while t ||L||_1 <= 9.9).  Trace drift beyond
    1e-8 of the initial trace reports a ConvergenceWarning.  ``dt`` is
    ignored; the acceptance tests and the benchmark's oracle still pass it.

    The state is packed as d^2 reals (``_pack``) and evolved by the real
    generator, the same map on Hermitian matrices, which ``_generator``
    builds from the nonzeros of H and each L together with the complex
    generator's 1-norm; the returned rho is unpacked from them, Hermitian
    bit for bit.  Only the weakly connected components of the generator's
    graph that hold an exactly nonzero packed entry of rho0 (``_reached``)
    are evolved, on the generator restricted to them (``_restricted``, one
    pass over their rows): the rest stays exactly zero, and each kept row
    sums the same entries in the same order, so the result is the full
    evolution's bit for bit.  A number or cat state under a parity-keeping
    model and channels evolves on half the space; a coherent state on all of
    it.  No trace shift is applied: it would cost the state's trace an order
    of magnitude in rounding.

    t must be finite and nonnegative, hbar finite and positive, rho0 finite
    and Hermitian with a positive trace (and, for a FockDensityMatrix, hbar
    equal to ``hbar``), h_mat finite and Hermitian, every L finite, h_mat and
    every L the shape of rho0, and t times the generator finite; anything else
    raises ValueError.
    """
    rho = np.array(getattr(rho0, "rho", rho0), dtype=complex)
    l_mats = list(l_mats)
    dim = rho.shape[0]
    _check_time(t)
    _check_positive(hbar, "hbar")
    if getattr(rho0, "hbar", hbar) != hbar:
        raise ValueError(f"hbar = {hbar!r} differs from the state's {rho0.hbar!r}")
    for name, mat in [("h_mat", h_mat)] + [(f"l_mats[{k}]", lm) for k, lm in enumerate(l_mats)]:
        if np.shape(mat) != rho.shape:
            raise ValueError(f"{name} has shape {np.shape(mat)}, rho0 has {rho.shape}")
    _check_hermitian(rho, "rho0")
    _check_hermitian(h_mat, "h_mat")
    for k, lm in enumerate(l_mats):
        if not np.all(np.isfinite(lm)):
            raise ValueError(f"l_mats[{k}] has non-finite entries")
    x = _pack(rho)
    with np.errstate(over="ignore"):  # an overflowing trace is rejected next
        tr0 = float(np.sum(x[::dim + 1]))
    if not (math.isfinite(tr0) and tr0 > 0.0):
        raise ValueError(f"rho0 must have a finite positive trace, got {tr0!r}")
    gen, norm = _generator(h_mat, l_mats, hbar, t)
    m_star, s = _taylor_plan(norm)
    live = _reached(gen, x)
    if live.size < x.size:
        gen = _restricted(gen, live)
    else:
        live = slice(None)
    for _ in range(s):
        x[live] = _taylor_round(gen, x[live], m_star, s)
        leak = _top_decile(x[::dim + 1])
        if leak > _LEAK_TOL * tr0:
            raise TruncationLeakError(
                f"population {leak / tr0:.2e} reached the top decile of a dim-{dim} "
                "basis; increase dim", dim)
    notes: list = []
    drift = abs(float(np.sum(x[::dim + 1])) - tr0) / tr0
    if drift > _TRACE_TOL:
        diagnostics.report(
            notes, f"trace drifted by {drift:.2e} of its initial value during evolution "
            "(the generator conserves it: rounding); check H and the channels for huge "
            "entries", diagnostics.ConvergenceWarning)
    return FockDensityMatrix(_unpack(x, dim), float(hbar), notes)


def evolve_state(rho0: FockDensityMatrix, model: HamiltonianModel, channels,
                 t: float) -> FockDensityMatrix:
    """Convenience wrapper: assemble matrices from models, then evolve."""
    dim = rho0.dim
    hb = rho0.hbar
    h_mat = hamiltonian_matrix(model, dim, hb)
    l_mats = [build_linear_lindblad(ch, hb, dim) for ch in _as_channels(channels)]
    return lindblad_evolve(rho0, h_mat, l_mats, t, hb)


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
    hbar/2 matching the coherent-state convention.  Negating x negates the
    odd orders bit for bit.
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


def _rotation_levels(dim: int):
    """The two-mode rotation by 45 degrees, one table per level N = m + n,
    yielded in turn from N = 0 to 2 dim - 2.

    Level N holds C[m - max(0, N - dim + 1), k] = <k, N - k|_uv |m, N - m>_xy
    for the rows with m, N - m < dim and every k <= N, where u = (x + y)/sqrt2
    and v = (y - x)/sqrt2, so psi_m(x) psi_n(y) = sum_k C[m, k] psi_k(u)
    psi_{N-k}(v).  Each level comes from the one below by the two-ladder step
    N |m, n> = sqrt(m) a_x+ |m-1, n> + sqrt(n) a_y+ |m, n-1>, with
    a_x+ = (a_u+ - a_v+)/sqrt2 and a_y+ = (a_u+ + a_v+)/sqrt2 (Risbo,
    J. Geodesy 70, 383, 1996): its rows stay orthonormal to rounding, where
    the one-ladder step a_x+ / sqrt(m + 1) does not.
    """
    prev = np.ones((1, 1))
    yield prev
    for n in range(1, 2 * dim - 1):
        lo = max(0, n - dim)  # prev's rows start at m = lo
        k = np.arange(n + 1.0)
        raise_u = np.zeros((prev.shape[0], n + 1))  # a_u+ |k, n-1-k>
        raise_u[:, 1:] = prev * np.sqrt(k[1:])
        raise_v = np.zeros((prev.shape[0], n + 1))  # a_v+ |k, n-1-k>
        raise_v[:, :-1] = prev * np.sqrt(n - k[:-1])
        m = np.arange(max(0, n - dim + 1), min(n, dim - 1) + 1)
        out = np.zeros((m.size, n + 1))
        x, y = m >= 1, m < n
        out[x] += np.sqrt(m[x])[:, None] * (raise_u - raise_v)[m[x] - 1 - lo]
        out[y] += np.sqrt(n - m[y])[:, None] * (raise_u + raise_v)[m[y] - lo]
        prev = out / (n * math.sqrt(2.0))
        yield prev


@functools.lru_cache(maxsize=4)
def _rotation_map(dim: int) -> sparse.csr_array:
    """The real CSR matrix taking [vec A; vec B] to vec G (row-major, G of
    size 2 dim - 1 squared), for rho = A + iB with A symmetric and B
    antisymmetric: G[k, l] = sum_m C[m, k] X[m, k + l - m] over the level
    k + l of ``_rotation_levels``, X = A for even l and B for odd l.

    Swapping x and y flips v, so the symmetric A reaches only even l and the
    antisymmetric B only odd l, and G holds both: rho(x, y) =
    sum_kl (G_A + i G_B)[k, l] psi_k(u) psi_l(v), with G_A the even and G_B
    the odd columns of G.  It has dim^3 entries (2.1 MB at dim 56, 21 MB
    at 120, with int32 indices)."""
    size = 2 * dim - 1
    level = np.add.outer(np.arange(size), np.arange(size)).ravel()
    indptr = np.zeros(size * size + 1, dtype=np.int32)
    np.cumsum(np.maximum(0, np.minimum(level + 1, size - level)), out=indptr[1:])
    data = np.empty(dim**3)
    indices = np.empty(dim**3, dtype=np.int32)
    for n, c in enumerate(_rotation_levels(dim)):
        m = np.arange(max(0, n - dim + 1), min(n, dim - 1) + 1)
        k = np.arange(n + 1)
        at = indptr[k * size + n - k] + np.arange(m.size)[:, None]  # laid out as c
        data[at] = c
        indices[at] = (m * dim + n - m)[:, None] + (n - k) % 2 * dim * dim
    return sparse.csr_array((data, indices, indptr), shape=(size * size, 2 * dim * dim))


def _rotated(mat) -> np.ndarray:
    """G of ``_rotation_map`` for a Hermitian matrix (ValueError otherwise)."""
    _check_hermitian(mat, "rho")
    dim = mat.shape[0]
    parts = np.concatenate([(0.5 * (mat.real + mat.real.T)).ravel(),
                            (0.5 * (mat.imag - mat.imag.T)).ravel()])
    return (_rotation_map(dim) @ parts).reshape(2 * dim - 1, 2 * dim - 1)


def _state(rho, hbar=None) -> tuple:
    """(matrix, hbar) of a FockDensityMatrix whose hbar is ``hbar`` (a grid's),
    if given; ValueError otherwise, a raw matrix included."""
    hb = getattr(rho, "hbar", None)
    if hb is None:
        raise ValueError("pass a FockDensityMatrix (hbar is needed for the basis)")
    if hbar is not None and hbar != hb:
        raise ValueError("grid and state disagree on hbar")
    return np.asarray(rho.rho), hb


@functools.lru_cache(maxsize=8)
def _phases(size: int, turns: tuple) -> np.ndarray:
    """Re and Im of i^(turns . (k, l) + l mod 2) on G's index grid, from one
    phase vector per axis; Im is left out where it vanishes."""
    k = np.arange(size)
    phase = np.outer(_UNITS[turns[0] * k % 4], _UNITS[(turns[1] * k + k % 2) % 4])
    return np.stack([phase.real, phase.imag][:1 + phase.imag.any()])


def _hermite_form(rho, u, v, turns, outer=True, v_rows=False, hbar=None) -> np.ndarray:
    """sum_kl i^e (G_A + i G_B)[k, l] psi_k(u) psi_l(v), e = turns . (k, l), with
    G of ``_rotated`` and psi of ``hermite_functions``: every readout's form.

    G_A is the even and G_B the odd columns of G, so entry (k, l) of G
    carries i^(e + l mod 2) (``_phases``); a Hermite function is its own
    hbar-Fourier transform up to (-i)^k, which the turns count.  The real and
    imaginary parts are real GEMMs, the column side contracted first: with
    ``outer`` u and v are axes and the form is indexed [u, v] ([v, u] with
    ``v_rows``); otherwise they are paired points, one contraction each.
    Where v equals u, or -u, psi(v) is psi(u), or psi(u) with its odd orders
    negated (bit for bit what ``hermite_functions`` gives at -u), so a square
    grid builds one table.  rho must be a Hermitian FockDensityMatrix, with
    the ``hbar`` given, if any; anything else raises ValueError.
    """
    mat, hb = _state(rho, hbar)
    g = _rotated(mat)
    parts = g * _phases(g.shape[0], turns)
    psi_u = hermite_functions(g.shape[0] - 1, u, hb)
    if np.array_equal(v, u):
        psi_v = psi_u
    elif np.array_equal(v, -u):
        psi_v = psi_u.copy()
        psi_v[1::2] *= -1.0
    else:
        psi_v = hermite_functions(g.shape[0] - 1, v, hb)
    if v_rows:
        parts, psi_u, psi_v = parts.transpose(0, 2, 1), psi_v, psi_u
    cols = parts @ psi_v
    out = psi_u.T @ cols if outer else np.einsum("kj,nkj->nj", psi_u, cols)
    return out[0] if len(out) == 1 else out[0] + 1j * out[1]


def position_density_matrix(rho, q_axis, s_axis) -> np.ndarray:
    """rho(q - s/2, q + s/2) on the outer product of the two axes:
    ``_hermite_form`` at (sqrt2 q, s/sqrt2) with turns (0, 0).  The slice at
    -s is the conjugate of the one at s."""
    return _hermite_form(rho, math.sqrt(2.0) * np.asarray(q_axis, dtype=float),
                         np.asarray(s_axis, dtype=float) / math.sqrt(2.0), (0, 0))


def chord_function_exact(rho: FockDensityMatrix, xi_p, xi_q,
                         method: str = "position") -> np.ndarray:
    """chi(xi) = (2 pi hbar)^-1 tr(T(-xi) rho) at arbitrary chord points.

    method "position" is ``_hermite_form`` at (xi_p/sqrt2, -xi_q/sqrt2) with
    turns (-1, 0), over (4 pi hbar)^1/2: its outer form on an outer grid of
    chords (see ``grids._outer_grid``), its pointwise form elsewhere.
    chi(-xi) is the conjugate of chi(xi).  "displacement" evaluates the
    displacement-matrix trace point by point, the slower reference that
    gives the same values.
    """
    mat, hb = _state(rho)
    xi_p, xi_q = np.asarray(xi_p, dtype=float), np.asarray(xi_q, dtype=float)
    shape = np.broadcast(xi_p, xi_q).shape
    xp, xq = (np.broadcast_to(x, shape).ravel() for x in (xi_p, xi_q))
    if method == "displacement":
        rho_t, root = mat.T.copy(), math.sqrt(2.0 * hb)
        vals = np.array([np.sum(displacement_matrix(-(q + 1j * p) / root, len(mat)) * rho_t)
                         for p, q in zip(xp, xq)], dtype=complex) / (2.0 * math.pi * hb)
    elif method == "position":
        axes = _outer_grid(xi_p, xi_q)
        xp, xq = (xp, xq) if axes is None else axes
        vals = _hermite_form(rho, xp / math.sqrt(2.0), -xq / math.sqrt(2.0), (-1, 0),
                             outer=axes is not None) / math.sqrt(4.0 * math.pi * hb)
    else:
        raise ValueError("method must be position or displacement")
    vals = vals.reshape(shape)
    return vals[()] if shape == () else vals


def chord_function_grid(rho: FockDensityMatrix, grid: CenteredGrid) -> np.ndarray:
    """chi on a full chord grid, indexed (xi_p, xi_q): ``chord_function_exact``'s
    outer form on the grid's own axes."""
    return _hermite_form(rho, grid.p_axis / math.sqrt(2.0), -grid.q_axis / math.sqrt(2.0),
                         (-1, 0), hbar=grid.hbar) / math.sqrt(4.0 * math.pi * grid.hbar)


def wigner_exact(rho: FockDensityMatrix, grid: CenteredGrid) -> np.ndarray:
    """W on a centre grid, indexed (p, q): ``_hermite_form`` at
    (sqrt2 q, sqrt2 p) with turns (0, 1), over (pi hbar)^1/2, real by
    construction.  There is no s range and no grid condition beyond the axes
    themselves."""
    return _hermite_form(rho, math.sqrt(2.0) * grid.q_axis, math.sqrt(2.0) * grid.p_axis,
                         (0, 1), v_rows=True, hbar=grid.hbar) / math.sqrt(math.pi * grid.hbar)
