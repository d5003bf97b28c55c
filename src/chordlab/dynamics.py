"""Markovian open dynamics in the phase plane.

Centres follow the dissipative classical flow

    dx/dtau = J grad H(x) - gamma x,        gamma = sum_k l''_k ^ l'_k,

while chords ride the adjoint variational system

    dxi/dtau = (J Hess H(x_tau) + gamma) xi,

so damping (gamma > 0) contracts centres and expands chords; the chord
monodromy determinant grows as exp(2 gamma tau).  Decoherence enters through
the positive matrix Phi(t) accumulated along a trajectory anchored at its
final point,

    Phi(t) = Int_0^t  B(s)^T Lambda B(s) ds,      Lambda = sum_k (l' l'^T + l'' l''^T),

where B(s) propagates chords backward over a time-to-go s from the anchor.
Evolved chord functions attenuate each reflection by exp[-xi.Phi xi / 2 hbar].
Carried back to the frame of the transported initial state by the chord
monodromy M(t), the same decoherence reads

    Phi_0(t) = M^T Phi(t) M = Int_0^t  M(u)^T Lambda M(u) du,

and every evolved Wigner function is nonnegative once det Phi_0 >= 1/4.
det M = exp(2 gamma t), so the two frames share a determinant only for
Hermitian channels (gamma = 0).

The built-in quadratic families (zero, harmonic, free) are one form,
H = x.S x / 2 with symmetric S.  Quadratic models are Gaussian and exact:
every centre follows one affine map, every chord one monodromy M = exp(t A)
with A = J Hess H + gamma, and Phi is the Gramian of (A, Lambda), taken from
one Van Loan block exponential (IEEE TAC 23, 395, 1978) and shared by every
anchor.  No step size enters and no refinement is run.
Other models go through one fixed-step Dormand-Prince 5(4) flow, ``_dp54``,
at step dt on one packed state per sample: ``advect`` steps centres alone;
decoherence matrices and evolved chord functions carry M and
G = Int M^T Lambda M along as [x | M | G], the final frame by running the
flow backward from its anchor (a negative step).  The embedded 4th-order
difference, summed over the steps, is the convergence check's measured
error, and no second pass is run.  The evolved chord function's changed
sample set is read off its flowed samples, so it needs no flow of its own.
Checks warn instead of adapting, so identical inputs give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .chordfn import ChordFunction, _doubled
from .diagnostics import ConvergenceWarning, report
from .geometry import J_MATRIX, skew
from .grids import _check_positive

__all__ = [
    "LindbladChannel",
    "HamiltonianModel",
    "hamiltonians",
    "total_gamma",
    "noise_matrix",
    "DecoherenceMatrix",
    "decoherence_matrix",
    "evolve_chord_function",
    "positivity_time",
    "advect",
]


# ---------------------------------------------------------------------------
# channels and Hamiltonian models


@dataclass(frozen=True)
class LindbladChannel:
    """Linear coupling L = (l_re + i l_im) . (p, q)."""

    l_re: tuple
    l_im: tuple = (0.0, 0.0)

    def __post_init__(self):
        lre = np.asarray(self.l_re, dtype=float)
        lim = np.asarray(self.l_im, dtype=float)
        if lre.shape != (2,) or lim.shape != (2,):
            raise ValueError("channel coefficient vectors must have two components")
        if not (np.all(np.isfinite(lre)) and np.all(np.isfinite(lim))):
            raise ValueError("channel coefficients must be finite")
        object.__setattr__(self, "l_re", tuple(lre))
        object.__setattr__(self, "l_im", tuple(lim))

    @property
    def gamma(self) -> float:
        return float(skew(np.array(self.l_im), np.array(self.l_re)))

    @property
    def noise(self) -> np.ndarray:
        lre = np.array(self.l_re)
        lim = np.array(self.l_im)
        return np.outer(lre, lre) + np.outer(lim, lim)


def _as_channels(channels):
    if channels is None:
        return []
    if isinstance(channels, LindbladChannel):
        return [channels]
    return list(channels)


def total_gamma(channels) -> float:
    return sum(c.gamma for c in _as_channels(channels))


def noise_matrix(channels) -> np.ndarray:
    """Lambda = sum_k (l' l'^T + l'' l''^T), the chord-quenching quadratic form."""
    lam = np.zeros((2, 2))
    for c in _as_channels(channels):
        lam += c.noise
    return lam


@dataclass(frozen=True)
class HamiltonianModel:
    """Weyl symbol H(x) with its first two derivatives.

    ``value``, ``gradient`` and ``hessian`` broadcast over leading axes of
    (..., 2) phase-space points.  ``quadratic`` marks a globally constant
    Hessian, which unlocks closed-form propagators downstream.
    """

    name: str
    value: object
    gradient: object
    hessian: object
    quadratic: bool
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.params.items():
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")

    def __call__(self, x):
        return self.value(np.asarray(x, dtype=float))


def _quadratic(name: str, params: dict, s: np.ndarray) -> HamiltonianModel:
    """The quadratic form H = x.S x / 2 with symmetric S."""
    return HamiltonianModel(
        name=name,
        value=lambda x: 0.5 * np.einsum("...a,ab,...b->...", x, s, x),
        gradient=lambda x: x @ s,
        hessian=lambda x: np.zeros(x.shape[:-1] + (2, 2)) + s,
        quadratic=True,
        params=params,
    )


def _separable(name: str, params: dict, quadratic: bool, v, dv, d2v) -> HamiltonianModel:
    """H = p^2/2 + V(q), from V and its first two derivatives."""

    def gradient(x):
        g = np.empty_like(x)
        g[..., 0] = x[..., 0]
        g[..., 1] = dv(x[..., 1])
        return g

    def hessian(x):
        h = np.zeros(x.shape[:-1] + (2, 2))
        h[..., 0, 0] = 1.0
        h[..., 1, 1] = d2v(x[..., 1])
        return h

    return HamiltonianModel(name, lambda x: 0.5 * x[..., 0] ** 2 + v(x[..., 1]), gradient,
                            hessian, quadratic, params)


class hamiltonians:
    """Built-in model families."""

    @staticmethod
    def zero() -> HamiltonianModel:
        return _quadratic("zero", {}, np.zeros((2, 2)))

    @staticmethod
    def harmonic(omega: float = 1.0) -> HamiltonianModel:
        return _quadratic("harmonic", {"omega": omega}, omega * np.eye(2))

    @staticmethod
    def free(mass: float = 1.0) -> HamiltonianModel:
        if mass == 0.0:  # the model checks that mass is finite
            raise ValueError(f"mass must be nonzero, got {mass!r}")
        return _quadratic("free", {"mass": mass}, np.diag([1.0 / mass, 0.0]))

    @staticmethod
    def quartic(a: float = 1.0, b: float = 0.0) -> HamiltonianModel:
        """H = p^2/2 + a q^4/4 + b q^2/2."""
        return _separable("quartic", {"a": a, "b": b}, a == 0.0,
                          lambda q: 0.25 * a * q**4 + 0.5 * b * q**2,
                          lambda q: (a * q * q + b) * q,  # q**3 runs libm pow, many times slower
                          lambda q: 3.0 * a * q * q + b)

    @staticmethod
    def pendulum(g: float = 1.0) -> HamiltonianModel:
        """H = p^2/2 - g cos q; libration below E = g."""
        return _separable("pendulum", {"g": g}, False, lambda q: -g * np.cos(q),
                          lambda q: g * np.sin(q), lambda q: g * np.cos(q))

    registry = {
        "zero": zero.__func__,
        "harmonic": harmonic.__func__,
        "free": free.__func__,
        "quartic": quartic.__func__,
        "pendulum": pendulum.__func__,
    }


# ---------------------------------------------------------------------------
# flows and fixed-step integration


def _chord_generator(H, gamma):
    """A = J Hess H + gamma, the chord variational generator of a quadratic
    model (its Hessian taken at the origin)."""
    return J_MATRIX @ H.hessian(np.zeros(2)) + gamma * np.eye(2)


def _check_time(t, signed: bool = False) -> None:
    """Reject a non-finite t, and unless ``signed`` (a flow run backward) a negative one."""
    if not (math.isfinite(t) and (signed or t >= 0)):
        raise ValueError(f"t must be finite{'' if signed else ' and nonnegative'}, got {t!r}")


def _steps_for(t: float, dt: float) -> int:
    _check_positive(dt, "dt")
    if t == 0.0:
        return 0
    return max(1, int(math.ceil(t / dt)))


def _gramian(a: np.ndarray, lam: np.ndarray, t: float) -> np.ndarray:
    """Phi = Int_0^t exp(u a^T) lam exp(u a) du for a constant generator a.

    One block exponential of [[-a^T, lam], [0, a]] over tau = t / 2^k gives
    M(tau) = exp(tau a) and Phi(tau) = M(tau)^T (upper-right block); k exact
    doublings Phi(2 tau) = Phi(tau) + M(tau)^T Phi(tau) M(tau),
    M(2 tau) = M(tau)^2 then reach t.  The doubling keeps Phi finite wherever
    Phi is finite; the block exponential alone overflows its exp(-t a^T)
    corner once Phi has saturated (nan at t = 1000 for a unit rate).  A Phi
    that overflows raises FloatingPointError, without numpy's warnings.
    """
    scale = t * float(np.max(np.sum(np.abs(a), axis=0)))
    k = max(0, math.ceil(math.log2(scale))) if scale > 0.0 else 0
    block = np.zeros((4, 4))
    block[:2, :2] = -a.T
    block[:2, 2:] = lam
    block[2:, 2:] = a
    e = scipy.linalg.expm((t / 2**k) * block)
    m = e[2:, 2:]
    phi = m.T @ e[:2, 2:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            phi = phi + m.T @ phi @ m
            m = m @ m
        phi = 0.5 * (phi + phi.T)
    if not np.isfinite(phi).all():
        raise FloatingPointError("decoherence matrix overflows over this time span")
    return phi


def _centre_map(H, gamma: float, t: float):
    """Affine centre flow x(t) = E x(0) + d of a quadratic model, from the
    exponential of [[J Hess H - gamma, J grad H(0)], [0, 0]]."""
    gen = np.zeros((3, 3))
    gen[:2, :2] = _chord_generator(H, -gamma)
    gen[:2, 2] = J_MATRIX @ H.gradient(np.zeros(2))
    e = scipy.linalg.expm(t * gen)
    return e[:2, :2], e[:2, 2]


# Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980): stage rows, whose last
# row holds the 5th-order weights (so the seventh stage is the next step's first),
# and the embedded difference b - b^ of the 5th- and 4th-order weights
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _dp54(H, gamma, x, t, steps, lam=None):
    """Fixed-step Dormand-Prince 5(4) of the (n, 2) centres x over the signed
    time t in ``steps`` equal steps; t < 0 runs the time-reversed system.

        dx/dtau = J grad H(x) - gamma x

    Without ``lam`` the state is (n, 2, 1), the centres.  With it, the chord
    monodromy rides along, dM/dtau = (J Hess H(x) + gamma) M from M = I, and
    so does G = Int M^T lam M |dtau| from G = 0, as one (n, 2, 5) state
    [x | M | G]: a stage is J [grad H | Hess H M] + (-gamma, gamma, gamma) [x | M]
    beside sign(t) M^T lam M.  Returns the final state and, per sample, the
    embedded 5(4) difference summed over the steps (its largest entry per
    step): the 4th-order error, which overstates the 5th-order result's error
    wherever h is small enough for the orders to show.  Every stage sum is
    elementwise, so a sample's row does not depend on the batch.  A
    non-finite state raises FloatingPointError, without numpy's warnings.
    """
    h = t / max(steps, 1)
    cols = 1 if lam is None else 5
    s = np.zeros(x.shape[:-1] + (2, cols))
    s[..., 0] = x
    if lam is not None:
        s[..., 0, 1] = s[..., 1, 2] = 1.0
        lam = math.copysign(1.0, t) * lam  # G grows with |tau| in either direction
    # full-size factors keep every stage operation contiguous
    sign = np.ones_like(s)
    sign[..., 0, :3] = -1.0  # J [a; b] = [-b; a] on [x | M]
    rate = np.zeros_like(s) + [-gamma, gamma, gamma, 0.0, 0.0][:cols]

    def field(s):
        y = np.empty_like(s)  # the rows of [grad H | Hess H M], swapped for J
        grad = H.gradient(s[..., 0])
        y[..., 0, 0], y[..., 1, 0] = grad[..., 1], grad[..., 0]
        if lam is not None:
            m = s[..., 1:3]
            np.matmul(H.hessian(s[..., 0])[..., ::-1, :], m, out=y[..., 1:3])
            np.matmul(np.swapaxes(m, -1, -2) @ lam, m, out=y[..., 3:])
        return sign * y + rate * s

    def ahead(s, coefs, ks):
        out = s.copy()
        for c, k in zip(coefs, ks):
            if c:
                out += (h * c) * k
        return out

    err = np.zeros(x.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        ks = [field(s)]
        for _ in range(steps):
            for row in _DP_A[1:]:
                stage = ahead(s, row, ks)
                ks.append(field(stage))
            s = stage
            if not np.isfinite(s).all():
                raise FloatingPointError("centre flow diverged; reduce dt or the time span")
            err += np.max(np.abs(ahead(np.zeros_like(s), _DP_E, ks)), axis=(-2, -1))
            ks = ks[-1:]
    return s, err


def advect(H, channels, points, t: float, dt: float) -> np.ndarray:
    """Transport of (n, 2) centre points over the signed time t (t < 0 runs
    the flow backward): the exact affine map for quadratic models, the
    fixed-step Dormand-Prince flow otherwise."""
    _check_time(t, signed=True)
    gamma = total_gamma(channels)
    x = np.array(points, dtype=float)
    if t == 0.0:
        return x
    if H.quadratic:
        with np.errstate(over="ignore", invalid="ignore"):
            e, d = _centre_map(H, gamma, t)
            x = x @ e.T + d
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("centre flow overflows over this time span")
        return x
    return _dp54(H, gamma, x, t, _steps_for(abs(t), dt))[0][..., 0]


# ---------------------------------------------------------------------------
# decoherence matrix


@dataclass
class DecoherenceMatrix:
    """Phi(t) anchored at the trajectory's final centre (``frame="final"``),
    or Phi_0(t) anchored at its initial centre (``frame="initial"``)."""

    phi: np.ndarray
    t: float
    anchor: np.ndarray
    warnings: list = field(default_factory=list)
    frame: str = "final"

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.phi))


def decoherence_matrix(H, channels, anchor, t: float, dt: float = 1e-2,
                       convergence_check: bool = True, frame: str = "final") -> DecoherenceMatrix:
    """Decoherence matrix of the trajectory through ``anchor``.

    ``frame="final"``: Phi(t) = Int_0^t B(s)^T Lambda B(s) ds along the
    trajectory ending at the anchor.  B(s) is the chord propagator over a
    time-to-go s, obtained by running the variational system backward from
    the anchor.  This is the matrix that attenuates evolved chord functions.

    ``frame="initial"``: Phi_0(t) = Int_0^t M(u)^T Lambda M(u) du along the
    trajectory starting at the anchor, with M(u) the forward chord monodromy.
    It equals M(t)^T Phi(t) M(t) but is computed from its own integrand:
    under a pump that product multiplies a decaying M by a growing Phi, and
    it turns to nan once Phi overflows (by t = 512 for a unit pump).
    Its determinant decides positivity (see ``positivity_time``).

    Quadratic models take the closed form (``dt`` and ``convergence_check``
    are unused); otherwise the trajectory is co-integrated by the fixed-step
    Dormand-Prince flow at step ``dt``, and with the check an embedded error
    estimate above 1e-8 of max(1, |Phi|) warns.
    """
    _check_time(t)
    if frame not in ("final", "initial"):
        raise ValueError(f"frame must be 'final' or 'initial', not {frame!r}")
    anchor = np.asarray(anchor, dtype=float)
    if t == 0.0:
        return DecoherenceMatrix(np.zeros((2, 2)), 0.0, anchor, [], frame)
    phi, errs = _decoherence_phis(H, channels, anchor[None, :], t, dt, convergence_check, frame)
    return DecoherenceMatrix(phi[0], float(t), anchor, _report_step_errors(errs), frame)


def _decoherence_phis(H, channels, anchors, t: float, dt: float,
                      convergence_check: bool = True, frame: str = "final"):
    """(phis, errs): Phi (or Phi_0) at each of the (n, 2) anchors for t > 0, and
    each anchor's error estimate relative to max(1, |Phi|) (zeros for quadratic
    models or without the check), which the caller reports: ``decoherence_matrix``
    for a batch.

    Quadratic models share one generator, so one closed-form Phi serves every
    anchor.  Otherwise one Dormand-Prince pass carries every anchor, and its
    embedded 5(4) difference, summed over the steps, is the estimate.
    """
    gamma = total_gamma(channels)
    lam = noise_matrix(channels)
    errs = np.zeros(anchors.shape[0])
    if H.quadratic:
        a = _chord_generator(H, gamma)
        phi = _gramian(-a if frame == "final" else a, lam, t)
        return np.repeat(phi[None], anchors.shape[0], axis=0), errs
    span = -t if frame == "final" else t  # the final frame runs backward from the anchor
    s, err = _dp54(H, gamma, anchors, span, _steps_for(t, dt), lam)
    phi = s[..., 3:]
    if convergence_check:
        errs = err / np.maximum(1.0, np.max(np.abs(phi), axis=(1, 2)))
    return 0.5 * (phi + np.swapaxes(phi, -1, -2)), errs


def _report_step_errors(errs) -> list:
    """Notes of the error estimates above 1e-8, each raised as a ConvergenceWarning."""
    notes: list = []
    for err in errs:
        if err > 1e-8:
            report(notes, f"decoherence_matrix: the step's error estimate for Phi is "
                   f"{err:.3e} (> 1e-8); reduce dt", ConvergenceWarning)
    return notes


# ---------------------------------------------------------------------------
# evolved chord functions


def _source_samples(source, hbar):
    """Initial phase-space samples, quadrature weights and hbar of a Wigner
    grid or a sampled closed curve, and the rows of a grid source that lie on
    every other node each way (None for a curve)."""
    if isinstance(source, tuple) and len(source) == 2:
        values, grid = source
        values = np.asarray(values, dtype=float)
        grid._check_field(values)
        if hbar is not None and hbar != grid.hbar:
            raise ValueError(f"hbar = {hbar!r} differs from the grid's {grid.hbar!r}")
        pp, qq = grid.meshgrid()
        pts = np.stack([pp.ravel(), qq.ravel()], axis=-1)
        w = values.ravel() * grid.dp * grid.dq
        keep = np.abs(w) > 1e-16 * np.max(np.abs(w))
        coarse = np.zeros(values.shape, dtype=bool)
        coarse[::2, ::2] = True
        return pts[keep], w[keep], grid.hbar, coarse.ravel()[keep]
    if hasattr(source, "points") and hasattr(source, "theta"):
        if hbar is None:
            raise ValueError("hbar must be given for curve sources")
        _check_positive(hbar, "hbar")
        n = len(source.theta)
        return np.asarray(source.points, dtype=float), np.full(n, 1.0 / n), hbar, None
    raise TypeError("source must be a (values, CenteredGrid) pair or a sampled curve")


def evolve_chord_function(source, H, channels, t: float, dt: float = 1e-2,
                          hbar: float = None, convergence_check: bool = True) -> ChordFunction:
    """Chord function of the evolved state as an attenuated-reflection sum.

    chi(xi, t) = (2 pi hbar)^(-1) sum_i w_i exp[(i/hbar) x_i(t) ^ xi]
                                         exp[-xi . Phi_i(t) xi / (2 hbar)]

    with one trajectory and one decoherence matrix per initial sample.  For a
    quadratic model every Phi_i coincides and the endpoints follow one affine
    map, so the sum is the exact Gaussian-modulated transport of the initial
    chord function; other models run the Dormand-Prince flow per sample, and
    the convergence check reports the flow's error estimate above 1e-8.  The
    result is the term sum of (x_i(t), w_i, Phi_i) (``ChordFunction.from_terms``).

    The check also compares chi at eight probe chords with the sum over a
    changed sample set (``ChordFunction._drift``), taken from the flowed terms
    without a second flow: for a curve source the trigonometric interpolant
    of the evolved endpoints and Phi_i at twice the sample count, for a grid
    source every other node each way (weights times 4).  A change above 1e-6
    of max(|chi|, 1/(2 pi hbar)) warns.  A grid source carries its own hbar,
    which a given ``hbar`` must equal; a curve source needs ``hbar``.
    """
    _check_time(t)
    pts, w, hbar, coarse = _source_samples(source, hbar)
    check = convergence_check and t > 0
    gamma = total_gamma(channels)
    lam = noise_matrix(channels)
    step_err = 0.0
    if H.quadratic:
        xt = advect(H, channels, pts, t, dt)
        phi = _gramian(-_chord_generator(H, gamma), lam, t)
    else:
        s, err = _dp54(H, gamma, pts, t, _steps_for(t, dt), lam)
        xt = s[..., 0]
        minv = np.linalg.inv(s[..., 1:3])
        phi = np.einsum("kba,kbc,kcd->kad", minv, s[..., 3:], minv)
        phi = 0.5 * (phi + np.transpose(phi, (0, 2, 1)))
        step_err = float(np.max(err / np.maximum(1.0, np.max(np.abs(phi), axis=(1, 2)))))
    out = ChordFunction.from_terms(xt, w, phi, hbar, warnings=getattr(source, "warnings", ()))
    if check and step_err > 1e-8:
        report(out.warnings,
               f"evolve_chord_function: the step's error estimate is {step_err:.3e} "
               "(> 1e-8); reduce dt", ConvergenceWarning)
    if check:
        if coarse is None:
            err = out._drift(*_doubled(xt, phi))
        else:
            err = out._drift(xt[coarse], 4.0 * w[coarse], phi[coarse] if phi.ndim == 3 else phi)
        if err > 1e-6:
            report(out.warnings,
                   f"evolve_chord_function: changing the sample count moves chi by {err:.3e} "
                   "(> 1e-6); refine the initial sampling",
                   ConvergenceWarning)
    return out


# ---------------------------------------------------------------------------
# positivity threshold


def positivity_time(H, channels) -> float:
    """Smallest t with det Phi_0(t) = 1/4 for a quadratic model.

    Phi_0 is the decoherence matrix in the frame of the transported initial
    state (``decoherence_matrix(..., frame="initial")``); once its
    determinant reaches 1/4, every evolved Wigner function is nonnegative.
    det Phi_0 is non-decreasing (its integrand is positive semidefinite).

    Whether it ever gets there is decided from A = J Hess H + gamma and
    Lambda alone.  If A is Hurwitz, Phi_0 saturates at the solution X of
    A^T X + X A = -Lambda, and det X <= 1/4 raises.  A lone pump on a
    rotation-invariant model ties there exactly, and the Wigner function of
    |1> then stays negative at the origin for all t.  Otherwise det Phi_0
    grows without bound, unless Lambda misses an eigen-direction of A, which
    keeps det Phi_0 = 0 and raises too.  Both tests hold at rounding level.
    The root is then bracketed by doubling t and polished by Brent's method
    to machine precision.
    """
    if not H.quadratic:
        raise ValueError("positivity_time applies to quadratic Hamiltonian models only")
    channels = _as_channels(channels)
    a = _chord_generator(H, total_gamma(channels))
    lam = noise_matrix(channels)
    eps = np.finfo(float).eps
    if np.trace(a) < 0.0 and np.linalg.det(a) > 0.0:
        limit = float(np.linalg.det(scipy.linalg.solve_continuous_lyapunov(a.T, -lam)))
        if limit <= 0.25 * (1.0 + 64.0 * eps):
            raise ValueError(
                f"channels too weak: det Phi_0 saturates at {limit:.15g} <= 1/4 "
                "as t -> inf")
    else:
        sv = np.linalg.svd(np.vstack([lam, lam @ a]), compute_uv=False)
        if sv[1] <= 4.0 * eps * sv[0]:
            raise ValueError(
                "channels too weak: det Phi_0 = 0 for all t, because the noise "
                "misses an eigen-direction of the chord flow")

    def f(t):  # det Phi_0(t) - 1/4, as decoherence_matrix(..., frame="initial") gives it
        return float(np.linalg.det(_gramian(a, lam, t))) - 0.25

    lo, hi = 0.0, 1.0
    f_hi = f(hi)
    while f_hi < 0.0:
        lo, hi, f_lo = hi, 2.0 * hi, f_hi
        f_hi = f(hi)
        if f_hi <= f_lo:
            raise ValueError(
                f"channels too weak: det Phi_0 stops growing at 1/4 {f_hi:+.3e} by "
                f"t = {hi:g}")
    return brentq(f, lo, hi, xtol=np.finfo(float).tiny, rtol=4.0 * eps)
