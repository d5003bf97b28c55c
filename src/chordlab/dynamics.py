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
Other models go through one fixed-step RK4 flow, ``_rk4``, on one packed
state [x | M] per sample: ``advect`` steps centres alone; decoherence
matrices and evolved chord functions carry M along and accumulate Phi by
composite Simpson on the step grid, the final frame by running the flow
backward from its anchor (a negative step).  The evolved chord function's
changed sample set rides in the same pass as its samples.  Refinement
checks warn instead of adapting, so identical inputs give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .chordfn import ChordFunction
from .diagnostics import ConvergenceWarning, report
from .geometry import J_MATRIX, skew
from .grids import _check_positive, _plane_wave_sum, simpson_weights

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
        if not math.isfinite(mass) or mass == 0.0:
            raise ValueError(f"mass must be finite and nonzero, got {mass!r}")
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


def _check_time(t) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")


def _steps_for(t: float, dt: float) -> int:
    _check_positive(dt, "dt")
    if t == 0.0:
        return 0
    n = max(2, int(math.ceil(t / dt)))
    return n + (n % 2)  # an even step count keeps every Simpson panel of _rk4 whole


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


def _rk4(H, gamma, x, t, steps, lam=None):
    """RK4 of the (n, 2) centres x over the signed time t in ``steps`` equal
    steps; t < 0 runs the time-reversed system.

        dx/dtau = J grad H(x) - gamma x

    Without ``lam`` it returns the endpoints.  With it, the (n, 2, 2) chord
    monodromy rides along, dM/dtau = (J Hess H(x) + gamma) M from M = I, and
    G = Int M^T lam M |dtau| streams with the Simpson weights of the step
    grid; it returns (x, M, G).  One (n, 2, 3) state [x | M] carries both, so
    a stage is J [grad H | Hess H M] + (-gamma, gamma, gamma) [x | M].  A
    non-finite state raises FloatingPointError, without numpy's warnings.
    """
    h = t / max(steps, 1)
    cols = 1 if lam is None else 3
    s = np.zeros(x.shape[:-1] + (2, cols))
    s[..., 0] = x
    if lam is not None:
        s[..., 0, 1] = s[..., 1, 2] = 1.0
        w = simpson_weights(steps + 1, abs(h)) if steps else np.zeros(1)
        g = np.zeros_like(s[..., 1:]) + w[0] * lam
    # full-size factors keep every stage operation contiguous
    sign = np.zeros_like(s) + [[-1.0], [1.0]]  # J [a; b] = [-b; a]
    rate = np.zeros_like(s) + [-gamma, gamma, gamma][:cols]

    def field(s):
        y = np.empty_like(s)  # the rows of [grad H | Hess H M], swapped for J
        grad = H.gradient(s[..., 0])
        y[..., 0, 0], y[..., 1, 0] = grad[..., 1], grad[..., 0]
        if lam is not None:
            np.matmul(H.hessian(s[..., 0])[..., ::-1, :], s[..., 1:], out=y[..., 1:])
        return sign * y + rate * s

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            k1 = field(s)
            k2 = field(s + (0.5 * h) * k1)
            k3 = field(s + (0.5 * h) * k2)
            k4 = field(s + h * k3)
            s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(s).all():
                raise FloatingPointError("centre flow diverged; reduce dt or the time span")
            if lam is not None:
                m = s[..., 1:]
                g += w[k] * (np.swapaxes(m, -1, -2) @ lam @ m)
    return s[..., 0] if lam is None else (s[..., 0], s[..., 1:], g)


def advect(H, channels, points, t: float, dt: float) -> np.ndarray:
    """Transport of (n, 2) centre points over the signed time t (t < 0 runs
    the flow backward): the exact affine map for quadratic models, fixed-step
    RK4 otherwise."""
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
    steps = _steps_for(abs(t), dt)
    return _rk4(H, gamma, x, t, steps)


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


def decoherence_matrix(H, channels, anchor, t: float, dt: float = 1e-3,
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
    are unused); otherwise the trajectory is co-integrated with RK4 and the
    step is halved once to check convergence.
    """
    _check_time(t)
    if frame not in ("final", "initial"):
        raise ValueError(f"frame must be 'final' or 'initial', not {frame!r}")
    anchor = np.asarray(anchor, dtype=float)
    if t == 0.0:
        return DecoherenceMatrix(np.zeros((2, 2)), 0.0, anchor, [], frame)
    phi, errs = _decoherence_phis(H, channels, anchor[None, :], t, dt, convergence_check, frame)
    return DecoherenceMatrix(phi[0], float(t), anchor, _report_halving(errs), frame)


def _decoherence_phis(H, channels, anchors, t: float, dt: float,
                      convergence_check: bool = True, frame: str = "final"):
    """(phis, errs): Phi (or Phi_0) at each of the (n, 2) anchors for t > 0, and
    each anchor's change under step halving (zeros for quadratic models or without
    the check), which the caller reports: ``decoherence_matrix`` for a batch.

    Quadratic models share one generator, so one closed-form Phi serves every
    anchor.  Otherwise one RK4 pass carries every anchor, and with the check a
    second at half the step; an anchor whose Phi moves by more than 1e-8 under
    the halving keeps the finer value.
    """
    gamma = total_gamma(channels)
    lam = noise_matrix(channels)
    errs = np.zeros(anchors.shape[0])
    if H.quadratic:
        a = _chord_generator(H, gamma)
        phi = _gramian(-a if frame == "final" else a, lam, t)
        return np.repeat(phi[None], anchors.shape[0], axis=0), errs
    span = -t if frame == "final" else t  # the final frame runs backward from the anchor
    steps = _steps_for(t, dt)
    phi = _rk4(H, gamma, anchors, span, steps, lam)[2]
    if convergence_check:
        phi2 = _rk4(H, gamma, anchors, span, 2 * steps, lam)[2]
        errs = (np.max(np.abs(phi2 - phi), axis=(1, 2))
                / np.maximum(1.0, np.max(np.abs(phi), axis=(1, 2))))
        phi = np.where((errs > 1e-8)[:, None, None], phi2, phi)
    return 0.5 * (phi + np.swapaxes(phi, -1, -2)), errs


def _report_halving(errs) -> list:
    """Notes of the halving changes above 1e-8, each raised as a ConvergenceWarning."""
    notes: list = []
    for err in errs:
        if err > 1e-8:
            report(notes, f"decoherence_matrix: halving dt changes Phi by {err:.3e}",
                   ConvergenceWarning)
    return notes


# ---------------------------------------------------------------------------
# evolved chord functions


def _source_samples(source, hbar, stride: int = 1):
    """Initial phase-space samples, quadrature weights and hbar of a Wigner
    grid or a sampled closed curve.  ``stride`` 2 gives the changed sample set
    of the convergence check: every other grid node, or the curve resampled
    at twice its count."""
    if isinstance(source, tuple) and len(source) == 2:
        values, grid = source
        values = np.asarray(values, dtype=float)
        grid._check_field(values)
        if hbar is not None and hbar != grid.hbar:
            raise ValueError(f"hbar = {hbar!r} differs from the grid's {grid.hbar!r}")
        pp, qq = grid.meshgrid()
        pts = np.stack([pp[::stride, ::stride].ravel(), qq[::stride, ::stride].ravel()], axis=-1)
        w = values[::stride, ::stride].ravel() * float(stride**2) * grid.dp * grid.dq
        keep = np.abs(w) > 1e-16 * np.max(np.abs(w))
        return pts[keep], w[keep], grid.hbar
    if hasattr(source, "points") and hasattr(source, "theta"):
        if hbar is None:
            raise ValueError("hbar must be given for curve sources")
        _check_positive(hbar, "hbar")
        n = stride * len(source.theta)
        curve = source if stride == 1 else source.resample(n)
        return np.asarray(curve.points, dtype=float), np.full(n, 1.0 / n), hbar
    raise TypeError("source must be a (values, CenteredGrid) pair or a sampled curve")


def _chi_from_samples(endpoints, phis, weights, hbar):
    pref = 1.0 / (2.0 * np.pi * hbar)
    return lambda xi_p, xi_q: pref * _plane_wave_sum(endpoints, weights, xi_p, xi_q, hbar, phis)


def evolve_chord_function(source, H, channels, t: float, dt: float = 1e-3,
                          hbar: float = None, convergence_check: bool = True) -> ChordFunction:
    """Chord function of the evolved state as an attenuated-reflection sum.

    chi(xi, t) = (2 pi hbar)^(-1) sum_i w_i exp[(i/hbar) x_i(t) ^ xi]
                                         exp[-xi . Phi_i(t) xi / (2 hbar)]

    with one trajectory and one decoherence matrix per initial sample.  For a
    quadratic model every Phi_i coincides and the endpoints follow one affine
    map, so the sum is the exact Gaussian-modulated transport of the initial
    chord function; other models run RK4 per sample, in one pass with the
    changed sample set of the convergence check.  The returned callable sums
    through ``grids._plane_wave_sum``: on an outer grid of chords a
    per-sample Phi_i goes through the Taylor series of its cross term, to
    within 2^-53 of sum |w_i| / (2 pi hbar), and is otherwise summed point
    by point.  A grid source carries its own hbar, which a given ``hbar`` must
    equal; a curve source needs ``hbar``.
    """
    _check_time(t)
    pts, w, hbar = _source_samples(source, hbar)
    n = w.size
    check = convergence_check and t > 0
    if check:  # the check's changed sample set rides in the same flow
        pts2, w2, _ = _source_samples(source, hbar, stride=2)
        pts = np.concatenate([pts, pts2])
    gamma = total_gamma(channels)
    lam = noise_matrix(channels)
    if H.quadratic:
        xt = advect(H, channels, pts, t, dt)
        phi = _gramian(-_chord_generator(H, gamma), lam, t)
        phis = (phi, phi)
    else:
        xt, mt, g = _rk4(H, gamma, pts, t, _steps_for(t, dt), lam)
        minv = np.linalg.inv(mt)
        phi = np.einsum("kba,kbc,kcd->kad", minv, g, minv)
        phi = 0.5 * (phi + np.transpose(phi, (0, 2, 1)))
        phis = (phi[:n], phi[n:])
    fn = _chi_from_samples(xt[:n], phis[0], w, hbar)
    out = ChordFunction.from_callable(fn, hbar, samples=n,
                                      warnings=getattr(source, "warnings", ()))
    if check:
        probe = np.sqrt(hbar) * np.array([0.3, 0.7, 1.3, 2.1])
        probe_p, probe_q = np.concatenate([probe, -probe]), np.concatenate([probe[::-1], probe])
        ref = fn(probe_p, probe_q)
        alt = _chi_from_samples(xt[n:], phis[1], w2, hbar)(probe_p, probe_q)
        scale = max(np.max(np.abs(ref)), 1.0 / (2.0 * np.pi * hbar))
        err = float(np.max(np.abs(alt - ref))) / scale
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
    anchor = np.zeros(2)

    def f(t):
        return decoherence_matrix(H, channels, anchor, t, frame="initial").det - 0.25

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
