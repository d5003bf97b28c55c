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

Every transport goes through one entry, ``_flow``, the only flow code that
tells the model kinds apart.  The built-in quadratic families (zero, harmonic,
free) are one form, H = x.S x / 2 with symmetric S, Gaussian and exact:
every centre follows one affine map, every chord one monodromy M = exp(t A)
with A = J Hess H + gamma, and Phi is the Gramian of (A, Lambda), one Van
Loan block exponential (IEEE TAC 23, 395, 1978) shared by every anchor; no
step size enters.  Other models take one Dormand-Prince 5(4) pass,
``_dp54``, on one packed state [x | M | G] per sample, G = Int M^T Lambda M,
the final frame by running the flow backward from its anchor.  A given dt
sets equal steps of at most dt; the default, ``PER_ROW``, lets one trial
step pick each sample's own count, the fewest whose summed error estimate
meets the step note's 1e-8.  That embedded estimate, read off the Phi the
pass hands back, is the convergence check's measured error, and no second
pass is run.  A sample's result depends on its own inputs alone, in any
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .chordfn import ChordFunction, _doubled
from .diagnostics import ConvergenceWarning, _measured
from .geometry import J_MATRIX, skew
from .grids import _check_finite, _check_hbar, _check_positive

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
            _check_finite(value, key)

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


class _PerRowSteps(float):
    """The default ``dt``: each row of a non-quadratic flow takes its own count
    of equal steps, picked by one trial step (``_dp54``).  As a number it is
    1e-2, the step whose count caps every row's, so code that sizes work from
    dt (the bench's step counters) reads that cap."""

    def __repr__(self):
        return "per-row"


PER_ROW = _PerRowSteps(1e-2)


def _steps_for(t: float, dt: float) -> int | None:
    """Equal steps of at most dt over t >= 0, or None for the per-row default."""
    if dt is PER_ROW:
        return None
    _check_positive(dt, "dt")
    if t == 0.0:
        return 0
    return max(1, int(math.ceil(t / dt)))


def _gramian(a: np.ndarray, lam: np.ndarray, t) -> np.ndarray:
    """Phi = Int_0^t exp(u a^T) lam exp(u a) du for a constant generator a:
    a 2x2 matrix for a scalar t, or one per time, stacked (n, 2, 2), for a
    1-d array of n times.

    One block exponential of [[-a^T, lam], [0, a]] over tau = t / 2^k gives
    M(tau) = exp(tau a) and Phi(tau) = M(tau)^T (upper-right block); k exact
    doublings Phi(2 tau) = Phi(tau) + M(tau)^T Phi(tau) M(tau),
    M(2 tau) = M(tau)^2 then reach t.  The doubling keeps Phi finite wherever
    Phi is finite; the block exponential alone overflows its exp(-t a^T)
    corner once Phi has saturated (nan at t = 1000 for a unit rate).  A Phi
    that overflows raises FloatingPointError, without numpy's warnings.

    Times share one stacked block exponential (scipy's is per matrix, bit for
    bit) and one doubling loop of the largest time's k rounds.  A time of
    fewer doublings is reset to its own Phi(tau), M(tau) that many rounds
    before the end, so each Phi is the one its time gives alone, bit for bit.
    """
    t = np.asarray(t, dtype=float)
    times = t.ravel().tolist()
    norm = float(np.abs(a).sum(axis=0).max())
    ks = [max(0, math.ceil(math.log2(s * norm))) if s * norm > 0.0 else 0 for s in times]
    rounds = max(ks, default=0)
    block = np.zeros((4, 4))
    block[:2, :2] = -a.T
    block[:2, 2:] = lam
    block[2:, 2:] = a
    taus = np.array([s / 2**k for s, k in zip(times, ks)]).reshape(t.shape)
    e = scipy.linalg.expm(np.multiply.outer(taus, block))
    m = e[..., 2:, 2:]
    phi = m.swapaxes(-1, -2) @ e[..., :2, 2:]
    first = phi, m  # every time's Phi(tau) and M(tau); the loop never writes them
    restarts = {}  # loop round -> the times whose own k doublings start after it
    for i, k in enumerate(ks):
        if k < rounds:
            restarts.setdefault(rounds - k - 1, []).append(i)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(rounds):
            phi = phi + m.swapaxes(-1, -2) @ phi @ m
            m = m @ m
            rows = restarts.get(j)
            if rows:
                phi[rows], m[rows] = first[0][rows], first[1][rows]
        phi = 0.5 * (phi + phi.swapaxes(-1, -2))
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


def _dp_steps(field, s, k, h, steps, strict=True):
    """``steps`` Dormand-Prince steps of size h from each row of the state s
    under ``field``, whose slope at s is k: the final state and each row's
    embedded 5(4) difference summed over the steps (its largest entry per
    step).  A non-finite state raises FloatingPointError, unless not
    ``strict``."""

    def ahead(s, coefs, ks):
        out = s.copy()
        for c, k in zip(coefs, ks):
            if c:
                out += (h * c) * k
        return out

    err = np.zeros(s.shape[:-2])
    ks = [k]
    for _ in range(steps):
        for row in _DP_A[1:]:
            stage = ahead(s, row, ks)
            ks.append(field(stage))
        s = stage
        if strict and not np.isfinite(s).all():
            raise FloatingPointError("centre flow diverged; reduce dt or the time span")
        err += np.max(np.abs(ahead(np.zeros_like(s), _DP_E, ks)), axis=(-2, -1))
        ks = ks[-1:]
    return s, err


def _dp54(H, gamma, x, t, steps, lam=None, final=False):
    """Dormand-Prince 5(4) of the (n, 2) centres x over the signed time t in
    ``steps`` equal steps, or with ``steps=None`` in each row's own count of
    equal steps; t < 0 runs the time-reversed system.

        dx/dtau = J grad H(x) - gamma x

    Without ``lam`` the state is (n, 2, 1), the centres.  With it, the chord
    monodromy rides along, dM/dtau = (J Hess H(x) + gamma) M from M = I, and
    so does G = Int M^T lam M |dtau| from G = 0, as one (n, 2, 5) state
    [x | M | G]: a stage is J [grad H | Hess H M] + (-gamma, gamma, gamma) [x | M]
    beside sign(t) M^T lam M.

    Returns (s, est, phi): the final state; per sample, the embedded 5(4)
    difference summed over the steps (its largest entry per step) over
    max(1, max|Phi|) as the step note reads it (bare without ``lam``, inf
    for a non-finite row); and the Phi it read, symmetrised: G, anchored at
    the start, or with ``final`` M^-T G M^-1, anchored at the end (None
    without ``lam``).  The estimate is the 4th-order error, which overstates
    the 5th-order result's error wherever h is small enough for the orders
    to show.

    Per-row counts: one trial step over the whole span gives each row that
    estimate m1.  Over n equal steps the summed estimate scales as
    m1 n^-4, so a row takes n = ceil((2 m1 / 1e-8)^(1/4)), the note's bound,
    capped at the ceil(|t| / 1e-2) steps of a 1e-2 step.  A row at
    n = 1 keeps its trial, a row whose sum is still above 1e-8 doubles its
    count, and a row that turns non-finite goes to the cap.  A row at the cap
    takes the fixed-step run bit for bit, and raises there as it does.

    Rows that share a count flow together from their rows of the trial's
    first stage, and every stage sum is elementwise, so a row's result does
    not depend on its batch.  A non-finite state raises FloatingPointError,
    without numpy's warnings.
    """
    cols = 1 if lam is None else 5
    s0 = np.zeros(x.shape[:-1] + (2, cols))
    s0[..., 0] = x
    if lam is not None:
        s0[..., 0, 1] = s0[..., 1, 2] = 1.0
        lam = math.copysign(1.0, t) * lam  # G grows with |tau| in either direction
    # full-size factors keep every stage operation contiguous
    sign = np.ones_like(s0)
    sign[..., 0, :3] = -1.0  # J [a; b] = [-b; a] on [x | M]
    rate = np.zeros_like(s0) + [-gamma, gamma, gamma, 0.0, 0.0][:cols]

    def field(s):
        y = np.empty_like(s)  # the rows of [grad H | Hess H M], swapped for J
        grad = H.gradient(s[..., 0])
        y[..., 0, 0], y[..., 1, 0] = grad[..., 1], grad[..., 0]
        if lam is not None:
            m = s[..., 1:3]
            np.matmul(H.hessian(s[..., 0])[..., ::-1, :], m, out=y[..., 1:3])
            np.matmul(np.swapaxes(m, -1, -2) @ lam, m, out=y[..., 3:])
        return sign[:len(s)] * y + rate[:len(s)] * s

    def run(rows, steps, strict=True):
        return _dp_steps(field, s0[rows], k0[rows], t / max(steps, 1), steps, strict)

    def estimate(s, err):
        """Each row's (est, phi) as returned; phi is nan on a non-finite row."""
        fin = np.isfinite(s).all(axis=(-2, -1))
        est = np.where(fin & np.isfinite(err), err, np.inf)
        if lam is None:
            return est, None
        s = s[fin]
        g = s[..., 3:]
        if final:
            minv = np.linalg.inv(s[..., 1:3])
            g = np.einsum("kba,kbc,kcd->kad", minv, g, minv)
        phi = np.full(fin.shape + (2, 2), np.nan)
        phi[fin] = 0.5 * (g + np.swapaxes(g, -1, -2))
        est[fin] = est[fin] / np.maximum(1.0, np.max(np.abs(phi[fin]), axis=(1, 2)))
        return est, phi

    with np.errstate(over="ignore", invalid="ignore"):
        k0 = field(s0)
        cap = _steps_for(abs(t), 1e-2)
        if steps is not None or cap <= 1:
            s, err = run(slice(None), cap if steps is None else steps)
            return (s, *estimate(s, err))
        s, err = run(slice(None), 1, strict=False)
        est, phi = estimate(s, err)
        count = np.clip(np.ceil((2.0 * est / 1e-8) ** 0.25), 1, cap).astype(int)
        todo = count > 1
        while todo.any():
            n = int(count[todo].min())
            rows = np.flatnonzero(todo & (count == n))
            s[rows], err[rows] = run(rows, n, strict=n == cap)
            est[rows], phi_rows = estimate(s[rows], err[rows])
            if phi is not None:
                phi[rows] = phi_rows
            again = (est[rows] > 1e-8) & (n < cap)
            count[rows[again]] = np.where(np.isinf(est[rows[again]]), cap, min(2 * n, cap))
            todo[rows[~again]] = False
    return s, est, phi


def _flow(H, channels, x, t: float, dt: float, phi=None):
    """(x_t, Phi, est): the one transport of the (n, 2) rows x over the signed
    time t (t < 0 runs it backward).  ``phi=None`` gives the endpoints x_t
    alone (Phi None), ``"start"`` Phi anchored at the rows alone (x_t None),
    ``"end"`` the endpoints and Phi anchored at them; est is each row's step
    error estimate as ``_STEP_NOTE`` reads it.  At t = 0 the rows come back
    bit for bit.  Quadratic models take the affine centre map and one
    ``_gramian``, a (2, 2) Phi every row shares, with zero estimates and dt
    unread.  Other models take one ``_dp54`` pass, in equal steps of at most
    dt or at ``PER_ROW`` each row's own count, and each row's (2, 2) Phi is
    the one its step estimate read."""
    gamma = total_gamma(channels)
    lam = None if phi is None else noise_matrix(channels)
    x = np.array(x, dtype=float)
    if not H.quadratic:
        s, est, phis = _dp54(H, gamma, x, t, _steps_for(abs(t), dt), lam, phi == "end")
        return None if phi == "start" else s[..., 0], phis, est
    est = np.zeros(len(x))
    if phi == "start":
        x = None
    elif t != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            e, d = _centre_map(H, gamma, t)
            x = x @ e.T + d
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("centre flow overflows over this time span")
    if phi is None:
        return x, None, est
    # G runs the chord generator along t; Phi anchored at the end runs it back
    a = _chord_generator(H, gamma) * math.copysign(1.0, t if phi == "start" else -t)
    return x, _gramian(a, lam, abs(t)), est


def advect(H, channels, points, t: float, dt: float) -> np.ndarray:
    """Transport of (n, 2) centre points over the signed time t (t < 0 runs
    the flow backward): the exact affine map for quadratic models, the
    Dormand-Prince flow otherwise, in equal steps of at most ``dt`` or, for
    ``dt=PER_ROW``, each point's own count (``_flow``)."""
    _check_time(t, signed=True)
    return _flow(H, channels, points, t, dt)[0]


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


def decoherence_matrix(H, channels, anchor, t: float, dt: float = PER_ROW,
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

    The trajectory is ``_flow``'s, with ``dt`` as there (quadratic models
    ignore it and never warn).  With the check a step error estimate
    above 1e-8 of max(1, |Phi|) warns; at the default dt only a trajectory
    at the 1e-2 cap can warn.
    """
    _check_time(t)
    if frame not in ("final", "initial"):
        raise ValueError(f"frame must be 'final' or 'initial', not {frame!r}")
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (2,):
        raise ValueError(f"anchor must be one point (p, q), got shape {anchor.shape}")
    _check_finite(anchor, "anchor")
    # the final frame runs the flow backward from the anchor
    _, phi, est = _flow(H, channels, anchor[None], -t if frame == "final" else t, dt, "start")
    notes: list = []
    if convergence_check:
        _measured(notes, est[0], 1e-8, _STEP_NOTE, ConvergenceWarning)
    return DecoherenceMatrix(phi.reshape(2, 2), float(t), anchor, notes, frame)


_STEP_NOTE = "the step's error estimate for Phi is {:.3e} (> 1e-8); reduce dt"


# ---------------------------------------------------------------------------
# evolved chord functions


def _source_samples(source, hbar):
    """Initial phase-space samples, quadrature weights and hbar of a Wigner
    grid or a sampled closed curve, and the rows of a grid source that lie on
    every other node each way (None for a curve).  A grid's values must be
    finite with a nonzero cell: the samples kept are the nodes above 1e-16 of
    the largest |value|, which a nan or zero maximum would leave none of."""
    if isinstance(source, tuple) and len(source) == 2:
        values, grid = source
        values = np.asarray(values, dtype=float)
        grid._check_field(values)
        _check_hbar(hbar, grid.hbar, "grid")
        pp, qq = grid.meshgrid()
        pts = np.stack([pp.ravel(), qq.ravel()], axis=-1)
        w = values.ravel() * grid.dp * grid.dq
        if not (np.all(np.isfinite(w)) and np.any(w)):
            raise ValueError("grid source values must be finite, with at least one nonzero cell")
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


def evolve_chord_function(source, H, channels, t: float, dt: float = PER_ROW,
                          hbar: float = None, convergence_check: bool = True) -> ChordFunction:
    """Chord function of the evolved state as an attenuated-reflection sum.

    chi(xi, t) = (2 pi hbar)^(-1) sum_i w_i exp[(i/hbar) x_i(t) ^ xi]
                                         exp[-xi . Phi_i(t) xi / (2 hbar)]

    with one trajectory and one decoherence matrix per initial sample, both
    from one ``_flow`` (``dt`` as there).  For a quadratic model every Phi_i
    coincides and the endpoints follow one affine map, so the sum is the
    exact Gaussian-modulated transport of the initial chord function.  The
    convergence check reports the flow's error estimate above 1e-8.  The
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
    xt, phi, est = _flow(H, channels, pts, t, dt, "end")
    out = ChordFunction.from_terms(xt, w, phi, hbar)
    if convergence_check and t > 0:
        _measured(out.warnings, float(np.max(est)), 1e-8, _STEP_NOTE, ConvergenceWarning)
        if coarse is None:
            err = out._drift(*_doubled(xt, phi))
        else:
            err = out._drift(xt[coarse], 4.0 * w[coarse], phi[coarse] if phi.ndim == 3 else phi)
        _measured(out.warnings, err, 1e-6, "evolve_chord_function: changing the sample count "
                  "moves chi by {:.3e} (> 1e-6); refine the initial sampling", ConvergenceWarning)
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
