"""Closed classical curves (1-DOF tori) and their branch decomposition.

A curve is a dense sampling of theta -> x(theta) = (p, q) with periodic
cubic splines providing derivatives.  For the built-in families the
parameter theta is 2 pi t / T along the Hamiltonian flow, so the branch
amplitude |d theta / dQ| is the classical residence density familiar from
WKB intensities; the quartic and pendulum orbits are sampled from their
Jacobi elliptic closed forms (``_jacobi``), with no integrator.

The spline is this module's own (``_periodic_spline``): the node slopes
solve the cyclic tridiagonal system with one banded solve, and evaluation is
a ``searchsorted`` and the piece's cubic.  A curve fits each coordinate once;
the q fit also gives the measured action, whose trapezoid rule reads the
node slopes.

Branches at a position Q are the solutions theta_j of q(theta_j) = Q, each
carrying its momentum p_j, amplitude |d theta/dq|, and slope dp/dq.  Only
the spline pieces whose range holds Q are solved, each split at its interior
extrema into monotone runs, and each run's root is one ``brentq`` call.
Near a turning point of the q-projection the slope diverges; callers flag
such branches as caustic via a threshold instead of regularizing them.

A curve's theta and points are read-only arrays of its own, so the spline
fits it caches always describe its samples, and an evolved image shares its
source's theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from . import dynamics
from .grids import _check_finite, _check_positive

__all__ = [
    "LagrangianCurve",
    "BranchData",
    "harmonic_circle",
    "quartic_level_curve",
    "pendulum_level_curve",
    "branches_at",
    "evolve_curve_classically",
]

_TWO_PI = 2.0 * math.pi


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: a read-only array that
    owns its data is kept as it is (a curve's own theta, say), anything else
    is copied, so no caller's array can change it afterwards."""
    a = np.asarray(values, dtype=dtype)
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LagrangianCurve:
    """Sampled closed curve with spline accessors.

    ``theta`` is strictly increasing in [0, 2 pi); ``points`` holds the
    (p, q) samples; ``action`` is the given label or, when none is given,
    the enclosed area / 2 pi measured from the samples by the q spline the
    curve keeps.  Both arrays are read-only copies (a read-only array the
    curve may keep as it is, see ``_read_only``), so the fits a curve
    caches cannot go stale.
    """

    theta: np.ndarray
    points: np.ndarray
    action: float = None

    def __post_init__(self):
        th, pts = _read_only(self.theta, float), _read_only(self.points, float)
        if th.ndim != 1 or pts.shape != (th.size, 2):
            raise ValueError("theta must be (n,) and points (n, 2)")
        if self.action is not None:
            _check_positive(self.action, "action")
        if th.size < 8:
            raise ValueError("need at least 8 samples")
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(pts))):
            raise ValueError("theta and points must be finite")
        if np.any(np.diff(th) <= 0) or th[0] < 0 or th[-1] >= _TWO_PI:
            raise ValueError("theta must be strictly increasing within [0, 2 pi)")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "points", pts)
        if self.action is None:
            object.__setattr__(self, "action", _enclosed_area(self._q_spline, pts[:, 0]) / _TWO_PI)

    @cached_property
    def _q_spline(self):
        """The q(theta) spline: the measured action and the branch solve share it."""
        return _periodic_spline(self.theta, self.points[:, 1])

    @cached_property
    def _splines(self):
        """Periodic splines of p(theta) and q(theta), each fitted once, on first use."""
        return _periodic_spline(self.theta, self.points[:, 0]), self._q_spline

    def position(self, theta):
        sp, sq = self._splines
        return np.stack([sp(theta), sq(theta)], axis=-1)

    def velocity(self, theta):
        """d x / d theta from the splines."""
        sp, sq = self._splines
        return np.stack([sp(theta, 1), sq(theta, 1)], axis=-1)


_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class _PeriodicSpline:
    """Periodic cubic spline on the closed nodes ``x`` (theta and theta[0] +
    2 pi): values ``y``, node slopes ``slopes`` and, per piece, the power
    coefficients ``c[:, i]`` of the cubic in s = theta - x[i], highest first."""

    x: np.ndarray
    y: np.ndarray
    slopes: np.ndarray
    c: np.ndarray

    def __call__(self, theta, nu: int = 0):
        """Values (nu = 0) or first derivatives (nu = 1), theta taken mod the
        period.  The terms are summed lowest power first, as scipy's PPoly
        does, so both are scipy's bit for bit."""
        x = self.x
        th = x[0] + np.mod(np.asarray(theta, dtype=float) - x[0], x[-1] - x[0])
        i = np.clip(np.searchsorted(x, th, side="right") - 1, 0, x.size - 2)
        s = th - x[i]
        c0, c1, c2, c3 = self.c[:, i]
        s2 = s * s
        if nu == 0:
            return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)
        return c2 + c1 * s * 2 + c0 * s2 * 3

    @cached_property
    def _runs(self):
        """Each piece cut into monotone runs at the zeros of its derivative
        inside it: knots (4, n) 0 <= e1 <= e2 <= h (a missing zero sits at h),
        the spline's values there, and each piece's lowest and highest value."""
        c0, c1, c2, c3 = self.c
        h = np.diff(self.x)
        with np.errstate(divide="ignore", invalid="ignore"):
            # zeros of 3 c0 s^2 + 2 c1 s + c2, without cancellation
            big = -(c1 + np.copysign(np.sqrt(c1 * c1 - 3.0 * c0 * c2), c1))
            zeros = np.stack([big / (3.0 * c0), c2 / big])
        zeros = np.where((zeros > 0) & (zeros < h), zeros, h)
        inner = np.stack([np.minimum(*zeros), np.maximum(*zeros)])
        knots = np.concatenate([np.zeros((1, h.size)), inner, h[None]])
        vals = np.concatenate([self.y[None, :-1],
                               np.where(inner < h, ((c0 * inner + c1) * inner + c2) * inner + c3,
                                        self.y[1:]),
                               self.y[None, 1:]])
        return knots, vals, vals.min(axis=0), vals.max(axis=0)

    def roots(self, value: float) -> list:
        """Every theta in [x[0], x[-1]] where the spline equals ``value``.

        Only the pieces whose range holds ``value`` are solved: their end
        values straddle it, or an interior extremum lies on its other side.
        Each monotone run whose ends straddle ``value`` holds one root,
        which ``_run_root`` brackets by the run's stored end values.  A root
        at a node or an extremum can come once from each run that ends there.
        """
        knots, vals, lo, hi = self._runs
        piece = np.flatnonzero((lo <= value) & (value <= hi))
        out = []
        for x0, k, f, (c0, c1, c2, c3) in zip(self.x[piece].tolist(), knots[:, piece].T.tolist(),
                                              (vals[:, piece] - value).T.tolist(),
                                              self.c[:, piece].T.tolist()):
            for a, b, fa, fb in zip(k, k[1:], f, f[1:]):
                if a < b and (fa <= 0.0 <= fb or fb <= 0.0 <= fa):
                    out.append(x0 + _run_root((c0, c1, c2, c3 - value), a, b, fa, fb))
        return out


def _run_root(coef, a: float, b: float, fa: float, fb: float) -> float:
    """The root in [a, b] of the cubic with power coefficients ``coef``
    (highest first), monotone there with end values fa, fb of opposite sign
    or zero, by ``scipy.optimize.brentq`` at its tightest relative
    tolerance, 4 eps.  The ends read fa and fb as stored, since the cubic at
    b can round to the other sign than the node value it stands for.  A run
    that does not converge raises RuntimeError.  A smooth run takes under 60
    evaluations; a flat triple root (s^3 - 1e-308 on [0, 1], root 2e-103)
    takes 783."""
    c0, c1, c2, d = coef
    return brentq(lambda s: fa if s == a else fb if s == b else ((c0 * s + c1) * s + c2) * s + d,
                  a, b, xtol=np.finfo(float).tiny, rtol=4.0 * _EPS, maxiter=1000)


def _periodic_spline(theta, values) -> _PeriodicSpline:
    """Periodic cubic spline through the samples, closed at theta[0] + 2 pi.

    The slopes solve the cyclic tridiagonal system of C2 continuity.  The
    last unknown is eliminated from the cyclic corner, which leaves a
    tridiagonal system with two right-hand sides, solved by one
    ``solve_banded`` call; the last slope follows from the remaining row.
    Every slope and coefficient is bit for bit scipy's periodic
    ``CubicSpline``.
    """
    x = np.append(theta, theta[0] + _TWO_PI)
    y = np.append(values, values[0])
    dx = np.diff(x)
    slope = np.diff(y) / dx
    prev_dx = np.roll(dx, 1)
    # row j: dx[j] m[j-1] + 2 (dx[j-1] + dx[j]) m[j] + dx[j-1] m[j+1] = rhs[j], indices mod n
    rhs = 3.0 * (dx * np.roll(slope, 1) + prev_dx * slope)
    n = dx.size
    band = np.zeros((3, n - 1))
    band[0, 1:] = prev_dx[:n - 2]
    band[1] = 2.0 * (prev_dx[:n - 1] + dx[:n - 1])
    band[2, :-1] = dx[1:n - 1]
    # the rows without the last unknown, and that unknown's column moved right
    both = np.zeros((n - 1, 2))
    both[:, 0] = rhs[:n - 1]
    both[0, 1], both[-1, 1] = -dx[0], -dx[-3]
    s1, s2 = solve_banded((1, 1), band, both, check_finite=False).T
    last = ((rhs[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1])
            / (2.0 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    m = np.empty(n + 1)
    m[:-2] = s1 + last * s2
    m[-2], m[-1] = last, m[0]
    t = (m[:-1] + m[1:] - 2.0 * slope) / dx
    c = np.stack([t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]])
    return _PeriodicSpline(x, y, m, c)


def _enclosed_area(sq: _PeriodicSpline, p) -> float:
    """|oint p dq| by the trapezoid rule on the closed loop, dq/dtheta the
    node slopes of the q spline.

    On a uniform theta grid the periodic trapezoid rule is spectrally
    accurate, so the spline derivative is the limiting error (O(h^4) at the
    nodes).
    """
    f = np.append(p, p[0]) * sq.slopes
    return abs(float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(sq.x))))


def _sample_angles(samples) -> np.ndarray:
    """theta_k = 2 pi k / n, k < n, for a whole count n (16.0 passes); 8.5
    would give 9 angles whose closing gap is half a step."""
    if samples % 1:  # nan and inf too
        raise ValueError(f"samples must be a whole number, got {samples!r}")
    return np.arange(samples) * _TWO_PI / samples


def harmonic_circle(action: float, samples: int = 1024) -> LagrangianCurve:
    """Circle p^2 + q^2 = 2 I sampled along the harmonic flow (theta = t)."""
    th = _sample_angles(samples)
    with np.errstate(invalid="ignore"):  # the curve rejects an action not finite and positive
        pts = np.sqrt(2.0 * action) * np.stack([np.cos(th), np.sin(th)], axis=-1)
    return LagrangianCurve(th, pts, action)


def _jacobi(theta, m1: float):
    """(sn, cn, dn)(u | m) at u = theta 2 K(m) / pi, m = 1 - m1, so one
    period 4 K maps onto theta in [0, 2 pi).

    The amplitude phi = am(u | m) comes from the arithmetic-geometric mean
    (Abramowitz & Stegun 16.4): a_0 = 1, b_0 = sqrt(m1), and, with
    c_n = (a_{n-1} - b_{n-1}) / 2 = a_{n-1} - a_n, phi_N = 2^N a_N u = 2^N
    theta once c_N / a_N falls below eps; then phi_{n-1} = (phi_n +
    arcsin(c_n sin(phi_n) / a_n)) / 2.  dn = sqrt(m1 + m cos^2 phi) keeps
    dn^2 = 1 - m sn^2 without cancellation near m = 1.
    """
    a, b, ratios = 1.0, math.sqrt(m1), []
    while True:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
        if c <= _EPS * a:
            break
    phi = np.asarray(theta, dtype=float) * 2.0 ** len(ratios)
    for r in reversed(ratios):
        phi = 0.5 * (phi + np.arcsin(r * np.sin(phi)))
    sn, cn = np.sin(phi), np.cos(phi)
    return sn, cn, np.sqrt(m1 + (1.0 - m1) * cn * cn)


def quartic_level_curve(energy: float, a: float = 1.0, b: float = 0.0,
                        samples: int = 1024) -> LagrangianCurve:
    """Level set of H = p^2/2 + a q^4/4 + b q^2/2 at the given energy: the
    Duffing orbit q = q+ cn(omega t | m), p = -q+ omega sn dn, with omega^2 =
    b + a q+^2 and m = a q+^2 / (2 omega^2) <= 1/2, sampled at t = k T / n
    from the upper turning point, moving first with p < 0."""
    if not (0 < energy < math.inf and 0 < a < math.inf and 0 <= b < math.inf):
        raise ValueError("need energy > 0, a > 0, b >= 0")
    q2 = 4.0 * energy / (b + math.sqrt(b * b + 4.0 * a * energy))  # a q^4/4 + b q^2/2 = E
    q_plus, omega2 = math.sqrt(q2), b + a * q2
    th = _sample_angles(samples)
    sn, cn, dn = _jacobi(th, (b + 0.5 * a * q2) / omega2)
    pts = np.stack([-q_plus * math.sqrt(omega2) * sn * dn, q_plus * cn], axis=-1)
    return LagrangianCurve(th, pts)


def pendulum_level_curve(energy: float, g: float = 1.0, samples: int = 1024) -> LagrangianCurve:
    """Librating level set of H = p^2/2 - g cos q (requires -g < E < g).

    With k^2 = (1 + E/g) / 2 the orbit is sin(q/2) = k sn(v | k^2), p =
    -2 k sqrt(g) cn(v | k^2), v = K - sqrt(g) t the scaled time to the next
    bottom crossing, so sample k at t = k T / n (theta = 2 pi k / n) reads the
    Jacobi functions at pi/2 - theta.  Taken in the half-angle form q = 2
    atan2(k sn, dn), with dn = cos(q/2) from ``_jacobi``, nothing is divided
    by dn or k': towards the separatrix the samples stay at rounding, where
    q = 2 arcsin(k sn) or the same orbit read from the turning point would
    lose digits as eps / k'.  Sampling starts at the upper turning point,
    moving first with p < 0.
    """
    if not (-g < energy < g):
        raise ValueError("libration requires -g < energy < g")
    _check_positive(g, "g")  # g = inf passes the range test
    k = math.sqrt(0.5 * (1.0 + energy / g))
    th = _sample_angles(samples)
    sn, cn, dn = _jacobi(0.5 * math.pi - th, 0.5 * (1.0 - energy / g))
    pts = np.stack([-2.0 * k * math.sqrt(g) * cn, 2.0 * np.arctan2(k * sn, dn)], axis=-1)
    return LagrangianCurve(th, pts)


@dataclass(frozen=True)
class BranchData:
    """Branches p_j(Q) of a curve's q-projection at one position Q, in
    read-only arrays (one record may serve several ``lwc.Lines``)."""

    Q: float
    theta: np.ndarray
    p: np.ndarray
    amplitude: np.ndarray
    slope: np.ndarray
    caustic: np.ndarray

    def __post_init__(self):
        for name in ("theta", "p", "amplitude", "slope"):
            object.__setattr__(self, name, _read_only(getattr(self, name), float))
        object.__setattr__(self, "caustic", _read_only(self.caustic, bool))

    def __len__(self):
        return self.p.size


def branches_at(curve: LagrangianCurve, Q: float,
                caustic_threshold: float = np.inf) -> BranchData:
    """Solve q(theta) = Q on the curve and differentiate the branches.

    amplitude = |d theta / dq|, slope = dp/dq; a branch is flagged caustic
    when |slope| exceeds the threshold, which must be positive (the default,
    inf, flags none).  Returns empty arrays when Q lies
    outside the curve's q-projection.  A root where the parametrization
    itself is stationary (both derivatives vanish) is degenerate and raises.
    """
    _check_finite(Q, "Q")
    if not caustic_threshold > 0:
        raise ValueError(f"caustic_threshold must be positive, got {caustic_threshold!r}")
    roots = np.sort(np.mod(curve._q_spline.roots(Q), _TWO_PI))
    keep = []
    for r in roots:
        if not keep or min(abs(r - keep[-1]), _TWO_PI - abs(r - keep[-1])) > 1e-9:
            keep.append(r)
    if len(keep) > 1 and _TWO_PI - abs(keep[-1] - keep[0]) < 1e-9:
        keep.pop()
    th = np.array(keep)
    if th.size == 0:
        empty = np.array([])
        return BranchData(Q, empty, empty, empty, empty, empty.astype(bool))
    pp, qp = curve.velocity(th).T
    speed = np.hypot(qp, pp)
    scale = max(1.0, float(np.max(np.abs(curve.points))))
    if np.any(speed < 1e-12 * scale):
        raise ValueError(f"degenerate parametrization: x'(theta) vanishes at a root of q = {Q}")
    with np.errstate(divide="ignore"):
        amplitude = 1.0 / np.abs(qp)
        slope = pp / qp
    caustic = np.abs(slope) > caustic_threshold
    return BranchData(float(Q), th, curve.position(th)[:, 0], amplitude, slope, caustic)


def evolve_curve_classically(curve: LagrangianCurve, H, channels, t: float,
                             dt: float = dynamics.PER_ROW) -> LagrangianCurve:
    """Advect every curve sample under the dissipative centre flow
    (``dynamics.advect``: each sample's own step count by default, equal
    steps of at most a given ``dt``).

    The image shares the original (read-only) theta labels; its action
    label is re-measured from the advected samples (dissipation shrinks the
    enclosed area).
    """
    pts = dynamics.advect(H, channels, curve.points, t, dt)
    return LagrangianCurve(curve.theta, pts)
