"""Closed classical curves (1-DOF tori) and their branch decomposition.

A curve is a dense sampling of theta -> x(theta) = (p, q) with periodic
cubic splines providing derivatives.  For the built-in families the
parameter theta is 2 pi t / T along the Hamiltonian flow, so the branch
amplitude |d theta / dQ| is the classical residence density familiar from
WKB intensities.

The spline is this module's own (``_periodic_spline``): the node slopes
solve the cyclic tridiagonal system with one banded solve, and evaluation is
a ``searchsorted`` and the piece's cubic.  A curve fits each coordinate once;
the q fit also gives the measured action, whose trapezoid rule reads the
node slopes.

Branches at a position Q are the solutions theta_j of q(theta_j) = Q, each
carrying its momentum p_j, amplitude |d theta/dq|, and slope dp/dq.  Only
the spline pieces whose range holds Q are solved, each split at its interior
extrema into monotone runs.  Near a turning point of the q-projection the
slope diverges; callers flag such branches as caustic via a threshold
instead of regularizing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded

from . import dynamics
from .diagnostics import ConvergenceWarning, _measured
from .grids import _BLOCK_ELEMENTS, _check_finite, _check_positive

__all__ = [
    "LagrangianCurve",
    "BranchData",
    "harmonic_circle",
    "quartic_level_curve",
    "pendulum_level_curve",
    "curve_from_samples",
    "branches_at",
    "evolve_curve_classically",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LagrangianCurve:
    """Sampled closed curve with spline accessors.

    ``theta`` is strictly increasing in [0, 2 pi); ``points`` holds the
    (p, q) samples; ``action`` is the given label or, when none is given,
    the enclosed area / 2 pi measured from the samples by the q spline the
    curve keeps.
    """

    theta: np.ndarray
    points: np.ndarray
    action: float = None
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        pts = np.asarray(self.points, dtype=float)
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


#: Newton steps (each kept inside its run by bisection) allowed per root
_ROOT_STEPS = 64


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
        Each monotone run whose ends straddle ``value`` holds one root.  A
        root at a node or an extremum can come once from each run that ends
        there.
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
    or zero: Newton's method from the secant point, with a bisection of the
    shrinking bracket wherever a Newton step would leave it or fail to halve
    the step before it."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    c0, c1, c2, d = coef
    s = a - fa * (b - a) / (fb - fa)
    last = b - a
    for _ in range(_ROOT_STEPS):
        fs = ((c0 * s + c1) * s + c2) * s + d
        if fs == 0.0:
            break
        if (fs < 0.0) == (fa < 0.0):
            a, fa = s, fs
        else:
            b = s
        slope = (3.0 * c0 * s + 2.0 * c1) * s + c2
        step = s - fs / slope if slope != 0.0 else math.nan
        # bisect when Newton leaves the bracket, has no step, or does not halve its last step
        if not (a < step < b and abs(step - s) <= 0.5 * last):
            step = 0.5 * (a + b)
        last = abs(step - s)
        if last <= 2.0 * _EPS * b:
            return step
        s = step
    return s


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


def curve_from_samples(theta, points) -> LagrangianCurve:
    return LagrangianCurve(theta, points)


def harmonic_circle(action: float, samples: int = 1024) -> LagrangianCurve:
    """Circle p^2 + q^2 = 2 I sampled along the harmonic flow (theta = t)."""
    th = np.arange(samples) * _TWO_PI / samples
    with np.errstate(invalid="ignore"):  # the curve rejects an action not finite and positive
        pts = np.sqrt(2.0 * action) * np.stack([np.cos(th), np.sin(th)], axis=-1)
    return LagrangianCurve(th, pts, action)


#: cosine-series sizes for the time along a librating orbit: first and cap
_SERIES_START = 16
_SERIES_CAP = 1 << 16
#: relative size the top quarter of the series must fall below, or below
#: _SERIES_FLOOR eps max(w) / c_0, the FFT's rounding floor, if that is larger
_SERIES_TOL = 1e-15
_SERIES_FLOOR = 4.0
_EPS = np.finfo(float).eps
_NEWTON_ITERATIONS = 12


def _librating_curve(k_factor, q_plus: float, samples: int) -> LagrangianCurve:
    """Level curve of H = p^2/2 + V(q) with E - V(q) = (q_plus^2 - q^2) K(q).

    With q = q_plus cos(phi) the time along the orbit has the analytic, even
    and pi-periodic density w(phi) = dt/dphi = 1 / sqrt(2 K(q)).  One real FFT
    of w on N nodes over [0, pi) gives w = c_0 + sum 2 c_k cos(2 k phi), so
    t(phi) = c_0 phi + sum c_k sin(2 k phi) / k and T = 2 pi c_0.  N doubles
    until the top quarter of the c_k falls below ``_SERIES_TOL`` c_0, or below
    the FFT's rounding floor ``_SERIES_FLOOR`` eps max(w) / c_0 where that is
    larger (the tail is the measured error; past ``_SERIES_CAP`` it is
    reported as a ConvergenceWarning).  The samples at t = k T / m come from Newton's
    method on t(phi), started from t inverted linearly between the nodes, and
    x = (-q_plus sin(phi) sqrt(2 K), q_plus cos(phi)) lies on the energy
    shell to rounding.  theta = 2 pi t / T starts at the upper turning point
    and moves first with p < 0.
    """

    def density(phi):
        return 1.0 / np.sqrt(2.0 * k_factor(q_plus * np.cos(phi)))

    notes: list = []
    n = _SERIES_START
    while True:
        w = density(np.arange(n) * (math.pi / n))
        c = np.fft.rfft(w).real / n
        tail = float(np.max(np.abs(c[3 * n // 8:]))) / c[0]
        # the FFT's rounding floor: below it the tail is noise, not truncation
        limit = max(_SERIES_TOL, _SERIES_FLOOR * _EPS * float(np.max(w)) / c[0])
        if tail <= limit or n >= _SERIES_CAP:
            break
        n *= 2
    _measured(notes, tail, limit, f"orbit time series unconverged at {n} nodes: top-quarter "
              "coefficients {:.1e} of the mean (near the separatrix?)", ConvergenceWarning)
    k = np.arange(1, n // 2)
    sine_weights = c[1:n // 2] / k
    period = _TWO_PI * c[0]

    def time_at(phi):
        out = c[0] * phi
        step = max(1, _BLOCK_ELEMENTS // k.size)
        for j in range(0, phi.size, step):
            js = slice(j, j + step)
            table = np.outer(phi[js], 2.0 * k)
            out[js] += np.sin(table, out=table) @ sine_weights
            del table  # one table alive at a time
        return out

    th = np.arange(samples) * _TWO_PI / samples
    target = th * (period / _TWO_PI)
    # one inverse FFT gives t at the nodes; t(phi + pi) = t(phi) + T/2 extends
    # them to [0, 2 pi]
    nodes = np.arange(2 * n + 1) * (math.pi / n)
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[1:n // 2] = -0.5j * n * sine_weights
    t_half = c[0] * nodes[:n] + np.fft.irfft(spectrum, n)
    phi = np.interp(target, np.concatenate([t_half, t_half + 0.5 * period, [period]]), nodes)
    # Newton is asked for the accuracy of the series itself, not beyond it
    tol = max(tail, _SERIES_TOL) * period
    for _ in range(_NEWTON_ITERATIONS):
        residual = time_at(phi) - target
        phi -= residual / density(phi)
        if np.max(np.abs(residual)) <= tol:
            break
    else:
        raise RuntimeError(f"orbit sampling: Newton did not converge in {_NEWTON_ITERATIONS} "
                           f"steps (time residual {np.max(np.abs(residual)) / period:.1e} T)")
    q = q_plus * np.cos(phi)
    p = -q_plus * np.sin(phi) * np.sqrt(2.0 * k_factor(q))
    pts = np.stack([p, q], axis=-1)
    return LagrangianCurve(th, pts, warnings=notes)


def quartic_level_curve(energy: float, a: float = 1.0, b: float = 0.0,
                        samples: int = 1024) -> LagrangianCurve:
    """Level set of H = p^2/2 + a q^4/4 + b q^2/2 at the given energy."""
    if not (0 < energy < math.inf and 0 < a < math.inf and 0 <= b < math.inf):
        raise ValueError("need energy > 0, a > 0, b >= 0")
    q2 = 4.0 * energy / (b + math.sqrt(b * b + 4.0 * a * energy))  # a q^4/4 + b q^2/2 = E
    return _librating_curve(lambda q: 0.25 * a * (q2 + q * q) + 0.5 * b,
                            math.sqrt(q2), samples)


def pendulum_level_curve(energy: float, g: float = 1.0, samples: int = 1024) -> LagrangianCurve:
    """Librating level set of H = p^2/2 - g cos q (requires -g < E < g)."""
    if not (-g < energy < g):
        raise ValueError("libration requires -g < energy < g")
    _check_positive(g, "g")  # g = inf passes the range test
    q_plus = math.acos(-energy / g)

    def k_factor(q):  # g (cos q - cos q_plus) / (q_plus^2 - q^2), np.sinc(x) = sin(pi x)/(pi x)
        return 0.5 * g * np.sinc((q_plus + q) / _TWO_PI) * np.sinc((q_plus - q) / _TWO_PI)

    return _librating_curve(k_factor, q_plus, samples)


@dataclass(frozen=True)
class BranchData:
    """Branches p_j(Q) of a curve's q-projection at one position Q."""

    Q: float
    theta: np.ndarray
    p: np.ndarray
    amplitude: np.ndarray
    slope: np.ndarray
    caustic: np.ndarray

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

    The image keeps the original theta labels and warnings; its action label
    is re-measured from the advected samples (dissipation shrinks the
    enclosed area).
    """
    pts = dynamics.advect(H, channels, curve.points, t, dt)
    return LagrangianCurve(curve.theta.copy(), pts, warnings=list(curve.warnings))
