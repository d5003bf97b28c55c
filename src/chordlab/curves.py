"""Closed classical curves (1-DOF tori) and their branch decomposition.

A curve is a dense uniform sampling of theta -> x(theta) = (p, q) with
periodic cubic splines providing derivatives.  For the built-in families the
parameter theta is 2 pi t / T along the Hamiltonian flow, so the branch
amplitude |d theta / dQ| is the classical residence density familiar from
WKB intensities.

Branches at a position Q are the solutions theta_j of q(theta_j) = Q, each
carrying its momentum p_j, amplitude |d theta/dq|, and slope dp/dq.  Near a
turning point of the q-projection the slope diverges; callers flag such
branches as caustic via a threshold instead of regularizing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from . import dynamics
from .diagnostics import ConvergenceWarning, report
from .grids import _BLOCK_ELEMENTS, _check_positive

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
    (p, q) samples; ``action`` is the enclosed area / 2 pi measured from the
    samples themselves.
    """

    theta: np.ndarray
    points: np.ndarray
    action: float
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if th.ndim != 1 or pts.shape != (th.size, 2):
            raise ValueError("theta must be (n,) and points (n, 2)")
        if th.size < 8:
            raise ValueError("need at least 8 samples")
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(pts))):
            raise ValueError("theta and points must be finite")
        if np.any(np.diff(th) <= 0) or th[0] < 0 or th[-1] >= _TWO_PI:
            raise ValueError("theta must be strictly increasing within [0, 2 pi)")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "points", pts)

    @cached_property
    def _splines(self):
        """Periodic splines of p(theta) and q(theta), built on first use."""
        return _periodic_spline(self.theta, self.points[:, 0]), _periodic_spline(
            self.theta, self.points[:, 1])

    def position(self, theta):
        sp, sq = self._splines
        th = np.mod(theta, _TWO_PI)
        return np.stack([sp(th), sq(th)], axis=-1)

    def velocity(self, theta):
        """d x / d theta from the splines."""
        sp, sq = self._splines
        th = np.mod(theta, _TWO_PI)
        return np.stack([sp(th, 1), sq(th, 1)], axis=-1)

    def resample(self, n: int) -> "LagrangianCurve":
        th = np.arange(n) * _TWO_PI / n
        pts = self.position(th)
        return LagrangianCurve(th, pts, _enclosed_area(th, pts) / _TWO_PI, list(self.warnings))


def _periodic_spline(theta, values) -> CubicSpline:
    """Periodic cubic spline through the samples, closed at theta[0] + 2 pi."""
    return CubicSpline(np.append(theta, theta[0] + _TWO_PI), np.append(values, values[0]),
                       bc_type="periodic")


def _enclosed_area(theta, points) -> float:
    """|oint p dq| by the trapezoid rule on the closed loop.

    q' comes from a periodic spline; on a uniform theta grid the periodic
    trapezoid rule is spectrally accurate, so the spline derivative is the
    limiting error (O(h^4) at the nodes).
    """
    sq = _periodic_spline(theta, points[:, 1])
    th = sq.x  # the closed loop's nodes
    f = np.append(points[:, 0], points[0, 0]) * sq(th, 1)
    return abs(float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(th))))


def curve_from_samples(theta, points) -> LagrangianCurve:
    theta = np.asarray(theta, dtype=float)
    points = np.asarray(points, dtype=float)
    return LagrangianCurve(theta, points, _enclosed_area(theta, points) / _TWO_PI)


def harmonic_circle(action: float, samples: int = 1024) -> LagrangianCurve:
    """Circle p^2 + q^2 = 2 I sampled along the harmonic flow (theta = t)."""
    _check_positive(action, "action")
    r = math.sqrt(2.0 * action)
    th = np.arange(samples) * _TWO_PI / samples
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
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
    if tail > limit:
        report(notes, f"orbit time series unconverged at {n} nodes: top-quarter "
               f"coefficients {tail:.1e} of the mean (near the separatrix?)",
               ConvergenceWarning)
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
    return LagrangianCurve(th, pts, _enclosed_area(th, pts) / _TWO_PI, notes)


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
    when |slope| exceeds the threshold.  Returns empty arrays when Q lies
    outside the curve's q-projection.  A root where the parametrization
    itself is stationary (both derivatives vanish) is degenerate and raises.
    """
    if not math.isfinite(Q):
        raise ValueError(f"Q must be finite, got {Q!r}")
    roots = np.sort(np.mod(curve._splines[1].solve(Q, extrapolate=False), _TWO_PI))
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
                             dt: float = 1e-3) -> LagrangianCurve:
    """Advect every curve sample under the dissipative centre flow.

    The image keeps the original theta labels and warnings; its action label
    is re-measured from the advected samples (dissipation shrinks the
    enclosed area).
    """
    pts = dynamics.advect(H, channels, curve.points, t, dt)
    return LagrangianCurve(curve.theta.copy(), pts, _enclosed_area(curve.theta, pts) / _TWO_PI,
                           list(curve.warnings))
