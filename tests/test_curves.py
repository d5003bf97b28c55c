import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from chordlab import dynamics as dy
from chordlab.diagnostics import ConvergenceWarning
from chordlab.grids import _BLOCK_ELEMENTS
from chordlab.curves import (
    LagrangianCurve,
    branches_at,
    curve_from_samples,
    evolve_curve_classically,
    harmonic_circle,
    pendulum_level_curve,
    quartic_level_curve,
)


def test_harmonic_circle_geometry():
    curve = harmonic_circle(0.5, 1024)
    r = math.sqrt(2.0 * 0.5)
    assert np.allclose(np.hypot(curve.points[:, 0], curve.points[:, 1]), r)
    assert abs(curve.action - 0.5) < 1e-12
    q = curve.points[:, 1]
    assert np.isclose(q.min(), -r) and np.isclose(q.max(), r)


def test_measured_action_matches_label():
    """The area functional on the samples reproduces I = area / 2 pi."""
    curve = harmonic_circle(0.37, 1024)
    re = curve.resample(1024)
    assert abs(re.action - 0.37) < 1e-9


def test_position_velocity_splines():
    curve = harmonic_circle(0.5, 1024)
    th = np.array([0.0, 0.7, 2.0, 5.5])
    want = np.stack([np.cos(th), np.sin(th)], axis=-1)
    assert np.max(np.abs(curve.position(th) - want)) < 1e-9
    wantv = np.stack([-np.sin(th), np.cos(th)], axis=-1)
    assert np.max(np.abs(curve.velocity(th) - wantv)) < 1e-7
    # theta wraps
    assert np.allclose(curve.position(2.0 * math.pi + 0.7), curve.position(0.7))


def test_splines_are_built_once_and_close_the_loop():
    curve = harmonic_circle(0.5, 64)
    first = curve._splines
    curve.position(0.3), curve.velocity(0.3), branches_at(curve, 0.2)
    assert curve._splines is first
    for spline, column in zip(first, curve.points.T):
        assert spline.x[-1] == curve.theta[0] + 2.0 * math.pi
        assert abs(spline(spline.x[-1]) - column[0]) < 1e-14


def test_quartic_level_curve_energy_and_action():
    energy, a = 0.5, 1.0
    curve = quartic_level_curve(energy, a=a, samples=1024)
    H = dy.hamiltonians.quartic(a=a)
    assert np.max(np.abs(H(curve.points) - energy)) < 1e-8
    # independent action oracle: I = (1/pi) Int dq sqrt(2 (E - V))
    q_plus = (4.0 * energy / a) ** 0.25

    def p_of_q(q):
        return math.sqrt(max(2.0 * (energy - 0.25 * a * q**4), 0.0))

    want, _ = quad(p_of_q, -q_plus, q_plus, limit=200)
    want /= math.pi
    assert abs(curve.action - want) < 1e-6 * want


def test_time_parametrization():
    """theta runs along the flow: dx/dtheta is proportional to J grad H with
    one constant ratio T / 2 pi along the whole curve."""
    energy = 0.5
    curve = quartic_level_curve(energy, samples=512)
    H = dy.hamiltonians.quartic()
    th = np.linspace(0.3, 5.9, 9)
    vel = curve.velocity(th)
    field = np.einsum("ab,kb->ka", np.array([[0.0, -1.0], [1.0, 0.0]]), H.gradient(curve.position(th)))
    ratios = vel / field
    assert np.max(np.abs(ratios - ratios[0, 0])) < 1e-4 * abs(ratios[0, 0])


def test_pendulum_level_curve():
    curve = pendulum_level_curve(0.2, samples=512)
    H = dy.hamiltonians.pendulum()
    assert np.max(np.abs(H(curve.points) - 0.2)) < 1e-7
    assert curve.points[:, 1].max() < math.pi  # libration stays inside the well
    with pytest.raises(ValueError):
        pendulum_level_curve(1.5)
    with pytest.raises(ValueError):
        quartic_level_curve(-1.0)


@pytest.mark.parametrize("action", [0.0, -1.0, math.nan, math.inf])
def test_harmonic_circle_rejects_an_action_that_is_not_finite_and_positive(action):
    """Before, nan gave a nan curve and inf gave inf and nan points."""
    with pytest.raises(ValueError, match="action must be finite and positive"):
        harmonic_circle(action)


def _pendulum_jacobi(energy, g, samples):
    """Libration of H = p^2/2 - g cos q at t = k T / m, from q(0) = q+."""
    k = math.sin(0.5 * math.acos(-energy / g))
    quarter = ellipk(k * k)
    period = 4.0 * quarter / math.sqrt(g)
    t = np.arange(samples) * period / samples
    sn, cn, _, _ = ellipj(math.sqrt(g) * t + quarter, k * k)
    return np.stack([2.0 * k * math.sqrt(g) * cn, 2.0 * np.arcsin(k * sn)], axis=-1)


def _quartic_jacobi(energy, a, b, samples):
    """Oscillation of H = p^2/2 + a q^4/4 + b q^2/2: q = q+ cn(omega t | m)
    with omega^2 = b + a q+^2 and m = a q+^2 / (2 omega^2)."""
    q2 = (math.sqrt(b * b + 4.0 * a * energy) - b) / a
    omega = math.sqrt(b + a * q2)
    m = a * q2 / (2.0 * omega * omega)
    period = 4.0 * ellipk(m) / omega
    t = np.arange(samples) * period / samples
    sn, cn, dn, _ = ellipj(omega * t, m)
    q_plus = math.sqrt(q2)
    return np.stack([-q_plus * omega * sn * dn, q_plus * cn], axis=-1)


@pytest.mark.parametrize("family, energy, params, samples", [
    ("quartic", 0.3, (1.0, 0.0), 320),
    ("quartic", 0.7, (1.3, 0.8), 512),
    ("quartic", 3.0, (1.0, 2.0), 100),
    ("pendulum", -0.6, (1.0,), 320),
    ("pendulum", 0.2, (1.0,), 512),
    ("pendulum", 0.6, (2.0,), 100),
])
def test_level_curves_match_jacobi_elliptic_solutions(family, energy, params, samples):
    """Sample k sits at t = k T / m of the exact solution.  Both the shape
    and the period are tested: a period off by dT would move sample k by
    k dT / m along the orbit."""
    if family == "quartic":
        curve = quartic_level_curve(energy, *params, samples=samples)
        want = _quartic_jacobi(energy, *params, samples)
    else:
        curve = pendulum_level_curve(energy, *params, samples=samples)
        want = _pendulum_jacobi(energy, *params, samples)
    assert curve.warnings == []
    assert np.max(np.abs(curve.points - want)) < 1e-12 * np.max(np.abs(want))


def test_pendulum_near_separatrix_stays_on_shell_in_bounded_memory():
    H = dy.hamiltonians.pendulum()
    curve = pendulum_level_curve(0.99999, samples=512)
    assert curve.warnings == []
    assert np.max(np.abs(H(curve.points) - 0.99999)) < 1e-14
    assert curve.points[:, 1].max() < math.pi
    # closer still, the time series reaches its node cap: the curve carries
    # a ConvergenceWarning, and the 256 x 32767 phase table (67 MB in one
    # piece) is built one block at a time
    tracemalloc.start()
    try:
        with pytest.warns(ConvergenceWarning, match="unconverged"):
            capped = pendulum_level_curve(1.0 - 1e-9, samples=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capped.warnings) == 1 and "65536 nodes" in capped.warnings[0]
    assert peak < 2 * 8 * _BLOCK_ELEMENTS
    assert np.max(np.abs(H(capped.points) - (1.0 - 1e-9))) < 1e-14


def test_branches_on_the_circle():
    curve = harmonic_circle(0.5, 1024)
    br = branches_at(curve, 0.0)
    assert len(br) == 2
    order = np.argsort(br.p)
    assert np.allclose(br.p[order], [-1.0, 1.0], atol=1e-9)
    assert np.allclose(br.amplitude, 1.0, atol=1e-8)
    assert np.allclose(br.slope, 0.0, atol=1e-8)
    assert not br.caustic.any()

    br = branches_at(curve, 0.6)
    order = np.argsort(br.p)
    assert np.allclose(br.p[order], [-0.8, 0.8], atol=1e-8)
    assert np.allclose(br.amplitude, 1.25, atol=1e-7)
    # slope = dp/dq = -q/p on the circle
    assert np.allclose(np.sort(br.slope), [-0.75, 0.75], atol=1e-7)


def test_branch_caustic_flag():
    curve = harmonic_circle(0.5, 2048)
    br = branches_at(curve, 0.99, caustic_threshold=5.0)
    assert len(br) == 2
    assert br.caustic.all()  # |slope| = 0.99 / sqrt(1 - 0.99^2) ~ 7
    br = branches_at(curve, 0.99)  # default threshold inf
    assert not br.caustic.any()


def test_branches_outside_projection_empty():
    curve = harmonic_circle(0.5, 256)
    br = branches_at(curve, 1.5)
    assert len(br) == 0


def test_degenerate_parametrization_raises():
    # a curve collapsed to the origin (e.g. by long damping) has no branch
    # structure left; x'(theta) sits at round-off scale
    circle = harmonic_circle(0.5, 256)
    collapsed = curve_from_samples(circle.theta, circle.points * 1e-13)
    with pytest.raises(ValueError):
        branches_at(collapsed, 0.0)


def test_evolved_curve_contracts():
    """Dissipation shrinks the enclosed area as exp(-2 gamma t)."""
    damping = dy.LindbladChannel((0.0, 1.0), (1.0, 0.0))
    curve = harmonic_circle(0.5, 512)
    t = 0.4
    evolved = evolve_curve_classically(curve, dy.hamiltonians.harmonic(), [damping], t)
    assert abs(evolved.action - 0.5 * math.exp(-2.0 * t)) < 1e-8
    # each sample follows the damped rotation
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    want = math.exp(-t) * curve.points @ rot.T
    assert np.max(np.abs(evolved.points - want)) < 1e-9
    assert np.array_equal(evolved.theta, curve.theta)


@pytest.mark.parametrize("energy, a, b", [(math.nan, 1.0, 0.0), (0.3, math.inf, 0.0),
                                          (0.3, 1.0, math.nan), (math.inf, 1.0, 0.0)],
                         ids=["energy-nan", "a-inf", "b-nan", "energy-inf"])
def test_quartic_level_curve_rejects_non_finite_parameters(energy, a, b):
    """Before, a nan energy spent seconds doubling the orbit-time series and
    then raised "Newton did not converge"."""
    with pytest.raises(ValueError, match="need energy > 0"):
        quartic_level_curve(energy, a, b)


def test_curve_validation():
    th = np.arange(16) * 2.0 * math.pi / 16
    pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
    with pytest.raises(ValueError):
        curve_from_samples(th[:4], pts[:4])  # too few
    with pytest.raises(ValueError):
        curve_from_samples(th[::-1], pts)  # not increasing
    with pytest.raises(ValueError):
        curve_from_samples(th + 1.0, pts)  # runs past 2 pi
    bad = pts.copy()
    bad[3, 1] = math.nan
    with pytest.raises(ValueError, match="finite"):
        curve_from_samples(th, bad)  # one nan point (it used to give a nan curve)
    bad_th = th.copy()
    bad_th[5] = math.nan
    with pytest.raises(ValueError, match="finite"):
        LagrangianCurve(bad_th, pts, 0.5)
    with pytest.raises(ValueError):
        harmonic_circle(0.0)
