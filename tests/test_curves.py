import ast
import dataclasses
import inspect
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import ellipj, ellipk, ellipkm1

from chordlab import curves as cv
from chordlab import dynamics as dy
from chordlab.grids import _BLOCK_ELEMENTS
from chordlab.curves import (
    LagrangianCurve,
    branches_at,
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
    re = LagrangianCurve(curve.theta, curve.points)  # the constructor measures it
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


def test_a_curve_keeps_read_only_copies_of_its_samples():
    """Before, a float64 caller array was kept by reference: halving q in it
    after a branch solve left the cached q spline giving p = +-0.954 at
    q = 0.3 and the action at 0.50, where a fresh curve of the halved samples
    gives p = +-0.800.  The curve's arrays are now its own and read-only; a
    read-only view of a caller's array is copied, a curve's own array is
    shared, and so is theta with an evolved image."""
    th = np.arange(64) * 2.0 * math.pi / 64
    pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
    view = pts.view()
    view.setflags(write=False)
    curve, of_view = LagrangianCurve(th, pts), LagrangianCurve(th, view)
    before = branches_at(curve, 0.3)
    action = curve.action
    pts[:, 1] *= 0.5
    th[:] = 0.0
    for c in (curve, of_view):
        assert np.array_equal(c.points[:, 1], np.sin(c.theta))
        for a in (c.theta, c.points):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
    again = branches_at(curve, 0.3)
    assert np.array_equal(np.abs(again.p), np.abs(before.p)) and curve.action == action
    assert np.allclose(np.abs(before.p), math.sqrt(1.0 - 0.09))
    halved = LagrangianCurve(curve.theta, pts)
    assert halved.theta is curve.theta
    assert np.allclose(np.abs(branches_at(halved, 0.3).p), 0.8)
    assert evolve_curve_classically(curve, dy.hamiltonians.harmonic(), None, 0.1).theta \
        is curve.theta
    for a in (before.theta, before.p, before.amplitude, before.slope, before.caustic):
        assert not a.flags.writeable


def test_splines_are_built_once_and_close_the_loop():
    curve = harmonic_circle(0.5, 64)
    first = curve._splines
    curve.position(0.3), curve.velocity(0.3), branches_at(curve, 0.2)
    assert curve._splines is first
    for spline, column in zip(first, curve.points.T):
        assert spline.x[-1] == curve.theta[0] + 2.0 * math.pi
        assert abs(spline(spline.x[-1]) - column[0]) < 1e-14


def _scipy_spline(theta, values):
    """The reference: scipy's periodic CubicSpline on the closed loop."""
    return CubicSpline(np.append(theta, theta[0] + 2.0 * math.pi), np.append(values, values[0]),
                       bc_type="periodic")


def _nonuniform_curve():
    """A curve on a non-uniform theta that starts past 0."""
    rng = np.random.default_rng(7)
    th = np.sort(rng.uniform(0.3, 2.0 * math.pi, 200))
    return LagrangianCurve(th, np.stack([np.cos(th) + 0.2 * np.sin(2.0 * th), np.sin(th)], -1))


_SPLINE_CURVES = {
    "circle": lambda: harmonic_circle(0.5, 1024),
    "quartic": lambda: quartic_level_curve(0.5, samples=512),
    "pendulum": lambda: pendulum_level_curve(0.2, samples=512),
    "nonuniform": _nonuniform_curve,
}


@pytest.mark.parametrize("name", sorted(_SPLINE_CURVES))
def test_splines_match_scipy_periodic_cubic_spline(name):
    """Values and first derivatives, at theta inside and outside [0, 2 pi)."""
    curve = _SPLINE_CURVES[name]()
    th = np.random.default_rng(1).uniform(-7.0, 14.0, 4000)
    th = np.concatenate([th, curve.theta, [curve.theta[0] + 2.0 * math.pi]])
    for spline, column in zip(curve._splines, curve.points.T):
        want = _scipy_spline(curve.theta, column)
        tol = 1e-14 * np.max(np.abs(column))
        assert np.max(np.abs(spline(th) - want(th))) <= tol
        assert np.max(np.abs(spline(th, 1) - want(th, 1))) <= tol


def _scipy_branch_thetas(curve, Q):
    """scipy's roots of q(theta) = Q, mod 2 pi, grouped where they lie within
    1e-9 of each other (around the seam too): one group per branch."""
    roots = np.sort(np.mod(_scipy_spline(curve.theta, curve.points[:, 1]).solve(
        Q, extrapolate=False), 2.0 * math.pi))
    groups = []
    for r in roots:
        if groups and r - groups[-1][-1] <= 1e-9:
            groups[-1].append(r)
        else:
            groups.append([r])
    if len(groups) > 1 and groups[0][0] + 2.0 * math.pi - groups[-1][-1] <= 1e-9:
        groups[0] += [r - 2.0 * math.pi for r in groups.pop()]
    return groups


def _branches_match_scipy(curve, Q) -> int:
    """Assert one branch per group of scipy's roots, each within 1e-12 of
    its group, and return the branch count."""
    groups = _scipy_branch_thetas(curve, Q)
    br = branches_at(curve, Q)
    assert len(br) == len(groups), Q
    for theta, group in zip(br.theta, groups):
        gap = np.abs(np.asarray(group) - theta)
        assert np.min(np.minimum(gap, 2.0 * math.pi - gap)) <= 1e-12, Q
    return len(br)


def _clipped_cosine():
    th = np.arange(64) * 2.0 * math.pi / 64
    return LagrangianCurve(th, np.stack([np.sin(th), np.clip(1.5 * np.cos(th), -1.0, 1.0)], -1))


@pytest.mark.parametrize("samples, Q, count", [
    (1024, 1.0, 1),  # tangent at a node
    (1024, 1.0 + 1e-12, 0),
    (1001, 1.0 - 1e-7, 2),  # both roots inside one piece, whose ends lie below Q
    (64, 1.0, 17),  # the clipped cosine: scipy returns 21 roots, 4 of them repeats at a node
], ids=["circle-node-tangent", "circle-above", "circle-one-piece", "clipped-cosine"])
def test_branch_roots_match_scipy(samples, Q, count):
    curve = harmonic_circle(0.5, samples) if samples != 64 else _clipped_cosine()
    assert _branches_match_scipy(curve, Q) == count


def _exact_root(spline, Q, guess, width=1e-9):
    """The float theta nearest the root of the spline piece at ``guess``:
    bisection over floats, each sign taken in exact rational arithmetic."""
    i = int(np.searchsorted(spline.x, guess, side="right")) - 1
    x0, coef = Fraction(spline.x[i]), [Fraction(v) for v in spline.c[:, i]]

    def sign(theta):
        s = Fraction(theta) - x0
        return ((coef[0] * s + coef[1]) * s + coef[2]) * s + coef[3] > Fraction(Q)

    a, b = guess - width, guess + width
    assert sign(a) != sign(b)
    while a < 0.5 * (a + b) < b:
        m = 0.5 * (a + b)
        a, b = (m, b) if sign(m) == sign(a) else (a, m)
    return a


def test_branch_roots_just_below_a_tangent_are_exact():
    """At Q = R (1 - 1e-12) the circle's two roots lie 1.4e-6 either side of
    the node at the top, where q' is 1e-6: scipy finds both, but its first one
    (from the companion matrix) lies 7.8e-11 from the exact root of the same
    cubic.  The cubic's rounding in floats (eps times terms of 2e-5, over that
    slope) fixes a root only to about 3e-15, and both of branches_at's roots
    are within 1e-14 of the exact ones."""
    curve = harmonic_circle(0.5, 1024)
    Q = 1.0 - 1e-12
    reference = _scipy_spline(curve.theta, curve.points[:, 1])
    scipy_roots = np.sort(reference.solve(Q, extrapolate=False))
    br = branches_at(curve, Q)
    assert len(br) == scipy_roots.size == 2
    exact = [_exact_root(reference, Q, r) for r in scipy_roots]
    assert np.max(np.abs(br.theta - exact)) <= 1e-14


@pytest.mark.parametrize("name", ["quartic", "pendulum", "nonuniform"])
def test_branch_roots_match_scipy_across_the_projection(name):
    curve = _SPLINE_CURVES[name]()
    q = curve.points[:, 1]
    for Q in np.linspace(q.min() - 0.01, q.max() + 0.01, 61):
        _branches_match_scipy(curve, Q)


def test_run_root_bisects_where_newton_crawls():
    """s^3 - 1e-40 on [0, 1]: a Newton step from above shrinks s by only 1/3,
    and brentq's inverse interpolation stalls the same way, so its bisection
    fallback carries it to the root 4.6e-14 in 97 evaluations, within the
    step budget."""
    root = cv._run_root((1.0, 0.0, 0.0, -1e-40), 0.0, 1.0, -1e-40, 1.0)
    want = 1e-40 ** (1.0 / 3.0)
    assert abs(root - want) <= 1e-12 * want


@pytest.mark.parametrize("family", ["quartic", "pendulum"])
def test_branch_roots_at_node_and_turning_values(family):
    """On an evolved level curve, Q at a node value and one ulp either side:
    one branch per group of scipy's roots, each within 1e-12.  At the q
    extremes, where a piece turns inside, the root is double and scipy's
    companion-matrix roots are off by up to 1e-8 (two roots 5e-9 apart at
    the quartic's lowest q, none at its highest), so the reference is the
    same cubic in exact arithmetic: at the turning value one branch, on the
    turn itself; one ulp inside two, each within 1e-12 of the exact root;
    one ulp outside none."""
    if family == "quartic":
        curve, H = quartic_level_curve(0.3, samples=512), dy.hamiltonians.quartic()
    else:
        curve, H = pendulum_level_curve(-0.6, samples=512), dy.hamiltonians.pendulum()
    evolved = evolve_curve_classically(curve, H, [dy.LindbladChannel((0.0, 0.8))], 0.1)
    node = evolved.points[37, 1]
    for Q in (np.nextafter(node, -np.inf), node, np.nextafter(node, np.inf)):
        assert _branches_match_scipy(evolved, float(Q)) == 2
    spline = evolved._q_spline
    knots, vals, _, _ = spline._runs
    turns = np.argwhere(knots[1:3] < knots[3])
    assert len(turns) == 2  # the lowest and the highest q
    for k, i in turns:
        value = vals[1 + k, i]
        assert branches_at(evolved, value).theta.tolist() == [spline.x[i] + knots[1 + k, i]]
        inside = float(np.nextafter(value, spline.y[i]))
        br = branches_at(evolved, inside)
        assert len(br) == 2
        for theta in br.theta:
            assert abs(theta - _exact_root(spline, inside, theta)) <= 1e-12
        assert len(branches_at(evolved, float(np.nextafter(value, 2.0 * value - spline.y[i])))) == 0


def test_run_root_is_one_brentq_call():
    """brentq is the only root solver: _run_root calls it and holds no loop,
    the Newton step budget is gone, and a curve holds no notes list."""
    tree = ast.parse(inspect.getsource(cv._run_root))
    calls = {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert calls == {"brentq", "np.finfo"}
    assert not any(isinstance(n, (ast.For, ast.While)) for n in ast.walk(tree))
    assert not hasattr(cv, "_ROOT_STEPS")
    assert [f.name for f in dataclasses.fields(LagrangianCurve)] == ["theta", "points", "action"]


def test_an_evolved_curve_fits_each_coordinate_once(monkeypatch):
    """The fit behind the measured action is the one the branches use."""
    fitted = []

    def counting(theta, values):
        fitted.append(values.copy())
        return fit(theta, values)

    fit = cv._periodic_spline
    circle = harmonic_circle(0.5, 128)
    monkeypatch.setattr(cv, "_periodic_spline", counting)
    damping = dy.LindbladChannel((0.0, 1.0), (1.0, 0.0))
    evolved = evolve_curve_classically(circle, dy.hamiltonians.harmonic(), [damping], 0.3)
    assert len(fitted) == 1 and np.array_equal(fitted[0], evolved.points[:, 1])
    for Q in (0.0, 0.2, -0.4):
        branches_at(evolved, Q)
    evolved.position(0.3), evolved.velocity(0.3)
    assert len(fitted) == 2 and np.array_equal(fitted[1], evolved.points[:, 0])


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


@pytest.mark.parametrize("build", [lambda n: harmonic_circle(0.5, n),
                                   lambda n: quartic_level_curve(0.3, samples=n),
                                   lambda n: pendulum_level_curve(-0.4, samples=n)],
                         ids=["circle", "quartic", "pendulum"])
def test_a_sample_count_must_be_whole(build):
    """Before, 8.5 samples built a 9-point curve whose closing gap was half
    a step.  A whole count given as a float, 16.0, builds the 16-point curve."""
    for samples in (8.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="samples must be a whole number"):
            build(samples)
    curve, want = build(16.0), build(16)
    assert curve.theta.tobytes() == want.theta.tobytes()
    assert curve.points.tobytes() == want.points.tobytes()


@pytest.mark.parametrize("action", [0.0, -3.0, math.nan, math.inf])
def test_a_curve_checks_a_given_action(action):
    """Before, a nan or negative label was stored as given; a curve built
    without one measures its own."""
    curve = harmonic_circle(0.5, 64)
    with pytest.raises(ValueError, match="action must be finite and positive"):
        LagrangianCurve(curve.theta, curve.points, action)
    assert LagrangianCurve(curve.theta, curve.points).action == pytest.approx(0.5, rel=1e-6)


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


def _quietly(build, *args, **kwargs):
    """build(*args, **kwargs), asserting that it records no Python warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = build(*args, **kwargs)
    assert not caught, [str(w.message) for w in caught]
    return curve


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
        curve = _quietly(quartic_level_curve, energy, *params, samples=samples)
        want = _quartic_jacobi(energy, *params, samples)
    else:
        curve = _quietly(pendulum_level_curve, energy, *params, samples=samples)
        want = _pendulum_jacobi(energy, *params, samples)
    assert np.max(np.abs(curve.points - want)) < 1e-12 * np.max(np.abs(want))


def test_pendulum_near_separatrix_stays_on_shell_in_bounded_memory():
    H = dy.hamiltonians.pendulum()
    curve = _quietly(pendulum_level_curve, 0.99999, samples=512)
    assert np.max(np.abs(H(curve.points) - 0.99999)) < 1e-14
    assert curve.points[:, 1].max() < math.pi
    # closer still, the closed form divides by neither dn nor k': the samples
    # stay on the shell and on the flow at rounding, with no note, and no
    # table grows with the closeness
    for energy in (1.0 - 1e-9, 1.0 - 1e-13):
        tracemalloc.start()
        try:
            close = _quietly(pendulum_level_curve, energy, samples=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * _BLOCK_ELEMENTS
        assert np.max(np.abs(H(close.points) - energy)) < 1e-14
        assert _flow_step_error(close, lambda q: -np.sin(q), _pendulum_period(energy, 1.0)) < 1e-13


def _pendulum_period(energy, g):
    """4 K(k^2) / sqrt(g) with K from ellipkm1(k'^2): ellipk of a k^2 rounded
    near 1 gives a wrong period."""
    return 4.0 * ellipkm1(0.5 * (1.0 - energy / g)) / math.sqrt(g)


def _quartic_period(energy, a, b):
    q2 = (math.sqrt(b * b + 4.0 * a * energy) - b) / a
    omega = math.sqrt(b + a * q2)
    return 4.0 * ellipk(a * q2 / (2.0 * omega * omega)) / omega


def _flow_step_error(curve, force, period):
    """max|flow(x_k, T/n) - x_{k+1}| / max|x| over the n samples, the flow of
    H = p^2/2 + V(q) with -V' = force from scipy's DOP853 at rtol 1e-13."""
    from scipy.integrate import solve_ivp

    x = curve.points
    scale = np.max(np.abs(x))

    def rhs(_, y):
        p, q = y.reshape(2, -1)
        return np.concatenate([force(q), p])

    sol = solve_ivp(rhs, (0.0, period / x.shape[0]), x.T.ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-15 * scale)
    return np.max(np.abs(sol.y[:, -1].reshape(2, -1).T - np.roll(x, -1, axis=0))) / scale


@pytest.mark.parametrize("family, energy, params", [
    ("quartic", 0.15, (1.0, 0.0)),
    ("quartic", 1.0, (1.3, 0.8)),
    ("quartic", 3.0, (1.0, 2.0)),
    ("pendulum", -0.999, (1.0,)),
    ("pendulum", 0.2, (1.0,)),
    ("pendulum", 0.9, (2.0,)),
    ("pendulum", 0.999, (1.0,)),
    ("pendulum", 0.99999, (1.0,)),
])
def test_level_curve_samples_follow_the_flow(family, energy, params):
    """Each of 16 samples, advanced by T/16 along the flow, lands on the next
    sample within 1e-13 of max|x|: an independent check of shape, period and
    the uniform time labels, up to the separatrix's edge."""
    if family == "quartic":
        a, b = params
        curve = _quietly(quartic_level_curve, energy, a, b, samples=16)
        err = _flow_step_error(curve, lambda q: -(a * q**3 + b * q), _quartic_period(energy, a, b))
    else:
        (g,) = params
        curve = _quietly(pendulum_level_curve, energy, g, samples=16)
        err = _flow_step_error(curve, lambda q: -g * np.sin(q), _pendulum_period(energy, g))
    assert err < 1e-13


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


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0, -math.inf])
def test_branches_at_rejects_a_caustic_threshold_that_is_not_positive(threshold):
    """Before, nan flagged no branch and a threshold <= 0 flagged every one."""
    with pytest.raises(ValueError, match="caustic_threshold must be positive"):
        branches_at(harmonic_circle(0.5, 64), 0.2, caustic_threshold=threshold)


def test_branches_outside_projection_empty():
    curve = harmonic_circle(0.5, 256)
    br = branches_at(curve, 1.5)
    assert len(br) == 0


def test_branches_at_the_period_seam_are_found_once():
    """On a rotated circle, q = q(theta = 0) is crossed at theta = 0 and once
    more; for some rotations the root solver also returns the theta = 0
    crossing just below 2 pi, and that duplicate is dropped."""
    circle = harmonic_circle(0.7, 32)
    for t in np.linspace(0.05, 3.0, 12):
        curve = evolve_curve_classically(circle, dy.hamiltonians.harmonic(), [], float(t))
        br = branches_at(curve, curve.points[0, 1])
        assert len(br) == 2, t
        gap = abs(br.theta[1] - br.theta[0])
        assert min(gap, 2.0 * math.pi - gap) > 1e-3, t


def test_degenerate_parametrization_raises():
    # a curve collapsed to the origin (e.g. by long damping) has no branch
    # structure left; x'(theta) sits at round-off scale
    circle = harmonic_circle(0.5, 256)
    collapsed = LagrangianCurve(circle.theta, circle.points * 1e-13)
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


def test_pendulum_level_curve_rejects_an_infinite_g():
    """Before, g = inf passed the -g < E < g test, emitted numpy RuntimeWarnings
    and raised "Newton did not converge"."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="g must be finite and positive, got inf"):
            pendulum_level_curve(0.3, math.inf)


def test_curve_validation():
    th = np.arange(16) * 2.0 * math.pi / 16
    pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
    with pytest.raises(ValueError):
        LagrangianCurve(th[:4], pts[:4])  # too few
    with pytest.raises(ValueError):
        LagrangianCurve(th[::-1], pts)  # not increasing
    with pytest.raises(ValueError):
        LagrangianCurve(th + 1.0, pts)  # runs past 2 pi
    bad = pts.copy()
    bad[3, 1] = math.nan
    with pytest.raises(ValueError, match="finite"):
        LagrangianCurve(th, bad)  # one nan point (it used to give a nan curve)
    bad_th = th.copy()
    bad_th[5] = math.nan
    with pytest.raises(ValueError, match="finite"):
        LagrangianCurve(bad_th, pts, 0.5)
    with pytest.raises(ValueError, match=r"points \(n, 2\)"):
        LagrangianCurve(th, pts[:, :1], 0.5)
    with pytest.raises(ValueError):
        harmonic_circle(0.0)
