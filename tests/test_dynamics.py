import ast
import math
import pathlib
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from chordlab import dynamics as dy
from chordlab.diagnostics import ConvergenceWarning
from chordlab.geometry import J_MATRIX, random_symplectic
from chordlab.grids import CenteredGrid
from chordlab.states import CoherentState, coherent_chord_function, coherent_wigner

HBAR = 0.05

DAMPING = dy.LindbladChannel((0.0, 1.0), (1.0, 0.0))  # q + i p = sqrt(2 hbar) a
PUMP = dy.LindbladChannel((1.0, 0.0), (0.0, 1.0))
Q_CHANNEL = dy.LindbladChannel((0.0, 1.0))


def quadratic_model(s):
    """H = x . S x / 2 for a constant symmetric S."""
    s = np.asarray(s, dtype=float)
    return dy.HamiltonianModel(
        name="quadratic-form",
        value=lambda x: 0.5 * np.einsum("...a,ab,...b->...", x, s, x),
        gradient=lambda x: np.einsum("ab,...b->...a", s, x),
        hessian=lambda x: np.broadcast_to(s, x.shape[:-1] + (2, 2)).copy(),
        quadratic=True,
    )


# ---------------------------------------------------------------------------
# channels


def test_gamma_signs():
    assert DAMPING.gamma == 1.0
    assert PUMP.gamma == -1.0
    assert Q_CHANNEL.gamma == 0.0  # Hermitian coupling does not dissipate
    assert dy.total_gamma([DAMPING, PUMP]) == 0.0
    assert dy.total_gamma(None) == 0.0
    assert dy.total_gamma(DAMPING) == 1.0  # bare channel accepted


def test_noise_matrix():
    assert np.array_equal(DAMPING.noise, np.eye(2))
    assert np.array_equal(dy.noise_matrix([Q_CHANNEL]), np.diag([0.0, 1.0]))
    assert np.array_equal(dy.noise_matrix([DAMPING, Q_CHANNEL]), np.diag([1.0, 2.0]))
    lam = dy.noise_matrix([dy.LindbladChannel((0.3, -0.2), (0.1, 0.7))])
    assert np.allclose(lam, lam.T)
    assert np.all(np.linalg.eigvalsh(lam) >= -1e-15)


def test_channel_validation():
    with pytest.raises(ValueError):
        dy.LindbladChannel((1.0, 0.0, 0.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            dy.LindbladChannel((bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            dy.LindbladChannel((0.0, 1.0), (1.0, bad))


def test_hamiltonian_registry_and_values():
    assert set(dy.hamiltonians.registry) == {"zero", "harmonic", "free", "quartic", "pendulum"}
    x = np.array([0.3, -1.2])
    assert dy.hamiltonians.zero()(x) == 0.0
    assert np.isclose(dy.hamiltonians.free(2.0)(x), 0.3**2 / 4.0)
    assert np.isclose(dy.hamiltonians.quartic(2.0, 0.5)(x),
                      0.5 * 0.09 + 0.5 * 1.2**4 + 0.25 * 1.2**2)
    assert np.isclose(dy.hamiltonians.pendulum(2.0)(x), 0.5 * 0.09 - 2.0 * math.cos(-1.2))
    assert dy.hamiltonians.quartic(a=0.0, b=1.0).quadratic
    assert not dy.hamiltonians.pendulum().quadratic


@pytest.mark.parametrize("name", sorted(dy.hamiltonians.registry))
def test_model_derivatives_match_central_differences(name):
    """gradient and hessian of every built-in model against central
    differences of value and gradient, at |q| and |p| up to 3."""
    models = [dy.hamiltonians.registry[name]()]
    if name == "quartic":
        models.append(dy.hamiltonians.quartic(0.7, -1.3))
    x = np.random.default_rng(7).uniform(-3.0, 3.0, size=(40, 2))
    x[:2] = [[3.0, -3.0], [-3.0, 3.0]]
    eps = 1e-5
    for H in models:
        grad, hess = H.gradient(x), H.hessian(x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd_grad = (H.value(x + e) - H.value(x - e)) / (2.0 * eps)
            fd_hess = (H.gradient(x + e) - H.gradient(x - e)) / (2.0 * eps)
            assert np.max(np.abs(grad[:, i] - fd_grad)) < 1e-7 * max(1.0, np.max(np.abs(grad)))
            assert np.max(np.abs(hess[:, :, i] - fd_hess)) < 1e-7 * max(1.0, np.max(np.abs(hess)))
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


def test_families_at_the_origin():
    """Every family's value, gradient and hessian at the origin, bit for bit,
    on a single point and on a batch."""
    want = {
        "zero": (dy.hamiltonians.zero(), 0.0, np.zeros((2, 2))),
        "harmonic": (dy.hamiltonians.harmonic(1.3), 0.0, np.diag([1.3, 1.3])),
        "free": (dy.hamiltonians.free(3.0), 0.0, np.diag([1.0 / 3.0, 0.0])),
        "quartic": (dy.hamiltonians.quartic(0.7, 1.3), 0.0, np.diag([1.0, 1.3])),
        "pendulum": (dy.hamiltonians.pendulum(2.0), -2.0, np.diag([1.0, 2.0])),
    }
    for name, (H, value, hess) in want.items():
        for shape in ((), (3,)):
            x = np.zeros(shape + (2,))
            assert H.value(x).tobytes() == np.full(shape, value).tobytes(), name
            assert H.gradient(x).tobytes() == np.zeros(shape + (2,)).tobytes(), name
            assert H.hessian(x).tobytes() == np.broadcast_to(
                hess, shape + (2, 2)).tobytes(), name


def test_quadratic_families_are_the_form_x_s_x():
    """zero, harmonic and free are H = x.S x / 2: the gradient x S and the
    constant Hessian S exactly, the value to rounding."""
    x = np.random.default_rng(3).uniform(-3.0, 3.0, size=(50, 2))
    for H, s in ((dy.hamiltonians.zero(), np.zeros((2, 2))),
                 (dy.hamiltonians.harmonic(0.7), 0.7 * np.eye(2)),
                 (dy.hamiltonians.free(3.0), np.diag([1.0 / 3.0, 0.0]))):
        assert H.quadratic
        want = 0.5 * np.sum((x @ s) * x, axis=-1)
        assert np.all(np.abs(H.value(x) - want) <= 4.0 * np.finfo(float).eps * np.abs(want))
        assert np.array_equal(H.gradient(x), x @ s)
        assert np.array_equal(H.hessian(x), np.broadcast_to(s, (50, 2, 2)))
    assert np.array_equal(dy.hamiltonians.harmonic(0.7).gradient(x), 0.7 * x)


def test_separable_families_match_their_written_out_derivatives():
    """quartic and pendulum are H = p^2/2 + V(q): gradient (p, V'(q)) and
    Hessian diag(1, V''(q)) bit for bit against the bodies written out, the
    quartic V' as (a q q + b) q."""
    x = np.random.default_rng(5).uniform(-3.0, 3.0, size=(200, 2))
    p, q = x[..., 0], x[..., 1]
    a, b, g = 0.7, 1.3, 2.0
    for H, dv, d2v in ((dy.hamiltonians.quartic(a, b), (a * q * q + b) * q, 3.0 * a * q * q + b),
                       (dy.hamiltonians.pendulum(g), g * np.sin(q), g * np.cos(q))):
        hess = np.zeros((200, 2, 2))
        hess[:, 0, 0], hess[:, 1, 1] = 1.0, d2v
        assert H.gradient(x).tobytes() == np.stack([p, dv], axis=-1).tobytes(), H.name
        assert H.hessian(x).tobytes() == hess.tobytes(), H.name
    assert dy.hamiltonians.pendulum(g).value(x).tobytes() == (0.5 * p**2 - g * np.cos(q)).tobytes()


@pytest.mark.parametrize("mass", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_free_rejects_a_zero_or_non_finite_mass(mass):
    # the zero test is free's own; the finite one is every model's parameter check
    with pytest.raises(ValueError, match="mass must be (nonzero|finite)"):
        dy.hamiltonians.free(mass)


@pytest.mark.parametrize("family, params, message", [
    ("harmonic", {"omega": math.nan}, "omega must be finite"),
    ("pendulum", {"g": math.inf}, "g must be finite"),
    ("quartic", {"b": -math.inf}, "b must be finite"),
], ids=["harmonic-nan", "pendulum-inf", "quartic-b-minus-inf"])
def test_models_reject_non_finite_parameters(family, params, message):
    """Before, harmonic(nan) gave an all-nan Phi and Hamiltonian matrix."""
    with pytest.raises(ValueError, match=message):
        dy.hamiltonians.registry[family](**params)


# ---------------------------------------------------------------------------
# flows


def test_advect_damped_harmonic_closed_form():
    """x(t) = exp(-gamma t) R(t) x0 for the damped harmonic flow."""
    H = dy.hamiltonians.harmonic()
    x0 = np.array([[1.0, 0.0], [0.3, -0.7]])
    t = 0.9
    got = dy.advect(H, [DAMPING], x0, t, 1e-3)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    want = math.exp(-t) * x0 @ rot.T
    assert np.max(np.abs(got - want)) < 1e-10


def shifted_oscillator(force, quadratic=True):
    """H = (p^2 + q^2) / 2 + f q, whose gradient does not vanish at the origin."""
    H = dy.hamiltonians.harmonic()
    return dy.HamiltonianModel(
        "shifted", lambda x: H.value(x) + force * x[..., 1],
        lambda x: H.gradient(x) + np.array([0.0, force]), H.hessian, quadratic)


def test_advect_shifted_oscillator_matches_rk4():
    x0 = np.array([[1.0, 0.0], [0.3, -0.7], [-0.2, 0.5]])
    for ch in (None, [DAMPING]):
        got = dy.advect(shifted_oscillator(0.6), ch, x0, 1.3, 1e-3)
        want = dy.advect(shifted_oscillator(0.6, quadratic=False), ch, x0, 1.3, 1e-3)
        assert np.max(np.abs(got - want)) < 1e-12
        back = dy.advect(shifted_oscillator(0.6), ch, got, -1.3, 1e-3)
        assert np.max(np.abs(back - x0)) < 1e-12


def test_advect_reverses():
    H = dy.hamiltonians.quartic()
    x0 = np.array([[0.4, 0.8]])
    fwd = dy.advect(H, None, x0, 0.6, 1e-3)
    back = dy.advect(H, None, fwd, -0.6, 1e-3)
    assert np.max(np.abs(back - x0)) < 1e-9


def test_advect_zero_time_is_identity():
    x0 = np.array([[0.1, 0.2]])
    assert np.array_equal(dy.advect(dy.hamiltonians.harmonic(), None, x0, 0.0, 1e-3), x0)


@pytest.mark.parametrize("phi", [None, "end"])
@pytest.mark.parametrize("family", ["harmonic", "quartic"])
def test_flow_at_zero_time_returns_the_rows_bit_for_bit(family, phi):
    """Both model kinds hand back the rows themselves at t = 0, signed zeros
    included (the centre map would turn -0.0 into 0.0), with zero Phi and
    zero estimates.  The stepped flow checks dt at t = 0 too."""
    x = np.array([[0.1, -0.0], [-0.0, 0.2], [-1.3, 5e-310]])
    H = dy.hamiltonians.registry[family]()
    xt, phis, est = dy._flow(H, [DAMPING, Q_CHANNEL], x, 0.0, dy.PER_ROW, phi)
    assert xt.tobytes() == x.tobytes() and not np.any(est)
    assert phis is None if phi is None else not np.any(phis)
    if not H.quadratic:
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            dy._flow(H, [DAMPING], x, 0.0, 0.0, phi)


def _names_read(path):
    """(module.function, every name and attribute it reads) for each function
    defined in the module at path, nested ones included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(f"{path.stem}.{fn.name}",
             {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(fn)
              if isinstance(n, (ast.Attribute, ast.Name))})
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]


def test_flow_owns_the_quadratic_fork():
    """_flow is the one transport: it reads H.quadratic and is the only
    caller of _dp54 in the package, and none of its callers reads the model
    kind or the flow's parts (the channels' gamma and noise, the centre map,
    the Gramian, the Dormand-Prince pass)."""
    package = pathlib.Path(dy.__file__).parent
    pairs = [pair for path in sorted(package.glob("*.py")) for pair in _names_read(path)]
    reads = dict(pairs)
    assert {"quadratic", "_dp54"} <= reads["dynamics._flow"]
    assert [name for name, names in pairs if "_dp54" in names] == ["dynamics._flow"]
    parts = {"quadratic", "total_gamma", "noise_matrix", "_centre_map", "_gramian", "_dp54"}
    for caller in ("dynamics.advect", "dynamics.decoherence_matrix",
                   "dynamics.evolve_chord_function", "lwc._window_branches"):
        assert "_flow" in reads[caller] and not reads[caller] & parts, caller


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", ["harmonic", "quartic"])
def test_advect_rejects_a_non_finite_time(family, t):
    """Before, each model kind failed with an unrelated error: an overflowing
    centre map, a nan or infinite step count."""
    from chordlab.curves import evolve_curve_classically, harmonic_circle

    H = dy.hamiltonians.registry[family]()
    with pytest.raises(ValueError, match="t must be finite, got"):
        dy.advect(H, None, np.array([[0.1, 0.2]]), t, 1e-2)
    with pytest.raises(ValueError, match="t must be finite, got"):
        evolve_curve_classically(harmonic_circle(0.5, 16), H, [Q_CHANNEL], t)


def test_diverging_flow_raises_once_without_numpy_warnings():
    """A quartic sample at q = 1e5 overflows within a few steps.  Every RK4
    caller raises FloatingPointError, and numpy's overflow and invalid-value
    warnings stay silent, since the per-step finiteness check catches them."""
    import warnings

    from chordlab.curves import harmonic_circle

    H = dy.hamiltonians.quartic()
    far = np.array([0.0, 1e5])
    curve = harmonic_circle(0.5 * 1e10, 8)  # radius 1e5
    calls = [lambda: dy.advect(H, None, far[None, :], 1.0, 1e-3),
             lambda: dy.decoherence_matrix(H, [Q_CHANNEL], far, 1.0),
             lambda: dy.evolve_chord_function(curve, H, [Q_CHANNEL], 1.0, hbar=HBAR)]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="diverged"):
                call()
    # a pumped harmonic flow: Phi overflows by t = 400 and the centres by t = 800
    H = dy.hamiltonians.harmonic()
    for t, what in ((400.0, "decoherence matrix"), (800.0, "centre flow")):
        calls = [lambda: dy.decoherence_matrix(H, [PUMP], np.zeros(2), t),
                 lambda: dy.evolve_chord_function(harmonic_circle(0.5, 16), H, [PUMP], t,
                                                  hbar=HBAR)]
        for call, match in zip(calls, ("decoherence matrix", what)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatingPointError, match=f"{match} overflows"):
                    call()


def test_batched_rk4_equals_per_sample_calls():
    """Rows of one batched flow equal the samples' own flows, for x, M and G,
    so a sample's chi term does not depend on the batch it flowed in."""
    ch = [DAMPING, Q_CHANNEL]
    gamma, lam = dy.total_gamma(ch), dy.noise_matrix(ch)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(7, 2))
    for name in ("quartic", "pendulum"):
        H = dy.hamiltonians.registry[name]()
        for t in (0.4, -0.4):
            batch = dy._dp54(H, gamma, x, t, 40, lam)
            for j in range(len(x)):
                one = dy._dp54(H, gamma, x[j:j + 1], t, 40, lam)
                for a, b in zip(batch, one):
                    assert np.max(np.abs(a[j] - b[0])) <= 1e-15 * np.max(np.abs(b[0]))
        batch = dy._dp54(H, gamma, x, 0.4, 40)
        assert batch[2] is None  # no Phi without the noise
        for j in range(len(x)):
            one = dy._dp54(H, gamma, x[j:j + 1], 0.4, 40)
            for a, b in zip(batch[:2], one[:2]):
                assert np.max(np.abs(a[j] - b[0])) <= 1e-15 * np.max(np.abs(b[0]))


def test_centre_trajectory_monodromy_dets():
    """Chord monodromy grows as exp(2 gamma t); the centre picture shrinks.
    Checked on the Dormand-Prince flow itself along the damped harmonic
    trajectory through (1, 0)."""
    H = dy.hamiltonians.harmonic()
    t = 2.0 * math.pi
    s, _, _ = dy._dp54(H, DAMPING.gamma, np.array([[1.0, 0.0]]), t, dy._steps_for(t, 1e-3),
                       DAMPING.noise)
    x, m = s[..., 0], s[0, :, 1:3]
    d_chord = np.linalg.det(m)
    d_centre = np.linalg.det(-J_MATRIX @ np.linalg.inv(m.T) @ J_MATRIX)
    assert abs(d_chord - math.exp(2.0 * t)) < 1e-6 * math.exp(2.0 * t)
    assert abs(d_centre - math.exp(-2.0 * t)) < 1e-12
    # full-turn rotation: monodromy is the pure scale factor
    assert np.max(np.abs(m - math.exp(t) * np.eye(2))) < 1e-6 * math.exp(t)
    assert np.max(np.abs(x[0] - [math.exp(-t), 0.0])) < 1e-12
    # no steps: the start point, M = I, G = Phi = 0 and no error
    s0, err0, phi0 = dy._dp54(H, DAMPING.gamma, np.array([[1.0, 0.0]]), 0.0, 0, DAMPING.noise)
    assert np.array_equal(s0[..., 0], [[1.0, 0.0]]) and np.array_equal(s0[..., 1:3], [np.eye(2)])
    assert np.array_equal(s0[..., 3:], np.zeros((1, 2, 2))) and np.array_equal(err0, [0.0])
    assert np.array_equal(phi0, np.zeros((1, 2, 2)))


def test_degenerate_times_and_steps_raise():
    """Negative evolution times and nonpositive steps fail loudly; quadratic
    models take closed forms and ignore dt."""
    from chordlab.curves import harmonic_circle

    curve = harmonic_circle(0.5, 64)
    x0 = np.array([[0.3, 0.2]])
    for H in (dy.hamiltonians.quartic(), dy.hamiltonians.harmonic()):
        with pytest.raises(ValueError, match="nonnegative"):
            dy.evolve_chord_function(curve, H, [Q_CHANNEL], -0.5, hbar=HBAR)
    with pytest.raises(ValueError, match="nonnegative"):
        dy.decoherence_matrix(dy.hamiltonians.zero(), None, np.zeros(2), -1.0, 1e-2)
    # a nan or infinite time is refused too, not turned into an all-nan Phi or chi
    for t in (math.nan, math.inf):
        for H in (dy.hamiltonians.quartic(), dy.hamiltonians.harmonic()):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                dy.evolve_chord_function(curve, H, [Q_CHANNEL], t, hbar=HBAR)
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                dy.decoherence_matrix(H, [Q_CHANNEL], np.zeros(2), t)
    H = dy.hamiltonians.pendulum()
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            dy.decoherence_matrix(H, [Q_CHANNEL], np.zeros(2), 0.5, dt=dt)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            dy.advect(H, None, x0, 0.5, dt)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            dy.evolve_chord_function(curve, H, None, 0.5, dt=dt, hbar=HBAR)
    H = dy.hamiltonians.harmonic()
    assert np.array_equal(dy.decoherence_matrix(H, [Q_CHANNEL], np.zeros(2), 0.5, dt=0.0).phi,
                          dy.decoherence_matrix(H, [Q_CHANNEL], np.zeros(2), 0.5).phi)
    assert np.array_equal(dy.advect(H, None, x0, 0.5, 0.0), dy.advect(H, None, x0, 0.5, 1e-3))


def _spy_steps(monkeypatch):
    """Record the step count of every run of the fixed-step loop."""
    log = []
    loop = dy._dp_steps

    def spy(field, s, k, h, steps, strict=True):
        log.append(steps)
        return loop(field, s, k, h, steps, strict)

    monkeypatch.setattr(dy, "_dp_steps", spy)
    return log


def test_default_flow_rows_equal_their_own_calls(monkeypatch):
    """At the default dt each row takes its own step count, and a row of a
    batch equals its one-row call bit for bit, for x, M, G and the estimate,
    with and without the chord monodromy."""
    ch = [DAMPING, Q_CHANNEL]
    gamma, lam = dy.total_gamma(ch), dy.noise_matrix(ch)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(7, 2))
    log = _spy_steps(monkeypatch)
    for name in ("quartic", "pendulum"):
        H = dy.hamiltonians.registry[name]()
        for t in (0.4, -0.4):
            for noise in (lam, None):
                del log[:]
                batch = dy._dp54(H, gamma, x, t, None, noise)
                assert len(set(log[1:])) >= 2  # after the trial, rows of different counts
                for j in range(len(x)):
                    one = dy._dp54(H, gamma, x[j:j + 1], t, None, noise)
                    assert np.array_equal(batch[0][j], one[0][0])
                    assert batch[1][j] == one[1][0]


@pytest.mark.parametrize("model", ["quartic", "pendulum"])
def test_default_flow_on_a_level_curve_takes_at_most_four_steps(model, monkeypatch):
    """On 320-sample level curves over t = 0.1 (the benchmark's transport),
    the default takes one to four steps a row where a 1e-2 step takes ten;
    chi passes its checks and sits within 1e-8 of 1/(2 pi hbar) of 200 steps."""
    from chordlab.curves import pendulum_level_curve, quartic_level_curve

    if model == "quartic":
        curve, ch = quartic_level_curve(0.3, samples=320), [dy.LindbladChannel((0.0, 1.2))]
    else:
        curve, ch = pendulum_level_curve(-0.6, samples=320), \
            [dy.LindbladChannel((0.0, 0.5), (0.5, 0.0))]
    H = dy.hamiltonians.registry[model]()
    t = 0.1
    ref = dy.evolve_chord_function(curve, H, ch, t, dt=t / 200, hbar=HBAR,
                                   convergence_check=False)
    log = _spy_steps(monkeypatch)
    chi = dy.evolve_chord_function(curve, H, ch, t, hbar=HBAR)
    assert log and max(log) <= 4
    assert not chi.warnings
    half = 7.44 * math.sqrt(2.0 * HBAR)
    xp, xq = CenteredGrid(half, half, 48, HBAR).meshgrid()
    assert np.max(np.abs(chi(xp, xq) - ref(xp, xq))) < 1e-8 / (2.0 * math.pi * HBAR)


def test_a_row_at_the_cap_gives_the_fixed_step_result(monkeypatch):
    """A row whose estimate stays above 1e-8 ends at the cap, ceil(t / 1e-2)
    steps, and gives the dt = 1e-2 call's Phi and note bit for bit: the
    quartic case whose true error is far below its estimate."""
    H = dy.hamiltonians.quartic()
    ch = [DAMPING, dy.LindbladChannel((0.0, 0.5))]
    log = _spy_steps(monkeypatch)
    with pytest.warns(ConvergenceWarning, match="error estimate for Phi"):
        got = dy.decoherence_matrix(H, ch, (0.9, 0.1), 2.0)
    assert log[-1] == 200
    with pytest.warns(ConvergenceWarning, match="error estimate for Phi"):
        want = dy.decoherence_matrix(H, ch, (0.9, 0.1), 2.0, dt=1e-2)
    assert np.array_equal(got.phi, want.phi) and got.warnings == want.warnings


def test_no_row_takes_more_steps_than_the_cap(monkeypatch):
    """Every run of the loop at the default takes at most ceil(|t| / 1e-2)
    steps, a span of at most 1e-2 takes one, and a flow that diverges raises
    at that cap as the fixed step does."""
    from chordlab.curves import harmonic_circle

    assert dy._steps_for(0.3, dy.PER_ROW) is None
    curve = harmonic_circle(0.5, 64)
    log = _spy_steps(monkeypatch)
    for name in ("quartic", "pendulum"):
        H = dy.hamiltonians.registry[name]()
        for t in (0.004, 0.01, 0.37, 1.0, 2.5):
            cap = math.ceil(t / 1e-2)
            for frame in ("final", "initial"):
                del log[:]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ConvergenceWarning)  # a row at its cap notes
                    dy.decoherence_matrix(H, [DAMPING, Q_CHANNEL], (0.9, 0.1), t, frame=frame)
                assert 1 <= max(log) <= cap
            del log[:]
            dy.evolve_chord_function(curve, H, [DAMPING], t, hbar=HBAR)
            assert 1 <= max(log) <= cap
            del log[:]
            dy.advect(H, None, curve.points, -t, dy.PER_ROW)
            assert 1 <= max(log) <= cap
    del log[:]
    with pytest.raises(FloatingPointError, match="diverged"):
        dy.advect(dy.hamiltonians.quartic(), None, np.array([[0.0, 0.5], [0.0, 1e5]]), 1.0,
                  dy.PER_ROW)
    assert log[-1] == 100


def test_each_row_group_starts_from_the_trial_first_stage(monkeypatch):
    """The field at the start point is taken once: the trial step makes 7
    field calls (that one and its six stages), and each later group of rows
    at n steps makes 6 n, its first stage sliced from the trial's.  A fixed
    count of n steps makes 6 n + 1."""
    import dataclasses

    quartic = dy.hamiltonians.quartic()
    calls = [0]

    def gradient(x):  # the field calls the gradient once
        calls[0] += 1
        return quartic.gradient(x)

    H = dataclasses.replace(quartic, gradient=gradient)
    runs = []  # (steps, field calls) of each run of the loop
    loop = dy._dp_steps

    def spy(field, s, k, h, steps, strict=True):
        before = calls[0]
        out = loop(field, s, k, h, steps, strict)
        runs.append((steps, calls[0] - before))
        return out

    monkeypatch.setattr(dy, "_dp_steps", spy)
    ch = [DAMPING, Q_CHANNEL]
    gamma, lam = dy.total_gamma(ch), dy.noise_matrix(ch)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(7, 2))
    for t in (0.4, -0.4):
        for noise in (lam, None):
            calls[0] = 0
            del runs[:]
            dy._dp54(H, gamma, x, t, None, noise)
            assert runs[0] == (1, 6) and len(runs) >= 3  # the trial, then two groups or more
            assert all(c == 6 * n for n, c in runs)
            assert calls[0] == 7 + sum(c for _, c in runs[1:])
    calls[0] = 0
    dy._dp54(H, gamma, x, 0.4, 40, lam)
    assert calls[0] == 6 * 40 + 1


# ---------------------------------------------------------------------------
# decoherence matrix


def test_phi_flat_damping_closed_form():
    """H = 0, gamma > 0: Phi = Lambda (1 - exp(-2 gamma t)) / (2 gamma)."""
    H = dy.hamiltonians.zero()
    for t in (0.2, 1.0, 3.0):
        dm = dy.decoherence_matrix(H, [DAMPING], np.zeros(2), t)
        want = 0.5 * (1.0 - math.exp(-2.0 * t)) * np.eye(2)
        assert np.max(np.abs(dm.phi - want)) < 1e-10
    assert dy.decoherence_matrix(H, [DAMPING], np.zeros(2), 0.0).det == 0.0


def test_phi_flat_pump_closed_form():
    H = dy.hamiltonians.zero()
    t = 0.5 * math.log(2.0)
    dm = dy.decoherence_matrix(H, [PUMP], np.zeros(2), t)
    want = 0.5 * (math.exp(2.0 * t) - 1.0) * np.eye(2)
    assert np.max(np.abs(dm.phi - want)) < 1e-10
    assert abs(dm.det - 0.25) < 1e-10


def test_phi_harmonic_position_channel_closed_form():
    """Rotation averages the position noise:

    Phi(t) = [[t/2 - sin(2t)/4, -sin(t)^2 / 2], [., t/2 + sin(2t)/4]],
    from integrating outer(R(sigma) e_q) over sigma.
    """
    H = dy.hamiltonians.harmonic()
    for t in (0.7, math.pi, 5.1):
        dm = dy.decoherence_matrix(H, [Q_CHANNEL], np.zeros(2), t)
        want = np.array([
            [0.5 * t - 0.25 * math.sin(2 * t), -0.5 * math.sin(t) ** 2],
            [-0.5 * math.sin(t) ** 2, 0.5 * t + 0.25 * math.sin(2 * t)],
        ])
        assert np.max(np.abs(dm.phi - want)) < 1e-8
    dm = dy.decoherence_matrix(H, [Q_CHANNEL], np.zeros(2), math.pi)
    assert np.max(np.abs(dm.phi - 0.5 * math.pi * np.eye(2))) < 1e-8


def test_phi_quadratic_and_rk4_paths_agree():
    """The same harmonic model with the quadratic flag off goes down the
    backward-RK4 path and must land on the closed-form value."""
    H = dy.hamiltonians.harmonic()
    H_slow = dy.HamiltonianModel(H.name, H.value, H.gradient, H.hessian,
                                 quadratic=False, params=H.params)
    anchor = np.array([0.4, -0.2])
    for frame in ("final", "initial"):
        for ch in ([DAMPING], [Q_CHANNEL], [DAMPING, Q_CHANNEL]):
            a = dy.decoherence_matrix(H, ch, anchor, 0.8, frame=frame).phi
            b = dy.decoherence_matrix(H_slow, ch, anchor, 0.8, frame=frame).phi
            assert np.max(np.abs(a - b)) < 1e-9


def test_decoherence_matrix_warns_on_coarse_dt():
    """A coarse step puts the pendulum's error estimate for Phi far above
    1e-8: the check warns once."""
    H = dy.hamiltonians.pendulum()
    anchor = np.array([0.9, 0.1])
    for frame in ("final", "initial"):
        with pytest.warns(ConvergenceWarning, match="error estimate for Phi"):
            dm = dy.decoherence_matrix(H, [Q_CHANNEL], anchor, 3.0, dt=0.5, frame=frame)
        assert len(dm.warnings) == 1


@pytest.mark.parametrize("model, anchor", [("harmonic", [1.0, 2.0, 3.0]),
                                           ("harmonic", [[1.0, 2.0], [3.0, 4.0]]),
                                           ("quartic", [math.nan, 0.1])])
def test_decoherence_matrix_checks_its_anchor(model, anchor):
    """The anchor is one finite point (p, q), checked before the t = 0 return
    and before any flow: not a 3-vector, a pair of points or a nan."""
    H = getattr(dy.hamiltonians, model)()
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="anchor"):
            dy.decoherence_matrix(H, [Q_CHANNEL], anchor, t)


@pytest.mark.parametrize("model", ["quartic", "pendulum"])
def test_non_quadratic_flow_matches_quarter_step(model):
    """Phi in both frames and the evolved chi pass the step's error check and
    sit within its 1e-8 of the same call at a quarter of the step."""
    from chordlab.curves import harmonic_circle

    H = dy.hamiltonians.registry[model]()
    ch = [DAMPING, Q_CHANNEL]
    anchor = np.array([0.4, -0.3])
    for frame in ("final", "initial"):
        dm = dy.decoherence_matrix(H, ch, anchor, 1.0, dt=1e-2, frame=frame)
        ref = dy.decoherence_matrix(H, ch, anchor, 1.0, dt=2.5e-3, frame=frame,
                                    convergence_check=False)
        assert not dm.warnings
        assert np.max(np.abs(dm.phi - ref.phi)) < 1e-8 * np.max(np.abs(ref.phi))
    curve = harmonic_circle(0.5, 64)
    xi = math.sqrt(HBAR) * np.array([0.3, -0.8, 1.4, 2.1])
    chi_fn = dy.evolve_chord_function(curve, H, ch, 1.0, dt=1e-2, hbar=HBAR)
    ref = dy.evolve_chord_function(curve, H, ch, 1.0, dt=2.5e-3, hbar=HBAR,
                                   convergence_check=False)(xi, xi[::-1])
    assert not chi_fn.warnings
    assert np.max(np.abs(chi_fn(xi, xi[::-1]) - ref)) < 1e-8 * np.max(np.abs(ref))


def _phi_reference(H, channels, anchor, t, frame):
    """Phi (or Phi_0) from scipy's DOP853 at rtol 1e-13: [x | M | G] integrated
    plainly, backward from the anchor for the final frame."""
    from scipy.integrate import solve_ivp

    gamma, lam = dy.total_gamma(channels), dy.noise_matrix(channels)
    span = -t if frame == "final" else t

    def rhs(_, y):
        x, m = y[:2], y[2:6].reshape(2, 2)
        dm = (J_MATRIX @ H.hessian(x) + gamma * np.eye(2)) @ m
        dg = math.copysign(1.0, span) * m.T @ lam @ m
        return np.concatenate([J_MATRIX @ H.gradient(x) - gamma * x, dm.ravel(), dg.ravel()])

    y0 = np.concatenate([anchor, np.eye(2).ravel(), np.zeros(4)])
    sol = solve_ivp(rhs, (0.0, span), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    return sol.y[6:, -1].reshape(2, 2)


@pytest.mark.parametrize("frame", ["final", "initial"])
@pytest.mark.parametrize("model", ["quartic", "pendulum"])
def test_step_error_estimate_errs_on_the_safe_side(model, frame):
    """The embedded 5(4) estimate is at least Phi's true error at steps 0.1,
    0.05 and 1e-2.  At 0.25, past the method's asymptotic range, it can fall
    below the true error (0.82 of it for the pendulum's final frame here),
    but both sit orders above 1e-8, so the check still warns."""
    H = dy.hamiltonians.registry[model]()
    ch = [DAMPING, Q_CHANNEL]
    anchors = np.array([[0.4, -0.3], [0.9, 0.1]])
    ref = np.array([_phi_reference(H, ch, a, 1.0, frame) for a in anchors])
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(1, 2)))
    for dt in (0.25, 0.1, 0.05, 1e-2):
        _, phis, errs = dy._flow(H, ch, anchors, -1.0 if frame == "final" else 1.0, dt, "start")
        true = np.max(np.abs(phis - ref), axis=(1, 2)) / scale
        if dt == 0.25:
            assert np.all(errs > 1e-6) and np.all(true > 1e-6)
        else:
            assert np.all(errs >= true), (dt, errs, true)


def test_evolve_chord_function_reports_the_step_error():
    """A quartic transport at a coarse step moves chi by ~1e-5 of its size;
    the convergence check reports the flow's error estimate, and stays
    silent at the default step."""
    from chordlab.curves import harmonic_circle

    curve = harmonic_circle(0.5, 64)
    H = dy.hamiltonians.quartic()
    ch = [dy.LindbladChannel((0.0, 0.5))]
    xi = math.sqrt(HBAR) * np.array([0.3, -0.8, 1.4, 2.1])
    ref = dy.evolve_chord_function(curve, H, ch, 1.0, dt=1e-3, hbar=HBAR,
                                   convergence_check=False)(xi, xi[::-1])
    with pytest.warns(ConvergenceWarning, match="the step's error estimate for Phi"):
        coarse = dy.evolve_chord_function(curve, H, ch, 1.0, dt=0.25, hbar=HBAR)
    assert len(coarse.warnings) == 1
    assert np.max(np.abs(coarse(xi, xi[::-1]) - ref)) > 1e-6 * np.max(np.abs(ref))
    assert not dy.evolve_chord_function(curve, H, ch, 1.0, dt=0.25, hbar=HBAR,
                                        convergence_check=False).warnings
    assert not dy.evolve_chord_function(curve, H, ch, 1.0, hbar=HBAR).warnings


def test_phi_initial_frame_is_transported_final_frame():
    """Phi_0(t) = M^T Phi(t) M with M = exp(t (J Hess H + gamma)); flat pump:
    Phi_0 = (1 - exp(-2t)) / 2, whose determinant stays below 1/4."""
    H = dy.hamiltonians.harmonic(0.7)
    t = 0.9
    for ch in ([DAMPING], [PUMP], [DAMPING, Q_CHANNEL]):
        gamma = dy.total_gamma(ch)
        m = scipy.linalg.expm(t * (J_MATRIX @ (0.7 * np.eye(2)) + gamma * np.eye(2)))
        phi = dy.decoherence_matrix(H, ch, np.zeros(2), t).phi
        phi0 = dy.decoherence_matrix(H, ch, np.zeros(2), t, frame="initial")
        assert phi0.frame == "initial"
        assert np.max(np.abs(phi0.phi - m.T @ phi @ m)) < 1e-10
    for t in (0.2, 1.0, 3.0):
        dm = dy.decoherence_matrix(dy.hamiltonians.zero(), [PUMP], np.zeros(2), t,
                                   frame="initial")
        assert np.max(np.abs(dm.phi - 0.5 * (1.0 - math.exp(-2.0 * t)) * np.eye(2))) < 1e-10
    with pytest.raises(ValueError):
        dy.decoherence_matrix(H, [PUMP], np.zeros(2), t, frame="middle")


def test_phi_long_time_saturates():
    """Final-frame damping and initial-frame pump both saturate at Lambda / 2;
    at t = 1000 the bare Van Loan block exponential would overflow."""
    H = dy.hamiltonians.zero()
    for ch, frame in (([DAMPING], "final"), ([PUMP], "initial")):
        dm = dy.decoherence_matrix(H, ch, np.zeros(2), 1000.0, frame=frame)
        assert np.max(np.abs(dm.phi - 0.5 * dy.noise_matrix(ch))) < 1e-12


def test_phi_anchor_independent_for_quadratic():
    H = dy.hamiltonians.harmonic(0.7)
    a = dy.decoherence_matrix(H, [DAMPING], np.zeros(2), 0.6).phi
    b = dy.decoherence_matrix(H, [DAMPING], np.array([2.0, -1.0]), 0.6).phi
    assert np.allclose(a, b)


@pytest.mark.parametrize("frame", ["final", "initial"])
def test_quadratic_phis_share_one_gramian(frame, monkeypatch):
    """A quadratic model has one chord generator, so a batch of anchors takes
    one block exponential and shares its one (2, 2) Phi, which is every
    anchor's decoherence_matrix."""
    H = dy.hamiltonians.harmonic(0.7)
    chans = [DAMPING, Q_CHANNEL]
    anchors = np.array([[0.0, 0.0], [2.0, -1.0], [-0.3, 0.5]])
    calls = []
    real = dy._gramian
    monkeypatch.setattr(dy, "_gramian", lambda *a: calls.append(a) or real(*a))
    _, phi, errs = dy._flow(H, chans, anchors, -0.6 if frame == "final" else 0.6, 1e-3, "start")
    assert len(calls) == 1 and errs.tolist() == [0.0] * 3 and phi.shape == (2, 2)
    for anchor in anchors:
        want = dy.decoherence_matrix(H, chans, anchor, 0.6, frame=frame).phi
        assert phi.tobytes() == want.tobytes()


def _lone_gramian(a, lam, t):
    """``_gramian`` at one time as written before it took arrays of times, the
    reference its scalar call and each stacked row must equal bit for bit."""
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
        return 0.5 * (phi + phi.T)


@pytest.mark.parametrize("model", ["harmonic", "free", "zero"])
@pytest.mark.parametrize("channels", [[DAMPING], [PUMP], [Q_CHANNEL], [DAMPING, Q_CHANNEL]],
                         ids=["damping", "pump", "q", "damping+q"])
@pytest.mark.parametrize("frame", ["final", "initial"])
def test_stacked_gramian_rows_are_the_scalar_calls(model, channels, frame):
    """Each row of _gramian over an array of times (ascending, as the CLI's
    positivity table, or not, zero included) is the scalar call at its time,
    bit for bit, and that is the lone-time formula's."""
    H = dy.hamiltonians.registry[model](**({"omega": 0.7} if model == "harmonic" else {}))
    a = dy._chord_generator(H, dy.total_gamma(channels))
    a = -a if frame == "final" else a
    lam = dy.noise_matrix(channels)
    rng = np.random.default_rng(5)
    for span in (0.05, 0.8, 6.0, 30.0):
        for times in (np.linspace(0.0, span, 65)[1:], np.r_[rng.uniform(0.0, span, 9), 0.0]):
            stacked = dy._gramian(a, lam, times)
            assert stacked.shape == (times.size, 2, 2)
            for t, phi in zip(times.tolist(), stacked):
                want = _lone_gramian(a, lam, t)
                assert dy._gramian(a, lam, t).tobytes() == want.tobytes()
                assert phi.tobytes() == want.tobytes()
    assert dy._gramian(a, lam, np.zeros(0)).shape == (0, 2, 2)


def test_stacked_gramian_overflow_raises_without_numpy_warnings():
    """A pumped harmonic Phi overflows by t = 400 (final frame): a times array
    that reaches it raises like the scalar call, with numpy silent."""
    a = -dy._chord_generator(dy.hamiltonians.harmonic(), dy.total_gamma([PUMP]))
    lam = dy.noise_matrix([PUMP])
    for t in (400.0, np.array([1.0, 400.0]), np.array([400.0, 1.0, 300.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="decoherence matrix overflows"):
                dy._gramian(a, lam, t)


def test_phi_symplectic_covariance():
    """Transporting channels and Hessian with l -> C^T l, S -> C^T S C maps
    Phi -> C^T Phi C (chords transform as xi = C xi~)."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        c = random_symplectic(rng, scale=0.6)
        s = rng.standard_normal((2, 2))
        s = s + s.T
        lre = rng.standard_normal(2)
        lim = rng.standard_normal(2)
        ch = dy.LindbladChannel(tuple(lre), tuple(lim))
        ch_t = dy.LindbladChannel(tuple(c.T @ lre), tuple(c.T @ lim))
        assert np.isclose(ch_t.gamma, ch.gamma)  # gamma is a symplectic invariant
        phi = dy.decoherence_matrix(quadratic_model(s), [ch], np.zeros(2), 0.5,
                                    convergence_check=False).phi
        phi_t = dy.decoherence_matrix(quadratic_model(c.T @ s @ c), [ch_t],
                                      np.zeros(2), 0.5, convergence_check=False).phi
        assert np.max(np.abs(phi_t - c.T @ phi @ c)) < 1e-7 * max(1.0, np.max(np.abs(phi)))


def test_phi_psd_and_monotone_without_damping():
    """Phi is PSD always; for gamma = 0 it is monotone in t (integrand PSD,
    no chord contraction fighting the growth)."""
    rng = np.random.default_rng(17)
    times = np.array([0.25, 0.5, 1.0, 2.0])
    for _ in range(25):
        s = rng.standard_normal((2, 2))
        s = s + s.T
        lre = rng.standard_normal(2)
        ch = dy.LindbladChannel(tuple(lre))  # Hermitian: gamma = 0
        H = quadratic_model(s)
        prev = np.zeros((2, 2))
        for t in times:
            phi = dy.decoherence_matrix(H, [ch], np.zeros(2), float(t),
                                        convergence_check=False).phi
            assert np.min(np.linalg.eigvalsh(phi)) > -1e-12
            assert np.min(np.linalg.eigvalsh(phi - prev)) > -1e-10
            prev = phi


# ---------------------------------------------------------------------------
# evolved chord functions


def test_damped_coherent_stays_coherent():
    """Damped harmonic evolution maps a coherent state to the coherent state
    at eta(t) = exp(-t) R(t) eta, exactly (quadratic transport)."""
    state = CoherentState((0.0, 1.0), HBAR)
    grid = CenteredGrid(2.0, 2.0, 128, HBAR)
    pp, qq = grid.meshgrid()
    w = coherent_wigner(state, pp, qq)
    t = 0.3
    chi_fn = dy.evolve_chord_function((w, grid), dy.hamiltonians.harmonic(),
                                      [DAMPING], t, dt=1e-3, convergence_check=False)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    eta_t = math.exp(-t) * rot @ np.array(state.eta)
    moved = CoherentState((eta_t[0], eta_t[1]), HBAR)
    xp = math.sqrt(HBAR) * np.array([0.0, 0.3, -0.9, 1.7, 2.5])
    xq = math.sqrt(HBAR) * np.array([0.0, -0.4, 1.1, 0.2, -2.0])
    got = chi_fn(xp, xq)
    want = coherent_chord_function(moved, xp, xq)
    scale = 1.0 / (2.0 * math.pi * HBAR)
    assert np.max(np.abs(got - want)) < 1e-8 * scale


def test_evolved_chord_shifted_oscillator_matches_rk4():
    """The shared quadratic flow against per-sample RK4 on the same model."""
    from chordlab.curves import harmonic_circle

    curve = harmonic_circle(0.5, 128)
    xi = math.sqrt(HBAR) * np.array([0.0, 0.3, -0.8, 1.4])
    vals = []
    for quadratic in (True, False):
        chi_fn = dy.evolve_chord_function(curve, shifted_oscillator(0.6, quadratic),
                                          [DAMPING, Q_CHANNEL], 0.5, dt=1e-3, hbar=HBAR,
                                          convergence_check=False)
        vals.append(chi_fn(xi, xi[::-1]))
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-12 / (2.0 * math.pi * HBAR)


def test_evolved_chord_zero_time_returns_input():
    state = CoherentState((0.2, -0.3), HBAR)
    grid = CenteredGrid(2.0, 2.0, 128, HBAR)
    pp, qq = grid.meshgrid()
    w = coherent_wigner(state, pp, qq)
    chi_fn = dy.evolve_chord_function((w, grid), dy.hamiltonians.zero(), None, 0.0)
    xp = np.array([0.0, 0.1, -0.2])
    xq = np.array([0.0, -0.05, 0.15])
    want = coherent_chord_function(state, xp, xq)
    assert np.max(np.abs(chi_fn(xp, xq) - want)) < 1e-8 / HBAR


def test_evolved_chord_curve_source_hermitian():
    from chordlab.curves import harmonic_circle

    curve = harmonic_circle(0.5, 512)
    chi_fn = dy.evolve_chord_function(curve, dy.hamiltonians.harmonic(), [Q_CHANNEL],
                                      0.4, dt=2e-3, hbar=HBAR, convergence_check=False)
    xi = math.sqrt(HBAR) * np.array([0.3, -0.8, 1.4])
    fwd = chi_fn(xi, xi[::-1])
    rev = chi_fn(-xi, -xi[::-1])
    assert np.max(np.abs(rev - np.conj(fwd))) < 1e-14 / HBAR
    assert chi_fn.samples == 512


def test_evolved_chord_warns_on_coarse_curve():
    from chordlab.curves import harmonic_circle

    curve = harmonic_circle(0.5, 16)
    with pytest.warns(ConvergenceWarning):
        dy.evolve_chord_function(curve, dy.hamiltonians.harmonic(), None, 0.1,
                                 dt=1e-2, hbar=HBAR)


def test_evolved_chord_check_reads_the_flowed_curve():
    """A curve source's check resamples the evolved endpoints and Phi
    trigonometrically, with no second flow: the 32-sample circle passes (a
    spline resample read 3.025e-06 there) and the 16-sample one still warns."""
    from chordlab.curves import harmonic_circle

    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        chi = dy.evolve_chord_function(harmonic_circle(0.5, 32), dy.hamiltonians.harmonic(),
                                       [Q_CHANNEL], 0.3, hbar=HBAR)
    assert chi.warnings == []
    with pytest.warns(ConvergenceWarning, match="sample count moves chi by 3.0"):
        dy.evolve_chord_function(harmonic_circle(0.5, 16), dy.hamiltonians.harmonic(),
                                 [Q_CHANNEL], 0.3, hbar=HBAR)


@pytest.mark.parametrize("model", ["quartic", "pendulum"])
def test_evolved_chord_check_leaves_chi_unchanged(model):
    """The convergence check reads the flowed samples and flows nothing of its
    own; chi and its terms are the same with and without the check."""
    from chordlab.curves import quartic_level_curve

    H = dy.hamiltonians.registry[model]()
    if model == "quartic":
        source = quartic_level_curve(0.3, samples=64)
    else:
        grid = CenteredGrid(1.6, 1.6, 48, HBAR)
        pp, qq = grid.meshgrid()
        source = (coherent_wigner(CoherentState((0.3, 0.5), HBAR), pp, qq), grid)
    kw = dict(dt=1e-2, hbar=HBAR)
    xi = math.sqrt(HBAR) * np.linspace(-2.0, 2.0, 9)
    xp, xq = np.meshgrid(xi, xi[::-1], indexing="ij")
    with_check = dy.evolve_chord_function(source, H, [DAMPING, Q_CHANNEL], 0.3, **kw)
    without = dy.evolve_chord_function(source, H, [DAMPING, Q_CHANNEL], 0.3,
                                       convergence_check=False, **kw)
    want = without(xp, xq)
    assert with_check.samples == without.samples
    assert all(np.array_equal(a, b) for a, b in zip(with_check.terms, without.terms))
    assert np.max(np.abs(with_check(xp, xq) - want)) <= 1e-15 * np.max(np.abs(want))


def test_evolved_chord_source_validation():
    with pytest.raises(TypeError):
        dy.evolve_chord_function(np.zeros((4, 4)), dy.hamiltonians.zero(), None, 0.1)
    grid = CenteredGrid(1.0, 1.0, 16, HBAR)
    with pytest.raises(ValueError):
        dy.evolve_chord_function((np.zeros((8, 8)), grid), dy.hamiltonians.zero(), None, 0.1)
    from chordlab.curves import harmonic_circle

    with pytest.raises(ValueError):  # curve sources need hbar
        dy.evolve_chord_function(harmonic_circle(0.5, 64), dy.hamiltonians.zero(),
                                 None, 0.1)
    for bad in (-0.05, 0.0, math.nan):  # before, -0.05 gave chi = -0.713 at (0.1, 0)
        with pytest.raises(ValueError, match="hbar must be finite and positive"):
            dy.evolve_chord_function(harmonic_circle(0.5, 64), dy.hamiltonians.harmonic(),
                                     [], 0.1, hbar=bad)
    # a grid source carries its hbar: another one given beside it raises
    # instead of being dropped, and the grid's own is accepted
    pp, qq = grid.meshgrid()
    source = (coherent_wigner(CoherentState((0.0, 0.2), HBAR), pp, qq), grid)
    H = dy.hamiltonians.harmonic()
    with pytest.raises(ValueError, match="differs from the grid"):
        dy.evolve_chord_function(source, H, None, 0.1, hbar=2.0 * HBAR)
    chi, ref = (dy.evolve_chord_function(source, H, None, 0.1, hbar=hbar,
                                         convergence_check=False) for hbar in (HBAR, None))
    assert chi.hbar == HBAR and np.array_equal(chi(0.1, 0.2), ref(0.1, 0.2))


@pytest.mark.parametrize("model", ["harmonic", "quartic"])
@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
def test_evolved_chord_grid_source_needs_finite_nonzero_values(model, bad):
    """A grid with a non-finite cell, or with no nonzero cell, raises one
    ValueError on the closed-form (harmonic) and the flowed (quartic) route;
    before, a nan or zero maximum kept no node, and the harmonic route
    returned an empty sum while the quartic one failed in numpy."""
    grid = CenteredGrid(1.0, 1.0, 16, HBAR)
    pp, qq = grid.meshgrid()
    values = coherent_wigner(CoherentState((0.0, 0.2), HBAR), pp, qq)
    if bad == 0.0:
        values[:] = 0.0
    else:
        values[3, 4] = bad
    with pytest.raises(ValueError, match="grid source values must be finite"):
        dy.evolve_chord_function((values, grid), getattr(dy.hamiltonians, model)(),
                                 [Q_CHANNEL], 0.1)


@pytest.mark.parametrize("model", ["quartic", "pendulum"])
def test_evolved_chord_outer_grid_series_matches_point_sum(model, monkeypatch):
    """Per-sample Phi on an outer grid goes through the Taylor series of the
    cross factor exp(g1 xi_p xi_q).  It agrees with the raveled chords, which
    are summed point by point, at X from about 0.5 to 5 and with either axis
    the narrower, and it is exact at xi = 0, where no term is cut."""
    from chordlab import grids
    from chordlab.curves import pendulum_level_curve, quartic_level_curve

    curve = (quartic_level_curve(0.3, samples=128) if model == "quartic"
             else pendulum_level_curve(-0.5, samples=128))
    chi_fn = dy.evolve_chord_function(curve, getattr(dy.hamiltonians, model)(), [Q_CHANNEL],
                                      0.5, hbar=HBAR, convergence_check=False)
    seen = []
    real = grids._series_terms

    def spy(gauss, col, row):
        x = np.max(np.abs(gauss[:, 1])) * np.max(np.abs(col)) * np.max(np.abs(row))
        seen.append((x, real(gauss, col, row)))
        return seen[-1][1]

    monkeypatch.setattr(grids, "_series_terms", spy)
    for half, a, b in [(0.5, 40, 30), (1.0, 30, 40), (1.4, 42, 8), (1.4, 8, 42)]:
        xp = grids._centred_axis(a, half / (a // 2))
        xq = grids._centred_axis(b, half / (b // 2))
        got = chi_fn(xp[:, None], xq[None, :])
        assert seen[-1][1] > 1
        mesh = np.meshgrid(xp, xq, indexing="ij")
        want = chi_fn(mesh[0].ravel(), mesh[1].ravel()).reshape(a, b)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert got[a // 2, b // 2] == 1.0 / (2.0 * np.pi * HBAR)  # 128 weights of 1/128
    xs = [x for x, _ in seen]
    assert min(xs) < 0.8 and max(xs) > 4.0


def test_evolved_chord_of_no_chords_is_empty():
    from chordlab.curves import quartic_level_curve

    chi_fn = dy.evolve_chord_function(quartic_level_curve(0.3, samples=64),
                                      dy.hamiltonians.quartic(), [Q_CHANNEL], 0.1, hbar=HBAR,
                                      convergence_check=False)
    for shape in ((0, 3), (3, 0), (0,)):
        got = chi_fn(np.zeros(shape), np.zeros(shape))
        assert got.shape == shape
    assert chi_fn(np.zeros((0, 1)), np.zeros((1, 3))).shape == (0, 3)


# ---------------------------------------------------------------------------
# positivity threshold


def test_positivity_time_pump():
    """The flat-model threshold ln(2)/2 belongs to damping: the Fock |1> parity
    1 - 2 exp(-2t) crosses zero there, while under the pump it never does
    (see the oracle test below)."""
    tp = dy.positivity_time(dy.hamiltonians.zero(), [DAMPING])
    assert abs(tp - 0.5 * math.log(2.0)) < 1e-12


def test_positivity_time_harmonic_position_channel():
    """Cross-check against the closed-form det Phi of the rotation-averaged
    position channel."""

    def det_phi(t):
        return (0.25 * t * t - (math.sin(2 * t) / 4.0) ** 2
                - (0.5 * math.sin(t) ** 2) ** 2) - 0.25

    want = brentq(det_phi, 0.5, 3.0, xtol=1e-12)
    tp = dy.positivity_time(dy.hamiltonians.harmonic(), [Q_CHANNEL])
    assert abs(tp - want) < 1e-6


def test_positivity_time_saturating_channels_raise():
    # a lone pump channel approaches det Phi_0 = 1/4 without crossing
    with pytest.raises(ValueError, match="too weak"):
        dy.positivity_time(dy.hamiltonians.zero(), [PUMP])
    # isotropic pairs saturate at the threshold too
    with pytest.raises(ValueError, match="too weak"):
        dy.positivity_time(dy.hamiltonians.zero(), [PUMP, PUMP])
    # rotation leaves the pump's limit X = 1/2 in place
    with pytest.raises(ValueError, match="too weak"):
        dy.positivity_time(dy.hamiltonians.harmonic(), [PUMP])
    # a lone Hermitian q-channel on the flat model: Phi_0 = diag(0, t), det = 0
    with pytest.raises(ValueError, match="too weak"):
        dy.positivity_time(dy.hamiltonians.zero(), [Q_CHANNEL])
    # saturating above 1/4 crosses: pump + q-channel gives
    # Phi_0 = (1 - exp(-2t)) diag(1, 2) / 2, det 1/4 at t = -ln(1 - 1/sqrt 2) / 2
    tp = dy.positivity_time(dy.hamiltonians.zero(), [PUMP, Q_CHANNEL])
    assert abs(tp - 0.6139735886497577) < 1e-12


def test_positivity_time_against_fock_parity_oracle():
    """pi hbar W(0) = sum_n (-1)^n rho_nn of an evolved |1>: under damping it
    is 1 - 2 exp(-2t) and crosses zero at ln(2)/2; under the pump it is
    -1 / (2 exp(2t) - 1)^2, negative for all t, so no threshold exists."""
    from chordlab.fock import (build_linear_lindblad, fock_density_matrix,
                               hamiltonian_matrix, lindblad_evolve)

    dim = 64
    t_half = 0.5 * math.log(2.0)
    h = hamiltonian_matrix(dy.hamiltonians.zero(), dim, HBAR)
    cases = ((DAMPING, 1.0 - 2.0 * math.exp(-2.0 * t_half)),
             (PUMP, -1.0 / (2.0 * math.exp(2.0 * t_half) - 1.0) ** 2))
    for channel, want in cases:
        rho = lindblad_evolve(fock_density_matrix(1, HBAR, dim), h,
                              [build_linear_lindblad(channel, HBAR, dim)], t_half, HBAR)
        pops = rho.populations()
        parity = float(np.sum(pops[0::2]) - np.sum(pops[1::2]))
        assert abs(parity - want) < 1e-14
    assert abs(dy.positivity_time(dy.hamiltonians.zero(), [DAMPING]) - t_half) < 1e-6
    with pytest.raises(ValueError, match="too weak"):
        dy.positivity_time(dy.hamiltonians.zero(), [PUMP])


def test_positivity_time_requires_quadratic():
    with pytest.raises(ValueError):
        dy.positivity_time(dy.hamiltonians.quartic(), [PUMP])
