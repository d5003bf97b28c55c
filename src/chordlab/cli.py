"""Command line experiment runner.

    chordlab <experiment> --config FILE [--out DIR] [--seed N]
    chordlab --schema

Each experiment reads a flat key = value config, writes its CSV tables with
``gridio.write_table`` (header lines, ``# columns``, then rows in which
every number is its ``'%.17g' %`` text, computed a block of cells at a time
by gridio's numpy kernel for a number array) and a JSON sidecar with the echoed config, derived
quantities, and each warning raised during the run, once, in the order
raised.  Identical configs reproduce
byte-identical files at a fixed BLAS thread count (a threaded BLAS may sum in
another order).  A config key is valid when the run reads it: once the
experiment returns, the first entry no code path of the run read is a config
error, and no sidecar is written.

Exit codes: 0 success, 1 numerical failure (including a semiclassical
window where no branch survives), 2 bad usage or bad config.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import os
import sys
import warnings

import numpy as np

from . import dynamics, fock, gridio, husimi as husimi_mod, states
from .config import Config, ConfigError
from .curves import harmonic_circle, pendulum_level_curve, quartic_level_curve
from .dynamics import (LindbladChannel, decoherence_matrix, evolve_chord_function,
                       hamiltonians, noise_matrix, positivity_time, total_gamma)
from .grids import CenteredGrid, centre_from_chord, chord_from_centre
from .lwc import (LwcSample, LwcWindow, branch_lines, fit_peaks, lwc_coherent_closed_form,
                  lwc_direct, lwc_from_chord, resolution_verdict, spectrum, suggest_xi_q_grid)

__all__ = ["main", "run"]

_TABLE_SCHEMA = ("chordlab schema_version", gridio.SCHEMA_VERSION)
_CURVE_FAMILIES = ("circle", "quartic", "pendulum")
# model family -> the factory's parameters, each read as hamiltonian.<name>
_H_PARAMS = {fam: inspect.signature(factory).parameters
             for fam, factory in hamiltonians.registry.items()}

SCHEMA_TEXT = """\
chordlab config schema (flat key = value lines; '#' comments)
A key is valid when the run reads it: one that no code path of the run reads
is a config error (exit 2, no sidecar), reported after the run's own errors.

common keys
  hbar                float, default 0.05
  seed                int, default 0 (echoed; no experiment is stochastic)

evolution time (evolve-chord, lwc, spectrum, husimi)
  time.t              float >= 0, default 0: evolution time (at 0 nothing
                      evolves, and no other time or dynamics key is read)
  time.dt             float > 0, read only where a step is taken: the fixed
                      step of a non-quadratic model's Dormand-Prince flow
                      at time.t > 0 (evolve-chord, and the chord and
                      sc-markov routes of lwc and spectrum); absent, each
                      trajectory takes its own count of equal steps, at
                      most those of a 1e-2 step, as the library's default;
                      quadratic flows are exact, and husimi's number-basis
                      evolution takes no step

state selection (evolve-chord, lwc, spectrum, husimi)
  state.family        coherent | circle | quartic | pendulum | fock | cat
  state.eta           two floats "eta_p eta_q" (coherent, cat), default 0 0
  state.action        float (circle), default 0.5
  state.energy        float (quartic, pendulum level sets)
  state.a state.b     quartic potential coefficients, defaults 1, 0
  state.g             pendulum coefficient, default 1
  state.n             int (fock), 0 <= n < fock.dim, default 0
  fock.dim            int >= 1 (husimi), default 128: number-basis dimension
  state.samples       int, curve sample count (>= 8), default 1024

dynamics, channel included (positivity; evolve-chord, lwc, spectrum and
husimi at time.t > 0)
  hamiltonian.family  zero | free | harmonic | quartic | pendulum, default harmonic
  hamiltonian.omega   float, default 1 (harmonic)
  hamiltonian.mass    float, default 1 (free)
  hamiltonian.a hamiltonian.b  floats, defaults 1, 0 (quartic)
  hamiltonian.g       float, default 1 (pendulum)
  channel             repeatable, four floats "l'_p l'_q l''_p l''_q"

grids
  grid.points         int, even and >= 2, default 128 (256 for coherent-demo);
                      lwc and spectrum read it for the chord route's grid
  grid.half_width     float, default auto from the state
  xi.points           int, even and >= 2, default 1024: xi_q samples (for
                      evolve-chord, chord-grid points, default grid.points,
                      which is read for it only when xi.points is absent)
  xi.half_width       float, default auto

windows (lwc, spectrum)
  window.q            repeatable float: window centres (at least one); a
                      repeated centre is solved once and written once per
                      entry (0 and -0 are two centres); the direct route
                      reads every window from one table of position
                      slices, tabulated a block of columns at a time
  window.delta        float > 0, default sqrt(hbar); sc-berry has no window
  lwc.route           auto | closed-form | chord | direct | sc-berry |
                      sc-markov, default auto (closed-form or chord for
                      coherent states, by time.t; sc-markov for curves).
                      closed-form and direct need a coherent state at
                      time.t = 0; direct contracts the state's position
                      slices on one q axis over every window, from min
                      window.q - (6 delta + 1) to max window.q + (6 delta
                      + 1), 800 steps a window's span or steps of
                      delta / 2, whichever is finer (split where two
                      windows are more than 2 (6 delta + 1) apart).  The
                      sc routes sum one spectral line per classical branch
                      of a curve state (lwc.branch_lines): sc-berry (bare
                      branches) needs time.t = 0; sc-markov
                      evolves the curve to time.t (not at all at 0) and
                      widens each line by the window shear and the
                      channels' decoherence.  spectrum reports the closed-form peaks
                      of those same lines for sc-markov.

experiments
  coherent-demo   wigner.csv, chord.csv: coherent state round trip + errors
  evolve-chord    chord.csv: evolved chord function on a chord grid
  lwc             lwc.csv: windowed correlations C(xi_q, Q)
  spectrum        spectrum.csv: windowed momentum densities + peak tables
  positivity      positivity.csv: det Phi_0(t) curve (decoherence in the frame
                  of the transported initial state) and the threshold time
  husimi          husimi.csv: smoothed density of a number-basis state
  validate        validate.csv: built-in closed-form consistency checks
"""


def _jsonable(obj):
    """The payload with numpy values as Python ones and every non-finite float
    as null: RFC 8259 JSON has no NaN (a flagged peak's variance is nan)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


@contextlib.contextmanager
def _library_checks(*keys):
    """Report a ValueError of the library call inside as a ConfigError naming
    the config keys its arguments came from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{', '.join(keys)}: {exc}") from None


def _hamiltonian(cfg: Config):
    fam = cfg.str("hamiltonian.family", "harmonic", choices=hamiltonians.registry)
    params = {name: cfg.float(f"hamiltonian.{name}", p.default)
              for name, p in _H_PARAMS[fam].items()}
    with _library_checks(*(f"hamiltonian.{name}" for name in params)):
        return hamiltonians.registry[fam](**params)


def _channels(cfg: Config) -> list:
    return [LindbladChannel((v[0], v[1]), (v[2], v[3]))
            for v in cfg.vector_list("channel", 4)]


def _evolution(cfg: Config) -> tuple:
    """(t, model, channels) of a run that evolves its state to time.t >= 0.

    At t = 0 nothing evolves: no other time, model or channel key is read, and
    the zero model, exact there, comes back with no channels.  Otherwise the
    model and channels are read."""
    t = cfg.float("time.t", 0.0)
    if t < 0.0:
        raise ConfigError(f"time.t must be nonnegative, got {t:g}")
    if t == 0.0:
        return t, hamiltonians.zero(), []
    return t, _hamiltonian(cfg), _channels(cfg)


def _flow_step(cfg: Config, model) -> float:
    """time.dt, the fixed step of a non-quadratic model's Dormand-Prince flow,
    or the library's per-row default when it is absent; a quadratic flow is
    exact, reads none and takes no step."""
    dt = dynamics.PER_ROW if model.quadratic else cfg.float("time.dt", dynamics.PER_ROW)
    if dt <= 0.0:
        raise ConfigError(f"time.dt must be positive, got {dt:g}")
    return dt


def _state_family(cfg: Config) -> str:
    return cfg.str("state.family", "coherent",
                   choices={"coherent", "circle", "quartic", "pendulum", "fock", "cat"})


def _even_points(cfg: Config, key: str, default: int) -> int:
    points = cfg.int(key, default)
    if points < 2 or points % 2:
        raise ConfigError(f"{key} must be even and >= 2, got {points}")
    return points


def _curve(cfg: Config, family: str):
    samples = cfg.int("state.samples", 1024)
    if samples < 8:
        raise ConfigError(f"state.samples must be >= 8, got {samples}")
    if family == "circle":
        with _library_checks("state.action"):
            return harmonic_circle(cfg.float("state.action", 0.5), samples)
    if family == "quartic":
        with _library_checks("state.energy", "state.a", "state.b"):
            return quartic_level_curve(cfg.float("state.energy"), cfg.float("state.a", 1.0),
                                       cfg.float("state.b", 0.0), samples)
    with _library_checks("state.energy", "state.g"):
        return pendulum_level_curve(cfg.float("state.energy"), cfg.float("state.g", 1.0), samples)


def _eta(cfg: Config) -> tuple:
    """state.eta, the centre (eta_p, eta_q) of a coherent or cat state."""
    return cfg.floats("state.eta", 2, (0.0, 0.0))


def _half_width(cfg: Config, key: str) -> float:
    """A configured half width; 0, the default, asks for the automatic one."""
    half = cfg.float(key, 0.0)
    if half < 0.0:
        raise ConfigError(f"{key} must be positive, or 0 for the automatic width")
    return half


def _centre_grid(cfg: Config, hbar: float, points: int, family: str) -> CenteredGrid:
    """The grid.* centre grid for a state of the given number-basis or
    coherent family, the only ones centre grids are built for; the automatic
    half width pads the state by 8 sqrt(hbar)."""
    m = _even_points(cfg, "grid.points", points)
    half = _half_width(cfg, "grid.half_width")
    if not half:
        pad = 8.0 * math.sqrt(hbar)
        if family == "fock":
            half = math.sqrt(2.0 * hbar * (cfg.int("state.n", 0) + 1)) + pad
        else:
            half = max(map(abs, _eta(cfg))) + pad
    return CenteredGrid(half, half, m, hbar)


# ---------------------------------------------------------------------------
# experiments


def _coherent_round_trip(state: states.CoherentState, grid: CenteredGrid) -> tuple:
    """(W, chi, chord grid, chi error, round-trip error): a coherent W on the
    grid, its chord function by the grid transform, that chi's error against
    the closed form (on the chord axes as a column and a row) and W's error
    after the transform back."""
    w_vals = states.coherent_wigner(state, *grid.meshgrid())
    chi, cgrid = chord_from_centre(w_vals, grid)
    closed = states.coherent_chord_function(state, cgrid.p_axis[:, None], cgrid.q_axis[None, :])
    chi_err = np.max(np.abs(chi - closed))
    back, _ = centre_from_chord(chi, cgrid)
    return w_vals, chi, cgrid, float(chi_err), float(np.max(np.abs(back - w_vals)))


def _exp_coherent_demo(cfg: Config, out: str, hbar: float) -> dict:
    state = states.CoherentState(_eta(cfg), hbar)
    grid = _centre_grid(cfg, hbar, 256, "coherent")
    w_vals, chi, cgrid, chi_err, round_err = _coherent_round_trip(state, grid)
    gridio.save_grid_csv(os.path.join(out, "wigner.csv"), w_vals, grid, "centre")
    gridio.save_grid_csv(os.path.join(out, "chord.csv"), chi, cgrid, "chord")
    return {
        "chi_closed_form_error": chi_err,
        "round_trip_error": round_err,
        "chi_at_zero": float(np.real(chi[grid.points // 2, grid.points // 2])),
        "expected_chi_at_zero": 1.0 / (2.0 * math.pi * hbar),
    }


def _chord_source(cfg: Config, hbar: float):
    """Initial data for evolve_chord_function: Wigner grid or sampled curve."""
    fam = _state_family(cfg)
    if fam == "coherent":
        state = states.CoherentState(_eta(cfg), hbar)
        grid = _centre_grid(cfg, hbar, 128, fam)
        pp, qq = grid.meshgrid()
        return (states.coherent_wigner(state, pp, qq), grid)
    if fam in _CURVE_FAMILIES:
        return _curve(cfg, fam)
    raise ConfigError(f"state.family {fam!r} has no chord-transport source")


def _exp_evolve_chord(cfg: Config, out: str, hbar: float) -> dict:
    source = _chord_source(cfg, hbar)
    t, model, channels = _evolution(cfg)
    dt = _flow_step(cfg, model)
    # grid.points stands in for an absent xi.points (a coherent source reads it anyway)
    m = _even_points(cfg, "grid.points" if cfg.int("xi.points", None) is None else "xi.points",
                     128)
    chi_fn = evolve_chord_function(source, model, channels, t, dt=dt, hbar=hbar)
    half = _half_width(cfg, "xi.half_width") or 7.44 * math.sqrt(2.0 * hbar)
    cgrid = CenteredGrid(half, half, m, hbar)
    xp, xq = cgrid.meshgrid()
    vals = chi_fn(xp, xq)
    gridio.save_grid_csv(os.path.join(out, "chord.csv"), vals, cgrid, "chord")
    return {
        "gamma": total_gamma(channels),
        "time": t,
        "samples": chi_fn.samples,
        "chi_at_zero": float(np.real(vals[m // 2, m // 2])),
    }


def _xi_grid(cfg: Config, hbar: float) -> np.ndarray:
    pts = _even_points(cfg, "xi.points", 1024)
    half = _half_width(cfg, "xi.half_width")
    if half:
        return CenteredGrid(half, half, pts, hbar).q_axis
    with _library_checks("xi.points"):
        return suggest_xi_q_grid(hbar, points=pts)


def _pick_route(cfg: Config, fam: str, t: float) -> str:
    route = cfg.str("lwc.route", "auto",
                    choices={"auto", "closed-form", "chord", "direct",
                             "sc-berry", "sc-markov"})
    if route != "auto":
        return route
    if fam == "coherent":
        return "closed-form" if t == 0.0 else "chord"
    if fam in _CURVE_FAMILIES:
        return "sc-markov"
    raise ConfigError(f"no lwc route for state.family {fam!r}")


def _lwc_samples(cfg: Config, hbar: float):
    """Shared by the lwc and spectrum experiments: the route and one (Q, sample) per window.q."""
    fam = _state_family(cfg)
    t, model, channels = _evolution(cfg)
    dt = _flow_step(cfg, model)  # at t > 0 only the chord and sc-markov routes run
    q_centres = cfg.float_list("window.q")
    if not q_centres:
        raise ConfigError("need at least one window.q")
    route = _pick_route(cfg, fam, t)
    delta = 0.0  # sc-berry: the t = 0 lines at window width 0, with no window
    if route != "sc-berry":
        delta = cfg.float("window.delta", math.sqrt(hbar))
        if delta <= 0:
            raise ConfigError(f"window.delta must be positive, got {delta:g}")
    xi_q = _xi_grid(cfg, hbar)
    # each distinct centre once, in first-appearance order; 0 and -0 stay apart
    keys = list(dict.fromkeys((q0, math.copysign(1.0, q0)) for q0 in q_centres))
    windows = [LwcWindow(q0, delta, hbar) if delta else None for q0, _ in keys]
    # the route is taken once: its branch builds every distinct window's sample
    if route in ("closed-form", "direct"):
        if fam != "coherent" or t != 0.0:
            raise ConfigError(f"route {route!r} needs state.family = coherent and time.t = 0")
        coh = states.CoherentState(_eta(cfg), hbar)
        if route == "closed-form":
            solved = dict(zip(keys, [LwcSample(xi_q, lwc_coherent_closed_form(coh, w, xi_q), w,
                                               []) for w in windows]))
        else:
            # windows whose spans Q +- (6 Delta + 1) overlap share one q axis, of
            # 800 steps a span and steps <= Delta / 2, so each block of their slices
            # is tabulated once; a wider gap between two would be tabulated for neither
            span = 6.0 * delta + 1.0
            solved = {}
            order = np.array(sorted(keys))  # (Q, sign of Q) rows by Q
            for group in np.split(order, np.flatnonzero(np.diff(order[:, 0]) > 2.0 * span) + 1):
                lo, hi = group[0, 0] - span, group[-1, 0] + span
                steps = max(400.0 * (hi - lo) / span, 2.0 * (hi - lo) / delta)
                q_axis = np.linspace(lo, hi, 1 + math.ceil(steps - 1e-9))
                slices = functools.partial(states.coherent_position_slices, coh, q_axis)
                solved.update(zip(map(tuple, group.tolist()), lwc_direct(
                    slices, q_axis, xi_q, [LwcWindow(q0, delta, hbar) for q0 in group[:, 0].tolist()],
                    xi_q)))
    elif route == "chord":
        chi_fn = evolve_chord_function(_chord_source(cfg, hbar), model, channels, t, dt=dt,
                                       hbar=hbar)
        solved = dict(zip(keys, [lwc_from_chord(chi_fn, w, xi_q) for w in windows]))
    else:
        if fam not in _CURVE_FAMILIES:
            raise ConfigError(f"route {route!r} needs a curve state")
        if route == "sc-berry" and t != 0.0:
            raise ConfigError(f"route {route!r} needs time.t = 0; use sc-markov to evolve")
        # one branch pass serves every window
        lines = branch_lines(_curve(cfg, fam), [q0 for q0, _ in keys], hbar, delta, model,
                             channels, t, dt)
        solved = dict(zip(keys, [rec.sample(xi_q, w) for rec, w in zip(lines, windows)]))
    samples = [(q0, solved[q0, math.copysign(1.0, q0)]) for q0 in q_centres]  # config order
    for q0, sample in samples:
        if route.startswith("sc") and not sample.lines.p.size:
            raise RuntimeError(f"no semiclassical branch survives in the window at "
                               f"Q = {q0:g} ({'; '.join(sample.warnings)})")
    return route, samples


def _exp_lwc(cfg: Config, out: str, hbar: float) -> dict:
    route, samples = _lwc_samples(cfg, hbar)
    info = []
    for q0, sample in samples:
        c0 = sample.c0()
        entry = {"Q": q0, "c0_re": c0.real, "c0_im": c0.imag}
        if sample.branches is not None and len(sample.branches):
            entry["branch_momenta"] = [float(p) for p in sample.branches.p]
        info.append(entry)
    gridio.write_table(
        os.path.join(out, "lwc.csv"), [_TABLE_SCHEMA, ("experiment", "lwc"), ("route", route)],
        ["Q", "xi_q", "re", "im"],
        np.vstack([np.column_stack([np.full(len(s.xi_q), q0), s.xi_q, s.values.real,
                                    s.values.imag]) for q0, s in samples]))
    return {"route": route, "windows": info}


def _peak_records(peaks) -> list:
    return [{"position": pk.position, "height": pk.height, "variance": pk.variance,
             "flagged": pk.flagged} for pk in peaks]


def _exp_spectrum(cfg: Config, out: str, hbar: float) -> dict:
    route, samples = _lwc_samples(cfg, hbar)
    tables, info = [], []
    for q0, sample in samples:
        with _library_checks("xi.points"):
            sd = spectrum(sample, hbar)
        tables.append(np.column_stack([np.full(len(sd.p), q0), sd.p, sd.values]))
        peaks = fit_peaks(sd.p, sd.values, 1e-2)
        entry = {"Q": q0, "imag_residue": sd.imag_residue,
                 "peaks": _peak_records(peaks[:6])}
        if len(peaks) >= 2:
            v = resolution_verdict(peaks)
            entry["resolved"] = v.resolved
            entry["separation"] = v.separation
            entry["widths"] = list(v.widths)
        if route == "sc-markov":
            sc = sample.lines.spectrum(sd.p)
            entry["closed_form_peaks"] = _peak_records(sc.peaks)
            if len(sc.peaks) >= 2:
                v = resolution_verdict(list(sc.peaks))
                entry["closed_form_resolved"] = v.resolved
        info.append(entry)
    gridio.write_table(os.path.join(out, "spectrum.csv"),
                       [_TABLE_SCHEMA, ("experiment", "spectrum"), ("route", route)],
                       ["Q", "p", "s"], np.vstack(tables))
    return {"route": route, "windows": info}


def _exp_positivity(cfg: Config, out: str, hbar: float) -> dict:
    model, channels = _hamiltonian(cfg), _channels(cfg)
    if not model.quadratic:
        raise ConfigError(f"hamiltonian.family {model.name!r}: positivity needs a quadratic model")
    if not channels:
        raise ConfigError("positivity needs at least one channel")
    tp = positivity_time(model, channels)
    # Phi_0 at the 64 rows' times and at t_p from one stacked Gramian, each bit
    # for bit the one decoherence_matrix(..., frame="initial") gives at its time
    times = np.append(np.linspace(0.0, 2.0 * tp, 65)[1:], tp)
    phi = dynamics._gramian(dynamics._chord_generator(model, total_gamma(channels)),
                            noise_matrix(channels), times)
    det = np.linalg.det(phi)
    gridio.write_table(os.path.join(out, "positivity.csv"),
                       [_TABLE_SCHEMA, ("experiment", "positivity")],
                       ["t", "det_phi", "phi_pp", "phi_pq", "phi_qq"],
                       np.column_stack([times, det, phi.reshape(-1, 4)[:, [0, 1, 3]]])[:-1])
    return {
        "positivity_time": tp,
        "gamma": total_gamma(channels),
        "det_phi_at_tp": float(det[-1]),
        "hbar": hbar,
    }


def _fock_state(cfg: Config, hbar: float, dim: int) -> fock.FockDensityMatrix:
    fam = _state_family(cfg)
    if fam in ("coherent", "cat"):
        build = fock.coherent_density_matrix if fam == "coherent" else fock.cat_density_matrix
        with _library_checks("state.eta", "fock.dim"):
            return build(_eta(cfg), hbar, dim)
    if fam == "fock":
        n = cfg.int("state.n", 0)
        if not 0 <= n < dim:
            raise ConfigError(f"state.n must be in [0, fock.dim) = [0, {dim}), got {n}")
        return fock.fock_density_matrix(n, hbar, dim)
    raise ConfigError(f"state.family {fam!r} is not number-basis representable here")


def _exp_husimi(cfg: Config, out: str, hbar: float) -> dict:
    dim = cfg.int("fock.dim", 128)
    if dim < 1:
        raise ConfigError(f"fock.dim must be >= 1, got {dim}")
    rho = _fock_state(cfg, hbar, dim)
    t, model, channels = _evolution(cfg)
    if t:
        rho = fock.evolve_state(rho, model, channels, t)
    grid = _centre_grid(cfg, hbar, 128, _state_family(cfg))
    w_vals = fock.wigner_exact(rho, grid)
    h_vals = husimi_mod.husimi_from_wigner(w_vals, grid)
    gridio.save_grid_csv(os.path.join(out, "husimi.csv"), h_vals, grid, "husimi")
    peak = int(np.argmax(h_vals))
    i, j = divmod(peak, grid.points)
    return {
        "dim": dim,
        "mass": float(np.sum(h_vals) * grid.dp * grid.dq),
        "peak_value": float(h_vals[i, j]),
        "peak_p": float(grid.p_axis[i]),
        "peak_q": float(grid.q_axis[j]),
        "min_value": float(np.min(h_vals)),
    }


def _exp_validate(cfg: Config, out: str, hbar: float) -> dict:
    checks = []

    state = states.CoherentState((0.3, -0.4), hbar)
    grid = CenteredGrid(2.5, 2.5, 128, hbar)
    w_vals, _, _, chi_err, round_err = _coherent_round_trip(state, grid)
    checks += [("coherent_chord_fft", chi_err, 1e-10), ("grid_round_trip", round_err, 1e-12)]

    damping = LindbladChannel((0.0, 1.0), (1.0, 0.0))
    model = hamiltonians.harmonic()
    tt = 0.3
    chi_fn = evolve_chord_function((w_vals, grid), model, [damping], tt)
    rot = np.array([[math.cos(tt), -math.sin(tt)], [math.sin(tt), math.cos(tt)]])
    eta_t = math.exp(-tt) * rot @ np.array(state.eta)
    moved = states.CoherentState((eta_t[0], eta_t[1]), hbar)
    probe = math.sqrt(hbar) * np.array([0.25, 0.8, 1.5, 2.2])
    got = chi_fn(probe, probe[::-1])
    want = states.coherent_chord_function(moved, probe, probe[::-1])
    checks.append(("damped_coherent_transport",
                   float(np.max(np.abs(got - want))) * 2.0 * math.pi * hbar, 1e-6))

    qchan = LindbladChannel((0.0, 1.0), (0.0, 0.0))
    dm = decoherence_matrix(model, [qchan], np.zeros(2), math.pi)
    checks.append(("phi_harmonic_pi",
                   float(np.max(np.abs(dm.phi - 0.5 * math.pi * np.eye(2)))), 1e-8))

    tp = positivity_time(hamiltonians.zero(), [damping])
    checks.append(("positivity_time_damping", abs(tp - 0.5 * math.log(2.0)), 1e-6))

    window = LwcWindow.canonical(0.2, hbar)
    xi_q = suggest_xi_q_grid(hbar, points=512)
    closed = lwc_coherent_closed_form(state, window, xi_q)
    via_chord = lwc_from_chord(states.coherent_chord(state), window, xi_q)
    checks.append(("lwc_routes_coherent",
                   float(np.max(np.abs(closed - via_chord.values))), 1e-8))

    h_direct = husimi_mod.husimi_from_wigner(w_vals, grid)
    h_closed = states.coherent_husimi(state, *grid.meshgrid())
    checks.append(("husimi_smoothing",
                   float(np.max(np.abs(h_direct - h_closed))) * 2.0 * math.pi * hbar,
                   1e-6))

    rows = [(name, err, tol, "1" if err <= tol else "0")
            for name, err, tol in checks]
    gridio.write_table(os.path.join(out, "validate.csv"),
                       [_TABLE_SCHEMA, ("experiment", "validate")],
                       ["check", "error", "tol", "passed"], rows)
    failures = [name for name, err, tol, ok in rows if ok == "0"]
    if failures:
        raise RuntimeError("validation failed: " + ", ".join(failures))
    return {"checks": [{"name": n, "error": e, "tol": tol} for n, e, tol in checks],
            "failures": failures}


_EXPERIMENTS = {
    "coherent-demo": _exp_coherent_demo,
    "evolve-chord": _exp_evolve_chord,
    "lwc": _exp_lwc,
    "spectrum": _exp_spectrum,
    "positivity": _exp_positivity,
    "husimi": _exp_husimi,
    "validate": _exp_validate,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it
    as it was, so every ``run`` shares it."""
    parser = argparse.ArgumentParser(
        prog="chordlab",
        description="phase-space experiments for open quantum evolution")
    parser.add_argument("--schema", action="store_true",
                        help="print the config schema and exit")
    sub = parser.add_subparsers(dest="experiment")
    for name in _EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=(name != "validate"),
                        help="path to a key = value config file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed (echoed in the sidecar)")
    return parser


def _config_error(path, exc: ConfigError) -> int:
    where = f"{path}:{exc.line}" if exc.line else (path or "config")
    print(f"chordlab: {where}: {exc.message}", file=sys.stderr)
    return 2


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        print(SCHEMA_TEXT, end="")
        return 0
    if not args.experiment:
        parser.print_usage(sys.stderr)
        return 2

    try:
        if getattr(args, "config", None):
            cfg = Config.load(args.config)
        else:
            cfg = Config.from_text("")
        hbar = cfg.float("hbar", 0.05)
        if hbar <= 0:
            raise ConfigError("hbar must be positive")
        seed = cfg.int("seed", 0)  # parsed even where --seed overrides it
    except FileNotFoundError as exc:
        print(f"chordlab: config file not found: {exc.filename}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        return _config_error(args.config, exc)

    out = args.out
    os.makedirs(out, exist_ok=True)
    sidecar = os.path.join(out, f"{args.experiment}.json")
    if os.path.exists(sidecar):  # a failed run leaves no sidecar beside its tables
        os.remove(sidecar)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _EXPERIMENTS[args.experiment](cfg, out, hbar)
            cfg.check_all_read()
    except ConfigError as exc:
        return _config_error(args.config, exc)
    except Exception as exc:  # numerical failure: report, nonzero exit
        unread = ", ".join(f"{e.key} (line {e.line})" for e in cfg.unread())
        print(f"chordlab: {args.experiment}: {exc}"
              + (f"; config entries not read before the failure: {unread}" if unread else ""),
              file=sys.stderr)
        return 1

    payload = {
        "experiment": args.experiment,
        "schema_version": gridio.SCHEMA_VERSION,
        "hbar": hbar,
        "seed": seed if args.seed is None else args.seed,
        "config": cfg.echo(),
        # each message once, in the order first raised
        "warnings": list(dict.fromkeys(f"{w.category.__name__}: {w.message}"
                                       for w in caught)),
        "result": result,
    }
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
