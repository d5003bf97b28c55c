"""The benchmark workloads: seeded inputs, solves and their checks.

A mix is a family of solve kinds (oracle, transport, sweep, cli); a workload
runs two mixes together.  A solve is one pipeline of public chordlab calls
(or one in-process CLI call).  Its result is checked afterwards, outside the solve's timed span,
against a closed form or the number-basis oracle at the tolerance the tests
use for the same quantity.  A check is (name, error, tolerance, exact):
``exact`` marks errors measured against a closed form or the oracle, which
feed ``err_digits``; the others are sign and shape guards.

Each workload draws rounds of solves.  A round holds one solve of every
kind of its mixes, in a seeded order with seeded parameters, so every run sees the same
mix of kinds whatever its seed.  The seed moves the physics (states,
energies, channel directions, windows, probe points) freely, but the
parameters that set a solve's cost (grid sizes, basis sizes, sample counts,
integration times) only within a few percent, so run-to-run spread reflects
the program rather than the draw.  ``round_seconds`` is a round's nominal
time at the reference speed (see ``harness.calibrate``; 2 cores, one BLAS
thread), summed over the mixes of a workload; a run of S seconds holds
round(S / round_seconds) rounds, so the solve count, and with it the tail
percentile, does not depend on the program's speed.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0

import chordlab as cl
from chordlab import cli, fock

HBAR = 0.05
SCALE = 1.0 / (2.0 * math.pi * HBAR)  # chi(0): the scale the tests judge chord errors on


def _q_channel(c):
    return cl.LindbladChannel((0.0, c))


def _damping(c):
    return cl.LindbladChannel((0.0, c), (c, 0.0))


def _phi_harmonic_q(c, t):
    """Closed-form Phi(t) of the q-channel of strength c on the unit harmonic flow."""
    s2 = math.sin(2.0 * t) / 4.0
    pq = -0.5 * math.sin(t) ** 2
    return c * c * np.array([[0.5 * t - s2, pq], [pq, 0.5 * t + s2]])


def _tp_harmonic_q(c):
    """Root of det Phi(t) = 1/4 for the same channel."""
    return brentq(lambda t: np.linalg.det(_phi_harmonic_q(c, t)) - 0.25, 1e-3, 50.0,
                  xtol=1e-14)


def _rel(err, scale):
    return float(err) / float(scale)


def _eta(rng, r_lo, r_hi):
    r = rng.uniform(r_lo, r_hi)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return (r * math.cos(a), r * math.sin(a))


def _probe_chords(rng, n, radius):
    return [tuple(radius * math.sqrt(HBAR) * rng.uniform(-1.0, 1.0, 2)) for _ in range(n)]


# ---------------------------------------------------------------------------
# oracle: number-basis pipelines, no semiclassical transport


class Mix:
    """A family of solve kinds.  ``prepare`` turns a spec into the argument
    of ``solve`` before the clock starts; ``cleanup`` runs after the checks."""

    def prepare(self, sp):
        return sp

    def cleanup(self, arg):
        pass


class Oracle(Mix):
    """Number-basis pipelines in the style of criteria 2 and 8: Lindblad
    evolution under a Hermitian q-channel to between 1.1 and 1.2 t_p, exact
    Wigner and chord grids, the gridded correlation and its spectrum."""

    name = "oracle"
    kinds = ("number48", "number56", "coherent", "cat")
    round_seconds = 2.8

    def make(self, rng, kind, small=False):
        dim = 56 if kind == "number56" else 48
        spec = {"kind": kind, "dim": 40 if small else dim,
                "c": float(rng.uniform(0.95, 1.05)), "f": float(rng.uniform(1.1, 1.2)),
                "chord_points": 32 if small else 64, "wigner_points": 64 if small else 192,
                "half_width": 2.2, "dt": 4e-3}
        if kind.startswith("number"):
            spec["n"] = int(rng.integers(2, 5))
        else:
            spec["eta"] = _eta(rng, 0.2, 0.45)
        grid_idx = rng.integers(-10, 11, size=(6, 2))
        spec["probe_nodes"] = [tuple(int(v) for v in ij) for ij in grid_idx]
        if small:
            spec["f"] = 1.0
        return spec

    def solve(self, sp):
        H = cl.hamiltonians.harmonic()
        ch = _q_channel(sp["c"])
        tp = cl.positivity_time(H, [ch])
        dim = sp["dim"]
        if sp["kind"].startswith("number"):
            rho0 = cl.fock_density_matrix(sp["n"], HBAR, dim)
        elif sp["kind"] == "coherent":
            rho0 = cl.coherent_density_matrix(sp["eta"], HBAR, dim)
        else:
            rho0 = cl.cat_density_matrix(sp["eta"], HBAR, dim)
        h = cl.hamiltonian_matrix(H, dim, HBAR)
        l_ops = [cl.build_linear_lindblad(ch, HBAR, dim)]
        rho = cl.lindblad_evolve(rho0, h, l_ops, sp["f"] * tp, HBAR, dt=sp["dt"])
        hw = sp["half_width"]
        # the centre grid covers the whole truncated basis, so W's mass is all on it
        whw = math.sqrt(2.0 * HBAR * (dim + 1)) + 4.0 * math.sqrt(HBAR)
        wgrid = cl.CenteredGrid(whw, whw, sp["wigner_points"], HBAR)
        w = cl.wigner_exact(rho, wgrid)
        m = sp["chord_points"]
        cgrid = cl.CenteredGrid(hw, hw, m, HBAR)
        chi = cl.ChordFunction.from_grid(cl.chord_function_grid(rho, cgrid), cgrid)
        xi_q = cgrid.dq * (np.arange(m - 2) - (m - 2) // 2)  # off the unpaired -M/2 node
        q0 = sp["eta"][1] if "eta" in sp else 0.0
        sample = cl.lwc_from_chord(chi, cl.LwcWindow.canonical(q0, HBAR), xi_q)
        sd = cl.spectrum(sample)
        peaks = cl.fit_peaks(sd.p, sd.values)
        verdict = cl.resolution_verdict(peaks) if len(peaks) >= 2 else None
        return {"tp": tp, "rho": rho, "w": w, "wgrid": wgrid, "chi": chi,
                "peaks": peaks, "verdict": verdict}

    def check(self, sp, arg, out):
        rho, chi, w = out["rho"], out["chi"], out["w"]
        rep = rho.validate()
        m = chi.grid.points
        nodes = [(m // 2 + i, m // 2 + j) for i, j in sp["probe_nodes"]]
        xp = np.array([chi.grid.p_axis[i] for i, _ in nodes])
        xq = np.array([chi.grid.q_axis[j] for _, j in nodes])
        ref = fock.chord_function_exact(rho, xp, xq, method="displacement")
        got = np.array([chi.values[i, j] for i, j in nodes])
        g = out["wgrid"]
        checks = [
            ("trace", rep["trace_error"], 1e-8, True),
            ("leak", rep["leak_fraction"], 1e-6, False),
            ("chi0", _rel(abs(chi.values[m // 2, m // 2] - SCALE), SCALE), 1e-8, True),
            ("chi_vs_displacement", _rel(np.max(np.abs(got - ref)), SCALE), 1e-8, True),
            ("wigner_mass", abs(float(np.sum(w)) * g.dp * g.dq - 1.0), 1e-8, True),
            # t >= t_p with a Hermitian channel: every Wigner function is nonnegative
            ("wigner_positive", max(0.0, -float(w.min()) / float(w.max())), 1e-6, False),
        ]
        if sp["kind"].startswith("number"):
            pk = out["peaks"]
            split = len(pk) >= 2 and pk[0].position * pk[1].position < 0
            checks.append(("two_peaks_opposite_sign", 0.0 if split else 1.0, 0.0, False))
        return checks


# ---------------------------------------------------------------------------
# transport: semiclassical chord transport, no number-basis work


class Transport(Mix):
    """Semiclassical chord transport from a coherent Wigner grid or a sampled
    curve on harmonic, quartic and pendulum flows, evaluated on a chord grid
    and through the callable correlation route; plus the WKB circle state
    sampled on a chord grid."""

    name = "transport"
    kinds = ("wkb", "coherent", "circle", "quartic", "pendulum")
    round_seconds = 3.3

    def make(self, rng, kind, small=False):
        spec = {"kind": kind, "t": float(rng.uniform(0.09, 0.11)),
                "samples": 64 if small else 320, "chi_points": 16 if small else 48,
                "columns": 8,
                "probes": _probe_chords(rng, 6, 2.5)}
        if kind == "coherent":
            spec.update(eta=_eta(rng, 0.1, 0.5), c=float(rng.uniform(0.5, 1.0)),
                        grid_points=36)
        elif kind == "circle":
            spec.update(action=float(rng.uniform(0.3, 0.7)), c=float(rng.uniform(0.5, 1.5)))
        elif kind == "quartic":
            spec.update(energy=float(rng.uniform(0.15, 0.4)), c=float(rng.uniform(0.5, 1.5)))
        elif kind == "pendulum":
            spec.update(energy=float(rng.uniform(-0.8, -0.4)), c=float(rng.uniform(0.3, 0.7)))
        else:
            spec.update(action=float(rng.uniform(0.3, 0.7)),
                        samples=128 if small else 640, grid_points=32 if small else 128)
        return spec

    def _source(self, sp):
        kind = sp["kind"]
        if kind == "coherent":
            state = cl.CoherentState(sp["eta"], HBAR)
            half = 0.5 + 6.0 * math.sqrt(HBAR)  # |eta| <= 0.5; W < 1e-15 of its peak beyond
            grid = cl.CenteredGrid(half, half, sp["grid_points"], HBAR)
            pp, qq = grid.meshgrid()
            return (cl.coherent_wigner(state, pp, qq), grid), cl.hamiltonians.harmonic(), \
                [_damping(sp["c"])]
        if kind == "circle":
            return cl.harmonic_circle(sp["action"], sp["samples"]), \
                cl.hamiltonians.harmonic(), [_q_channel(sp["c"])]
        if kind == "quartic":
            return cl.quartic_level_curve(sp["energy"], samples=sp["samples"]), \
                cl.hamiltonians.quartic(), [_q_channel(sp["c"])]
        return cl.pendulum_level_curve(sp["energy"], samples=sp["samples"]), \
            cl.hamiltonians.pendulum(), [_damping(sp["c"])]

    def solve(self, sp):
        half = 7.44 * math.sqrt(2.0 * HBAR)  # the CLI's default chord half width
        if sp["kind"] == "wkb":
            curve = cl.harmonic_circle(sp["action"], sp["samples"])
            grid = cl.CenteredGrid(half, half, sp["grid_points"], HBAR)
            return {"chi": cl.wkb_chord(curve, HBAR).sample(grid)}
        source, H, chans = self._source(sp)
        chi = cl.evolve_chord_function(source, H, chans, sp["t"], hbar=HBAR)
        grid = cl.CenteredGrid(half, half, sp["chi_points"], HBAR)
        xp, xq = grid.meshgrid()
        values = chi(xp, xq)
        k = sp["columns"]
        xi_q = grid.dq * (np.arange(k) - k // 2)
        sample = cl.lwc_from_chord(chi, cl.LwcWindow.canonical(0.0, HBAR), xi_q,
                                   xi_p_points=1025)
        return {"chi": chi, "values": values, "grid": grid, "sd": cl.spectrum(sample)}

    def check(self, sp, arg, out):
        chi = out["chi"]
        if sp["kind"] == "wkb":
            g = chi.grid
            xp, xq = g.meshgrid()
            near = np.hypot(xp, xq) <= 2.5 * math.sqrt(HBAR)
            want = j0(math.sqrt(2.0 * sp["action"]) * np.hypot(xp, xq) / HBAR) * SCALE
            err = np.max(np.abs(chi.values[near] - want[near]))
            # row and column 0 hold the unpaired -M/2 node, which has no mirror image
            herm = np.max(np.abs(chi.values - np.conj(cl.reflect_values(chi.values)))[1:, 1:])
            return [("wkb_circle_bessel", _rel(err, SCALE), 1e-8, True),
                    ("hermiticity", _rel(herm, SCALE), 1e-12, True)]
        pr = np.array(sp["probes"])
        fwd = chi(pr[:, 0], pr[:, 1])
        rev = chi(-pr[:, 0], -pr[:, 1])
        g = out["grid"]
        c0 = out["values"][g.points // 2, g.points // 2]
        checks = [("hermiticity", _rel(np.max(np.abs(rev - np.conj(fwd))), SCALE), 1e-12, True),
                  ("chi0", _rel(abs(c0 - SCALE), SCALE), 1e-8, True)]
        if sp["kind"] == "coherent":
            t = sp["t"]
            gamma = sp["c"] ** 2
            rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            eta_t = math.exp(-gamma * t) * rot @ np.array(sp["eta"])
            moved = cl.CoherentState((eta_t[0], eta_t[1]), HBAR)
            want = cl.coherent_chord_function(moved, pr[:, 0], pr[:, 1])
            checks.append(("damped_coherent_transport",
                           _rel(np.max(np.abs(fwd - want)), SCALE), 1e-6, True))
        return checks


# ---------------------------------------------------------------------------
# sweep: many cheap semiclassical window solves and positivity thresholds


class Sweep(Mix):
    """Semiclassical window spectra of rings and level curves (criteria 5 and
    6, the CLI spectrum run) and positivity thresholds of Hermitian channels."""

    name = "sweep"
    kinds = ("ring_harmonic", "ring_zero", "quartic", "pendulum",
             "positivity_harmonic", "positivity_pq")
    round_seconds = 1.7

    def make(self, rng, kind, small=False):
        # positivity cost grows with t_p ~ 1/c^2, so those draw c near 1
        lo, hi = (0.9, 1.1) if kind.startswith("positivity") else (0.6, 1.4)
        spec = {"kind": kind, "c": float(rng.uniform(lo, hi))}
        if kind.startswith("ring"):
            action = float(rng.uniform(0.3, 0.7))
            r = math.sqrt(2.0 * action)
            spec.update(action=action, samples=256 if small else 512,
                        t=float(rng.uniform(0.6, 0.7)),
                        windows=[float(q) for q in r * rng.uniform(-0.6, 0.6, 1 if small else 2)])
        elif kind in ("quartic", "pendulum"):
            lo, hi = (0.15, 0.4) if kind == "quartic" else (-0.8, -0.4)
            # 512 samples keep the spline branches on the energy shell to 1e-9
            spec.update(energy=float(rng.uniform(lo, hi)), samples=512,
                        t=float(rng.uniform(0.09, 0.11)),
                        windows=[float(rng.uniform(-0.2, 0.2))])
        elif kind == "positivity_pq":
            spec["c_p"] = float(rng.uniform(0.9, 1.1))
        return spec

    def _curve(self, sp):
        kind = sp["kind"]
        if kind.startswith("ring"):
            H = cl.hamiltonians.harmonic() if kind == "ring_harmonic" else cl.hamiltonians.zero()
            return cl.harmonic_circle(sp["action"], sp["samples"]), H
        if kind == "quartic":
            return cl.quartic_level_curve(sp["energy"], samples=sp["samples"]), \
                cl.hamiltonians.quartic()
        return cl.pendulum_level_curve(sp["energy"], samples=sp["samples"]), \
            cl.hamiltonians.pendulum()

    def _phi_qq_floor(self, sp):
        """Lower bound on the sheared Phi_qq of every branch, which sizes the
        xi_q grid so that C decays to 1e-12 inside it (|slope| <= 0.8 here)."""
        if sp["kind"] == "ring_harmonic":
            phi = _phi_harmonic_q(sp["c"], sp["t"])
            return min(cl.shear_phi_qq(phi, s) for s in np.linspace(-0.8, 0.8, 33))
        return 0.5 * sp["c"] ** 2 * sp["t"]

    def solve(self, sp):
        if sp["kind"] == "positivity_harmonic":
            return {"tp": cl.positivity_time(cl.hamiltonians.harmonic(), [_q_channel(sp["c"])])}
        if sp["kind"] == "positivity_pq":
            chans = [cl.LindbladChannel((sp["c_p"], 0.0)), _q_channel(sp["c"])]
            return {"tp": cl.positivity_time(cl.hamiltonians.zero(), chans)}
        curve, H = self._curve(sp)
        chans = [_q_channel(sp["c"])]
        xi_q = cl.suggest_xi_q_grid(HBAR, envelope_sigma=math.sqrt(HBAR / self._phi_qq_floor(sp)))
        windows = []
        for q0 in sp["windows"]:
            window = cl.LwcWindow.canonical(q0, HBAR)
            sample = cl.lwc_sc_markov(curve, H, chans, sp["t"], window, xi_q)
            sd = cl.spectrum(sample)
            peaks = cl.fit_peaks(sd.p, sd.values)
            verdict = cl.resolution_verdict(peaks)
            closed = cl.sc_spectrum_closed_form(curve, H, chans, sp["t"], window, sd.p)
            windows.append((sample, sd, peaks, verdict, closed))
        return {"windows": windows}

    def check(self, sp, arg, out):
        kind = sp["kind"]
        if kind == "positivity_harmonic":
            want = _tp_harmonic_q(sp["c"])
            return [("positivity_time", _rel(abs(out["tp"] - want), want), 1e-6, True)]
        if kind == "positivity_pq":
            want = 1.0 / (2.0 * sp["c_p"] * sp["c"])
            return [("positivity_time", _rel(abs(out["tp"] - want), want), 1e-6, True)]
        checks = []
        for q0, (sample, sd, peaks, verdict, closed) in zip(sp["windows"], out["windows"]):
            br = sample.branches
            live = ~br.caustic
            if kind.startswith("ring"):
                want_p = math.sqrt(2.0 * sp["action"] - q0 * q0)
                err_p = np.max(np.abs(np.abs(br.p[live]) - want_p)) / want_p
                phi = (_phi_harmonic_q(sp["c"], sp["t"]) if kind == "ring_harmonic"
                       else sp["c"] ** 2 * sp["t"] * np.diag([0.0, 1.0]))
                want_qq = [cl.shear_phi_qq(phi, s) for s in br.slope[live]]
                got_qq = np.array(sample.phi_qq)[live]
                checks.append(("phi_qq_closed_form",
                               float(np.max(np.abs(got_qq - want_qq) / np.abs(want_qq))),
                               1e-6, True))
            else:
                # a Hermitian channel leaves the centre flow Hamiltonian: the
                # evolved curve stays on its energy shell
                H = cl.hamiltonians.registry[kind]()
                x = np.stack([br.p[live], np.full(int(live.sum()), q0)], axis=-1)
                err_p = np.max(np.abs(H(x) - sp["energy"])) / abs(sp["energy"])
            checks.append(("branch_momenta", float(err_p), 1e-8, True))
            top = float(np.max(closed.values))
            checks.append(("spectrum_vs_closed_form",
                           float(np.max(np.abs(sd.values - closed.values))) / top, 1e-10, True))
            dp = sd.p[1] - sd.p[0]
            want = sorted(pk.position for pk in closed.peaks)
            got = sorted(pk.position for pk in peaks[:len(want)])
            off = max(abs(a - b) for a, b in zip(got, want)) / dp if len(got) == len(want) else math.inf
            checks.append(("peak_positions_in_bins", off, 1.0, False))
        return checks


# ---------------------------------------------------------------------------
# cli: the user surface, one in-process chordlab.cli.run per solve


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line and not line.startswith("#"))


class Cli(Mix):
    """One in-process ``chordlab.cli.run`` per solve, with a generated config
    and a fresh output directory.  ``validate`` is left out: it has no size
    to set, and its one fixed 3,024-sample transport took 3.3 s to 5.3 s for
    the same input on a 2-core VM, which alone moved solves_per_s by a quarter."""

    name = "cli"
    kinds = ("coherent-demo", "evolve-chord", "spectrum", "positivity", "husimi",
             "lwc-closed-form", "lwc-direct")
    round_seconds = 1.6
    SIDECAR_KEYS = {"experiment", "schema_version", "hbar", "seed", "config", "warnings",
                    "result"}

    def __init__(self, scratch_dir):
        self.scratch = scratch_dir
        self.count = 0

    def make(self, rng, kind, small=False):
        eta = _eta(rng, 0.1, 0.5)
        lines = [f"hbar = {HBAR}"]
        exp = kind
        if kind == "coherent-demo":
            lines += [f"state.eta = {eta[0]!r} {eta[1]!r}",
                      f"grid.points = {64 if small else 192}"]
        elif kind == "evolve-chord":
            lines += ["state.family = circle", f"state.action = {rng.uniform(0.3, 0.7)!r}",
                      f"state.samples = {64 if small else 256}",
                      f"time.t = {rng.uniform(0.09, 0.11)!r}",
                      f"channel = 0 {rng.uniform(0.5, 1.5)!r} 0 0",
                      f"xi.points = {16 if small else 48}"]
        elif kind == "spectrum":
            action = rng.uniform(0.3, 0.7)
            c = rng.uniform(0.8, 1.4)
            t = rng.uniform(0.75, 0.85)
            lines += ["state.family = circle", f"state.action = {action!r}",
                      f"time.t = {t!r}", f"channel = 0 {c!r} 0 0", "lwc.route = sc-markov",
                      f"window.q = {0.5 * math.sqrt(2.0 * action) * rng.uniform(-1, 1)!r}",
                      f"xi.points = {256 if small else 1024}",
                      f"xi.half_width = {7.5 * math.sqrt(HBAR / (0.5 * c * c * t))!r}"]
        elif kind == "positivity":
            lines += [f"channel = 0 {rng.uniform(0.9, 1.1)!r} 0 0"]
        elif kind == "husimi":
            lines += ["state.family = fock", f"state.n = {int(rng.integers(0, 4))}",
                      f"fock.dim = {32 if small else 48}",
                      f"grid.points = {48 if small else 128}"]
        elif kind.startswith("lwc"):
            exp = "lwc"
            route = kind[4:]
            lines += [f"state.eta = {eta[0]!r} {eta[1]!r}", f"lwc.route = {route}",
                      f"xi.points = {128 if small else 1024}"]
            lines += [f"window.q = {rng.uniform(-0.4, 0.4)!r}"
                      for _ in range(1 if small else (3 if route == "closed-form" else 2))]
        return {"kind": kind, "experiment": exp, "config": "\n".join(lines) + "\n",
                "seed": int(rng.integers(0, 2**31))}

    def prepare(self, sp):
        """Write the config and make a fresh output directory (outside the timed span)."""
        self.count += 1
        out = os.path.join(self.scratch, f"solve-{self.count}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        path = os.path.join(out, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sp["config"])
        return [sp["experiment"], "--config", path, "--out", out, "--seed", str(sp["seed"])], out

    def solve(self, arg):
        return cli.run(arg[0])

    def cleanup(self, arg):
        shutil.rmtree(arg[1], ignore_errors=True)

    def check(self, sp, arg, code):
        out = arg[1]
        exp = sp["experiment"]
        checks = [("exit_code", float(code != 0), 0.0, False)]
        sidecar = os.path.join(out, f"{exp}.json")
        if code != 0 or not os.path.exists(sidecar):
            return checks
        with open(sidecar, encoding="utf-8") as fh:
            payload = json.load(fh)
        checks.append(("sidecar_keys", float(len(self.SIDECAR_KEYS - set(payload))), 0.0, False))
        res = payload["result"]
        cfg = payload["config"]
        rows = {}
        if exp == "coherent-demo":
            m = int(cfg["grid.points"])
            rows = {"wigner.csv": m * m, "chord.csv": m * m}
            scale = res["expected_chi_at_zero"]
            checks += [("chi_closed_form", res["chi_closed_form_error"] / scale,
                        1e-10 / scale, True),
                       ("round_trip", res["round_trip_error"] * math.pi * HBAR,
                        1e-12 * math.pi * HBAR, True),
                       ("chi0", abs(res["chi_at_zero"] / scale - 1.0), 1e-8, True)]
        elif exp == "evolve-chord":
            m = int(cfg["xi.points"])
            rows = {"chord.csv": m * m}
            checks += [("chi0", abs(res["chi_at_zero"] / SCALE - 1.0), 1e-8, True),
                       ("samples", float(res["samples"] != int(cfg["state.samples"])), 0.0,
                        False)]
        elif exp == "spectrum":
            rows = {"spectrum.csv": len(res["windows"]) * int(cfg["xi.points"])}
            dp = 2.0 * math.pi * HBAR / (2.0 * float(cfg["xi.half_width"]))
            for win in res["windows"]:
                want = sorted(pk["position"] for pk in win["closed_form_peaks"])
                got = sorted(pk["position"] for pk in win["peaks"][:len(want)])
                off = (max(abs(a - b) for a, b in zip(got, want)) / dp
                       if want and len(got) == len(want) else math.inf)
                checks.append(("peak_positions_in_bins", off, 1.0, False))
        elif exp == "positivity":
            rows = {"positivity.csv": 64}
            c = float(cfg["channel"][0].split()[1])
            want = _tp_harmonic_q(c)
            checks += [("positivity_time", abs(res["positivity_time"] - want) / want, 1e-6, True),
                       ("det_phi_at_tp", abs(res["det_phi_at_tp"] - 0.25) / 0.25, 1e-6, True)]
        elif exp == "husimi":
            m = int(cfg["grid.points"])
            rows = {"husimi.csv": m * m}
            checks += [("husimi_mass", abs(res["mass"] - 1.0), 1e-8, True),
                       ("husimi_nonnegative", max(0.0, -res["min_value"] / res["peak_value"]),
                        1e-6, False)]
        else:
            rows = {"lwc.csv": len(res["windows"]) * int(cfg["xi.points"])}
            eta = tuple(float(v) for v in cfg["state.eta"].split())
            state = cl.CoherentState(eta, HBAR)
            for win in res["windows"]:
                want = complex(cl.lwc_coherent_closed_form(
                    state, cl.LwcWindow.canonical(win["Q"], HBAR), 0.0))
                got = complex(win["c0_re"], win["c0_im"])
                checks.append(("c0_closed_form", abs(got - want), 1e-6, True))
        for fname, want_rows in rows.items():
            path = os.path.join(out, fname)
            got_rows = _rows(path) if os.path.exists(path) else -1
            checks.append((f"rows:{fname}", float(got_rows != want_rows), 0.0, False))
        return checks


class Workload:
    """Two mixes run together; kinds are named ``mix/kind``."""

    def __init__(self, name, *mixes):
        self.name = name
        self.mixes = {m.name: m for m in mixes}
        self.kinds = tuple(f"{m.name}/{k}" for m in mixes for k in m.kinds)
        self.round_seconds = sum(m.round_seconds for m in mixes)

    def make(self, rng, kind, small=False):
        mix, sub = kind.split("/")
        return dict(self.mixes[mix].make(rng, sub, small), mix=mix)


def make_workloads(scratch_dir):
    """The benchmark's workloads, two mixes each.  Pairing the mixes gives
    runs of many solves (63 and 156 in a 40-s run) while 48 runs still fit
    in under an hour."""
    return {w.name: w for w in (
        Workload("oracle-transport", Oracle(), Transport()),
        Workload("sweep-cli", Sweep(), Cli(scratch_dir)))}
