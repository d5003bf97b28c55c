"""Span tracer that wraps chordlab's public functions from outside the package.

Installing the tracer replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent, solve id), in
the defining module and in every chordlab module that rebound the same
function object with ``from ... import``.  Calls between package modules,
and calls a module makes to its own public functions, therefore open nested
spans, so self time can be attributed per function and per module.
Uninstalling restores the original objects, so an untraced solve runs the
unmodified package.

Spans stay in memory and are written out once, at the end of the run.
Work counters are derived at the same boundaries from the call arguments
and results; the ones marked *computed* are sizes, not measurements.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import os
import sys
import time
import types
import warnings
from collections import defaultdict

import numpy as np

LAYERS = ("grids", "chordfn", "states", "curves", "dynamics", "lwc", "husimi",
          "fock", "gridio", "config", "cli", "diagnostics")
WARNING_CATEGORIES = ("ConvergenceWarning", "TruncationWarning", "GridDomainWarning")
_SELF_TIMED = ("fock.lindblad_evolve", "fock.position_density_matrix",
               "fock.chord_function_grid", "fock.chord_function_exact",
               "fock.wigner_exact", "dynamics.evolve_chord_function",
               "dynamics.chi_eval", "states.wkb_short_chord_function",
               "lwc.lwc_from_chord", "dynamics.decoherence_matrix",
               "dynamics.positivity_time", "dynamics.advect",
               "curves.level_curve", "curves.evolve_curve_classically", "curves.branches_at",
               "lwc.lwc_sc_markov", "lwc.sc_spectrum_closed_form", "lwc.spectrum",
               "lwc.fit_peaks", "grids.chord_from_centre", "grids.centre_from_chord",
               "husimi.husimi_from_wigner", "husimi.husimi_from_lwc",
               "chordfn.sample", "gridio.save_grid_csv", "cli.run", "config.load")
_COUNTED = (  # name, unit, better
    ("fock.lindblad_evolve.steps", "count/solve", "lower"),
    ("fock.lindblad_evolve.flops", "flop/solve", "lower"),
    ("fock.basis_dim", "states", "lower"),
    ("fock.plane_wave_terms", "count/solve", "lower"),
    ("fock.truncation_errors", "count/solve", "lower"),
    ("fock.trace_drift_warnings", "count/solve", "lower"),
    ("dynamics.evolve_chord_function.sample_steps", "count/solve", "lower"),
    ("dynamics.evolve_chord_function.useful_ratio", "ratio", "higher"),
    ("dynamics.chi_eval.terms", "count/solve", "lower"),
    ("states.plane_wave_terms", "count/solve", "lower"),
    ("states.wkb.useful_ratio", "ratio", "higher"),
    ("lwc.lwc_from_chord.chi_points", "count/solve", "lower"),
    ("dynamics.decoherence_matrix.calls", "count/solve", "lower"),
    ("dynamics.decoherence_matrix.nodes", "count/solve", "lower"),
    ("dynamics.decoherence_matrix.useful_ratio", "ratio", "higher"),
    ("dynamics.positivity_time.probes", "count/solve", "lower"),
    ("dynamics.advect.point_steps", "count/solve", "lower"),
    ("curves.branches_at.calls", "count/solve", "lower"),
    ("curves.branches", "count/solve", "higher"),
    ("curves.caustic_branches", "count/solve", "lower"),
    ("grids.fft_points", "count/solve", "lower"),
    ("gridio.bytes_written", "B/solve", "lower"),
    ("cli.json_bytes", "B/solve", "lower"),
    ("diagnostics.ConvergenceWarning", "count/solve", "lower"),
    ("diagnostics.TruncationWarning", "count/solve", "lower"),
    ("diagnostics.GridDomainWarning", "count/solve", "lower"),
    ("trace.spans", "count/solve", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
#: counters derived from input sizes rather than measured
COMPUTED = {"fock.lindblad_evolve.steps", "fock.lindblad_evolve.flops", "fock.plane_wave_terms",
            "dynamics.evolve_chord_function.sample_steps", "dynamics.chi_eval.terms",
            "states.plane_wave_terms", "lwc.lwc_from_chord.chi_points",
            "dynamics.decoherence_matrix.nodes", "dynamics.advect.point_steps",
            "grids.fft_points"}
#: every per-layer metric: (name, unit, better); times are per solve
PER_LAYER = ([(f"{layer}.self_s", "s/solve", "lower") for layer in LAYERS]
             + [("trace.glue_s", "s/solve", "lower"), ("trace.solve_s", "s/solve", "lower")]
             + [(f"{name}.self_s", "s/solve", "lower") for name in _SELF_TIMED]
             + list(_COUNTED))
_LEVEL_CURVES = {"curves.harmonic_circle", "curves.quartic_level_curve",
                 "curves.pendulum_level_curve", "curves.curve_from_samples"}


def _steps_for(t: float, dt: float) -> int:
    """Step count of chordlab's fixed-step integrators (even, >= 2)."""
    if t == 0.0:
        return 0
    n = max(2, int(math.ceil(t / dt)))
    return n + (n % 2)


def _kept(values) -> int:
    """Samples evolve_chord_function keeps from a Wigner grid."""
    a = np.abs(np.asarray(values, dtype=float))
    return int(np.count_nonzero(a > 1e-16 * np.max(a)))


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


# ---------------------------------------------------------------------------
# counters: (tracer, bound arguments, result) -> None


def _count_lindblad(tr, a, out):
    dim = np.asarray(getattr(a["rho0"], "rho", a["rho0"])).shape[0]
    steps = max(1, int(math.ceil(a["t"] / a["dt"])))
    gemms = 2 + 4 * len(a["l_mats"])  # per right-hand side: [H, rho] and L rho L+, {L+L, rho}
    tr.add("fock.lindblad_evolve.steps", steps)
    tr.add("fock.lindblad_evolve.flops", 4 * steps * gemms * 8 * dim**3)
    tr.add("fock.basis_dim.sum", dim)
    tr.add("fock.basis_dim.calls", 1)
    tr.add("fock.trace_drift_warnings",
           sum("trace drifted" in str(w) for w in out.warnings))


def _count_pdm(tr, a, out):
    tr.scratch["pdm_q"] = np.asarray(a["q_axis"]).size


def _count_chord_exact(tr, a, out):
    points = _size(a["xi_p"], a["xi_q"])
    method = a["method"]
    if method == "auto":
        method = "displacement" if points <= 256 else "position"
    if method == "displacement":
        tr.add("fock.plane_wave_terms", points * a["rho"].dim ** 2)
    else:
        tr.add("fock.plane_wave_terms", points * tr.scratch.pop("pdm_q", 0))


def _count_evolve(tr, a, out):
    src, t, dt = a["source"], a["t"], a["dt"]
    steps = _steps_for(t, dt)
    if isinstance(src, tuple):
        n = _kept(src[0])
        n_check = _kept(np.asarray(src[0])[::2, ::2])
    else:
        n = len(src.theta)
        n_check = 2 * n
    if not (a["convergence_check"] and t > 0):
        n_check = 0
    tr.add("dynamics.evolve_chord_function.sample_steps", (n + n_check) * steps)
    tr.add("dynamics.evolve_chord_function.primary_steps", n * steps)
    tr.wrap_chord_function(out, "dynamics.chi_eval", n)


def _count_wkb(tr, a, out):
    useful = _size(a["xi_p"], a["xi_q"]) * len(a["curve"].theta)
    tr.add("states.plane_wave_terms", useful * (3 if a["convergence_check"] else 1))
    tr.add("states.wkb.primary_terms", useful)


def _count_lwc_from_chord(tr, a, out):
    chi = a["chi"]
    cols = np.atleast_1d(a["xi_q"]).size
    rows = chi.grid.points if chi.gridded else a["xi_p_points"]
    tr.add("lwc.lwc_from_chord.chi_points", rows * cols)


def _count_decoherence(tr, a, out):
    t, dt = a["t"], a["dt"]
    steps = _steps_for(t, dt)
    quadratic = a["H"].quadratic
    primary = steps + 1 if quadratic and steps else steps
    check = (2 * steps + 1 if quadratic else 2 * steps) if a["convergence_check"] and steps else 0
    tr.add("dynamics.decoherence_matrix.calls", 1)
    tr.add("dynamics.decoherence_matrix.nodes", primary + check)
    tr.add("dynamics.decoherence_matrix.primary_nodes", primary)


def _count_advect(tr, a, out):
    n = np.atleast_2d(np.asarray(a["points"])).shape[0]
    tr.add("dynamics.advect.point_steps", n * _steps_for(abs(a["t"]), a["dt"]))


def _count_branches(tr, a, out):
    tr.add("curves.branches_at.calls", 1)
    tr.add("curves.branches", len(out))
    tr.add("curves.caustic_branches", int(np.sum(out.caustic)))


def _count_ft(tr, a, out):
    tr.add("grids.fft_points", np.asarray(a["values"]).size)


def _count_csv(tr, a, out):
    tr.add("gridio.bytes_written", os.path.getsize(a["path"]))


def _count_cli_run(tr, a, out):
    argv = list(a["argv"] or [])
    if not argv or "--out" not in argv:
        return
    path = os.path.join(argv[argv.index("--out") + 1], f"{argv[0]}.json")
    if os.path.exists(path):
        tr.add("cli.json_bytes", os.path.getsize(path))


COUNTERS = {
    "fock.lindblad_evolve": _count_lindblad,
    "fock.position_density_matrix": _count_pdm,
    "fock.chord_function_exact": _count_chord_exact,
    "dynamics.evolve_chord_function": _count_evolve,
    "states.wkb_short_chord_function": _count_wkb,
    "lwc.lwc_from_chord": _count_lwc_from_chord,
    "dynamics.decoherence_matrix": _count_decoherence,
    "dynamics.advect": _count_advect,
    "curves.branches_at": _count_branches,
    "grids.ft_axis": _count_ft,
    "gridio.save_grid_csv": _count_csv,
    "cli.run": _count_cli_run,
}


class Tracer:
    """Spans and counters of one traced run.

    ``spans`` rows are [name, start, end, parent index, solve id]; the solve
    itself is a span named ``solve`` opened by the benchmark, so its self
    time is the benchmark glue between library calls.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.solve_id = -1
        self.counts = defaultdict(float)
        self.scratch: dict = {}
        self._patches: list = []
        self._warn = None
        self.active = False

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.solve_id])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def run_solve(self, solve_id: int, fn, *args):
        """Run one solve inside a root span named ``solve``."""
        self.solve_id = solve_id
        idx = self._open("solve")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if type(exc).__name__ == "TruncationLeakError":
                    tracer.add("fock.truncation_errors", 1)
                raise
            tracer._close(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, out)
            elif hasattr(out, "fn") and callable(getattr(out, "fn", None)):
                tracer.wrap_chord_function(out, name.split(".")[0] + ".chi_eval", None)
            return out

        return traced

    def wrap_chord_function(self, chi, name: str, samples) -> None:
        """Trace the callable of a ChordFunction handed back by the package."""
        fn = chi.fn
        if fn is None or getattr(fn, "_bench_traced", False):
            return
        tracer = self

        def traced(xi_p, xi_q):
            if not tracer.active:  # checks call it after the solve
                return fn(xi_p, xi_q)
            idx = tracer._open(name)
            try:
                return fn(xi_p, xi_q)
            finally:
                tracer._close(idx)
                if samples is not None:
                    tracer.add(name + ".terms", samples * _size(xi_p, xi_q))

        traced._bench_traced = True
        chi.fn = traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere it is bound."""
        pkg = [m for k, m in sys.modules.items() if k.startswith("chordlab") and m]
        for layer in LAYERS:
            mod = sys.modules[f"chordlab.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for m in pkg:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            self._patches.append((m, key, val))
                            setattr(m, key, wrapped)
        chordfn = sys.modules["chordlab.chordfn"].ChordFunction
        config = sys.modules["chordlab.config"].Config
        self._patch_attr(chordfn, "sample", self.wrap("chordfn.sample", chordfn.sample))
        self._patch_attr(config, "load",
                         classmethod(self.wrap("config.load", config.load.__func__)))
        self._warn = warnings.warn
        warnings.warn = self._counting_warn
        self.active = True

    def _patch_attr(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        self.active = False
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches.clear()
        if self._warn is not None:
            warnings.warn = self._warn
            self._warn = None

    def _counting_warn(self, message, category=None, stacklevel=1, source=None, **kwargs):
        cat = category or (type(message) if isinstance(message, Warning) else UserWarning)
        if cat.__name__ in WARNING_CATEGORIES:
            self.add("diagnostics." + cat.__name__, 1)
        self._warn(message, category, stacklevel + 1, source, **kwargs)

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds summed per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def child_count(self, parent_name: str, child_name: str) -> int:
        return sum(1 for name, _, _, p, _ in self.spans
                   if name == child_name and p >= 0 and self.spans[p][0] == parent_name)

    def layer_metrics(self, solves: int) -> dict:
        """Per-solve layer figures from the spans and counters of ``solves`` solves."""
        st = self.self_times()
        c = self.counts
        per = 1.0 / max(solves, 1)

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 1.0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per * sum(v for k, v in st.items()
                                             if k.split(".")[0] == layer)
        for name in _SELF_TIMED:
            m[f"{name}.self_s"] = per * st.get(name, 0.0)
        m["curves.level_curve.self_s"] = per * sum(st.get(k, 0.0) for k in _LEVEL_CURVES)
        for name, unit, _ in _COUNTED:
            if unit.endswith("/solve"):
                m[name] = per * c[name]
        m["fock.basis_dim"] = ratio("fock.basis_dim.sum", "fock.basis_dim.calls") \
            if c["fock.basis_dim.calls"] else 0.0
        m["dynamics.evolve_chord_function.useful_ratio"] = ratio(
            "dynamics.evolve_chord_function.primary_steps",
            "dynamics.evolve_chord_function.sample_steps")
        m["states.wkb.useful_ratio"] = ratio("states.wkb.primary_terms",
                                             "states.plane_wave_terms")
        m["dynamics.decoherence_matrix.useful_ratio"] = ratio(
            "dynamics.decoherence_matrix.primary_nodes", "dynamics.decoherence_matrix.nodes")
        m["dynamics.positivity_time.probes"] = per * self.child_count(
            "dynamics.positivity_time", "dynamics.decoherence_matrix")
        m["trace.glue_s"] = per * st.get("solve", 0.0)
        m["trace.solve_s"] = per * sum(t1 - t0 for name, t0, t1, _, _ in self.spans
                                       if name == "solve")
        m["trace.spans"] = per * len(self.spans)
        return m

    def dump(self, path: str) -> None:
        """Write the spans as gzipped CSV: name,start,end,parent,solve."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,solve\n")
            for name, t0, t1, parent, sid in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{sid}\n")
