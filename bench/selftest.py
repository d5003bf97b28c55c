"""Checks of the benchmark itself, and the known-defect probe.

``smoke`` runs one small solve of every kind of every workload through the
same checks and tracer as a benchmark run, and confirms that the per-layer
self times plus glue add up to the traced solve time.

``known_defects`` runs the positivity thresholds that the workloads leave
out because they fail at this commit: the damping and pump channels,
checked against the number-basis parity of |1> (closed forms confirmed on
the Fock oracle in the same run).  It reports, and exits 0 either way.
"""

from __future__ import annotations

import math
import os
import shutil
import zlib

import numpy as np

from harness import attempt
from tracer import LAYERS, Tracer

# the module each mix exists to exercise must show self time in the smoke run
_HOME_LAYERS = {"oracle-transport": ("fock", "dynamics"), "sweep-cli": ("curves", "cli")}


def smoke(out_dir: str) -> int:
    from workloads import make_workloads

    scratch = os.path.join(out_dir, f"smoke-{os.getpid()}")
    failures = 0
    try:
        for name, workload in make_workloads(scratch).items():
            rng = np.random.default_rng([0, zlib.crc32(name.encode())])
            tracer = Tracer()
            records = [attempt(workload, workload.make(rng, kind, small=True), tracer, i)
                       for i, kind in enumerate(workload.kinds)]
            m = tracer.layer_metrics(len(records))
            layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.glue_s"]
            balanced = abs(layer_sum - m["trace.solve_s"]) <= 1e-9 * max(m["trace.solve_s"], 1.0)
            home = all(m[f"{layer}.self_s"] > 0.0 for layer in _HOME_LAYERS[name])
            bad = [r for r in records if not r.ok]
            for r in bad:
                print(f"smoke {name}/{r.kind}: FAILED {r.error or r.checks}")
            ok = not bad and balanced and home
            failures += not ok
            print(f"smoke {name}: {len(records) - len(bad)}/{len(records)} solves passed, "
                  f"self time + glue {layer_sum:.4f} of {m['trace.solve_s']:.4f} s/solve, "
                  + "".join(f"{layer}.self_s {m[layer + '.self_s']:.4f} s/solve, "
                            for layer in _HOME_LAYERS[name]) + "status: "
                  + ("ok" if ok else "FAILED"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failures else 0


def _parity(rho) -> float:
    """pi hbar W(0) = sum_n (-1)^n rho_nn."""
    pops = rho.populations()
    return float(np.sum(pops[0::2]) - np.sum(pops[1::2]))


def known_defects() -> int:
    import chordlab as cl

    hbar, dim = 0.05, 64  # the pump heats |1> to a geometric tail; 64 levels hold it
    t_half = 0.5 * math.log(2.0)
    cases = {
        # damping: parity 1 - 2 exp(-2t) crosses 0 at ln(2)/2
        "damping": (cl.LindbladChannel((0.0, 1.0), (1.0, 0.0)),
                    lambda t: 1.0 - 2.0 * math.exp(-2.0 * t), t_half),
        # pump: parity -1 / (2 exp(2t) - 1)^2 stays negative, so no threshold exists
        "pump": (cl.LindbladChannel((1.0, 0.0), (0.0, 1.0)),
                 lambda t: -1.0 / (2.0 * math.exp(2.0 * t) - 1.0) ** 2, None),
    }
    failed = 0
    for name, (channel, parity, want) in cases.items():
        rho = cl.fock_density_matrix(1, hbar, dim)
        h = cl.hamiltonian_matrix(cl.hamiltonians.zero(), dim, hbar)
        l_ops = [cl.build_linear_lindblad(channel, hbar, dim)]
        oracle = abs(_parity(cl.lindblad_evolve(rho, h, l_ops, t_half, hbar)) - parity(t_half))
        try:
            got = cl.positivity_time(cl.hamiltonians.zero(), [channel])
        except ValueError as exc:
            got = f"raised ({exc})".split(";")[0] + ")"
        if want is None:
            ok = isinstance(got, str)
            expect = "no threshold (raise)"
        else:
            ok = not isinstance(got, str) and abs(got - want) <= 1e-6
            expect = f"{want:.6f}"
        failed += not ok
        print(f"positivity_time {name}: oracle parity at ln(2)/2 matches the closed form to "
              f"{oracle:.1e}; expected {expect}, got {got}: {'ok' if ok else 'DEFECT'}")
    print(f"known-defect probe: {failed}/{len(cases)} solves fail (fail_frac {failed / len(cases):g})")
    return 0
