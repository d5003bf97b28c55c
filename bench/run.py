"""chordlab benchmark: seeded workloads, checked solves, end-to-end and layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke            # one small solve per kind, traced and checked
    python3 bench/run.py --known-defects    # positivity_time against the Fock parity oracle

Run from the repository root.  One closed-loop client runs rounds of solves
back to back in this process; a round holds one solve of every kind of the
workload, and a run holds as many rounds as fill ``--seconds`` at the
nominal round time, so a seed gives the same solves on every commit.  Every
solve's checks run after its timed span; a solve that raises or fails a
check counts as failed and is never retried.

``--trace 0`` prints the end-to-end metrics:

    setup_s       median over three fresh interpreters of the time from process
                  start to ready (imports, input generation, one warm-up solve)
    solve_s_p50   median wall time of one solve
    solve_s_tail  the highest percentile with ten solves beyond it (the
                  percentile and count are printed beside it)
    solves_per_s  passed solves per second of solve time
    peak_rss_mb   peak resident memory of the process
    pass_frac     passed / attempted solves (1 - fail_frac, which is printed)
    err_digits    min over the run's exact checks of -log10(relative error)

The times are given at the reference machine's speed.  A shared host's
single-thread speed swings by a third or more within seconds, which no
length of run averages away, so a fixed calibration kernel
(``harness.calibrate``, no chordlab and no BLAS in it) runs before and after
every solve, and in each set-up probe's interpreter right after its set-up;
each wall time is scaled by REF_CAL_S / (its calibration time).  The raw wall-clock median and the
machine's median speed factor are printed beside the metrics.

``--trace 1`` runs each solve twice, once with the span tracer installed and
once without, and prints the per-layer metrics (per solve) with the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it name every metric with its unit, the seed and the environment.
Details, and the spans of a traced run, go to ``bench/out/``.

Seed 20261017 is held out: it was not used while the workloads were tuned,
so a claimed gain can be re-checked on it.
"""

from __future__ import annotations

import os

THREADS = 1  # BLAS and OpenMP pools are pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

from harness import calibrate, ref_seconds, setup, timed_loop  # noqa: E402
from tracer import COMPUTED, LAYERS, PER_LAYER, Tracer  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 3
TAIL_MIN_SOLVES = 20
WAITING_NOTE = "waiting time: none (no layer queues work; one closed-loop client)"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "err_digits": "digits",
}


def _load_package():
    """Import chordlab from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "chordlab", "__init__.py")
    if not os.path.exists(init):
        sys.exit(f"bench: {init} not found; run from a chordlab checkout")
    sys.path.insert(0, SRC)
    import chordlab

    if os.path.dirname(os.path.abspath(chordlab.__file__)) != os.path.dirname(init):
        sys.exit(f"bench: chordlab imported from {chordlab.__file__}, not {SRC}")
    for cat in (chordlab.ConvergenceWarning, chordlab.TruncationWarning,
                chordlab.GridDomainWarning):
        warnings.simplefilter("ignore", cat)  # counted by the traced run instead


# ---------------------------------------------------------------------------
# environment record


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            d = os.path.join(base, entry)
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                out[f"L{level}"] = size
    except OSError:
        pass
    return out


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config layout differs across numpy versions
        pass
    pkg = os.path.join(SRC, "chordlab")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_pinned": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "git_commit": _git_commit(),
        "src_chordlab_lines": lines,
    }


def _probe_setup(name: str, seed: int, seconds: float) -> tuple:
    """Wall time from process start to ready, in a fresh interpreter, and the
    calibration time the interpreter measured right after it was ready (on
    its own core, which may run at another speed than this process's)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        cal = proc.stdout.readline()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {name} failed")
    return ready, float(cal)


# ---------------------------------------------------------------------------
# metrics


def tail(times: list) -> tuple:
    """Highest percentile of solve time with at least ten solves beyond it:
    (value, percentile, solves beyond, sample count)."""
    n = len(times)
    ordered = sorted(times)
    if n < TAIL_MIN_SOLVES:
        return ordered[-1], 100.0, 0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, 10, n


def end_to_end(records: list, setup_times: list) -> tuple:
    """The end-to-end metrics, times at the reference speed, and what they
    were measured from.  ``setup_times`` holds (wall, calibration) pairs."""
    times = [r.ref_seconds for r in records]
    passed = sum(r.ok for r in records)
    exact = [err for r in records for _, err, _, x in r.checks if x]
    value, pct, beyond, n = tail(times)
    metrics = {
        "setup_s": statistics.median(ref_seconds(w, c) for w, c in setup_times),
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": value,
        "solves_per_s": passed / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": passed / len(records),
        "err_digits": min(-math.log10(max(e, 1e-16)) for e in exact) if exact else 0.0,
    }
    info = {"tail_percentile": pct, "tail_solves_beyond": beyond, "tail_sample_count": n,
            "wall_solve_s_p50": statistics.median(r.seconds for r in records),
            "wall_setup_s": statistics.median(w for w, _ in setup_times),
            "speed_factor_p50": statistics.median(ref_seconds(1.0, r.cal_s) for r in records)}
    return metrics, info


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        note = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<48} {value:>16.6g} {units[name]}{note}")


def _result_line(records, metrics, units) -> str:
    failed = sum(not r.ok for r in records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("oracle-transport", "sweep-cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--known-defects", action="store_true")
    args = parser.parse_args(argv)

    _load_package()
    if args.smoke or args.known_defects:
        import selftest

        return selftest.smoke(OUT) if args.smoke else selftest.known_defects()
    if not args.workload:
        parser.error("--workload is required")
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
    t0 = time.perf_counter()
    try:
        workload, rounds = setup(args.workload, args.seed, args.seconds, bool(args.trace),
                                 scratch)
        if args.setup_probe:
            print("ready", flush=True)
            calibrate()  # a process's first call pays one-off costs
            print(repr(statistics.median(calibrate() for _ in range(3))), flush=True)
            return 0
        own_setup = time.perf_counter() - t0
        tracer = Tracer() if args.trace else None
        records = timed_loop(workload, rounds, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment()
    print(f"chordlab benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "own_setup_s": own_setup,
              "solves": [{"kind": r.kind, "seconds": r.seconds, "traced_seconds": r.traced_seconds,
                          "cal_s": r.cal_s, "error": r.error, "checks": r.checks}
                         for r in records]}
    for r in records:
        if not r.ok:
            bad = r.error or ", ".join(f"{n} {e:.3g} > {t:.3g}" for n, e, t, _ in r.checks
                                       if e > t)
            print(f"FAILED solve ({r.kind}): {bad}")
    if args.trace:
        traced = sum(r.traced_seconds for r in records)
        untraced = sum(r.seconds for r in records)
        metrics = tracer.layer_metrics(len(records))
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        units = {name: unit for name, unit, _ in PER_LAYER}
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
        metrics = {k: metrics[k] for k in units}
        layer_sum = sum(metrics[f"{m}.self_s"] for m in LAYERS) + metrics["trace.glue_s"]
        print(f"traced solves: {len(records)}; layer self time + glue = {layer_sum:.6g} s/solve "
              f"of {metrics['trace.solve_s']:.6g} s/solve traced")
        print(WAITING_NOTE)
        print("per-layer metrics (per solve unless a ratio):")
        _print_metrics(metrics, units)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracer.dump(spans)
        detail["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        setup_times = [_probe_setup(args.workload, args.seed, args.seconds)
                       for _ in range(SETUP_PROBES)]
        metrics, info = end_to_end(records, setup_times)
        units = END_TO_END
        detail.update(info, setup_probes_wall_and_cal_s=setup_times)
        print(f"solves: {len(records)} attempted, {sum(r.ok for r in records)} passed; "
              f"fail_frac {1.0 - metrics['pass_frac']:.6g}")
        print(f"solve_s_tail is the p{info['tail_percentile']:.1f} solve time "
              f"({info['tail_solves_beyond']} solves beyond it, {len(records)} solves)"
              + ("" if len(records) >= TAIL_MIN_SOLVES else
                 f"; fewer than {TAIL_MIN_SOLVES} solves, so it is the maximum"))
        print(f"setup_s is the median of {SETUP_PROBES} fresh-process set-ups: "
              + ", ".join(f"{ref_seconds(w, c):.4f}" for w, c in setup_times))
        print(f"times are at the reference speed: the machine ran at "
              f"{info['speed_factor_p50']:.4f} of it (median); wall-clock solve p50 "
              f"{info['wall_solve_s_p50']:.6g} s, set-up {info['wall_setup_s']:.6g} s")
        print(WAITING_NOTE)
        print("end-to-end metrics:")
        _print_metrics(metrics, units)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(detail, metrics=metrics), fh, indent=1)
    print(_result_line(records, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
