"""Closed-loop solve runner shared by the benchmark and its smoke check."""

from __future__ import annotations

import time
import zlib

import numpy as np

# calibrate()'s median time on the reference machine (2-core VM, one BLAS thread)
REF_CAL_S = 6.0e-3

_rng = np.random.default_rng(0)
_CAL_X = _rng.standard_normal(32768)
_CAL_F = _rng.standard_normal((128, 128))


def calibrate() -> float:
    """Wall time of a fixed kernel of interpreter loops, elementwise numpy and
    an FFT, the mix of work a solve does.  It uses no BLAS, so a program that
    changes the BLAS thread pool cannot change it, and it reads none of
    chordlab.  On a shared host the machine's speed swings by a third or more
    within seconds; this kernel, run before and after every solve, measures
    the swing so that solve times can be given at the reference speed."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(3):
        s += sum(i * 0.5 for i in range(9000))
        s += float(np.sum(np.cos(_CAL_X) * np.exp(-_CAL_X * _CAL_X)))
        s += float(np.abs(np.fft.fft2(_CAL_F)).sum())
    return time.perf_counter() - t0


def ref_seconds(seconds: float, cal_s: float) -> float:
    """A wall time measured while calibrate() took ``cal_s``, scaled to the
    reference machine's speed."""
    return seconds * REF_CAL_S / cal_s


class Record:
    """One attempted solve: its wall time, error text and checks, and the
    calibration time around it (the mean of the runs before and after)."""

    __slots__ = ("kind", "seconds", "error", "checks", "traced_seconds", "cal_s")

    def __init__(self, kind):
        self.kind = kind
        self.seconds = 0.0
        self.error = None
        self.checks = []
        self.traced_seconds = None
        self.cal_s = REF_CAL_S

    @property
    def ref_seconds(self) -> float:
        return ref_seconds(self.seconds, self.cal_s)

    @property
    def ok(self) -> bool:
        return self.error is None and bool(self.checks) and all(
            err <= tol for _, err, tol, _ in self.checks)


def seeded_rounds(workload, seed: int, rounds: int) -> list:
    """Every solve's inputs, drawn from the seed: rounds of one spec per kind."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    kinds = workload.kinds
    return [[workload.make(rng, kinds[i]) for i in rng.permutation(len(kinds))]
            for _ in range(rounds)]


def run_solve(mix, spec, tracer=None, solve_id=0) -> tuple:
    """One timed solve; returns (seconds, solve argument, output, error text).

    The mix prepares the solve's argument (a cli solve's config file and
    output directory) before the clock starts.  With a tracer, the tracer is
    installed for this solve only.
    """
    arg = mix.prepare(spec)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            out = tracer.run_solve(solve_id, mix.solve, arg)
        else:
            out = mix.solve(arg)
        error = None
    except Exception as exc:  # a raising solve is a failed solve, never retried
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return seconds, arg, out, error


def check_solve(mix, spec, arg, out, error, rec: Record) -> None:
    """Run the solve's checks into ``rec``; a check that raises fails the solve."""
    try:
        if error is not None:
            rec.error = error
            return
        rec.checks = [(n, float(e), float(t), bool(x))
                      for n, e, t, x in mix.check(spec, arg, out)]
    except Exception as exc:
        rec.error = f"check raised {type(exc).__name__}: {exc}"
    finally:
        mix.cleanup(arg)


def attempt(workload, spec, tracer=None, solve_id=0) -> Record:
    """Time and check one solve.  With a tracer, the same inputs also run
    untraced, alternating which goes first; both results are checked."""
    mix = workload.mixes[spec["mix"]]
    label = f"{spec['mix']}/{spec['kind']}"
    rec = Record(label)
    if tracer is None:
        rec.seconds, arg, out, err = run_solve(mix, spec)
        check_solve(mix, spec, arg, out, err, rec)
        return rec
    plain = Record(label)
    for traced in ((True, False) if solve_id % 2 == 0 else (False, True)):
        if traced:
            rec.traced_seconds, arg, out, err = run_solve(mix, spec, tracer, solve_id)
            check_solve(mix, spec, arg, out, err, rec)
        else:
            plain.seconds, arg, out, err = run_solve(mix, spec)
            check_solve(mix, spec, arg, out, err, plain)
    rec.seconds = plain.seconds
    if rec.ok and not plain.ok:
        rec.error = plain.error or "untraced run failed its checks"
    return rec


def round_count(workload, seconds: float, traced: bool) -> int:
    """Rounds that fill ``seconds`` at the nominal round time; a traced run
    runs every solve twice, so it holds half as many."""
    return max(1, round(seconds / (workload.round_seconds * (2 if traced else 1))))


def timed_loop(workload, rounds, seconds: float, tracer=None) -> list:
    """The run's rounds, back to back, with calibrate() between solves.  A
    program more than three times slower than the nominal round time is cut
    short after the round that ends past 3 * ``seconds``, so a run stays
    bounded."""
    records = []
    t_start = time.perf_counter()
    calibrate()  # a process's first call pays one-off costs
    cal = calibrate()
    for rnd in rounds:
        for spec in rnd:
            rec = attempt(workload, spec, tracer, len(records))
            after = calibrate()
            rec.cal_s = 0.5 * (cal + after)
            cal = after
            records.append(rec)
        if time.perf_counter() - t_start >= 3.0 * seconds:
            break
    return records


def setup(name: str, seed: int, seconds: float, traced: bool, scratch: str):
    """Generate the run's seeded inputs and warm up with one small solve per mix."""
    from workloads import make_workloads

    workload = make_workloads(scratch)[name]
    rounds = seeded_rounds(workload, seed, round_count(workload, seconds, traced))
    rng = np.random.default_rng([seed, 0])
    for mix in workload.mixes.values():
        attempt(workload, workload.make(rng, f"{mix.name}/{mix.kinds[0]}", small=True))
    return workload, rounds
