"""Tests of the benchmark's own code: python -m pytest bench/test_bench.py"""

import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)


def test_smoke_solves_pass_checks_and_tracer_accounts_for_time():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("status: ok") == 2


def test_refuses_to_run_without_the_package():
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(BENCH, "out"))
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-cli",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_to_the_reference_speed():
    from harness import REF_CAL_S, Record, calibrate
    from run import end_to_end

    assert calibrate() > 0.0
    records = []
    for seconds in (1.0, 2.0, 3.0):
        rec = Record("k")
        rec.seconds, rec.cal_s = seconds, 2.0 * REF_CAL_S  # the machine ran at half speed
        rec.checks = [("c", 1e-9, 1e-8, True)]
        records.append(rec)
    metrics, info = end_to_end(records, [(4.0, 2.0 * REF_CAL_S)])
    assert metrics["solve_s_p50"] == 1.0 and info["wall_solve_s_p50"] == 2.0
    assert metrics["setup_s"] == 2.0 and metrics["solves_per_s"] == 1.0
    assert info["speed_factor_p50"] == 0.5
