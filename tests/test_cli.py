import argparse
import ast
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from chordlab import cli, dynamics, hamiltonians, lwc
from chordlab.config import Config
from chordlab.curves import harmonic_circle, quartic_level_curve
from chordlab.diagnostics import TruncationWarning
from chordlab.gridio import load_grid_csv
from chordlab.grids import CenteredGrid, chord_from_centre
from chordlab.states import CoherentState, coherent_position_slices, coherent_wigner


def run_cli(*argv):
    return cli.run(list(argv))


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_json(tmp_path, name):
    with open(tmp_path / name) as fh:
        return json.load(fh)


def test_schema_prints_and_exits_zero(capsys):
    assert run_cli("--schema") == 0
    out = capsys.readouterr().out
    assert "chordlab config schema" in out
    for name in ("coherent-demo", "evolve-chord", "lwc", "spectrum",
                 "positivity", "husimi", "validate"):
        assert name in out


# (experiment, config) runs that reach every experiment, lwc route, state
# family and model family between them
_SCHEMA_RUNS = [
    ("coherent-demo", "seed = 3\nstate.eta = 0.2 0.1\ngrid.points = 32\ngrid.half_width = 2\n"),
    ("evolve-chord", "state.eta = 0 0.2\ngrid.points = 16\nhamiltonian.omega = 1.5\n"
                     "channel = 0 1 0 0\ntime.t = 0.1\nxi.half_width = 1\n"),
    ("evolve-chord", "state.family = circle\nstate.action = 0.4\nstate.samples = 64\n"
                     "hamiltonian.family = free\nhamiltonian.mass = 2\ntime.t = 0.1\n"
                     "xi.points = 16\n"),
    ("evolve-chord", "state.family = quartic\nstate.energy = 0.3\nstate.a = 1\nstate.b = 0.5\n"
                     "state.samples = 64\nhamiltonian.family = quartic\nhamiltonian.a = 1\n"
                     "hamiltonian.b = 0.5\ntime.t = 0.05\ntime.dt = 0.025\nxi.points = 16\n"),
    ("evolve-chord", "state.family = pendulum\nstate.energy = -0.5\nstate.g = 1\n"
                     "state.samples = 64\nhamiltonian.family = pendulum\nhamiltonian.g = 1\n"
                     "time.t = 0.05\nxi.points = 16\n"),
    ("lwc", "state.eta = 0.3 0\nwindow.q = 0\nxi.points = 64\n"),
    *[("lwc", f"state.eta = 0.3 0\nlwc.route = {route}\nwindow.q = 0\nxi.points = 64\n")
      for route in ("closed-form", "direct")],
    ("lwc", "state.eta = 0.3 0\nlwc.route = chord\nhamiltonian.family = zero\n"
            "channel = 0 1 0 0\ntime.t = 0.1\ngrid.points = 32\nwindow.q = 0\n"
            "window.delta = 0.3\nxi.points = 64\n"),
    *[("lwc", f"state.family = circle\nstate.samples = 64\nlwc.route = {route}\n"
              "window.q = 0\nxi.points = 64\n") for route in ("sc-berry", "sc-markov")],
    ("spectrum", "state.family = circle\nstate.samples = 64\nlwc.route = sc-markov\n"
                 "channel = 0 1 0 0\ntime.t = 0.5\nwindow.q = 0\nxi.points = 64\n"),
    ("positivity", "hamiltonian.family = zero\nchannel = 0 1 1 0\n"),
    ("husimi", "state.family = fock\nstate.n = 1\nfock.dim = 16\ngrid.points = 32\n"),
    ("husimi", "state.eta = 0.2 0\nfock.dim = 16\ngrid.points = 32\nchannel = 0 1 0 0\n"
               "time.t = 0.1\n"),
    ("husimi", "state.family = cat\nstate.eta = 0.3 0\nfock.dim = 16\ngrid.points = 32\n"),
    ("validate", None),
]


def test_schema_text_names_every_key_a_run_reads(tmp_path, monkeypatch):
    """Every key the experiments read appears in ``--schema`` whole, as its
    own word (not as ``hamiltonian.a/.b``)."""
    read = set()
    group = Config._group

    def recorded(self, key):
        read.add(key)
        return group(self, key)

    monkeypatch.setattr(Config, "_group", recorded)
    for k, (experiment, text) in enumerate(_SCHEMA_RUNS):
        argv = [experiment, "--out", str(tmp_path / f"o{k}")]
        if text is not None:
            argv += ["--config", write_cfg(tmp_path, "hbar = 0.05\n" + text, f"r{k}.cfg")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_cli(*argv) == 0, (experiment, text)
    named = set(re.findall(r"(?<!\S)[a-z][a-z0-9_.]*[a-z0-9_](?!\S)", cli.SCHEMA_TEXT))
    assert {"lwc.route", "hamiltonian.b", "state.eta", "time.dt"} <= read
    assert sorted(read - named) == []


def test_no_experiment_is_usage_error(capsys):
    assert run_cli() == 2
    assert "usage" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run_cli("lwc", "--config", str(tmp_path / "nope.cfg")) == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_key_reports_path_and_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "hbar = 0.05\nwho = 1\nchannel = 0 1 0 0\n")
    assert run_cli("positivity", "--config", cfg, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err and "unknown key" in err


def test_malformed_config_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "hbar 0.05\n")
    assert run_cli("validate", "--config", cfg, "--out", str(tmp_path)) == 2
    assert f"{cfg}:1:" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, text, line", [
    ("coherent-demo", "grid.points = 32\nhbar = nan\n", 2),
    ("coherent-demo", "hbar = inf\n", 1),
    ("evolve-chord", "grid.points = 32\nxi.points = 32\ntime.t = nan\n", 3),
    ("lwc", "window.q = nan\nxi.points = 32\n", 1),
    ("positivity", "hamiltonian.family = zero\nchannel = nan 1 0 0\n", 2),
], ids=["hbar-nan", "hbar-inf", "time-nan", "window-nan", "channel-nan"])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, experiment, text, line):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert run_cli(experiment, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{line}:" in err and "finite" in err
    assert not (out / f"{experiment}.json").exists()


def test_negative_half_width_is_config_error(tmp_path, capsys):
    # a negative xi.half_width used to reverse the xi_q grid and lose the peak
    base = """\
hbar = 0.05
state.eta = 0.3 0
window.q = 0
lwc.route = closed-form
xi.points = 128
xi.half_width = {half}
"""
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, base.format(half=0))  # 0 asks for the automatic width
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
    peaks = read_json(out, "spectrum.json")["result"]["windows"][0]["peaks"]
    assert peaks[0]["position"] == pytest.approx(0.3, abs=1e-3)
    cases = (("spectrum", base.format(half=-1), "xi.half_width"),
             ("evolve-chord", "grid.points = 32\nxi.points = 32\nxi.half_width = -1\n",
              "xi.half_width"),
             ("husimi", "state.family = fock\nfock.dim = 16\ngrid.points = 32\n"
              "grid.half_width = -2\n", "grid.half_width"))
    for experiment, text, key in cases:
        capsys.readouterr()
        cfg = write_cfg(tmp_path, text)
        assert run_cli(experiment, "--config", cfg, "--out", str(tmp_path / key)) == 2
        assert f"{key} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, text, message", [
    ("spectrum", "state.eta = 0.3 0\nwindow.q = 0\nxi.points = 64\nwindow.delta = 0\n",
     "window.delta must be positive"),
    ("lwc", "state.eta = 0.3 0\nwindow.q = 0\nxi.points = 64\nwindow.delta = -0.1\n",
     "window.delta must be positive"),
    ("coherent-demo", "grid.points = 31\n", "grid.points must be even and >= 2"),
    ("coherent-demo", "grid.points = 0\n", "grid.points must be even and >= 2"),
    ("husimi", "state.family = fock\nfock.dim = 16\ngrid.points = 33\n",
     "grid.points must be even and >= 2"),
    ("spectrum", "state.family = circle\nstate.samples = 4\nwindow.q = 0\nxi.points = 64\n",
     "state.samples must be >= 8"),
    ("evolve-chord", "state.eta = 0 0\nxi.points = 0\ngrid.points = 16\n",
     "xi.points must be even and >= 2"),
    ("husimi", "state.family = fock\nfock.dim = 0\ngrid.points = 32\n",
     "fock.dim must be >= 1"),
    ("husimi", "state.family = fock\nfock.dim = -3\ngrid.points = 32\n",
     "fock.dim must be >= 1"),
    ("husimi", "state.family = fock\nstate.n = -1\nfock.dim = 16\ngrid.points = 32\n",
     "state.n must be in [0, fock.dim)"),
    ("husimi", "state.family = fock\nstate.n = 200\nfock.dim = 16\ngrid.points = 32\n",
     "state.n must be in [0, fock.dim)"),
    # time.dt is read where a step is taken: a non-quadratic flow at time.t > 0
    ("evolve-chord", "state.eta = 0 0\ngrid.points = 16\nhamiltonian.family = pendulum\n"
     "time.t = 0.1\ntime.dt = 0\n", "time.dt must be positive"),
    ("lwc", "state.eta = 0.3 0\nwindow.q = 0\nxi.points = 64\nhamiltonian.family = quartic\n"
     "time.t = 0.1\ntime.dt = -1\n", "time.dt must be positive"),
    ("spectrum", "state.family = circle\nwindow.q = 0\nxi.points = 64\n"
     "hamiltonian.family = quartic\ntime.t = 0.1\ntime.dt = 0\n", "time.dt must be positive"),
    ("evolve-chord", "state.family = circle\nstate.samples = 64\nxi.points = 16\ntime.t = -0.1\n",
     "time.t must be nonnegative"),
    ("spectrum", "state.family = circle\nwindow.q = 0\nxi.points = 64\ntime.t = -0.1\n",
     "time.t must be nonnegative"),
    # values the library call rejects with ValueError, reported with their keys
    ("positivity", "hamiltonian.family = free\nhamiltonian.mass = 0\nchannel = 0 1 0 0\n",
     "hamiltonian.mass: mass must be nonzero"),
    ("positivity", "hamiltonian.family = quartic\nchannel = 0 1 0 0\n",
     "hamiltonian.family 'quartic': positivity needs a quadratic model"),
    ("evolve-chord", "hamiltonian.family = free\nhamiltonian.mass = 0\ngrid.points = 16\n"
     "time.t = 0.1\n", "hamiltonian.mass: mass must be nonzero"),
    ("evolve-chord", "state.family = circle\nstate.action = 0\nxi.points = 16\n",
     "state.action: action must be finite and positive"),
    ("lwc", "state.family = circle\nstate.action = -1\nwindow.q = 0\nxi.points = 64\n",
     "state.action: action must be finite and positive"),
    ("spectrum", "state.family = quartic\nstate.energy = 0\nwindow.q = 0\nxi.points = 64\n",
     "state.energy, state.a, state.b: need energy > 0"),
    ("lwc", "state.family = pendulum\nstate.energy = 2\nwindow.q = 0\nxi.points = 64\n",
     "state.energy, state.g: libration requires"),
    ("spectrum", "state.family = pendulum\nstate.energy = 0.5\nstate.g = 0\nwindow.q = 0\n"
     "xi.points = 64\n", "state.energy, state.g: libration requires"),
    ("lwc", "state.family = circle\nwindow.q = 0\nxi.points = 4\n",
     "xi.points: points must be even and at least 8"),
    ("spectrum", "state.eta = 0.3 0\nwindow.q = 0\nxi.points = 4\nxi.half_width = 1\n",
     "xi.points: xi_q grid must be 1-D and finite, with at least 8 points"),
    # route and state combinations no experiment can run
    ("lwc", "state.eta = 0.3 0\nxi.points = 64\n", "need at least one window.q"),
    ("lwc", "state.eta = 0.3 0\nwindow.q = 0\nxi.points = 64\nlwc.route = closed-form\n"
     "time.t = 0.1\n", "route 'closed-form' needs state.family = coherent and time.t = 0"),
    ("lwc", "state.family = circle\nwindow.q = 0\nxi.points = 64\nlwc.route = direct\n",
     "route 'direct' needs state.family = coherent and time.t = 0"),
    ("lwc", "state.eta = 0.3 0\nwindow.q = 0\nxi.points = 64\nlwc.route = sc-markov\n",
     "route 'sc-markov' needs a curve state"),
    ("lwc", "state.family = fock\nwindow.q = 0\nxi.points = 64\n",
     "no lwc route for state.family 'fock'"),
    ("lwc", "state.family = fock\nwindow.q = 0\nxi.points = 64\nlwc.route = chord\n",
     "state.family 'fock' has no chord-transport source"),
    ("husimi", "state.family = circle\ngrid.points = 32\n",
     "state.family 'circle' is not number-basis representable here"),
    ("coherent-demo", "hbar = 0\nstate.eta = 0 0\ngrid.points = 16\n", "hbar must be positive"),
], ids=["delta-zero", "delta-negative", "grid-odd", "grid-zero", "husimi-grid-odd",
        "samples-4", "xi-zero", "fock-dim-zero", "fock-dim-negative", "fock-n-negative",
        "fock-n-too-large", "evolve-chord-dt-zero",
        "lwc-dt-negative", "spectrum-dt-zero", "evolve-chord-t-negative",
        "spectrum-t-negative", "free-mass-zero-positivity", "quartic-positivity",
        "free-mass-zero-evolve-chord", "circle-action-zero", "circle-action-negative",
        "quartic-energy-zero", "pendulum-energy-2", "pendulum-g-zero", "auto-xi-points-4",
        "explicit-xi-points-4",
        "no-window", "closed-form-evolved", "direct-circle", "sc-markov-coherent",
        "lwc-fock", "chord-fock", "husimi-circle", "hbar-zero"])
def test_out_of_range_config_value_is_config_error(tmp_path, capsys, experiment, text, message):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert run_cli(experiment, "--config", cfg, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not (out / f"{experiment}.json").exists()


@pytest.mark.parametrize("family", ["coherent", "cat"])
def test_a_state_that_mostly_misses_the_basis_names_its_keys(tmp_path, capsys, family):
    """Before, a husimi run of a coherent or cat state at (3, 3) with dim 8
    exited 0 on a state with almost all of its amplitude outside the basis."""
    cfg = write_cfg(tmp_path, f"hbar = 0.05\nstate.family = {family}\nstate.eta = 3 3\n"
                              "fock.dim = 8\ngrid.points = 32\n")
    out = tmp_path / "o"
    assert run_cli("husimi", "--config", cfg, "--out", str(out)) == 2
    assert "state.eta, fock.dim: a dim-8 basis misses" in capsys.readouterr().err
    assert not (out / "husimi.json").exists()


@pytest.mark.parametrize("experiment", ["coherent-demo", "positivity"])
@pytest.mark.parametrize("key", ["time.t", "time.dt"])
def test_time_keys_are_unknown_where_unread(tmp_path, capsys, experiment, key):
    # neither experiment evolves a state, so a time key would be echoed unused
    channel = "channel = 0 1 0 0\n" if experiment == "positivity" else ""
    cfg = write_cfg(tmp_path, f"hbar = 0.05\n{key} = 0.5\n{channel}")
    out = tmp_path / "o"
    assert run_cli(experiment, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err and f"unknown key '{key}'" in err
    assert not (out / f"{experiment}.json").exists()


_HUSIMI_FOCK = "state.family = fock\nfock.dim = 16\ngrid.points = 32\n"
_CHORD_COHERENT = "state.eta = 0 0\ngrid.points = 16\n"
_SC_MARKOV = ("state.family = circle\nstate.samples = 64\nlwc.route = sc-markov\n"
              "window.q = 0\nxi.points = 64\n")
_SC_BERRY = ("state.family = quartic\nstate.energy = 0.3\nstate.samples = 64\n"
             "lwc.route = sc-berry\nwindow.q = 0\nxi.points = 64\n")
_CLOSED_FORM = "state.eta = 0.3 0\nlwc.route = closed-form\nwindow.q = 0\nxi.points = 64\n"
_CHORD_CIRCLE = "state.family = circle\nstate.samples = 64\nxi.points = 16\n"


@pytest.mark.parametrize("experiment, base, extra", [
    ("husimi", _HUSIMI_FOCK, "state.samples = 5"),
    ("husimi", _HUSIMI_FOCK, "state.energy = 0.3"),
    ("husimi", _HUSIMI_FOCK, "state.action = -1"),
    ("husimi", _HUSIMI_FOCK, "hamiltonian.g = 0.7"),
    ("evolve-chord", _CHORD_COHERENT, "state.n = 2"),
    ("evolve-chord", _CHORD_COHERENT, "state.samples = 3"),
    ("lwc", _SC_MARKOV, "grid.points = 3"),
    ("lwc", _SC_MARKOV, "state.n = 1"),
    ("lwc", _SC_BERRY, "hamiltonian.omega = 1.5"),
    ("lwc", _SC_BERRY, "state.eta = 0.1 0"),
    ("lwc", _SC_BERRY, "window.delta = 0.3"),
    ("coherent-demo", _CHORD_COHERENT, "state.family = fock"),
    # keys that change nothing: no model or channel at t = 0, no step where
    # none is taken (the number-basis evolution takes none at any t), no
    # grid.points beside an explicit xi.points
    ("lwc", _SC_MARKOV, "hamiltonian.family = pendulum\nhamiltonian.g = 3\nchannel = 0 5 0 0"),
    ("lwc", _CLOSED_FORM, "time.dt = 5"),
    ("evolve-chord", _CHORD_CIRCLE + "time.t = 0\n",
     "hamiltonian.family = quartic\nhamiltonian.a = 7\nchannel = 0 5 0 0\ntime.dt = 3"),
    ("evolve-chord", _CHORD_CIRCLE + "time.t = 0.1\n", "time.dt = 0.37"),
    ("evolve-chord", _CHORD_CIRCLE, "grid.points = 64"),
    ("husimi", _HUSIMI_FOCK + "time.t = 0\n", "time.dt = 0.5"),
    ("husimi", _HUSIMI_FOCK + "channel = 0 1 0 0\ntime.t = 0.5\n", "time.dt = -0.001"),
    ("husimi", _HUSIMI_FOCK + "channel = 0 1 0 0\ntime.t = 0.5\n", "time.dt = 0"),
], ids=["husimi-samples", "husimi-energy", "husimi-action", "husimi-g", "chord-n",
        "chord-samples", "markov-grid-points", "markov-n", "berry-omega", "berry-eta",
        "berry-delta", "demo-family", "quadratic-model", "closed-form-dt", "chord-t0-model",
        "chord-harmonic-dt", "chord-grid-points", "husimi-t0-dt", "husimi-t-dt-negative",
        "husimi-t-dt-zero"])
def test_a_key_the_run_does_not_read_is_a_config_error(tmp_path, capsys, experiment,
                                                       base, extra):
    """The base config runs; the same run with more entries it never reads
    fails with the first one's line, however its value would have been checked."""
    text = base + extra + "\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert run_cli(experiment, "--config", cfg, "--out", str(out)) == 2
    key = extra.split(" = ")[0]
    line = base.count("\n") + 1
    assert f"{cfg}:{line}: unknown key '{key}'" in capsys.readouterr().err
    assert not (out / f"{experiment}.json").exists()
    assert run_cli(experiment, "--config", write_cfg(tmp_path, base, "base.cfg"),
                   "--out", str(out)) == 0


def test_a_failed_run_leaves_no_earlier_sidecar(tmp_path, capsys):
    out = tmp_path / "o"
    good = write_cfg(tmp_path, _SC_MARKOV, "good.cfg")
    assert run_cli("lwc", "--config", good, "--out", str(out)) == 0
    assert (out / "lwc.json").exists()
    bad = write_cfg(tmp_path, _SC_MARKOV + "state.n = 1\n", "bad.cfg")
    assert run_cli("lwc", "--config", bad, "--out", str(out)) == 2
    assert "unknown key 'state.n'" in capsys.readouterr().err
    assert (out / "lwc.csv").exists() and not (out / "lwc.json").exists()


def test_a_numerical_failure_names_the_unread_entries(tmp_path, capsys):
    # the dead window of test_dead_semiclassical_window_fails, with a misspelled key
    cfg = write_cfg(tmp_path, "hbar = 0.05\nstate.family = circle\nwindow.q = 0.999\n"
                    "window.dleta = 1\nlwc.route = sc-markov\nxi.points = 256\n")
    assert run_cli("lwc", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "Q = 0.999" in err
    assert "config entries not read before the failure: window.dleta (line 4)" in err


def test_seed_is_parsed_under_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "hbar = 0.05\nseed = banana\ngrid.points = 32\n")
    out = tmp_path / "o"
    assert run_cli("coherent-demo", "--config", cfg, "--out", str(out), "--seed", "3") == 2
    assert f"{cfg}:2: key 'seed' needs an integer" in capsys.readouterr().err
    assert not (out / "coherent-demo.json").exists()


def test_coherent_demo_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "hbar = 0.05\nstate.eta = 0.2 0.1\ngrid.points = 64\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("coherent-demo", "--config", cfg, "--out", str(out1)) == 0
    assert run_cli("coherent-demo", "--config", cfg, "--out", str(out2)) == 0
    for name in ("wigner.csv", "chord.csv", "coherent-demo.json"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b and a

    payload = json.loads((out1 / "coherent-demo.json").read_text())
    assert payload["schema_version"] == 2
    assert payload["experiment"] == "coherent-demo"
    assert payload["config"]["state.eta"] == "0.2 0.1"
    res = payload["result"]
    assert res["chi_closed_form_error"] < 1e-10
    assert res["round_trip_error"] < 1e-12
    assert res["chi_at_zero"] == pytest.approx(res["expected_chi_at_zero"], rel=1e-10)


def test_coherent_demo_grid_files_load_to_the_library_arrays(tmp_path):
    """wigner.csv and chord.csv, on their two different grids, pass the loader's
    column and axis checks and give back exactly the library's arrays."""
    cfg = write_cfg(tmp_path, "hbar = 0.05\nstate.eta = 0.3 -0.2\n"
                    "grid.points = 32\ngrid.half_width = 2.5\n")
    assert run_cli("coherent-demo", "--config", cfg, "--out", str(tmp_path)) == 0
    grid = CenteredGrid(2.5, 2.5, 32, 0.05)
    w_vals = coherent_wigner(CoherentState((0.3, -0.2), 0.05), *grid.meshgrid())
    chi, cgrid = chord_from_centre(w_vals, grid)
    for name, kind, want, want_grid in (("wigner.csv", "centre", w_vals, grid),
                                        ("chord.csv", "chord", chi, cgrid)):
        vals, back_grid, back_kind = load_grid_csv(tmp_path / name)
        assert (back_kind, back_grid) == (kind, want_grid)
        assert vals.dtype == want.dtype and np.array_equal(vals, want)
    assert cgrid != grid


def test_coherent_demo_checks_the_closed_form_on_the_chord_axes(tmp_path, monkeypatch):
    """The round trip's closed form gets the chord grid's axes as an (M, 1)
    column and a (1, M) row (2M exponentials), never a meshgrid."""
    seen = []
    closed_form = cli.states.coherent_chord_function

    def spy(state, xi_p, xi_q):
        seen.append((np.shape(xi_p), np.shape(xi_q)))
        return closed_form(state, xi_p, xi_q)

    monkeypatch.setattr(cli.states, "coherent_chord_function", spy)
    cfg = write_cfg(tmp_path, "hbar = 0.05\nstate.eta = 0.3 -0.2\ngrid.points = 64\n")
    assert run_cli("coherent-demo", "--config", cfg, "--out", str(tmp_path)) == 0
    assert seen == [((64, 1), (1, 64))]
    assert read_json(tmp_path, "coherent-demo.json")["result"]["chi_closed_form_error"] < 1e-10


def test_seed_override_is_echoed(tmp_path):
    cfg = write_cfg(tmp_path, "hbar = 0.05\nseed = 3\ngrid.points = 32\n")
    out = tmp_path / "o"
    assert run_cli("coherent-demo", "--config", cfg, "--out", str(out), "--seed", "7") == 0
    assert json.loads((out / "coherent-demo.json").read_text())["seed"] == 7


def test_positivity_pump(tmp_path):
    # damping, whose flat-model threshold is ln(2)/2; the pump has none (next test)
    cfg = write_cfg(tmp_path, "hamiltonian.family = zero\nchannel = 0 1 1 0\n")
    out = tmp_path / "o"
    assert run_cli("positivity", "--config", cfg, "--out", str(out)) == 0
    res = json.loads((out / "positivity.json").read_text())["result"]
    assert res["positivity_time"] == pytest.approx(0.5 * math.log(2.0), abs=1e-6)
    assert res["det_phi_at_tp"] == pytest.approx(0.25, abs=1e-6)
    assert res["gamma"] == pytest.approx(1.0)
    rows = [line for line in (out / "positivity.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 64


@pytest.mark.parametrize("family, channels", [
    ("harmonic", [(0, 1, 0, 0)]),
    ("zero", [(0, 1, 1, 0)]),
    ("free", [(0, 1, 1, 0), (0, 0.7, 0, 0)]),
])
def test_positivity_table_is_decoherence_matrix_at_each_time(tmp_path, family, channels):
    """The table's Phi_0 comes from one stacked Gramian; each row holds the
    text of decoherence_matrix(..., frame="initial") at its time, bit for bit."""
    cfg = write_cfg(tmp_path, f"hamiltonian.family = {family}\n" + "".join(
        "channel = %r %r %r %r\n" % v for v in channels))
    assert run_cli("positivity", "--config", cfg, "--out", str(tmp_path)) == 0
    model = hamiltonians.registry[family]()
    chans = [dynamics.LindbladChannel(v[:2], v[2:]) for v in channels]
    tp = dynamics.positivity_time(model, chans)
    rows = []
    for tk in np.linspace(0.0, 2.0 * tp, 65)[1:]:
        dm = dynamics.decoherence_matrix(model, chans, np.zeros(2), float(tk), frame="initial")
        rows.append("%.17g,%.17g,%.17g,%.17g,%.17g" % (tk, dm.det, dm.phi[0, 0], dm.phi[0, 1],
                                                       dm.phi[1, 1]))
    lines = (tmp_path / "positivity.csv").read_text().splitlines()
    assert [line for line in lines if not line.startswith("#")] == rows


def test_repeated_runs_share_one_parser_and_match_first_runs(tmp_path, capsys, monkeypatch):
    """cli.run builds its parser once per process.  A run after an --seed
    run, a usage error and --schema writes the bytes that the same run
    writes as the first run after a fresh parser."""
    cfg = write_cfg(tmp_path, "seed = 3\nchannel = 0 1 0 0\n")
    demo = write_cfg(tmp_path, "grid.points = 16\n", "demo.cfg")
    runs = [("positivity", "--config", cfg, "--seed", "5"),
            ("positivity", "--config", cfg),
            ("coherent-demo", "--config", demo)]

    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = []
    for k, argv in enumerate(runs):
        cli._build_parser.cache_clear()
        assert run_cli(*argv, "--out", str(tmp_path / f"first{k}")) == 0
        first.append(files(tmp_path / f"first{k}"))
    assert json.loads(first[0]["positivity.json"])["seed"] == 5
    assert json.loads(first[1]["positivity.json"])["seed"] == 3

    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for k, argv in enumerate(runs[:2]):
        assert run_cli(*argv, "--out", str(tmp_path / f"again{k}")) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("positivity", "--config", cfg, "--bogus")
    assert exc.value.code == 2
    assert run_cli("--schema") == 0
    assert capsys.readouterr().out == cli.SCHEMA_TEXT
    assert run_cli(*runs[2], "--out", str(tmp_path / "again2")) == 0
    assert built.count("chordlab") == 1 and len(built) == 1 + len(cli._EXPERIMENTS)
    for k in range(3):
        assert files(tmp_path / f"again{k}") == first[k]


def test_positivity_saturating_channel_fails(tmp_path, capsys):
    # a lone pump: det Phi_0 approaches 1/4 only as t -> inf
    cfg = write_cfg(tmp_path, "hamiltonian.family = zero\nchannel = 1 0 0 1\n")
    assert run_cli("positivity", "--config", cfg, "--out", str(tmp_path)) == 1
    assert "too weak" in capsys.readouterr().err


def test_spectrum_sidecar_lists_each_warning_once(tmp_path):
    # a cramped xi_q grid: C(xi_q) is cut at the edge in both windows
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = circle
state.action = 0.5
window.q = 0.0
window.q = 0.5
lwc.route = sc-markov
xi.points = 64
xi.half_width = 0.3
""")
    out = tmp_path / "o"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
    notes = json.loads((out / "spectrum.json").read_text())["warnings"]
    assert len(notes) == len(set(notes))
    assert sum("not decayed" in msg for msg in notes) == 1


def test_sidecar_lists_warnings_from_any_call_once(tmp_path, monkeypatch):
    """The sidecar records every warning raised during the run, whichever
    call raised it, once: here twice per window from the peak fit."""
    real = cli.fit_peaks

    def noisy_fit(*args, **kwargs):
        for _ in range(2):
            warnings.warn("probe note", TruncationWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_peaks", noisy_fit)
    cfg = write_cfg(tmp_path, "state.eta = 0.3 0\nwindow.q = 0\nwindow.q = 0.2\n"
                              "xi.points = 64\n")
    out = tmp_path / "o"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
    notes = read_json(out, "spectrum.json")["warnings"]
    assert notes.count("TruncationWarning: probe note") == 1


def test_sidecar_is_strict_json(tmp_path):
    # undamped plane waves: the fit flags sinc sidelobes with nan variance
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = circle
state.action = 0.5
window.q = 0.3
lwc.route = sc-berry
xi.points = 256
""")
    assert run_cli("spectrum", "--config", cfg, "--out", str(tmp_path)) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads((tmp_path / "spectrum.json").read_text(), parse_constant=reject)
    peaks = [pk for w in payload["result"]["windows"] for pk in w["peaks"]]
    flagged = [pk for pk in peaks if pk["flagged"]]
    assert flagged and all(pk["variance"] is None for pk in flagged)
    assert all(isinstance(pk["variance"], float) for pk in peaks if not pk["flagged"])


@pytest.mark.parametrize("experiment", ["lwc", "spectrum"])
def test_dead_semiclassical_window_fails(tmp_path, capsys, experiment):
    # both circle branches at Q = 0.999 are caustic, so C would be 0
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = circle
state.action = 0.5
window.q = 0.999
lwc.route = sc-markov
xi.points = 256
""")
    out = tmp_path / "o"
    assert run_cli(experiment, "--config", cfg, "--out", str(out)) == 1
    assert "Q = 0.999" in capsys.readouterr().err
    assert not (out / f"{experiment}.json").exists()


@pytest.mark.parametrize("route", ["sc-berry"])
def test_unevolved_sc_routes_reject_time(tmp_path, capsys, route):
    # this route reads the curve at t = 0 and takes no channel
    cfg = write_cfg(tmp_path, f"""\
hbar = 0.05
state.family = circle
state.action = 0.5
time.t = 1
channel = 0 1 0 0
window.q = 0.0
lwc.route = {route}
xi.points = 256
""")
    out = tmp_path / "o"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 2
    assert "time.t = 0" in capsys.readouterr().err
    assert not (out / "spectrum.json").exists()


def test_auto_resolves_a_curve_to_sc_markov_and_sc_quadratic_exits_2(tmp_path, capsys):
    """auto resolves a curve to sc-markov at any time.t.  sc-quadratic, once
    another name for sc-markov at time.t = 0, is no route: naming it exits 2
    with the valid choices."""
    cfg = write_cfg(tmp_path, _SC_MARKOV.replace("lwc.route = sc-markov\n", ""), "auto.cfg")
    assert run_cli("lwc", "--config", cfg, "--out", str(tmp_path / "auto")) == 0
    assert read_json(tmp_path / "auto", "lwc.json")["result"]["route"] == "sc-markov"
    cfg = write_cfg(tmp_path, _SC_MARKOV.replace("sc-markov", "sc-quadratic"), "old.cfg")
    out = tmp_path / "old"
    assert run_cli("lwc", "--config", cfg, "--out", str(out)) == 2
    assert ("key 'lwc.route' must be one of ['auto', 'chord', 'closed-form', 'direct', "
            "'sc-berry', 'sc-markov'], got 'sc-quadratic'") in capsys.readouterr().err
    assert not (out / "lwc.json").exists()


def test_cli_names_no_private_lwc_attribute():
    """The CLI reaches the branch sum through the public lwc.branch_lines, as
    any caller would: it imports no private name of lwc and reads none off
    the module."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    aliases, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("lwc", "chordlab.lwc"):
                private += [a.name for a in node.names if a.name.startswith("_")]
            elif node.module in (None, "chordlab"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "lwc"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases and node.attr.startswith("_"):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_spectrum_one_branch_pass_per_window(tmp_path, monkeypatch):
    """Each window's closed-form peaks come from its own sample's lines, so
    a 2-window run solves for branches twice, and the peaks are those of
    sc_spectrum_closed_form on the same axis."""
    calls = []
    real = lwc.branches_at

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(lwc, "branches_at", counting)
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = circle
state.action = 0.5
state.samples = 512
hamiltonian.family = harmonic
channel = 0 0.5 0 0
time.t = 1.0
window.q = 0.0
window.q = 0.4
lwc.route = sc-markov
xi.points = 256
""")
    out = tmp_path / "o"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
    assert calls == [0.0, 0.4]

    rows = np.array([[float(c) for c in line.split(",")]
                     for line in (out / "spectrum.csv").read_text().splitlines()
                     if not line.startswith("#")])
    windows = json.loads((out / "spectrum.json").read_text())["result"]["windows"]
    curve = harmonic_circle(0.5, 512)
    channel = dynamics.LindbladChannel((0.0, 0.5))
    for win in windows:
        q0 = win["Q"]
        p_axis = rows[rows[:, 0] == q0, 1]
        closed = lwc.sc_spectrum_closed_form(curve, hamiltonians.harmonic(), [channel], 1.0,
                                             lwc.LwcWindow(q0, math.sqrt(0.05), 0.05), p_axis)
        assert len(closed.peaks) == 2
        assert win["closed_form_peaks"] == [
            {"position": pk.position, "height": pk.height, "variance": pk.variance,
             "flagged": pk.flagged} for pk in closed.peaks]


def _same_lines(a, b) -> bool:
    """Two Lines records agree bit for bit, warnings included."""
    return (all(np.asarray(getattr(a.branches, f.name)).tobytes()
                == np.asarray(getattr(b.branches, f.name)).tobytes()
                for f in dataclasses.fields(a.branches))
            and all(np.asarray(getattr(a, k)).tobytes() == np.asarray(getattr(b, k)).tobytes()
                    for k in ("amplitude", "p", "variance", "phi_qq"))
            and a.hbar == b.hbar and a.warnings == b.warnings)


def test_spectrum_windows_share_one_flow(tmp_path, monkeypatch):
    """A multi-window sc-markov run evolves the curve once and makes one
    anchor pass for every window, and each window's sample is the
    single-window lwc_sc_markov sample bit for bit, lines included.  The
    flow runs twice: the curve's centres alone, then Phi alone at every
    window's anchors."""
    calls = {"evolve": 0, "flows": []}
    got = []
    real_evolve, real_flow, real_samples = (lwc.evolve_curve_classically,
                                            dynamics._flow, cli._lwc_samples)

    def counting(*args, **kwargs):
        calls["evolve"] += 1
        return real_evolve(*args, **kwargs)

    def flowing(H, channels, x, t, dt, phi=None):
        calls["flows"].append(phi)
        return real_flow(H, channels, x, t, dt, phi)

    def keeping(*args):
        route, samples = real_samples(*args)
        got.extend(samples)
        return route, samples

    monkeypatch.setattr(lwc, "evolve_curve_classically", counting)
    monkeypatch.setattr(dynamics, "_flow", flowing)
    monkeypatch.setattr(cli, "_lwc_samples", keeping)
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = quartic
state.energy = 0.3
state.samples = 256
hamiltonian.family = quartic
channel = 0 1 0 0
time.t = 0.5
time.dt = 0.01
window.q = -0.4
window.q = 0.0
window.q = 0.3
window.q = 0.6
lwc.route = sc-markov
xi.points = 256
""")
    assert run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    assert calls == {"evolve": 1, "flows": [None, "start"]}
    assert [q0 for q0, _ in got] == [-0.4, 0.0, 0.3, 0.6]

    curve = quartic_level_curve(0.3, samples=256)
    channels = [dynamics.LindbladChannel((0.0, 1.0))]
    for q0, sample in got:
        window = lwc.LwcWindow(q0, math.sqrt(0.05), 0.05)
        want = lwc.lwc_sc_markov(curve, hamiltonians.quartic(), channels, 0.5, window,
                                 sample.xi_q, dt=0.01)
        assert sample.window == window and len(sample.branches) == 2
        assert sample.values.tobytes() == want.values.tobytes()
        assert _same_lines(sample.lines, want.lines)


# family -> (config line setting one non-default parameter, expected params)
NON_DEFAULT_MODELS = {
    "zero": ("", {}),
    "free": ("hamiltonian.mass = 2.5", {"mass": 2.5}),
    "harmonic": ("hamiltonian.omega = 1.5", {"omega": 1.5}),
    "quartic": ("hamiltonian.b = 0.5", {"a": 1.0, "b": 0.5}),
    "pendulum": ("hamiltonian.g = 0.7", {"g": 0.7}),
}


@pytest.mark.parametrize("family", sorted(NON_DEFAULT_MODELS))
def test_hamiltonian_config_builds_registry_model(tmp_path, family):
    text, params = NON_DEFAULT_MODELS[family]
    cfg = Config.load(write_cfg(tmp_path, f"hamiltonian.family = {family}\n{text}\n"))
    model = cli._hamiltonian(cfg)
    assert model.name == family
    assert model.params == params


def test_positivity_requires_channel(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "hbar = 0.05\n")
    assert run_cli("positivity", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "needs at least one channel" in capsys.readouterr().err


def test_validate_green(tmp_path):
    out = tmp_path / "o"
    assert run_cli("validate", "--out", str(out)) == 0
    res = json.loads((out / "validate.json").read_text())["result"]
    assert res["failures"] == []
    table = (out / "validate.csv").read_text().splitlines()
    data = [line for line in table if not line.startswith("#")]
    assert len(data) == 7
    assert all(line.endswith(",1") for line in data)


def test_validate_failure_exits_one_and_writes_no_sidecar(tmp_path, capsys, monkeypatch):
    # a wrong flat-model threshold breaks one check; the table still lists every check
    monkeypatch.setattr(cli, "positivity_time", lambda model, channels: 0.5)
    out = tmp_path / "o"
    assert run_cli("validate", "--out", str(out)) == 1
    assert "validation failed: positivity_time_damping" in capsys.readouterr().err
    rows = [line.split(",") for line in (out / "validate.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert {row[0]: row[3] for row in rows} == {
        "coherent_chord_fft": "1", "grid_round_trip": "1", "damped_coherent_transport": "1",
        "phi_harmonic_pi": "1", "positivity_time_damping": "0", "lwc_routes_coherent": "1",
        "husimi_smoothing": "1"}
    assert not (out / "validate.json").exists()


def test_lwc_closed_form_route(tmp_path):
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = coherent
state.eta = 0.4 0.3
window.q = 0.0
window.q = 0.3
xi.points = 64
""")
    out = tmp_path / "o"
    assert run_cli("lwc", "--config", cfg, "--out", str(out)) == 0
    payload = json.loads((out / "lwc.json").read_text())
    assert payload["result"]["route"] == "closed-form"
    assert len(payload["result"]["windows"]) == 2
    rows = [line for line in (out / "lwc.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 2 * 64


def test_lwc_direct_route_matches_closed_form(tmp_path):
    base = """\
hbar = 0.05
state.family = coherent
state.eta = 0.1 0.2
window.q = 0.1
xi.points = 32
lwc.route = {route}
"""
    outs = {}
    for route in ("closed-form", "direct"):
        cfg = write_cfg(tmp_path, base.format(route=route), f"{route}.cfg")
        out = tmp_path / route
        assert run_cli("lwc", "--config", cfg, "--out", str(out)) == 0
        rows = [line.split(",") for line in (out / "lwc.csv").read_text().splitlines()
                if not line.startswith("#")]
        outs[route] = np.array([[float(c) for c in row] for row in rows])
    assert np.max(np.abs(outs["direct"] - outs["closed-form"])) < 1e-6


def test_lwc_direct_route_resolves_a_narrow_window(tmp_path):
    """The direct route's q step is at most Delta / 2, so a window of
    Delta = 0.001 matches its closed form to 1e-10 of max with no note.  At
    800 steps a span (a step of 0.0025), it erred by 0.22 of max, and by
    0.088 with the plain sum, and exited 0 with no note."""
    base = """\
hbar = 0.05
state.eta = 0.3 0.1
window.q = 0.1
window.delta = 0.001
xi.points = 64
lwc.route = {route}
"""
    outs = {}
    for route in ("closed-form", "direct"):
        cfg = write_cfg(tmp_path, base.format(route=route), f"{route}.cfg")
        out = tmp_path / route
        assert run_cli("lwc", "--config", cfg, "--out", str(out)) == 0
        assert read_json(out, "lwc.json")["warnings"] == []
        rows = [line.split(",") for line in (out / "lwc.csv").read_text().splitlines()
                if not line.startswith("#")]
        outs[route] = np.array([[float(c) for c in row] for row in rows])
    want = outs["closed-form"][:, 2] + 1j * outs["closed-form"][:, 3]
    got = outs["direct"][:, 2] + 1j * outs["direct"][:, 3]
    assert np.array_equal(outs["direct"][:, :2], outs["closed-form"][:, :2])
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


_DIRECT_TWO_WINDOWS = """\
hbar = 0.05
state.eta = 0.3 0.1
lwc.route = direct
window.q = -0.1
window.q = 0.2
xi.points = {points}
"""

_DIRECT_THREE_WINDOWS = """\
hbar = 0.05
state.eta = 0.3 0.1
lwc.route = direct
window.q = -1.0
window.q = 0.15
window.q = 1.0
xi.points = {points}
"""


def test_lwc_direct_route_holds_one_block_of_slices(tmp_path):
    """The direct route tabulates its position slices one block of xi_q
    columns at a time on one q axis for every window, so two windows of
    1,024 points peak at 2.6 MB of traced allocations, and three spread over
    |Q| <= 1 (a 1,143-node axis) stay under the same bound.  Tabulating
    every column at once, and building the next window's table while the
    last one lived, peaked at 26.6 MB for two windows."""
    for name, text in (("two", _DIRECT_TWO_WINDOWS), ("three", _DIRECT_THREE_WINDOWS)):
        cfg = write_cfg(tmp_path, text.format(points=1024), f"{name}.cfg")
        assert run_cli("lwc", "--config", cfg, "--out", str(tmp_path / f"warm-{name}")) == 0
        tracemalloc.start()
        try:
            assert run_cli("lwc", "--config", cfg, "--out", str(tmp_path / name)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, name


@pytest.mark.parametrize("points", [1024, 1000])
def test_lwc_direct_route_equals_one_full_table_contraction(monkeypatch, points):
    """The direct route makes one ``lwc_direct`` call per config on one q
    axis from min Q - (6 Delta + 1) to max Q + (6 Delta + 1), in steps of at
    most 2 (6 Delta + 1) / 800, and its streamed values equal one call on
    the full slice table on that axis bit for bit, also when the block does
    not divide xi.points."""
    calls = []
    real = cli.lwc_direct

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(cli, "lwc_direct", counting)
    hbar = 0.05
    for text, centres in ((_DIRECT_TWO_WINDOWS, (-0.1, 0.2)),
                          (_DIRECT_THREE_WINDOWS, (-1.0, 0.15, 1.0))):
        calls.clear()
        route, samples = cli._lwc_samples(Config.from_text(text.format(points=points)), hbar)
        assert route == "direct" and [q0 for q0, _ in samples] == list(centres)
        [q_axis] = calls
        span = 6.0 * math.sqrt(hbar) + 1.0
        assert q_axis[0] == centres[0] - span and q_axis[-1] == centres[-1] + span
        assert np.diff(q_axis).max() <= 2.0 * span / 800 * (1 + 1e-9)
        xi_q = samples[0][1].xi_q
        assert xi_q.size == points
        table = coherent_position_slices(CoherentState((0.3, 0.1), hbar), q_axis, xi_q)
        want = lwc.lwc_direct(table, q_axis, xi_q, [s.window for _, s in samples], xi_q)
        for (_, sample), full in zip(samples, want, strict=True):
            assert np.array_equal(sample.values, full.values)


def test_lwc_direct_route_makes_one_call_per_config(monkeypatch):
    """Three windows are one ``lwc_direct`` call, so their slices are
    tabulated once; one window keeps its 801-node axis over Q +- span, span
    = 6 Delta + 1.  Windows more than 2 span apart share no axis: each group
    of overlapping spans is its own call, whose windows equal their own
    runs bit for bit, so no slice is tabulated in the gap between them."""
    axes = []
    real = cli.lwc_direct

    def counting(*args):
        axes.append(args[1])
        return real(*args)

    monkeypatch.setattr(cli, "lwc_direct", counting)
    hbar = 0.05
    span = 6.0 * math.sqrt(hbar) + 1.0

    def run(*centres):
        axes.clear()
        text = _DIRECT_TWO_WINDOWS.replace("window.q = -0.1\nwindow.q = 0.2\n", "".join(
            f"window.q = {q0!r}\n" for q0 in centres)).format(points=64)
        return [s.values for _, s in cli._lwc_samples(Config.from_text(text), hbar)[1]]

    run(-1.0, 0.15, 1.0)
    assert len(axes) == 1
    one = run(-0.1)
    [q_axis] = axes
    assert np.array_equal(q_axis, np.linspace(-0.1 - span, -0.1 + span, 801))
    far = 2.0 * span + 0.01
    apart = run(far, -0.1, far + 0.3)
    assert [(a[0], a.size) for a in axes] == [(-0.1 - span, 801), (far - span, 853)]
    assert np.array_equal(apart[1], one[0])
    assert np.array_equal(apart[0], run(far, far + 0.3)[0])


def test_lwc_direct_route_spectra_of_two_windows_match_one_window_runs(tmp_path):
    """The spectrum experiment on the direct route: each window of a
    two-window run matches that window's own run to 1e-12 of the largest
    density (the shared q axis puts the windows' nodes elsewhere), with
    the same peak positions."""
    base = """\
hbar = 0.05
state.eta = 0.3 0.1
lwc.route = direct
xi.points = 256
"""
    runs = {}
    for name, centres in (("both", (-0.1, 0.25)), ("left", (-0.1,)), ("right", (0.25,))):
        cfg = write_cfg(tmp_path, base + "".join(f"window.q = {q}\n" for q in centres),
                        f"{name}.cfg")
        out = tmp_path / name
        assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in (out / "spectrum.csv").read_text().splitlines()
                         if not line.startswith("#")])
        runs[name] = rows, json.loads((out / "spectrum.json").read_text())["result"]["windows"]
    rows, windows = runs["both"]
    for name, win in zip(("left", "right"), windows, strict=True):
        one_rows, [one_win] = runs[name]
        mine = rows[rows[:, 0] == win["Q"]]
        assert mine.shape == one_rows.shape and np.array_equal(mine[:, :2], one_rows[:, :2])
        scale = np.abs(one_rows[:, 2]).max()
        assert np.abs(mine[:, 2] - one_rows[:, 2]).max() <= 1e-12 * scale
        assert [pk["position"] for pk in win["peaks"]] == pytest.approx(
            [pk["position"] for pk in one_win["peaks"]], rel=0, abs=1e-9)


_REPEAT_ROUTES = [
    ("closed-form", "state.eta = 0.3 0.1\n"),
    ("direct", "state.eta = 0.3 0.1\n"),
    ("chord", "state.eta = 0.3 0.1\ngrid.points = 32\n"),
    ("sc-markov", "state.family = circle\nstate.samples = 64\n"),
    ("sc-berry", "state.family = circle\nstate.samples = 64\n"),
]


@pytest.mark.parametrize("route, base", _REPEAT_ROUTES)
def test_lwc_blocks_follow_the_config_order_of_repeated_centres(tmp_path, route, base):
    """window.q = 0.2, -0.1, 0.2 gives one lwc.csv block per entry, in
    config order, the two 0.2 blocks equal (the direct route runs its
    windows sorted and maps them back); on every route but direct each block
    is its centre's one-window run byte for byte.  On sc-markov, window.q =
    0, -0 keeps each centre's sign in its block and in the sidecar."""
    base = f"hbar = 0.05\n{base}lwc.route = {route}\nxi.points = 32\n"

    def blocks(name, centres):
        cfg = write_cfg(tmp_path, base + "".join(f"window.q = {q}\n" for q in centres),
                        f"{name}.cfg")
        out = tmp_path / name
        assert run_cli("lwc", "--config", cfg, "--out", str(out)) == 0
        rows = [line for line in (out / "lwc.csv").read_text().splitlines()
                if not line.startswith("#")]
        return [rows[k:k + 32] for k in range(0, len(rows), 32)]

    three = blocks("three", (0.2, -0.1, 0.2))
    assert [float(block[0].split(",")[0]) for block in three] == [0.2, -0.1, 0.2]
    assert all(len({row.split(",")[0] for row in block}) == 1 for block in three)
    assert three[0] == three[2]
    if route != "direct":
        assert three[1] == blocks("left", (-0.1,))[0]
        assert three[0] == blocks("right", (0.2,))[0]
    if route == "sc-markov":
        zeros = blocks("zeros", ("0", "-0"))
        assert [{row.split(",")[0] for row in block} for block in zeros] == [{"0"}, {"-0"}]
        assert [row.split(",", 1)[1] for row in zeros[0]] == \
            [row.split(",", 1)[1] for row in zeros[1]]
        windows = json.loads((tmp_path / "zeros" / "lwc.json").read_text())["result"]["windows"]
        assert [math.copysign(1.0, w["Q"]) for w in windows] == [1.0, -1.0]


_ROUTE_CALLS = {  # the library call each route makes, and the centres one call reaches
    "closed-form": ("lwc_coherent_closed_form", lambda a: [a[1].Q]),
    "direct": ("lwc_direct", lambda a: [w.Q for w in a[3]]),
    "chord": ("lwc_from_chord", lambda a: [a[1].Q]),
    "sc-markov": ("branch_lines", lambda a: list(a[1])),
    "sc-berry": ("branch_lines", lambda a: list(a[1])),
}


@pytest.mark.parametrize("route, base", _REPEAT_ROUTES)
def test_a_repeated_centre_reaches_its_route_once(tmp_path, monkeypatch, route, base):
    """window.q = 0.2, -0.1, 0.2 solves each distinct centre once, in
    first-appearance order; before, every route solved the repeated centre
    again for its second entry."""
    name, centres = _ROUTE_CALLS[route]
    real, reached = getattr(cli, name), []
    monkeypatch.setattr(cli, name, lambda *a: reached.extend(centres(a)) or real(*a))
    cfg = write_cfg(tmp_path, f"hbar = 0.05\n{base}lwc.route = {route}\nxi.points = 32\n"
                    "window.q = 0.2\nwindow.q = -0.1\nwindow.q = 0.2\n")
    assert run_cli("lwc", "--config", cfg, "--out", str(tmp_path / "o")) == 0
    assert reached == ([-0.1, 0.2] if route == "direct" else [0.2, -0.1])


def test_lwc_chord_route_after_evolution(tmp_path):
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = coherent
state.eta = 0.0 0.5
time.t = 0.2
channel = 0 1 1 0
grid.points = 32
window.q = 0.0
xi.points = 32
""")
    out = tmp_path / "o"
    assert run_cli("lwc", "--config", cfg, "--out", str(out)) == 0
    payload = json.loads((out / "lwc.json").read_text())
    assert payload["result"]["route"] == "chord"


def test_spectrum_circle_markov(tmp_path):
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = circle
state.action = 0.5
state.samples = 512
hamiltonian.family = harmonic
channel = 0 0.5 0 0
time.t = 3.14159265358979
window.q = 0.0
xi.points = 256
""")
    out = tmp_path / "o"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    win = payload["result"]["windows"][0]
    assert payload["result"]["route"] == "sc-markov"
    pos = sorted(pk["position"] for pk in win["peaks"][:2])
    assert pos[0] == pytest.approx(-1.0, abs=0.02)
    assert pos[1] == pytest.approx(1.0, abs=0.02)
    assert win["resolved"] is True
    cf = sorted(pk["position"] for pk in win["closed_form_peaks"])
    assert cf[0] == pytest.approx(-1.0, abs=1e-6)
    assert cf[1] == pytest.approx(1.0, abs=1e-6)
    # fitted widths should track the decoherence prediction
    want_var = 0.05 * 0.25 * 0.5 * math.pi
    for pk in win["peaks"][:2]:
        assert pk["variance"] == pytest.approx(want_var, rel=0.1)


def test_evolve_chord_experiment(tmp_path):
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = coherent
state.eta = 0.0 0.4
hamiltonian.family = harmonic
channel = 0 1 1 0
time.t = 0.1
grid.points = 32
xi.points = 32
""")
    out = tmp_path / "o"
    assert run_cli("evolve-chord", "--config", cfg, "--out", str(out)) == 0
    res = json.loads((out / "evolve-chord.json").read_text())["result"]
    assert res["gamma"] == pytest.approx(1.0)
    assert res["chi_at_zero"] == pytest.approx(1.0 / (2 * math.pi * 0.05), rel=1e-6)
    assert (out / "chord.csv").exists()


def test_evolve_chord_rejects_odd_xi_points(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "state.eta = 0 0\nxi.points = 31\ngrid.points = 32\n")
    assert run_cli("evolve-chord", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "must be even" in capsys.readouterr().err


def test_evolve_chord_xi_points_default_to_grid_points(tmp_path):
    cfg = write_cfg(tmp_path, "state.eta = 0 0\ngrid.points = 16\n")
    out = tmp_path / "o"
    assert run_cli("evolve-chord", "--config", cfg, "--out", str(out)) == 0
    rows = [line for line in (out / "chord.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 16 * 16


def test_husimi_fock_state(tmp_path):
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = fock
state.n = 1
fock.dim = 32
grid.points = 64
grid.half_width = 2.0
""")
    out = tmp_path / "o"
    assert run_cli("husimi", "--config", cfg, "--out", str(out)) == 0
    res = json.loads((out / "husimi.json").read_text())["result"]
    assert res["mass"] == pytest.approx(1.0, abs=1e-6)
    assert res["min_value"] > -1e-9
    # smoothed n = 1 ring peaks at radius sqrt(2 hbar) with value e^-1 / 2 pi hbar
    want_peak = math.exp(-1.0) / (2.0 * math.pi * 0.05)
    assert res["peak_value"] == pytest.approx(want_peak, rel=2e-2)
    radius = math.hypot(res["peak_p"], res["peak_q"])
    assert 0.2 < radius < 0.45
    assert (out / "husimi.csv").exists()


@pytest.mark.parametrize("family, extra", [
    ("coherent", "state.eta = 0.3 0.1\nfock.dim = 48\n"),
    ("cat", "state.eta = 0.4 0.0\nfock.dim = 64\nchannel = 0 1 0 0\ntime.t = 0.1\n"),
])
def test_husimi_coherent_and_cat_states(tmp_path, family, extra):
    cfg = write_cfg(tmp_path, f"""\
hbar = 0.05
state.family = {family}
{extra}grid.points = 64
grid.half_width = 2.0
""")
    out = tmp_path / "o"
    assert run_cli("husimi", "--config", cfg, "--out", str(out)) == 0
    res = json.loads((out / "husimi.json").read_text())["result"]
    assert abs(res["mass"] - 1.0) < 1e-8
    assert res["min_value"] >= -1e-6 * res["peak_value"]


def test_lwc_quartic_branch_momenta_lie_on_the_energy_shell(tmp_path):
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = quartic
state.energy = 0.3
state.a = 1.0
state.b = 0.5
state.samples = 512
lwc.route = sc-markov
window.q = 0.1
window.q = -0.4
xi.points = 64
""")
    out = tmp_path / "o"
    assert run_cli("lwc", "--config", cfg, "--out", str(out)) == 0
    windows = json.loads((out / "lwc.json").read_text())["result"]["windows"]
    H = hamiltonians.quartic(1.0, 0.5)
    assert [len(w["branch_momenta"]) for w in windows] == [2, 2]
    for w in windows:
        for p in w["branch_momenta"]:
            assert abs(H(np.array([p, w["Q"]])) - 0.3) <= 1e-8 * 0.3


def test_spectrum_pendulum_markov_has_closed_form_peaks(tmp_path):
    cfg = write_cfg(tmp_path, """\
hbar = 0.05
state.family = pendulum
state.energy = -0.5
state.samples = 512
hamiltonian.family = pendulum
channel = 0 1.5 0 0
time.t = 0.3
window.q = 0.2
xi.points = 512
xi.half_width = 2.5
""")
    out = tmp_path / "o"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["warnings"] == []
    win = payload["result"]["windows"][0]
    cf = sorted(win["closed_form_peaks"], key=lambda pk: pk["position"])
    # a Hermitian channel keeps the evolved curve on the shell p^2/2 - cos q = E
    p_shell = math.sqrt(2.0 * (-0.5 + math.cos(0.2)))
    assert [pk["flagged"] for pk in cf] == [False, False]
    assert cf[0]["position"] == pytest.approx(-p_shell, abs=1e-8)
    assert cf[1]["position"] == pytest.approx(p_shell, abs=1e-8)
    fitted = sorted(pk["position"] for pk in win["peaks"][:2])
    assert fitted == pytest.approx([pk["position"] for pk in cf], abs=1e-6)


def test_husimi_rejects_negative_time(tmp_path, capsys):
    # before, t < 0 skipped the evolution and wrote the unevolved state
    cfg = write_cfg(tmp_path, """\
state.family = fock
state.n = 1
fock.dim = 16
grid.points = 32
channel = 0 1 1 0
time.t = -0.5
""")
    out = tmp_path / "o"
    assert run_cli("husimi", "--config", cfg, "--out", str(out)) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not (out / "husimi.json").exists()


def _run_fresh_python(*args):
    """Run a fresh interpreter that imports the same chordlab as this one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats adds about a second to start-up and no module needs it:
    the plane-wave series takes its Poisson tail from scipy.special."""
    out = _run_fresh_python("-c", "import sys, chordlab; print('scipy.stats' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_interpolate_unloaded():
    """The curve splines are chordlab's own, so neither the library nor the
    CLI pays scipy.interpolate's import (tens of milliseconds)."""
    out = _run_fresh_python("-c", "import sys, chordlab, chordlab.cli; "
                            "print('scipy.interpolate' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_console_script_runs():
    """Run the declared console script in a fresh interpreter the way the
    wrapper that pip generates for it does, so no install is needed."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["chordlab"]
    module, func = entry.split(":")
    wrapper = (f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'chordlab'\nsys.exit({func}())\n")
    proc = _run_fresh_python("-c", wrapper, "--schema")
    assert proc.returncode == 0, proc.stderr
    assert "chordlab config schema" in proc.stdout


def test_python_m_cli_runs():
    """``python -m chordlab.cli`` runs the same entry point as the script."""
    proc = _run_fresh_python("-m", "chordlab.cli", "--schema")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("chordlab config schema")


def test_module_main_matches(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["chordlab", "--schema"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0


def test_time_dt_absent_is_the_library_default():
    """Without time.dt a non-quadratic flow takes the library's per-row step
    counts; a set time.dt is the fixed step, and a quadratic flow reads none."""
    quartic, harmonic = dynamics.hamiltonians.quartic(), dynamics.hamiltonians.harmonic()
    assert cli._flow_step(Config.from_text(""), quartic) is dynamics.PER_ROW
    assert cli._flow_step(Config.from_text("time.dt = 0.025\n"), quartic) == 0.025
    cfg = Config.from_text("time.dt = 0.025\n")
    assert cli._flow_step(cfg, harmonic) is dynamics.PER_ROW and cfg.unread()
