import ast
import pathlib
import warnings

import numpy as np
import pytest

import chordlab
from chordlab import hamiltonians
from chordlab.curves import harmonic_circle, pendulum_level_curve, quartic_level_curve
from chordlab.diagnostics import ConvergenceWarning, TruncationWarning, _measured, _real_part
from chordlab.dynamics import LindbladChannel, decoherence_matrix, evolve_chord_function
from chordlab.fock import coherent_density_matrix
from chordlab.grids import CenteredGrid
from chordlab.husimi import husimi_from_wigner
from chordlab.lwc import LwcSample, LwcWindow, branch_lines, lwc_sc_markov, spectrum
from chordlab.states import CoherentState, coherent_wigner, wkb_chord

HBAR = 0.05


def test_real_part_returns_the_real_values_and_their_residue():
    sink = []
    values = np.array([1.0 + 1e-9j, -2.0 + 4e-9j, 0.5 + 0.0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 2e-9 is below the 1e-8 threshold
        re, residue = _real_part(values, "probe", sink)
    assert re.dtype == float and re.tobytes() == np.array([1.0, -2.0, 0.5]).tobytes()
    assert residue == 4e-9 / 2.0 and sink == []


def test_real_part_reports_a_residue_above_1e8_once():
    sink = []
    with pytest.warns(TruncationWarning) as rec:
        re, residue = _real_part(np.array([[1.0, 2.0e-6j], [-4.0, 0.0]]), "probe", sink)
    assert residue == 5e-7 and np.array_equal(re, [[1.0, 0.0], [-4.0, 0.0]])
    assert sink == ["probe imaginary residue 5.00e-07 above 1e-8"]
    assert [str(w.message) for w in rec] == sink
    with pytest.warns(TruncationWarning):
        assert _real_part(np.array([1e-3j]), "probe", None)[1] == 1e-3 / 1e-300  # no real part


def test_real_part_of_zeros_has_no_residue():
    re, residue = _real_part(np.zeros(3, dtype=complex), "probe", None)
    assert residue == 0.0 and not re.any()


def test_real_part_of_nan_reports_once():
    sink = []
    with pytest.warns(TruncationWarning) as rec:
        re, residue = _real_part(np.array([1.0, np.nan + 1j]), "probe", sink)
    assert np.isnan(residue) and len(rec) == 1
    assert sink == ["probe imaginary residue nan above 1e-8"]


def test_measured_reports_above_tol_and_nan_and_returns_the_value():
    """A check outside the package calling _measured warns at its own line."""
    sink = []

    def check(value):
        return _measured(sink, value, 1e-8, "moved by {:.1e}", ConvergenceWarning)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check(1e-8) == 1e-8
    with pytest.warns(ConvergenceWarning) as rec:
        assert check(2e-8) == 2e-8
        assert np.isnan(check(np.nan))
    assert sink == ["moved by 2.0e-08", "moved by nan"] == [str(w.message) for w in rec]
    assert {w.filename for w in rec} == {__file__}


def test_only_diagnostics_calls_warnings_warn():
    """Every soft check reports through diagnostics; no other module warns,
    and only report's one warnings.warn passes a stack depth (report finds
    the user's frame, so no check counts one)."""
    src = pathlib.Path(chordlab.__file__).parent
    callers, depths = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = f"{path.name}:{ast.unparse(node.func)}"
            if ast.unparse(node.func) in ("warnings.warn", "warn"):
                callers.append(name)
            if any(kw.arg == "stacklevel" for kw in node.keywords):
                depths.append(name)
    assert callers == depths == ["diagnostics.py:warnings.warn"], (callers, depths)


_GRID = CenteredGrid(0.8, 0.8, 64, HBAR)
_XI_Q = np.linspace(-2.0, 2.0, 64, endpoint=False)
_RING, _ZERO = harmonic_circle(0.5, 256), hamiltonians.zero()

# Each case's note-raising call starts on its lambda's first line.
_CASES = {
    "orbit-tail": lambda: pendulum_level_curve(1 - 1e-13, samples=64),
    "step-note": lambda: decoherence_matrix(
        hamiltonians.quartic(), [LindbladChannel((0, 1), (1, 0)), LindbladChannel((0, 0.5))],
        (0.9, 0.1), 2.0),
    "branch-step-notes": lambda: lwc_sc_markov(
        quartic_level_curve(0.3, samples=128), hamiltonians.quartic(),
        [LindbladChannel((0, 0.8))], 1.0, LwcWindow(0.2, 0.2, HBAR), [0.0], dt=0.25),
    "caustic": lambda: branch_lines(_RING, [0.99], HBAR, 0.0, _ZERO, (), 0.0)[0].sample(
        [0.0], None),
    "evanescent": lambda: branch_lines(_RING, [1.5], HBAR, 0.0, _ZERO, (), 0.0)[0].sample(
        [0.0], None),
    "amplitude-tail": lambda: coherent_density_matrix((0.0, 1.0), HBAR, 12),
    "flow-step-note": lambda: evolve_chord_function(
        quartic_level_curve(0.3, samples=64), hamiltonians.quartic(),
        [LindbladChannel((0, 0.5))], 1.0, dt=0.25, hbar=HBAR),
    "wkb-drift": lambda: wkb_chord(harmonic_circle(2.0, 64), HBAR / 4),
    "husimi-edge": lambda: husimi_from_wigner(
        coherent_wigner(CoherentState((0.0, 0.0), HBAR), *_GRID.meshgrid()), _GRID),
    "floor": lambda: branch_lines(_RING, [0.3], HBAR, 0.0, _ZERO, (), 0.0)[0].spectrum(
        np.linspace(-2.0, 2.0, 801)),
    "residue": lambda: spectrum(LwcSample(
        _XI_Q, (np.exp(-10.0 * _XI_Q**2) * (1.0 + 0.5 * _XI_Q)).astype(complex),
        LwcWindow.canonical(0.0, HBAR))),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_every_note_points_at_the_caller(case):
    """However deep inside chordlab a check sits, its warning names the first
    frame outside the package: here, the case's own line in this file."""
    call = _CASES[case]
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        call()
    assert rec, "the case raises no note"
    assert {(w.filename, w.lineno) for w in rec} == {(__file__, call.__code__.co_firstlineno)}
