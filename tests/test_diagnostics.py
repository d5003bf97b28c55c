import ast
import pathlib
import warnings

import numpy as np
import pytest

import chordlab
from chordlab.diagnostics import ConvergenceWarning, TruncationWarning, _measured, _real_part


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
    """A check calling _measured warns at its own caller's line, as with report."""
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
    """Every soft check reports through diagnostics; no other module warns."""
    src = pathlib.Path(chordlab.__file__).parent
    callers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("warnings.warn", "warn"):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers and all(c.startswith("diagnostics.py:") for c in callers), callers
