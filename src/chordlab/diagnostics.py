"""Warning categories and small shared diagnostics helpers.

Numerical trouble is reported two ways at once: a Python warning of the
matching category (so pytest.warns and -W filters work), and, for operations
that return a result record, a plain-string entry appended to the record's
``warnings`` list so batch runs can serialize what happened.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "GridDomainWarning",
    "ConvergenceWarning",
    "TruncationWarning",
    "report",
]


class GridDomainWarning(UserWarning):
    """Grid too small for the field it carries (boundary not decayed)."""


class ConvergenceWarning(UserWarning):
    """Step or sample refinement changed the answer more than tolerated."""


class TruncationWarning(UserWarning):
    """A tail or basis truncation is visibly biting."""


def report(sink, message: str, category=UserWarning, stacklevel: int = 3):
    """Warn and, when ``sink`` is a list, record the message there too."""
    warnings.warn(message, category, stacklevel=stacklevel)
    if sink is not None:
        sink.append(message)


def _measured(sink, value, tol, message: str, category, stacklevel: int = 3):
    """The one body of every soft check: ``report`` ``message.format(value)``
    unless the measured ``value`` is at most ``tol`` (so a nan reports), and
    return ``value``.  ``stacklevel`` counts from the caller, as in ``report``."""
    if not value <= tol:
        report(sink, message.format(value), category, stacklevel + 1)
    return value


def _real_part(values, what: str, sink):
    """(Re values, max|Im| / max|Re|) of values that should be real; a residue
    above 1e-8 (or nan) is reported as a TruncationWarning naming ``what``."""
    re = np.real(values)
    residue = float(np.max(np.abs(np.imag(values))) / max(np.max(np.abs(re)), 1e-300))
    _measured(sink, residue, 1e-8, f"{what} imaginary residue {{:.2e}} above 1e-8",
              TruncationWarning, stacklevel=4)
    return re, residue
