"""Warning categories and small shared diagnostics helpers.

Numerical trouble is reported two ways at once: a Python warning of the
matching category (so pytest.warns and -W filters work), and, for operations
that return a result record, a plain-string entry appended to the record's
``warnings`` list so batch runs can serialize what happened.  The warning
names the first frame outside the package, so its file and line are the
user's call however deep inside chordlab the check sits.
"""

from __future__ import annotations

import sys
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


def report(sink, message: str, category=UserWarning):
    """Warn at the first frame outside the chordlab package (the user's call)
    and, when ``sink`` is a list, record the message there too."""
    frame, level = sys._getframe(1), 2
    while frame.f_back and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
    if sink is not None:
        sink.append(message)


def _measured(sink, value, tol, message: str, category):
    """The one body of every soft check: ``report`` ``message.format(value)``
    unless the measured ``value`` is at most ``tol`` (so a nan reports), and
    return ``value``."""
    if not value <= tol:
        report(sink, message.format(value), category)
    return value


def _real_part(values, what: str, sink):
    """(Re values, max|Im| / max|Re|) of values that should be real; a residue
    above 1e-8 (or nan) is reported as a TruncationWarning naming ``what``."""
    re = np.real(values)
    residue = float(np.max(np.abs(np.imag(values))) / max(np.max(np.abs(re)), 1e-300))
    _measured(sink, residue, 1e-8, f"{what} imaginary residue {{:.2e}} above 1e-8",
              TruncationWarning)
    return re, residue
