"""Container for chord functions chi(xi).

A chord function has one of two forms.  A plane-wave term sum (a coherent
state, an evolved chord function, a WKB curve state) is built by
``ChordFunction.from_terms``: it keeps its terms, which readouts such as
``lwc_from_chord`` integrate in closed form, and its callable ``fn`` sums
them through ``grids._plane_wave_sum`` at any chords.  Samples on a centred
chord grid are built by ``ChordFunction.from_grid`` and only ever read at
their own grid nodes; no interpolation is offered, because chi oscillates on
the hbar scale and silent interpolation there is a trap.  ``_drift`` is the
sampling check the term sums share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import CenteredGrid, _plane_wave_sum, _trig_doubled

__all__ = ["ChordFunction"]


def _term_sum(points, weights, phi, hbar: float):
    """chi(xi) = (2 pi hbar)^-1 sum_k w_k exp[(i/hbar) x_k ^ xi] exp[-xi . Phi_k xi / 2 hbar]."""
    pref = 1.0 / (2.0 * np.pi * hbar)
    return lambda xi_p, xi_q: pref * _plane_wave_sum(points, weights, xi_p, xi_q, hbar, phi)


def _doubled(points, phi):
    """The terms of a sampled curve at twice its n samples: the trigonometric
    interpolant of the points and of a per-sample Phi (a shared or absent Phi
    is kept), with weights 1/2n."""
    m = 2 * points.shape[0]
    each = phi is not None and phi.ndim == 3
    return _trig_doubled(points), np.full(m, 1.0 / m), _trig_doubled(phi) if each else phi


@dataclass
class ChordFunction:
    hbar: float
    fn: object = None
    values: np.ndarray = None
    grid: CenteredGrid = None
    warnings: list = field(default_factory=list)
    #: the terms (x_k, w_k, Phi) that ``fn`` sums (see ``from_terms``); None
    #: for a grid
    terms: tuple = None

    @classmethod
    def from_terms(cls, points, weights, phi, hbar: float, warnings=()) -> "ChordFunction":
        """The plane-wave sum chi(xi) = (2 pi hbar)^-1 sum_k w_k exp[(i/hbar) x_k ^ xi]
        exp[-xi . Phi_k xi / 2 hbar] of endpoints x_k (n, 2), weights (n,) and
        Phi None, one shared (2, 2) or one (n, 2, 2) per term, all finite."""
        points, weights = np.asarray(points, dtype=float), np.asarray(weights)
        phi = None if phi is None else np.asarray(phi, dtype=float)
        n = len(weights) if weights.ndim == 1 else -1
        if points.shape != (n, 2) or phi is not None and phi.shape not in ((2, 2), (n, 2, 2)):
            raise ValueError(f"terms need points (n, 2), weights (n,) and Phi None, (2, 2) or "
                             f"(n, 2, 2); got {points.shape}, {weights.shape}, {np.shape(phi)}")
        if not all(np.all(np.isfinite(a)) for a in (points, weights, phi) if a is not None):
            raise ValueError("terms must be finite")
        return cls(hbar=hbar, fn=_term_sum(points, weights, phi, hbar),
                   warnings=list(warnings), terms=(points, weights, phi))

    @classmethod
    def from_grid(cls, values: np.ndarray, grid: CenteredGrid) -> "ChordFunction":
        values = np.asarray(values, dtype=complex)
        grid._check_field(values)
        return cls(hbar=grid.hbar, values=values, grid=grid)

    @property
    def gridded(self) -> bool:
        return self.values is not None

    @property
    def samples(self) -> int | None:
        """Number of terms in the plane-wave sum (None for a grid)."""
        return None if self.terms is None else self.terms[1].size

    def _check_form(self) -> None:
        """Raise unless this holds terms or a grid, the two forms readouts take."""
        if self.terms is None and not self.gridded:
            raise ValueError("a chord function must hold plane-wave terms (from_terms) "
                             "or grid samples (from_grid)")

    def __call__(self, xi_p, xi_q):
        xp = np.asarray(xi_p, dtype=float)
        xq = np.asarray(xi_q, dtype=float)
        if self.fn is not None:
            return self.fn(xp, xq)
        return self.values[self.grid._node_index(xp, 0), self.grid._node_index(xq, 1)]

    def _drift(self, points, weights, phi) -> float:
        """max |chi - chi'| over the eight probe chords sqrt(hbar) (+-a_i, a_{3-i}),
        a = (0.3, 0.7, 1.3, 2.1), relative to max(|chi|, 1/(2 pi hbar)), where
        chi is this term sum and chi' the sum of the given terms."""
        probe = np.sqrt(self.hbar) * np.array([0.3, 0.7, 1.3, 2.1])
        probe_p, probe_q = np.concatenate([probe, -probe]), np.concatenate([probe[::-1], probe])
        ref = _term_sum(*self.terms, self.hbar)(probe_p, probe_q)
        alt = _term_sum(points, weights, phi, self.hbar)(probe_p, probe_q)
        scale = max(np.max(np.abs(ref)), 1.0 / (2.0 * np.pi * self.hbar))
        return float(np.max(np.abs(alt - ref))) / scale

    def sample(self, grid: CenteredGrid) -> "ChordFunction":
        """Evaluate a term sum onto a grid."""
        if self.fn is None:
            raise ValueError("already gridded")
        if grid.hbar != self.hbar:
            raise ValueError("grid hbar does not match the chord function")
        xp, xq = grid.meshgrid()
        out = ChordFunction.from_grid(self.fn(xp, xq), grid)
        out.warnings = list(self.warnings)
        return out
