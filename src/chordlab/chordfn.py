"""Container for chord functions chi(xi).

A ``ChordFunction`` holds one of two forms, checked when it is built.  A
plane-wave term sum (a coherent state, an evolved chord function, a WKB
curve state; ``from_terms``) keeps its terms, which readouts such as
``lwc_from_chord`` integrate in closed form, and its callable ``fn`` sums
them through ``grids._plane_wave_sum`` at any chords.  Samples on a centred
chord grid of its hbar (``from_grid``) are only ever read at their own grid
nodes; no interpolation is offered, because chi oscillates on the hbar scale
and silent interpolation there is a trap.  ``_drift`` is the sampling check
the term sums share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import CenteredGrid, _check_hbar, _check_positive, _plane_wave_sum, _trig_doubled

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
    """chi(xi) as plane-wave ``terms`` (x_k (n, 2), w_k (n,) and Phi None, (2, 2)
    or (n, 2, 2), all finite), summed by ``fn``, which may be rebound; or as
    complex ``values``, one per node of a chord ``grid`` of this hbar.  A
    record of neither form or of both raises ValueError."""

    hbar: float
    values: np.ndarray = None
    grid: CenteredGrid = None
    warnings: list = field(default_factory=list)
    terms: tuple = None
    fn: object = field(init=False, default=None)

    def __post_init__(self):
        _check_positive(self.hbar, "hbar")
        gridded = self.values is not None
        if (self.terms is not None) == gridded or (self.grid is not None) != gridded:
            raise ValueError("a chord function holds plane-wave terms (from_terms) or grid "
                             "samples with their grid (from_grid), exactly one of the two")
        if self.terms is None:
            self.values = np.asarray(self.values, dtype=complex)
            _check_hbar(self.grid.hbar, self.hbar, "chord function")
            self.grid._check_field(self.values)
            return
        points, weights, phi = self.terms
        points, weights = np.asarray(points, dtype=float), np.asarray(weights)
        phi = None if phi is None else np.asarray(phi, dtype=float)
        n = len(weights) if weights.ndim == 1 else -1
        if points.shape != (n, 2) or phi is not None and phi.shape not in ((2, 2), (n, 2, 2)):
            raise ValueError(f"terms need points (n, 2), weights (n,) and Phi None, (2, 2) or "
                             f"(n, 2, 2); got {points.shape}, {weights.shape}, {np.shape(phi)}")
        if not all(np.all(np.isfinite(a)) for a in (points, weights, phi) if a is not None):
            raise ValueError("terms must be finite")
        self.terms = (points, weights, phi)
        self.fn = _term_sum(points, weights, phi, self.hbar)

    @classmethod
    def from_terms(cls, points, weights, phi, hbar: float, warnings=()) -> "ChordFunction":
        """The plane-wave sum chi(xi) = (2 pi hbar)^-1 sum_k w_k exp[(i/hbar) x_k ^ xi]
        exp[-xi . Phi_k xi / 2 hbar] of the terms (x_k, w_k, Phi)."""
        return cls(hbar, warnings=list(warnings), terms=(points, weights, phi))

    @classmethod
    def from_grid(cls, values, grid: CenteredGrid, warnings=()) -> "ChordFunction":
        """The samples ``values`` (M, M) on the chord grid, at the grid's hbar."""
        return cls(grid.hbar, values, grid, list(warnings))

    @property
    def gridded(self) -> bool:
        return self.values is not None

    @property
    def samples(self) -> int | None:
        """Number of terms in the plane-wave sum (None for a grid)."""
        return None if self.terms is None else self.terms[1].size

    def __call__(self, xi_p, xi_q):
        xp = np.asarray(xi_p, dtype=float)
        xq = np.asarray(xi_q, dtype=float)
        if self.terms is not None:
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
        """Evaluate a term sum onto a grid of its hbar, keeping its warnings."""
        if self.gridded:
            raise ValueError("already gridded")
        _check_hbar(grid.hbar, self.hbar, "chord function")
        xp, xq = grid.meshgrid()
        return ChordFunction.from_grid(self.fn(xp, xq), grid, self.warnings)
