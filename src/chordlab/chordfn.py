"""Container for chord functions chi(xi).

A chord function is carried either as a closed form (a callable broadcasting
over xi_p, xi_q arrays) or as samples on a centered chord grid.  Sampled
functions are only ever read at their own grid nodes; no interpolation is
offered, because chi oscillates on the hbar scale and silent interpolation
there is a trap.  A callable that is a plane-wave sum (an evolved chord
function, a WKB curve state) also keeps its terms, which readouts such as
``lwc_from_chord`` integrate in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import CenteredGrid

__all__ = ["ChordFunction"]


@dataclass
class ChordFunction:
    hbar: float
    fn: object = None
    values: np.ndarray = None
    grid: CenteredGrid = None
    warnings: list = field(default_factory=list)
    #: the terms (x_k, w_k, Phi) of chi = (2 pi hbar)^-1 sum_k w_k exp[(i/hbar) x_k ^ xi]
    #: exp[-xi . Phi_k xi / 2 hbar] that ``fn`` sums: endpoints (n, 2), weights (n,),
    #: and Phi None, one shared (2, 2) or one (n, 2, 2) per term; None for other callables
    terms: tuple = None

    @classmethod
    def from_callable(cls, fn, hbar: float, warnings=(), terms=None) -> "ChordFunction":
        return cls(hbar=hbar, fn=fn, warnings=list(warnings), terms=terms)

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
        """Number of terms in the plane-wave sum (None for other chord functions)."""
        return None if self.terms is None else self.terms[1].size

    def __call__(self, xi_p, xi_q):
        xp = np.asarray(xi_p, dtype=float)
        xq = np.asarray(xi_q, dtype=float)
        if self.fn is not None:
            return self.fn(xp, xq)
        return self.values[self.grid._node_index(xp, 0), self.grid._node_index(xq, 1)]

    def sample(self, grid: CenteredGrid) -> "ChordFunction":
        """Evaluate a closed-form chord function onto a grid."""
        if self.fn is None:
            raise ValueError("already gridded")
        if grid.hbar != self.hbar:
            raise ValueError("grid hbar does not match the chord function")
        xp, xq = grid.meshgrid()
        out = ChordFunction.from_grid(self.fn(xp, xq), grid)
        out.warnings = list(self.warnings)
        return out
