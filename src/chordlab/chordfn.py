"""Container for chord functions chi(xi).

A chord function is carried either as a closed form (a callable broadcasting
over xi_p, xi_q arrays) or as samples on a centered chord grid.  Sampled
functions are only ever read at their own grid nodes; no interpolation is
offered, because chi oscillates on the hbar scale and silent interpolation
there is a trap.
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
    #: number of terms in the plane-wave sum behind ``fn`` (None for closed forms)
    samples: int = None

    @classmethod
    def from_callable(cls, fn, hbar: float, samples: int = None,
                      warnings=()) -> "ChordFunction":
        return cls(hbar=hbar, fn=fn, warnings=list(warnings), samples=samples)

    @classmethod
    def from_grid(cls, values: np.ndarray, grid: CenteredGrid) -> "ChordFunction":
        values = np.asarray(values, dtype=complex)
        grid._check_field(values)
        return cls(hbar=grid.hbar, values=values, grid=grid)

    @property
    def gridded(self) -> bool:
        return self.values is not None

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
        if abs(grid.hbar - self.hbar) > 1e-12 * self.hbar:
            raise ValueError("grid hbar does not match the chord function")
        xp, xq = grid.meshgrid()
        out = ChordFunction.from_grid(self.fn(xp, xq), grid)
        out.warnings = list(self.warnings)
        return out
