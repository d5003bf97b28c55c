"""Serialization of gridded fields (Wigner, chord, Husimi) as long-format CSV.

``#``-prefixed header lines carry the grid metadata, then one row per
sample, axis values first.  Floats are written with %.17g so a write/read
cycle is bit-exact.
"""

from __future__ import annotations

import numpy as np

from .grids import CenteredGrid

__all__ = [
    "save_grid_csv",
    "load_grid_csv",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

_KINDS = ("centre", "chord", "husimi")


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown grid kind {kind!r}; expected one of {_KINDS}")


def save_grid_csv(path, values: np.ndarray, grid: CenteredGrid, kind: str = "centre"):
    _check_kind(kind)
    values = np.asarray(values)
    complex_data = np.iscomplexobj(values)
    cols = "axis0,axis1,re,im" if complex_data else "axis0,axis1,value"
    a0, a1 = grid.p_axis, grid.q_axis
    with open(path, "w") as fh:
        fh.write(f"# chordlab-grid schema_version = {SCHEMA_VERSION}\n")
        fh.write(f"# kind = {kind}\n")
        fh.write(f"# points = {grid.points}\n")
        fh.write(f"# half_width_p = {grid.half_width_p:.17g}\n")
        fh.write(f"# half_width_q = {grid.half_width_q:.17g}\n")
        fh.write(f"# hbar = {grid.hbar:.17g}\n")
        fh.write(f"# columns = {cols}\n")
        pp, qq = np.meshgrid(a0, a1, indexing="ij")
        parts = (values.real, values.imag) if complex_data else (values,)
        table = np.stack([pp, qq, *parts], axis=-1).reshape(-1, 2 + len(parts))
        row = ",".join(["%.17g"] * table.shape[1]) + "\n"
        fh.write((row * table.shape[0]) % tuple(table.ravel().tolist()))


def load_grid_csv(path):
    meta = {}
    with open(path) as fh:
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = val.strip()
                continue
            rows.append(line)
    try:
        m = int(meta["points"])
        grid = CenteredGrid(
            half_width_p=float(meta["half_width_p"]),
            half_width_q=float(meta["half_width_q"]),
            points=m,
            hbar=float(meta["hbar"]),
        )
        kind = meta["kind"]
    except KeyError as exc:
        raise ValueError(f"grid CSV is missing header field {exc}") from None
    _check_kind(kind)
    data = np.array([[float(tok) for tok in row.split(",")] for row in rows])
    if data.shape[0] != m * m:
        raise ValueError(f"expected {m * m} rows, found {data.shape[0]}")
    if data.shape[1] == 4:
        values = (data[:, 2] + 1j * data[:, 3]).reshape(m, m)
    else:
        values = data[:, 2].reshape(m, m)
    return values, grid, kind
