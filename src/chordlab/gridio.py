"""CSV tables: ``# key = value`` header lines, a ``# columns = ...`` line,
then one comma-separated row per sample, every float written with %.17g so a
write/read cycle is bit-exact.  ``write_table`` writes every table chordlab
writes; gridded fields (Wigner, chord, Husimi) put their grid in the header
and the axis values first in each row.
"""

from __future__ import annotations

import numpy as np

from .grids import CenteredGrid

__all__ = [
    "write_table",
    "save_grid_csv",
    "load_grid_csv",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

_KINDS = ("centre", "chord", "husimi")


def _spec(cell) -> str:
    return "%s" if isinstance(cell, str) else "%.17g"


def write_table(path, header, columns, rows) -> None:
    """Write ``header`` as ``(key, value)`` pairs, the column names, then ``rows``.

    ``rows`` is a 2-D float array, or a sequence of tuples whose ``str``
    cells are written as they are; every other cell and header value is
    written with %.17g.  The first row fixes each column's format.
    """
    cells = rows.ravel().tolist() if isinstance(rows, np.ndarray) else [
        cell for row in rows for cell in row]
    row = ",".join(_spec(cell) for cell in cells[:len(columns)]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in header:
            fh.write(f"# {key} = {_spec(value) % value}\n")
        fh.write("# columns = " + ",".join(columns) + "\n")
        fh.write((row * (len(cells) // len(columns))) % tuple(cells))


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown grid kind {kind!r}; expected one of {_KINDS}")


def save_grid_csv(path, values: np.ndarray, grid: CenteredGrid, kind: str = "centre"):
    _check_kind(kind)
    values = np.asarray(values)
    complex_data = np.iscomplexobj(values)
    pp, qq = np.meshgrid(grid.p_axis, grid.q_axis, indexing="ij")
    parts = (values.real, values.imag) if complex_data else (values,)
    write_table(path,
                [("chordlab-grid schema_version", SCHEMA_VERSION), ("kind", kind),
                 ("points", grid.points), ("half_width_p", grid.half_width_p),
                 ("half_width_q", grid.half_width_q), ("hbar", grid.hbar)],
                ["axis0", "axis1", "re", "im"] if complex_data else ["axis0", "axis1", "value"],
                np.stack([pp, qq, *parts], axis=-1).reshape(-1, 2 + len(parts)))


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
