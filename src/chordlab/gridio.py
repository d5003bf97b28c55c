"""CSV tables: ``# key = value`` header lines, a ``# columns = ...`` line,
then one comma-separated row per sample, every float written with %.17g so a
write/read cycle is bit-exact.  ``write_table`` writes every table chordlab
writes; its rows are a number array, an object array whose ``str`` cells are
written as they are, or tuples.  Gridded fields (Wigner, chord, Husimi) put
their grid in the header and only their values in the rows, one row per grid
point in ``[p, q]`` row-major order (row ``i * points + j`` holds
``values[i, j]``); ``load_grid_csv`` checks the header, the columns and the
row and cell counts.
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

SCHEMA_VERSION = 2

_KINDS = ("centre", "chord", "husimi")
_COLUMNS = {False: ["value"], True: ["re", "im"]}


def _spec(cell) -> str:
    return "%s" if isinstance(cell, str) else "%.17g"


def write_table(path, header, columns, rows) -> None:
    """Write ``header`` as ``(key, value)`` pairs, the column names, then ``rows``.

    ``rows`` is an array with one row per line (numbers, or objects whose
    ``str`` cells are written as they are), or a sequence of such tuples;
    every other cell and header value is written with %.17g.  The first row
    fixes each column's format.
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
    grid._check_field(values)
    complex_data = np.iscomplexobj(values)
    rows = np.stack((values.real, values.imag), axis=-1) if complex_data else values
    write_table(path,
                [("chordlab-grid schema_version", SCHEMA_VERSION), ("kind", kind),
                 ("points", grid.points), ("half_width_p", grid.half_width_p),
                 ("half_width_q", grid.half_width_q), ("hbar", grid.hbar)],
                _COLUMNS[complex_data], rows)


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
        grid = CenteredGrid(float(meta["half_width_p"]), float(meta["half_width_q"]), m,
                            float(meta["hbar"]))
        kind = meta["kind"]
    except KeyError as exc:
        raise ValueError(f"grid CSV is missing header field {exc}") from None
    _check_kind(kind)
    columns = meta.get("columns", "").split(",")
    if columns not in _COLUMNS.values():
        raise ValueError(f"grid CSV columns {meta.get('columns')!r}; expected 'value' or 're,im'")
    if len(rows) != m * m:
        raise ValueError(f"expected {m * m} rows, found {len(rows)}")
    cells = [row.split(",") for row in rows]
    for n, row in enumerate(cells):
        if len(row) != len(columns):
            raise ValueError(f"data row {n + 1} has {len(row)} cells; "
                             f"the columns are {','.join(columns)}")
    data = np.array([[float(tok) for tok in row] for row in cells]).reshape(m, m, -1)
    if len(columns) == 2:  # each (re, im) pair is one complex128, signed zeros kept
        data = data.view(complex)
    return data[:, :, 0], grid, kind
