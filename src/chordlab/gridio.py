"""CSV tables: ``# key = value`` header lines, a ``# columns = ...`` line,
then one comma-separated row per sample, every number written as
``'%.17g' % value`` so a write/read cycle is bit-exact.  ``write_table``
writes every table chordlab writes; its rows are a 2-D number array, which
goes through the kernel below, or a row sequence (tuples, lists or an
object array), written a cell at a time like the header's values: ``str``
cells as they are, numbers as ``'%.17g' % float(value)``.  Gridded
fields (Wigner, chord, Husimi) put their grid in the header and only their
values in the rows, one row per grid point in ``[p, q]`` row-major order
(row ``i * points + j`` holds ``values[i, j]``); ``load_grid_csv`` checks the
header, the columns and the row and cell counts.

Number arrays are formatted by one numpy kernel, ``_format``, a whole block
at a time instead of one CPython format call per cell.  For each cell it takes
the decade ``k = floor(log10|x|)``, forms ``|x| 10**(16 - k)`` as a
double-double product with a table of double-double powers of ten (Dekker,
Numer. Math. 18, 224, 1971), settles the decade on that exact sum and rounds
it half-even to the 17 significant digits.  It then lays the ``%g`` text
(fixed form for ``-4 <= k < 17``, otherwise ``d.ddde+XX``, trailing zeros
trimmed) out in a fixed-width byte slot per cell, ANDs each slot with a
0x00/0xFF mask of the bytes that belong to the text, and deletes the NUL
bytes that leaves with one ``bytes.translate`` (no cell's text holds a NUL),
so no index array is built, and returns those bytes as they are.  A +-0
is laid out as the digit 0, signed by its ``signbit``.  The cells it cannot
decide go to ``'%.17g' %`` itself: nan, +-inf, ``|x|`` outside
``[1e-250, 1e250]``, and any cell within 1e-6 units of its 17th digit of a
rounding tie.  So the bytes are those of ``'%.17g' %`` for every cell.  The
lookup tables are built on the first write, and an array's rows go through
the kernel in row-aligned blocks of about ``_BLOCK_CELLS`` cells, each
written to the file (opened in binary mode) in turn, so the memory a write
takes does not grow with the array.
"""

from __future__ import annotations

import functools
import numbers
from types import SimpleNamespace

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

_BLOCK_CELLS = 1 << 13  # cells per kernel call: about 3.5 MB of work arrays

# A cell's slot, in output order (the kernel keeps some of its bytes):
#   0      the separator before the cell: ',' or, in column 0, the '\n' ending the row above
#   1      '-'
#   2      the '0' of 0.000ddd
#   3-19   the 17 digits, read as the integer part (d.ddd or ddd.d)
#   20     '.'
#   21-23  the zeros of 0.000ddd
#   27-43  the 17 digits again, read as the fraction
#   44     'e'
#   48-51  the exponent's sign and digits, '+05 ' or '-123'
# Bytes 24-26 and 45-47 are never kept; they align the digits and the
# exponent to 4-byte words, which the kernel writes whole (24-26 unset).
_SLOT = 52
_SLOT_ROW = b",-00" + b"0" * 16 + b".000" + b"   " + b"0" * 17 + b"e   +000"
_FORMS = np.r_[np.arange(-4, 17), 17, 100]  # fixed at decade -4..16, then d.ddde+XX, d.ddde+XXX
_P_MIN, _P_MAX = -236, 268  # every power 16 - k the kernel asks for, with a decade to spare


def _keep_rows(k, nd, neg) -> np.ndarray:
    """The slot bytes a cell's text keeps, given its decade ``k`` (a ``_FORMS``
    entry stands for every decade of its form), its ``nd`` significant digits
    and its sign ``neg``."""
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)
    whole = np.where(small, 0, np.where(fixed, k + 1, 1))  # digits before the '.'
    j = np.arange(17)
    keep = np.zeros((k.size, _SLOT), bool)
    keep[:, 0] = True
    keep[:, 1] = neg
    keep[:, 2] = small
    keep[:, 3:20] = j < whole[:, None]
    keep[:, 20] = small | (nd > whole)
    keep[:, 21:24] = np.arange(3) < np.where(small, -k - 1, 0)[:, None]
    keep[:, 27:44] = (j >= whole[:, None]) & (j < nd[:, None])
    keep[:, 44] = keep[:, 48] = keep[:, 49] = keep[:, 50] = ~fixed
    keep[:, 51] = ~fixed & (np.abs(k) >= 100)
    return keep


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's lookup tables, built on first use."""
    pow_hi, pow_lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):  # 10**p = hi + lo, each correctly rounded
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den
        m, s = hi.as_integer_ratio()
        pow_hi.append(hi)
        pow_lo.append((num * s - m * den) / (den * s))
    quad = ((np.arange(10000)[:, None] // [1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    exponent = b"".join(b"%+04d" % e if abs(e) >= 100 else b"%+03d " % e
                        for e in range(-300, 301))
    ks = np.arange(-300, 301)
    f, nd, neg = np.meshgrid(np.arange(_FORMS.size), np.arange(1, 18), [False, True],
                             indexing="ij")
    return SimpleNamespace(
        pow_hi=np.array(pow_hi), pow_lo=np.array(pow_lo),
        quad=quad.view(np.uint32).ravel(),  # the four digits of 0..9999, as one word
        # the trailing '0's of each, as bytes: a table that stays in the L1 cache
        quad_zeros=np.cumprod(quad[:, ::-1] == 48, axis=1).sum(axis=1).astype(np.uint8),
        exponent=np.frombuffer(exponent, np.uint32),  # sign and digits of -300..300
        form=np.where((ks < -4) | (ks >= 17), 21 + (np.abs(ks) >= 100), ks + 4),  # of -300..300
        # 0xFF on a kept byte, 0x00 on a dropped one, ANDed into the slot's words
        keep=(_keep_rows(_FORMS[f.ravel()], nd.ravel(), neg.ravel()) * np.uint8(0xFF)
              ).view(np.uint32),
        slot=np.frombuffer(_SLOT_ROW, np.uint32))


def _halves(a):
    """Veltkamp's split ``a = h + l``, each half with 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    h = c - (c - a)
    return h, a - h


def _scaled(a, p, t):
    """``a * 10**p`` as ``hi + lo``, to about 1e-31 relative: ``hi`` is the
    rounded product with the table's ``10**p`` and ``lo`` its exact remainder
    (Dekker's product) plus the table's low part times ``a``."""
    th, tl = t.pow_hi[p - _P_MIN], t.pow_lo[p - _P_MIN]
    hi = a * th
    ah, al = _halves(a)
    bh, bl = _halves(th)
    return hi, (((ah * bh - hi) + ah * bl + al * bh) + al * bl) + a * tl


def _divmod(n, b):
    """``np.divmod(n, b)`` for non-negative integers n and a positive int b:
    numpy divides by a scalar in its libdivide loop, which ``divmod`` skips."""
    q = n // b
    return q, n - q * b


def _format(cells: np.ndarray) -> bytes:
    """The 2-D number array ``cells`` as the bytes of CSV rows, each cell as
    ``'%.17g' % cell``, each row ended by a newline.

    Each cell's slot is laid out in one buffer that ends with the last row's
    newline (the padding bytes 24-26 are left as they are), its dropped bytes
    are zeroed by an AND with the ``_tables().keep`` mask (a fallback cell's
    by its NUL padding), and the NULs are deleted from the buffer in one
    ``translate``.  A zero is the digit 0 with the sign its ``signbit``
    gives."""
    t = _tables()
    rows, cols = cells.shape
    x = np.ascontiguousarray(cells, dtype=np.float64).ravel()
    if not x.size:
        return b""
    a = np.abs(x)
    zero = np.flatnonzero(a == 0.0)
    sure = (a >= 1e-250) & (a <= 1e250)  # False for 0, nan and inf
    a[~sure] = 1.0  # a zero then takes the digits and decade of 1.0
    sure[zero] = True
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - k, t)
    # log10 may miss the decade by one near a power of ten: settle it on the exact sum
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(up | down)
    if moved.size:
        k[moved] += up[moved].astype(np.int64) - down[moved]
        hi[moved], lo[moved] = _scaled(a[moved], 16 - k[moved], t)
    # 1e16 <= hi + lo < 1e17, so hi is a whole number and lo carries the rounding
    floor = np.floor(lo)
    frac = lo - floor
    sure &= np.abs(frac - 0.5) > 1e-6
    d = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    d[zero] = 0  # so a zero's text is its sign and the digit 0
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry
    lead, rest = _divmod(d, 10 ** 16)
    high, low = _divmod(rest, 10 ** 8)
    quads = [*_divmod(high, 10 ** 4), *_divmod(low, 10 ** 4)]
    zeros = t.quad_zeros
    trailing = zeros[quads[3]] + (quads[3] == 0) * zeros[quads[2]] + (low == 0) * (
        zeros[quads[1]] + (quads[1] == 0) * zeros[quads[0]])
    form = t.form[k + 300]  # _FORMS index

    buf = np.empty(x.size * _SLOT + 1, np.uint8)
    buf[-1] = ord("\n")
    slot = buf[:-1].reshape(x.size, _SLOT)
    words = slot.view(np.uint32)
    for col in (0, 5, 11):  # words 1-4, 7-10 and 12 are written whole below, and
        words[:, col] = t.slot[col]  # word 6 is padding the mask drops, bar byte 27
    slot.reshape(rows, cols, _SLOT)[:, 0, 0] = ord("\n")
    for col, quad in enumerate(quads, 1):
        words[:, col] = words[:, col + 6] = t.quad[quad]
    slot[:, 3] = slot[:, 27] = lead + 48
    words[:, 12] = t.exponent[k + 300]
    words &= np.take(t.keep, (form * 17 + 16 - trailing) * 2 + np.signbit(x), axis=0)
    slot[0, 0] = 0  # the first cell has no separator
    fallback = np.flatnonzero(~sure)
    if fallback.size:  # '%.17g' % x has at most 24 characters, NUL-padded here
        text = np.array(["%.17g" % v for v in x[fallback].tolist()], "S24").view(np.uint8)
        slot[fallback, 1:25] = text.reshape(fallback.size, 24)
        slot[fallback, 25:] = 0
    return buf.tobytes().translate(None, b"\0")


_REAL = (numbers.Real, np.bool_)


def _check_width(r: int, width: int, names: list) -> None:
    if width != len(names):
        where = (f"no cell in column {names[width]!r}" if width < len(names)
                 else f"{width} cells; the last column is {names[-1]!r}")
        raise ValueError(f"data row {r} has {where}")


def _cell_text(cell) -> str:
    """A ``str`` cell as it is, a number as ``'%.17g' % float(cell)``: the
    bytes ``_format`` gives a number cell."""
    return cell if isinstance(cell, str) else "%.17g" % float(cell)


def _table(columns, rows):
    """The table's CSV lines, as chunks of bytes: a 2-D number array's
    through ``_format`` in row-aligned blocks of about ``_BLOCK_CELLS`` cells,
    a row sequence's as one encoded string of each cell's ``_cell_text``.  A
    column's kind is that of its first cell.  Raises ``ValueError`` naming the
    first row and column that do not fit before it formats any."""
    names = list(columns)
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        if rows.ndim != 2 or rows.dtype.kind not in "biuf":
            raise ValueError(f"rows must be a 2-D array of real numbers (one row per "
                             f"line), not a {rows.ndim}-D {rows.dtype} array")
        _check_width(1, rows.shape[1], names)
        step = max(1, _BLOCK_CELLS // max(len(names), 1))
        return (_format(rows[start:start + step]) for start in range(0, len(rows), step))
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    for r, row in enumerate(rows, 1):
        _check_width(r, len(row), names)
    for name, cells in zip(names, zip(*rows)):
        is_text = isinstance(cells[0], str)
        for r, cell in enumerate(cells, 1):
            if isinstance(cell, str) != is_text or not (is_text or isinstance(cell, _REAL)):
                raise ValueError(f"data row {r}, column {name!r}: {cell!r} in a column of "
                                 + ("str" if is_text else "numbers"))
    return ["".join(",".join(map(_cell_text, row)) + "\n" for row in rows).encode("utf-8")]


def write_table(path, header, columns, rows) -> None:
    """Write ``header`` as ``(key, value)`` pairs, the column names, then ``rows``.

    ``rows`` is a 2-D number array with one row per line, or a sequence of
    rows (tuples, lists, or an object array) whose cells are ``str`` or real
    numbers.  The array goes through the ``_format`` kernel, which hands
    nan, +-inf, ``|x|`` outside ``[1e-250, 1e250]`` and near-ties to ``%``
    itself, in row-aligned blocks of about ``_BLOCK_CELLS`` cells, each
    written in turn as the bytes the kernel returns.  A row sequence's cells,
    like the header's values, are formatted one at a time, ``str`` as it is
    and a number as ``'%.17g' % float(value)``, the kernel's reference bytes,
    and encoded once; a column's first cell sets its kind, ``str`` or number.
    The file is written in binary mode as UTF-8, so a line ends in a bare
    newline on every platform.  Everything is checked before the file is
    opened: a row whose cell count is not the column count, or a cell whose
    kind is not its column's, raises ``ValueError`` naming the row and the
    column, and nothing is written.
    """
    chunks = _table(columns, rows)
    for key, value in header:
        if not isinstance(value, (str, *_REAL)):
            raise ValueError(f"header {key!r}: {value!r} is neither a str nor a real number")
    head = "".join(f"# {key} = {_cell_text(value)}\n" for key, value in header)
    head += "# columns = " + ",".join(columns) + "\n"
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        fh.writelines(chunks)


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
                _COLUMNS[complex_data], rows.reshape(grid.points ** 2, -1))


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
