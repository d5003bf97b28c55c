import tracemalloc

import numpy as np
import pytest

from chordlab import cli, gridio
from chordlab.gridio import load_grid_csv, save_grid_csv, write_table
from chordlab.grids import CenteredGrid


def _spec(cell) -> str:
    return "%s" if isinstance(cell, str) else "%.17g"


def _percent_write_table(path, header, columns, rows) -> None:
    """The reference writer: ``write_table`` as it was before the ``_format``
    kernel, one ``%`` format over every cell, the first row fixing each
    column's format."""
    cells = rows.ravel().tolist() if isinstance(rows, np.ndarray) else [
        cell for row in rows for cell in row]
    row = ",".join(_spec(cell) for cell in cells[:len(columns)]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in header:
            fh.write(f"# {key} = {_spec(value) % value}\n")
        fh.write("# columns = " + ",".join(columns) + "\n")
        fh.write((row * (len(cells) // len(columns))) % tuple(cells))


def _sample_field(complex_data):
    rng = np.random.default_rng(19)
    grid = CenteredGrid(1.25, 0.75, 16, 0.05)
    vals = rng.standard_normal((16, 16))
    if complex_data:
        vals = vals + 1j * rng.standard_normal((16, 16))
    return vals, grid


@pytest.mark.parametrize("complex_data", [False, True])
def test_csv_round_trip_is_bit_exact(tmp_path, complex_data):
    vals, grid = _sample_field(complex_data)
    path = tmp_path / "field.csv"
    save_grid_csv(path, vals, grid, "chord")
    back, bgrid, kind = load_grid_csv(path)
    assert kind == "chord"
    assert np.array_equal(back, vals)  # %.17g survives the cycle exactly
    assert bgrid.points == grid.points
    assert bgrid.half_width_p == grid.half_width_p
    assert bgrid.half_width_q == grid.half_width_q
    assert bgrid.hbar == grid.hbar


def test_load_skips_blank_lines(tmp_path):
    vals, grid = _sample_field(True)
    path = tmp_path / "field.csv"
    save_grid_csv(path, vals, grid, "chord")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["", "   "] + lines[3:20] + [""] + lines[20:]) + "\n\n")
    back, bgrid, kind = load_grid_csv(path)
    assert kind == "chord" and bgrid == grid and np.array_equal(back, vals)


def test_unknown_kind_rejected(tmp_path):
    vals, grid = _sample_field(False)
    with pytest.raises(ValueError):
        save_grid_csv(tmp_path / "x.csv", vals, grid, "wigner")


def test_csv_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# kind = centre\n0,0,1\n")
    with pytest.raises(ValueError):
        load_grid_csv(path)


def test_csv_row_count_check(tmp_path):
    vals, grid = _sample_field(False)
    path = tmp_path / "field.csv"
    save_grid_csv(path, vals, grid)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError):
        load_grid_csv(path)


@pytest.mark.parametrize("complex_data", [False, True])
def test_csv_rows_match_per_element_writer(tmp_path, complex_data):
    """The whole-array write gives the bytes of formatting each element with
    .17g, nan, inf and signed zero included."""
    vals, grid = _sample_field(complex_data)
    vals[3, 5] = np.nan
    vals[7, 1] = -0.0
    vals[0, 0] = np.inf
    path = tmp_path / "field.csv"
    save_grid_csv(path, vals, grid, "chord")
    rows = []
    for i in range(grid.points):
        for j in range(grid.points):
            v = vals[i, j]
            rows.append((f"{v.real:.17g},{v.imag:.17g}" if complex_data else f"{v:.17g}") + "\n")
    lines = path.read_text().splitlines(keepends=True)
    assert all(line.startswith("#") for line in lines[:7])
    assert "".join(lines[7:]) == "".join(rows)


def test_write_table_keeps_str_cells_and_formats_the_rest(tmp_path):
    """Tuple rows: str cells verbatim, numbers (header values too) with .17g."""
    path = tmp_path / "t.csv"
    rows = [("a", 0.1, -0.0, "1"), ("b", np.nan, 1e-300, "0")]
    write_table(path, [("kind", "demo"), ("hbar", 0.05)], ["name", "x", "y", "ok"], rows)
    assert path.read_text() == (
        "# kind = demo\n# hbar = 0.050000000000000003\n# columns = name,x,y,ok\n"
        "a,0.10000000000000001,-0,1\nb,nan,1e-300,0\n")


def _edit_rows(path, edit):
    """Rewrite each data row of a grid CSV as ``edit(cells)``."""
    lines = path.read_text().splitlines()
    body = [",".join(edit(line.split(","))) for line in lines[7:]]
    path.write_text("\n".join(lines[:7] + body) + "\n")


@pytest.mark.parametrize("complex_data, edit, header, match", [
    (True, lambda c: c + ["0"], None, "3 cells"),
    (False, lambda c: c + ["0"], None, "2 cells"),
    (True, lambda c: c[:1], None, "1 cells"),
    (False, None, ("columns = value", "columns = v"), "columns"),
    (False, None, ("# columns = value\n", ""), "columns"),
], ids=["extra-cell", "two-cells", "one-cell", "renamed-columns", "no-columns-line"])
def test_load_rejects_rows_off_the_columns_or_axes(tmp_path, complex_data, edit, header, match):
    vals, grid = _sample_field(complex_data)
    path = tmp_path / "field.csv"
    save_grid_csv(path, vals, grid)
    if edit is not None:
        _edit_rows(path, edit)
    if header is not None:
        path.write_text(path.read_text().replace(*header))
    with pytest.raises(ValueError, match=match):
        load_grid_csv(path)


def test_load_rejects_a_schema_1_file(tmp_path):
    """A schema-1 file, whose rows start with the two axis values, fails on its
    columns line."""
    path = tmp_path / "old.csv"
    path.write_text("# chordlab-grid schema_version = 1\n# kind = centre\n# points = 2\n"
                    "# half_width_p = 1\n# half_width_q = 1\n# hbar = 0.05\n"
                    "# columns = axis0,axis1,value\n"
                    "-1,-1,0.5\n-1,0,0.25\n0,-1,0.125\n0,0,1\n")
    with pytest.raises(ValueError, match="columns 'axis0,axis1,value'"):
        load_grid_csv(path)


@pytest.mark.parametrize("points", [2, 8, 64])
@pytest.mark.parametrize("complex_data", [False, True])
def test_round_trip_is_exact_and_row_k_holds_values_i_j(tmp_path, points, complex_data):
    """Row k = i * points + j holds values[i, j]; the file carries no axis cells,
    and loading gives back the values and the grid bit for bit."""
    rng = np.random.default_rng(points)
    grid = CenteredGrid(1.5, 0.625, points, 0.05)
    vals = rng.standard_normal((points, points))
    if complex_data:
        vals = vals + 1j * rng.standard_normal((points, points))
        vals[0, -1] = complex(-0.0, -0.0)
        vals[-1, 0] = complex(1.5, np.inf)
    path = tmp_path / "field.csv"
    save_grid_csv(path, vals, grid, "husimi")
    lines = path.read_text().splitlines()
    assert lines[6] == "# columns = " + ("re,im" if complex_data else "value")
    rows = lines[7:]
    assert len(rows) == points * points
    for k, row in enumerate(rows):
        v = vals[divmod(k, points)]
        assert [float(c) for c in row.split(",")] == ([v.real, v.imag] if complex_data else [v])
    back, bgrid, kind = load_grid_csv(path)
    assert (bgrid, kind) == (grid, "husimi")
    assert back.dtype == vals.dtype
    assert back.view(np.int64).tobytes() == vals.view(np.int64).tobytes()


def _per_element_file(vals, grid, kind):
    """The grid CSV of ``vals`` as float64 or complex128, one .17g format per cell."""
    complex_data = np.iscomplexobj(vals)
    vals = np.asarray(vals, dtype=complex if complex_data else float)
    lines = [f"# chordlab-grid schema_version = 2\n# kind = {kind}\n"
             f"# points = {grid.points}\n# half_width_p = {grid.half_width_p:.17g}\n"
             f"# half_width_q = {grid.half_width_q:.17g}\n# hbar = {grid.hbar:.17g}\n"
             "# columns = " + ("re,im\n" if complex_data else "value\n")]
    for i in range(grid.points):
        for j in range(grid.points):
            v = vals[i, j]
            lines.append((f"{v.real:.17g},{v.imag:.17g}" if complex_data else f"{v:.17g}") + "\n")
    return "".join(lines)


@pytest.mark.parametrize("dtype", ["float32", "int64", "bool", "complex64",
                                   "float64-transposed", "complex128-transposed"])
def test_grid_write_of_any_value_dtype_matches_per_element_writer(tmp_path, dtype):
    """Value cells keep their number type; each must print as its float64 (or
    complex128) value would."""
    vals, grid = _sample_field(dtype.startswith("complex"))
    vals = vals * 1e3
    if dtype.endswith("transposed"):
        vals = vals.T
        assert not vals.flags.c_contiguous
    else:
        vals = vals.astype(dtype)
    path = tmp_path / "field.csv"
    save_grid_csv(path, vals, grid, "husimi")
    assert path.read_text() == _per_element_file(vals, grid, "husimi")


def test_save_rejects_values_off_the_grid_shape(tmp_path):
    vals, grid = _sample_field(False)
    with pytest.raises(ValueError, match="shape"):
        save_grid_csv(tmp_path / "x.csv", vals[:1], grid)


def _assert_cells_match_percent(x):
    """``_format`` gives the bytes of ``'%.17g' %`` for every cell of ``x``,
    and for a +0 and a -0 on either side of them, the first cell included."""
    x = np.r_[0.0, -0.0, np.asarray(x, dtype=np.float64).ravel(), -0.0, 0.0]
    got = gridio._format(x[:, None])
    want = "".join(["%.17g\n" % v for v in x.tolist()]).encode("ascii")
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.splitlines(), want.splitlines())
               if g != w]
        pytest.fail(f"{len(bad)} cells differ from %.17g, (value, got, want): {bad[:5]}")


def _ulps_around(values, ulps=2):
    """Every double within ``ulps`` steps of each of ``values``, both signs."""
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    both = np.concatenate(out)
    return np.concatenate([both, -both])


def test_kernel_matches_percent_on_random_bit_patterns():
    """1e6 random 64-bit patterns: every finite double is as likely as any
    other, subnormals and both signs included."""
    bits = np.random.default_rng(20261019).integers(0, 2 ** 64, 1_002_000, dtype=np.uint64,
                                                    endpoint=False)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    assert x.size > 1_000_000 and (x < 0).mean() == pytest.approx(0.5, abs=0.01)
    _assert_cells_match_percent(x)


def test_kernel_matches_percent_at_powers_of_ten():
    """Within two ulps of every power of ten a double can hold, where log10
    misses the decade and the 17 digits carry into a new one."""
    _assert_cells_match_percent(_ulps_around([float(f"1e{j}") for j in range(-323, 309)]))


def test_kernel_matches_percent_at_the_edges_of_the_doubles():
    tiny = np.float64(5e-324)
    x = np.r_[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, np.finfo(float).max,
              np.finfo(float).tiny, tiny, tiny * np.arange(1, 100),
              np.finfo(float).tiny - tiny * np.arange(1, 100),
              _ulps_around([1e-250, 1e250, 2.0 ** -1022, 2.0 ** 1023])]
    _assert_cells_match_percent(x)


def test_kernel_matches_percent_on_ties_and_wide_integers():
    """Exact ties round half-even: x.25 and x.75 with 16 integer digits, and
    2**-k (18 or more significant digits ending in 5).  The integers near 1e16
    and 1e17 have 17 and 18 digits."""
    whole = np.arange(1e15, 1e15 + 200) * np.r_[1.0, 2.0][:, None]
    x = np.r_[(whole + 0.25).ravel(), (whole + 0.75).ravel(), 2.0 ** -np.arange(1, 1075),
              2.0 ** np.arange(0, 1024), 3.0 * 2.0 ** -np.arange(1, 60),
              1e16 + np.arange(-300, 300), 1e17 + 16.0 * np.arange(-300, 300),
              2.0 ** 53 + np.arange(-20, 20)]
    _assert_cells_match_percent(x)


def test_kernel_matches_percent_where_fixed_and_exponent_forms_meet():
    """%g switches from fixed to exponent form below 1e-4 and from 1e17 up;
    1e-5 and 1e16 are the last fixed-form decades' other ends."""
    edges = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 9.99999999999999999e16]
    rng = np.random.default_rng(7)
    near = np.concatenate([e * (1 + rng.uniform(-1e-15, 1e-15, 2000)) for e in edges])
    _assert_cells_match_percent(np.r_[_ulps_around(edges, 40), near,
                                      np.arange(1, 10) * 1e-5, np.arange(1, 10) * 1e16])


@pytest.mark.parametrize("ncols", [1, 2, 3, 4, 5])
def test_tables_of_one_to_five_columns_match_the_reference(tmp_path, ncols):
    rng = np.random.default_rng(ncols)
    rows = rng.standard_normal((37, ncols)) * 10.0 ** rng.integers(-30, 30, (37, ncols))
    rows[::5, ncols - 1] = 0.0
    header = [("kind", "demo"), ("points", 37), ("hbar", 0.05)]
    names = [f"c{j}" for j in range(ncols)]
    write_table(tmp_path / "new.csv", header, names, rows)
    _percent_write_table(tmp_path / "ref.csv", header, names, rows)
    assert (tmp_path / "new.csv").read_text() == (tmp_path / "ref.csv").read_text()
    tuples = [tuple(row) for row in rows.tolist()]
    write_table(tmp_path / "tuples.csv", header, names, tuples)
    assert (tmp_path / "tuples.csv").read_text() == (tmp_path / "ref.csv").read_text()


@pytest.mark.parametrize("rows", [
    np.empty((0, 3)), [],
    np.arange(-60, 60).reshape(40, 3),
    np.array([[2 ** 62, -2 ** 63, 0], [7, 10 ** 17 + 1, 1]], dtype=np.int64),
    np.array([[True, False, True]]),
    np.arange(30, dtype=np.uint8).reshape(10, 3),
], ids=["empty-array", "empty-list", "int", "wide-int", "bool", "uint8"])
def test_empty_and_integer_tables_match_the_reference(tmp_path, rows):
    header = [("schema", 2)]
    write_table(tmp_path / "new.csv", header, ["a", "b", "c"], rows)
    _percent_write_table(tmp_path / "ref.csv", header, ["a", "b", "c"], rows)
    assert (tmp_path / "new.csv").read_text() == (tmp_path / "ref.csv").read_text()


@pytest.mark.parametrize("block", [1, 7, 12, None])
def test_tables_across_block_boundaries_match_the_reference(tmp_path, monkeypatch, block):
    """The row-aligned blocks join into the one table: a cell count that
    straddles a block boundary, blocks smaller than a row, and the default
    block size with a mixed str/number table."""
    if block is not None:
        monkeypatch.setattr(gridio, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(11)
    step = max(1, gridio._BLOCK_CELLS // 3)  # rows per block
    rows = rng.standard_normal((3 * step + 1, 3))
    rows[step] = [0.0, np.nan, -np.inf]
    write_table(tmp_path / "new.csv", [("hbar", 0.05)], ["x", "y", "z"], rows)
    _percent_write_table(tmp_path / "ref.csv", [("hbar", 0.05)], ["x", "y", "z"], rows)
    assert (tmp_path / "new.csv").read_text() == (tmp_path / "ref.csv").read_text()
    mixed = [(f"r{i}", *row, "1" if i % 2 else "0") for i, row in enumerate(rows.tolist())]
    write_table(tmp_path / "new.csv", [], ["name", "x", "y", "z", "ok"], mixed)
    _percent_write_table(tmp_path / "ref.csv", [], ["name", "x", "y", "z", "ok"], mixed)
    assert (tmp_path / "new.csv").read_text() == (tmp_path / "ref.csv").read_text()


@pytest.mark.parametrize("rows, match", [
    (np.zeros((4, 3)), r"data row 1 has no cell in column 'd'"),
    (np.zeros((2, 5)), r"data row 1 has 5 cells; the last column is 'd'"),
    ([(1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0)], r"data row 2 has no cell in column 'd'"),
    ([(1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0, 5.0)], r"data row 2 has 5 cells"),
    ([(1.0, 2.0, 3.0, 4.0), (1.0, "x", 3.0, 4.0)], r"data row 2, column 'b': 'x'"),
    ([("s", 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0)], r"data row 2, column 'a': 1.0"),
    ([(1.0, 2.0, None, 4.0)], r"data row 1, column 'c': None"),
    ([(1.0, 2.0, 3.0, 1j)], r"data row 1, column 'd'"),
    (np.zeros((2, 4), complex), "real numbers"),
    (np.zeros(4), "2-D"),
], ids=["array-narrow", "array-wide", "short-tuple", "long-tuple", "str-in-numbers",
        "number-in-str", "none", "complex-cell", "complex-array", "1-d-array"])
def test_write_table_rejects_rows_off_the_columns_and_writes_nothing(tmp_path, rows, match):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=match):
        write_table(path, [("kind", "demo")], ["a", "b", "c", "d"], rows)
    assert not path.exists()


def _reference_text(path):
    """The file at ``path`` rewritten from the values it holds: every cell and
    header value that reads as a float printed as ``'%.17g' %`` of that
    float, every other one kept as it is."""
    def cell(tok):
        try:
            return "%.17g" % float(tok)
        except ValueError:
            return tok
    lines = []
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("# columns = "):
            lines.append(line)
        elif line.startswith("# "):
            key, _, value = line[2:-1].partition(" = ")
            lines.append(f"# {key} = {cell(value)}\n")
        else:
            lines.append(",".join(cell(tok) for tok in line[:-1].split(",")) + "\n")
    return "".join(lines)


_CLI_RUNS = {
    "coherent-demo": "hbar = 0.05\nstate.eta = 0.2 0.1\ngrid.points = 32\n",
    "evolve-chord": ("hbar = 0.05\nstate.family = coherent\nstate.eta = 0.0 0.4\n"
                     "channel = 0 1 1 0\ntime.t = 0.1\ngrid.points = 32\nxi.points = 32\n"),
    "lwc": ("hbar = 0.05\nstate.family = coherent\nstate.eta = 0.4 0.3\nwindow.q = 0.0\n"
            "window.q = 0.3\nxi.points = 64\n"),
    "spectrum": ("hbar = 0.05\nstate.family = circle\nstate.action = 0.5\n"
                 "state.samples = 256\nhamiltonian.family = harmonic\nchannel = 0 0.5 0 0\n"
                 "time.t = 3.14159265358979\nwindow.q = 0.0\nxi.points = 256\n"),
    "positivity": "hamiltonian.family = zero\nchannel = 0 1 1 0\n",
    "husimi": ("hbar = 0.05\nstate.family = fock\nstate.n = 1\nfock.dim = 32\n"
               "grid.points = 32\ngrid.half_width = 2.0\n"),
    "validate": None,
}


@pytest.mark.parametrize("experiment", sorted(_CLI_RUNS))
def test_every_cli_csv_holds_the_reference_text_of_its_values(tmp_path, experiment):
    """Each CSV an experiment writes reads back to values whose ``'%.17g' %``
    text is the file, byte for byte."""
    argv = [experiment, "--out", str(tmp_path / "out")]
    if _CLI_RUNS[experiment] is not None:
        (tmp_path / "run.cfg").write_text(_CLI_RUNS[experiment])
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert cli.run(argv) == 0
    csvs = sorted((tmp_path / "out").glob("*.csv"))
    assert csvs
    for path in csvs:
        assert path.read_text() == _reference_text(path), path.name


def test_grid_write_memory_stays_under_the_reference_writer(tmp_path, monkeypatch):
    """The peak traced memory while writing a 256^2 complex grid: 4.55 MB
    through the kernel's 8,192-cell blocks, against 10.53 MB through the
    reference writer's one ``%`` format (both including the 1 MB (re, im)
    array that ``save_grid_csv`` stacks; Python 3.11, numpy 2.4)."""
    rng = np.random.default_rng(256)
    grid = CenteredGrid(1.0, 1.0, 256, 0.05)
    vals = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))

    def peak():
        save_grid_csv(tmp_path / "g.csv", vals, grid, "chord")  # lookup tables, warm caches
        tracemalloc.start()
        try:
            save_grid_csv(tmp_path / "g.csv", vals, grid, "chord")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kernel = peak()
    text = (tmp_path / "g.csv").read_text()
    monkeypatch.setattr(gridio, "write_table", _percent_write_table)
    reference = peak()
    assert (tmp_path / "g.csv").read_text() == text
    assert kernel <= reference


def test_signed_zeros_in_every_column_match_the_reference(tmp_path):
    """+0 and -0 are laid out by the kernel as ``0`` and ``-0``, in the first
    cell, mid-row and at a row's end, beside cells of every form."""
    rows = np.array([[0.0, -0.0, 1.5], [-0.0, 2.5e-300, 0.0], [np.nan, -0.0, -0.0],
                     [1e20, 0.0, -1e-5]])
    write_table(tmp_path / "new.csv", [("kind", "zeros")], ["a", "b", "c"], rows)
    _percent_write_table(tmp_path / "ref.csv", [("kind", "zeros")], ["a", "b", "c"], rows)
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.endswith(b"\n0,-0,1.5\n-0,2.5e-300,0\nnan,-0,-0\n"
                        b"1e+20,0,-1.0000000000000001e-05\n")


def test_write_table_writes_utf8_with_newline_line_ends(tmp_path):
    """The file is written in binary mode: UTF-8 text, every line ended by
    a bare newline, the row-sequence path included."""
    path = tmp_path / "t.csv"
    write_table(path, [("label", "\u0127 = h/2\u03c0"), ("n", 3)], ["name", "x"],
                [("\u03c7", 0.25), ("w", -0.0)])
    assert path.read_bytes() == ("# label = \u0127 = h/2\u03c0\n# n = 3\n# columns = name,x\n"
                                 "\u03c7,0.25\nw,-0\n").encode("utf-8")


def test_write_table_rejects_a_header_value_of_neither_kind(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"header 'hbar': None"):
        write_table(path, [("kind", "demo"), ("hbar", None)], ["a"], [(1.0,)])
    assert not path.exists()
