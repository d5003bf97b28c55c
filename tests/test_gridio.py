import numpy as np
import pytest

from chordlab.gridio import load_grid_csv, save_grid_csv, write_table
from chordlab.grids import CenteredGrid


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
