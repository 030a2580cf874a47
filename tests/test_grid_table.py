"""The blocked CSV writer of the grid tables (``geometry``, ``potential``,
``current``): byte equality with a per-value reference on seeded and
adversarial values, how many values of a real table leave the array path,
its memory bound, and the block-filled columns of the commands against
the whole-grid functions."""

import itertools
import tracemalloc

import numpy as np
import pytest

from helixtm import _gformat, cli
from helixtm.cli import _BLOCK_VALUES, _grid_blocks, main
from helixtm.geometry import HelixShape, curvature_potential, frenet_frame, position
from helixtm.observables import currents
from helixtm.spectrum import branch_spectra

# Values a column can hold that a formatter could get wrong.
SPECIAL = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1.2345678901234567e-315,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 2.2250738585072014e-308,
    1.0, -3.0, 17.0, 1e15, 123456789012345678.0, 0.5, 0.1,
    np.nan, np.inf, -np.inf,
])


def fmt(value, digits):
    """``%.<digits>g`` of one value, with -0.0 printed as 0."""
    value = float(value)
    return "%.*g" % (digits, 0.0 if value == 0.0 else value)


def grid_table_per_value(header, columns, digits):
    """One ``fmt`` call per value: the writer's output before blocking."""
    lines = [header]
    lines.extend(",".join(fmt(x, digits) for x in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def blocks_of(header, columns, digits):
    """``_grid_blocks`` of a table given as whole columns."""
    table = np.column_stack(columns)

    def fill(rows, out):
        out[:] = table[rows]

    return _grid_blocks(header, len(table), fill, digits)


def seeded_columns(seed, rows, ncols):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, ncols)) * 10.0 ** rng.integers(-8, 9, (rows, ncols))
    picks = rng.random((rows, ncols)) < 0.2
    table[picks] = rng.choice(SPECIAL, picks.sum())
    table.flat[:len(SPECIAL)] = SPECIAL[:table.size]  # every special value at least once
    return list(table.T)


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("ncols", [1, 16, 300])
def test_matches_per_value_reference(rows, ncols):
    # 16 columns make 1024-row blocks, so 1023/1024/1025 rows straddle one
    # block edge; 300 columns make 54-row blocks
    columns = seeded_columns(1000 * rows + ncols, rows, ncols)
    header = ",".join(f"c{i}" for i in range(ncols))
    for digits in (1, 6, 12, 17):
        want = grid_table_per_value(header, columns, digits)
        assert "".join(blocks_of(header, columns, digits)) == want


def test_row_counts_straddle_a_block_edge():
    # the row counts above test a block edge only while 16 columns make
    # 1024-row blocks
    assert _BLOCK_VALUES // 16 == 1024


@pytest.mark.parametrize("rows, ncols", [(16384, 16), (512, 1361)])
def test_peak_memory_is_a_few_times_the_output(rows, ncols):
    # a geometry table and a wide current table (omega 40, every branch,
    # both V_c settings, n_max 8); only the Python floats of one block may
    # be alive at a time
    rng = np.random.default_rng(rows + ncols)
    table = rng.standard_normal((rows, ncols))
    header = ",".join(f"c{i}" for i in range(ncols))

    def fill(rows, out):
        out[:] = table[rows]

    tracemalloc.start()
    try:
        text = "".join(_grid_blocks(header, len(table), fill, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def adversarial_values(seed, digits, size=3000):
    """Values where a scaled-mantissa formatter would round or pick the
    exponent wrongly, with random signs."""
    rng = np.random.default_rng(seed)

    def ulps_from(values, spread):
        # values (positive) moved by a few ulp either way
        steps = rng.integers(-spread, spread + 1, values.size)
        return (values.view(np.int64) + steps).view(np.float64)

    # dyadic ties: binary fractions that are exact decimal halves somewhere
    dyadic = rng.integers(1, 1 << 24, size) / 2.0 ** rng.integers(1, 40, size)
    # decade edges: 1e-4 and 1e-5 bound fixed notation from below, 10**digits
    # from above; 10**(digits - 1) is where the mantissa gains a digit
    edges = np.array([1e-5, 1e-4, 10.0 ** (digits - 1), 10.0 ** digits, 0.1, 1.0, 10.0])
    near_edges = ulps_from(rng.choice(edges, size), 3)
    # mantissas k + 0.5 at the printed precision, moved by a few ulp
    kept = min(digits, 15)
    k = rng.integers(10 ** (kept - 1), 10 ** kept, size) + 0.5
    halves = ulps_from(k * 10.0 ** rng.integers(-kept - 6, 4, size), 4)
    # subnormals and the smallest normals, moved up by up to 4 ulp
    tiny = rng.choice([5e-324, 2.5e-310, 2.2250738585072014e-308], size // 10)
    tiny = (tiny.view(np.int64) + rng.integers(0, 5, tiny.size)).view(np.float64)
    values = np.concatenate([dyadic, near_edges, halves, tiny, [0.0, np.nan, np.inf]])
    values *= rng.choice([-1.0, 1.0], values.size)
    return np.concatenate([values, [-0.0, np.inf, np.nan]])


@pytest.mark.parametrize("digits", range(1, 18))
@pytest.mark.parametrize("seed", [3, 4])
def test_adversarial_values_match_per_value_reference(seed, digits):
    values = adversarial_values(100 * seed + digits, digits)
    ncols = 7
    values = np.resize(values, (-(-values.size // ncols), ncols))
    columns = list(values.T)
    header = ",".join(f"c{i}" for i in range(ncols))
    want = grid_table_per_value(header, columns, digits)
    assert "".join(blocks_of(header, columns, digits)) == want


def word_variant_values(digits):
    """Values +-y 10**(e + 1 - digits), with every decade e in [-4, digits)
    and two kinds of mantissa y: integers with every pattern of zero and
    nonzero digits (every count of trailing zeros, G2 == 0 and G1 with
    zeros at six digits), and sixteenths in [10**digits - 1, 10**digits),
    which round up to the next decade from 10**digits - 0.5 on.  Returns
    the values and whether each is left to ``%``: the mantissas on the
    decade edge 10**(digits - 1) or rounding up."""
    rng = np.random.default_rng(digits)
    nonzero = np.array(list(itertools.product([0, 1], repeat=5)))  # digits 2 to 6
    six = np.column_stack([np.ones(32, int), nonzero]) * rng.integers(1, 10, (32, 6))
    integers = (six @ 10 ** np.arange(5, -1, -1)) // 10 ** (6 - digits)
    y = np.concatenate([[10 ** (digits - 1)], integers, 10.0 ** digits - 1 + np.arange(16) / 16])
    values = (y[:, None] * 10.0 ** (np.arange(-4, digits) + 1 - digits)).ravel()
    slow = np.repeat((y == 10 ** (digits - 1)) | (y >= 10.0 ** digits - 0.5), digits + 4)
    return np.concatenate([values, -values, [0.0]]), np.concatenate([slow, slow, [False]])


@pytest.mark.parametrize("ncols", [1, 16])
@pytest.mark.parametrize("digits", range(1, 7))
def test_word_variants_match_per_value_reference(monkeypatch, digits, ncols):
    # every word variant of the array path, and the values it leaves to %
    values, slow = word_variant_values(digits)
    rows = -(-values.size // ncols)
    values, slow = np.resize(values, (rows, ncols)), np.resize(slow, rows * ncols)
    sent = []
    per_value = _gformat._per_value

    def counting(values, digits):
        sent.extend(values)
        return per_value(values, digits)

    monkeypatch.setattr(_gformat, "_per_value", counting)
    want = "".join(",".join("%.*g" % (digits, x) for x in row) + "\n" for row in values)
    assert _gformat.block_text(values, digits, _gformat.workspace(values.size)) == want
    assert np.array_equal(sent, values.ravel()[slow])


def test_geometry_table_takes_the_array_path(monkeypatch, capsys):
    # a real table should leave almost every value to the array path; a
    # formatter that sent most values to ``%`` would still be exact
    sent = []

    def counting(helper):
        def count(values, digits):
            sent.append(values.size)
            return helper(values, digits)
        return count

    monkeypatch.setattr(_gformat, "_per_value", counting(_gformat._per_value))
    monkeypatch.setattr(_gformat, "_per_block", counting(_gformat._per_block))
    assert main(["geometry", "--a", "0.75", "--b", "0.25", "--grid", "16384"]) == 0
    text = capsys.readouterr().out
    assert text.count("\n") == 16385
    assert sum(sent) < 0.01 * 16384 * 16


def test_mostly_exponent_notation_block_is_one_row_format(monkeypatch):
    # like the currents of branch 0, which vanish up to rounding: the block
    # is formatted by one row format, and still byte for byte
    blocks = []
    per_block = _gformat._per_block

    def counting(block, digits):
        blocks.append(block.shape)
        return per_block(block, digits)

    monkeypatch.setattr(_gformat, "_per_block", counting)
    rng = np.random.default_rng(17)
    table = rng.standard_normal((2000, 11)) * 1e-17
    table[:, 0] = np.linspace(0.0, 6.2, 2000)
    columns = list(table.T)
    header = ",".join(f"c{i}" for i in range(11))
    assert "".join(blocks_of(header, columns, 6)) == grid_table_per_value(header, columns, 6)
    assert blocks and all(shape[1] == 11 for shape in blocks)


def record_tables(monkeypatch):
    """Every table ``cli._grid_blocks`` fills, as (header, table, digits),
    each block as its command wrote it."""
    tables = []

    def recording(header, rows, fill, digits):
        table = np.empty((rows, header.count(",") + 1))

        def copying(rows, out):
            fill(rows, out)
            table[rows] = out

        tables.append((header, table, digits))
        return _grid_blocks(header, rows, copying, digits)

    monkeypatch.setattr(cli, "_grid_blocks", recording)
    return tables


PAPER_SECTIONS = ["--a", "0.75,0.5,0.25", "--b", "0.25,0.5,0.75"]


@pytest.mark.parametrize("argv", [
    ["geometry", "--a", "0.75", "--b", "0.25"],
    *(["current", "--a", "0.5", "--b", "0.5", "--p", str(p), "--n-max", "2", "--both"]
      for p in (1, 2, 3)),
    ["potential", *PAPER_SECTIONS],
], ids=["geometry", "current-p1", "current-p2", "current-p3", "potential"])
def test_benchmark_tables_match_per_value_reference(monkeypatch, tmp_path, argv):
    # the grid tables of a benchmark round, each block formatted in one
    # workspace per table, against one ``fmt`` call per value
    tables = record_tables(monkeypatch)
    out = tmp_path / "table.csv"
    assert main(argv + ["--omega", "4", "--grid", "16384", "--out", str(out)]) == 0
    (header, table, digits), = tables
    assert out.read_text() == grid_table_per_value(header, list(table.T), digits)


def test_reused_workspace_carries_nothing_between_blocks(monkeypatch):
    # blocks of 1024 rows: mostly exponent notation (one row format), plain
    # fixed notation, fixed notation with values spliced in by ``%`` (at rows
    # the short last block reuses), then a short block of fixed notation
    rng = np.random.default_rng(26)
    ncols = 16
    step = _BLOCK_VALUES // ncols

    def fixed(rows):
        # |x| in [1e-3, 1e5), random signs: every value on the array path
        sign = rng.choice([-1.0, 1.0], (rows, ncols))
        return sign * 10.0 ** rng.uniform(-3.0, 5.0, (rows, ncols))

    spliced = fixed(step)
    picks = rng.random(spliced.shape) < 0.05
    spliced[picks] = rng.choice([1e-9, -3e17, np.nan, np.inf], picks.sum())
    spliced[:, ncols - 1] = -2.5e-7  # the separator column, "\n" after it
    table = np.vstack([rng.standard_normal((step, ncols)) * 1e-17, fixed(step), spliced,
                       fixed(step // 3)])
    calls = []

    def counting(name, helper):
        def count(values, digits):
            calls.append((name, values.shape))
            return helper(values, digits)
        return count

    for name in ("_per_block", "_per_value"):
        monkeypatch.setattr(_gformat, name, counting(name, getattr(_gformat, name)))
    columns = list(table.T)
    header = ",".join(f"c{i}" for i in range(ncols))
    blocks = list(blocks_of(header, columns, 6))
    assert [name for name, _ in calls] == ["_per_block", "_per_value"]
    assert calls[0][1] == (step, ncols)
    assert calls[1][1] == ((~np.isfinite(spliced) | (np.abs(spliced) < 1e-4)
                            | (np.abs(spliced) >= 1e6)).sum(),)
    assert "".join(blocks) == grid_table_per_value(header, columns, 6)
    # each block as a fresh workspace formats it
    for start, text in zip(range(0, len(table), step), blocks[1:]):
        block = table[start:start + step]
        assert text == _gformat.block_text(block, 6, _gformat.workspace(block.size))


@pytest.mark.parametrize("grid", [1023, 12001])
def test_block_filled_columns_equal_the_whole_grid_functions(monkeypatch, tmp_path, grid):
    # each command fills its table one block of rows at a time (1024 rows of
    # geometry, 5461 of a three-column potential, 564 of 29 currents); every
    # column equals the whole-grid function bit for bit, also in a last
    # block that is cut short
    tables = record_tables(monkeypatch)
    R, out = 2.0, str(tmp_path / "table.csv")
    shape = ["--R", "2", "--omega", "6", "--grid", str(grid), "--out", out]
    assert main(["geometry", "--a", "1.5", "--b", "0.5", *shape]) == 0
    assert main(["potential", "--a", "1.5,1", "--b", "0.5,1", *shape]) == 0
    pairs = [(p, vc) for p in (1, 2) for vc in (False, True)]
    assert main(["current", "--a", "1.5", "--b", "0.5", "--p", "1-2", "--both", "--n-max", "3",
                 *shape]) == 0
    phi = 2.0 * np.pi * np.arange(grid) / grid
    unit = HelixShape(1.0, 0.75, 0.25, 6)
    frame = frenet_frame(unit, phi)
    geometry_columns = [phi, *(position(unit, phi) * R).T, frame.speed * R, frame.kappa / R,
                        frame.tau / R, *frame.tangent.T, *frame.normal.T, *frame.binormal.T]
    potential_columns = [phi, curvature_potential(unit, phi),
                         curvature_potential(HelixShape(1.0, 0.5, 0.5, 6), phi)]
    dec = branch_spectra(unit, pairs, 3)
    j = currents(unit, dec.eigenvectors, [p for p, _ in pairs], phi)
    current_columns = [phi, *j.reshape(-1, grid)]
    for (_, table, _), columns in zip(tables, [geometry_columns, potential_columns,
                                               current_columns]):
        assert np.array_equal(table, np.column_stack(columns))
