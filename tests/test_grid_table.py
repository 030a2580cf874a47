"""The blocked CSV writer of the grid tables (``geometry``, ``potential``,
``current``): byte equality with a per-value reference on seeded and
adversarial values, how many values of a real table leave the array path,
and its memory bound."""

import tracemalloc

import numpy as np
import pytest

from helixtm import _gformat
from helixtm.cli import _BLOCK_VALUES, _fmt, _grid_blocks, main

# Values a column can hold that a formatter could get wrong.
SPECIAL = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1.2345678901234567e-315,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 2.2250738585072014e-308,
    1.0, -3.0, 17.0, 1e15, 123456789012345678.0, 0.5, 0.1,
    np.nan, np.inf, -np.inf,
])


def grid_table_per_value(header, columns, digits):
    """One ``_fmt`` call per value: the writer's output before blocking."""
    lines = [header]
    lines.extend(",".join(_fmt(x, digits) for x in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


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
        assert "".join(_grid_blocks(header, columns, digits)) == want


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
    columns = list(rng.standard_normal((ncols, rows)))
    header = ",".join(f"c{i}" for i in range(ncols))
    tracemalloc.start()
    try:
        text = "".join(_grid_blocks(header, columns, 6))
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
    assert "".join(_grid_blocks(header, columns, digits)) == want


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
    assert "".join(_grid_blocks(header, columns, 6)) == grid_table_per_value(header, columns, 6)
    assert blocks and all(shape[1] == 11 for shape in blocks)
