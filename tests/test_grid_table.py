"""The blocked CSV writer of the grid tables (``geometry``, ``potential``,
``current``): byte equality with a per-value reference, and its memory
bound."""

import tracemalloc

import numpy as np
import pytest

from helixtm.cli import _BLOCK_VALUES, _fmt, _grid_table

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
        assert _grid_table(header, columns, digits) == want


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
        text = _grid_table(header, columns, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)
