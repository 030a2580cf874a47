"""Byte-for-byte output of the grid tables (``geometry``, ``potential``,
``current``).

``data/cli_grid_golden.json.gz`` holds the stdout of 63 commands at
``--grid 257`` as printed by the writer that formatted every value with
``%``, before fixed-notation values were formatted as arrays.  For each
omega in 1, 4 and 40 and each of 3, 6 and 12 digits: ``geometry`` and
``current --both`` for the cross-sections (a, b) = (0.75, 0.25),
(0.5, 0.5) and (0.1, 0.9), and one ``potential`` table with all three as
sections.  ``current`` prints branch 1, or branch 0 at omega 1, where it
is the only branch.  The two 12-digit ``geometry`` tables of (0.5, 0.5)
at omega 4 and 40 were printed again when the frame came to be built
from one jet of the curve; four of their fields moved in the last digit.
Six ``current`` tables were printed again when the currents became a
cosine series at the exact winding angle: the three of branch 0 at
(0.5, 0.5), omega 1, whose values are rounding noise, and the 12-digit
tables of (0.75, 0.25) at omega 4 and 40 and of (0.1, 0.9) at omega 40,
where 34 fields moved in the last digit.

Fields compare as in ``test_golden_cli``: byte equality, except that two
fields that both read below 1e-12 in magnitude count as equal.  At 12
digits two geometry fields lie within one ulp of a rounding boundary,
so a ``sin``/``cos`` whose last bit differs from this numpy's would
change them; the array path formats nothing at 12 digits.
"""

import gzip
import json
from pathlib import Path

import pytest

from helixtm.cli import main
from test_golden_cli import same_output

CASES = json.loads(gzip.decompress(
    (Path(__file__).parent / "data" / "cli_grid_golden.json.gz").read_bytes()))


def option(case, name):
    return case["argv"][case["argv"].index(name) + 1]


def test_golden_grid_set_is_broad():
    assert len(CASES) == 63
    assert {case["argv"][0] for case in CASES} == {"geometry", "potential", "current"}
    assert {option(case, "--omega") for case in CASES} == {"1", "4", "40"}
    assert {option(case, "--digits") for case in CASES} == {"3", "6", "12"}
    potential = [case for case in CASES if case["argv"][0] == "potential"]
    assert all(case["stdout"].count("Vc[") == 3 for case in potential)
    assert all(case["stdout"].count("\n") == 258 for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_grid_output_matches_golden(capsys, case):
    assert main(case["argv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert same_output(captured.out, case["stdout"])
