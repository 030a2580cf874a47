"""Byte-for-byte output of ``moments``, ``thermal`` and ``spectrum``.

``data/cli_golden.json`` holds the stdout of twelve commands as printed
by the per-matrix solve (one ``HermitianMatrix``, ``eigen_decompose``
and ``fix_phase`` per matrix, one ``EigenState`` and ``MomentResult``
per state) that the stacked solve replaced.  The commands cover omega 1,
2, 4, 6 and 40, n_max 2 and 8, R != 1, both V_c settings, and the
p = 0 and p = omega/2 rows.

Those rows print exact zeros up to rounding (the p = 0 moments, and the
m = 0 coefficients of odd p = 0 states), whose digits depend on the FFT
and LAPACK builds numpy ships with.  Two fields that both read below
``ROUNDING_ZERO`` in magnitude therefore count as equal; every other
byte must match.  The n_max 8 ``moments`` table of (0.25, 0.75, 4), whose
p = 0 rounding noise reaches 1e-11, was printed again when the moments
came to take closed-form harmonics (nine of those noise fields moved)
and again when they came to be summed over the current harmonics E_h
(33 of them moved, by at most 3e-16).  The shapes were chosen without near-degenerate levels
(neighbour gaps of at least 1e-5), where another build could mix a pair
differently.
"""

import json
import re
from pathlib import Path

import pytest

from helixtm.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
ROUNDING_ZERO = 1e-12
FIELD = re.compile(r"[^,\s]+|[,\s]+")


def is_rounding_zero(text):
    try:
        return abs(float(text)) < ROUNDING_ZERO
    except ValueError:
        return False


def same_output(got, want):
    if got == want:
        return True
    got_fields, want_fields = FIELD.findall(got), FIELD.findall(want)
    return len(got_fields) == len(want_fields) and all(
        g == w or (is_rounding_zero(g) and is_rounding_zero(w))
        for g, w in zip(got_fields, want_fields)
    )


def test_golden_set_is_broad():
    commands = {case["argv"][0] for case in CASES}
    assert commands == {"moments", "thermal", "spectrum"}
    assert len(CASES) == 12
    assert any(case["argv"][case["argv"].index("--omega") + 1] == "1" for case in CASES)
    assert any(line.startswith("0,") for case in CASES for line in case["stdout"].splitlines())


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"][:7]))
def test_output_matches_golden(capsys, case):
    assert main(case["argv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert same_output(captured.out, case["stdout"])


def test_comparison_is_strict_outside_rounding_zeros():
    assert same_output("0,1.5e-17,0.25\n", "0,-3e-16,0.25\n")
    assert not same_output("0,1.5e-17,0.25\n", "0,1.5e-17,0.250001\n")
    assert not same_output("0,2e-12,0.25\n", "0,-3e-16,0.25\n")
    assert not same_output("p  on   -0.1\n", "p  on  -0.1\n")
