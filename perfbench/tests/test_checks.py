"""Each benchmark check passes helixtm's real output and rejects a slightly
perturbed copy of it.

Run with ``python3 -m pytest perfbench/tests`` from the repository root;
these tests are not part of the library's own suite.
"""

import math

import numpy as np
import pytest

import checks
import tracing
import workloads
from reference import Reference
from worker import Rounds

helixtm = pytest.importorskip("helixtm")
from helixtm import cli  # noqa: E402

SHAPE = (1.0, 0.75, 0.25, 6)
GRID = 96


@pytest.fixture(scope="module")
def ref():
    return Reference(*SHAPE)


def _cli(*argv):
    return workloads.run_cli(cli, list(argv))


def _shape_args(shape=SHAPE):
    R, a, b, omega = shape
    return ["--R", f"{R:g}", "--a", f"{a:g}", "--b", f"{b:g}", "--omega", str(omega)]


def _solve(n_max, vc, p=1):
    shape = helixtm.HelixShape(*SHAPE)
    config = helixtm.SpectrumConfig(include_vc=vc, n_max=n_max)
    states = helixtm.solve_states(shape, helixtm.make_basis(shape, p, config), config)
    return np.array([s.energy for s in states]), np.column_stack([s.coefficients for s in states])


def _edit_cell(text, line, column, fn):
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = repr(fn(float(cells[column])))
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape", [(1.0, 0.9, 0.1, 40), (1.0, 0.1, 0.9, 40), (1.0, 0.9, 0.1, 6)])
def test_reference_grid_is_converged(shape):
    coarse, fine = Reference(*shape, samples_per_winding=1024), Reference(*shape)
    for vc in (False, True):
        assert np.max(np.abs(coarse.hamiltonian(1, 4, vc) - fine.hamiltonian(1, 4, vc))) < 1e-11
        assert np.max(np.abs(coarse.moments(1, 4, vc) - fine.moments(1, 4, vc))) < 1e-13


def test_reference_ring_limit():
    # a = b -> 0: a circle of radius R, H diagonal with k^2/2 - 1/8.
    ref = Reference(1.0, 1e-6, 1e-6, 3)
    energies, _ = ref.states(1, 2, True)
    k = ref.momenta(1, 2)
    assert energies == pytest.approx(np.sort(k * k / 2.0 - 0.125), abs=1e-9)
    assert ref.arc_length() == pytest.approx(2.0 * math.pi, rel=1e-9)


def test_solve_check(ref):
    energies, vectors = _solve(8, True)
    assert checks.check_solve(ref, 1, 8, True, energies, vectors) == []
    shifted = energies.copy()
    shifted[3] += 1e-6
    assert checks.check_solve(ref, 1, 8, True, shifted, vectors)
    turned = vectors.copy()
    turned[:, [2, 3]] = turned[:, [3, 2]]
    assert checks.check_solve(ref, 1, 8, True, energies, turned)
    assert checks.check_solve(ref, 1, 8, True, energies, vectors * 1.001)
    assert checks.check_solve(ref, 1, 8, False, energies, vectors)


def test_ladder_check():
    solves = {(n, vc): _solve(n, vc)[0] for n in (2, 4) for vc in (False, True)}
    assert all(v == [] for v in checks.check_ladder(solves).values())
    risen = dict(solves)
    risen[(4, False)] = solves[(4, False)].copy()
    risen[(4, False)][1] = solves[(2, False)][1] + 1e-6
    assert checks.check_ladder(risen)[(4, False)]
    raised = dict(solves)
    raised[(2, True)] = solves[(2, False)] + 1e-6
    assert checks.check_ladder(raised)[(2, True)]


def test_moments_check(ref):
    text = _cli("moments", *_shape_args(), "--p", "0,1,5")
    assert checks.check_moments_table(text, ref, [0, 1, 5], 2) == []
    # rows: header, then p=0 (5 rows), p=1 (5 rows), ...
    scaled = _edit_cell(text, 7, 2, lambda x: x * 1.0001)
    assert checks.check_moments_table(scaled, ref, [0, 1, 5], 2)
    scaled = _edit_cell(text, 7, 3, lambda x: x * 1.0001)
    assert checks.check_moments_table(scaled, ref, [0, 1, 5], 2)
    classical = _edit_cell(text, 9, 5, lambda x: x * 1.0001)
    assert checks.check_moments_table(classical, ref, [0, 1, 5], 2)
    ratio = _edit_cell(text, 8, 4, lambda x: x * 1.001)
    assert checks.check_moments_table(ratio, ref, [0, 1, 5], 2)
    assert checks.check_moments_table(text, ref, [0, 1, 4], 2)
    lines = text.splitlines()
    assert checks.check_moments_table("\n".join(lines[:-1]), ref, [0, 1, 5], 2)


def test_moments_sum_rule_alone(ref):
    # Scaling a whole branch by a common factor keeps no individual moment
    # right, and the branch sum rule sees it too.
    text = _cli("moments", *_shape_args(), "--p", "2")
    lines = text.splitlines()
    for i in range(1, 6):
        cells = lines[i].split(",")
        cells[2] = repr(float(cells[2]) * 1.01)
        lines[i] = ",".join(cells)
    errors = checks.check_moments_table("\n".join(lines), ref, [2], 2)
    assert any("sum to" in e for e in errors)


def test_geometry_check():
    text = _cli("geometry", *_shape_args(), "--grid", str(GRID))
    assert checks.check_geometry_table(text, SHAPE, GRID) == []
    for column in (1, 3, 4, 5, 6, 8, 12, 15):
        bad = _edit_cell(text, 10, column, lambda x: x * 1.0001 + 1e-6)
        assert checks.check_geometry_table(bad, SHAPE, GRID), column
    assert checks.check_geometry_table(text, (1.0, 0.75, 0.25, 4), GRID)


def test_potential_check():
    shapes = [(1.0, 0.75, 0.25, 4), (1.0, 0.5, 0.5, 4)]
    text = _cli("potential", "--a", "0.75,0.5", "--b", "0.25,0.5", "--omega", "4", "--grid", str(GRID))
    assert checks.check_potential_table(text, shapes, GRID) == []
    assert checks.check_potential_table(_edit_cell(text, 5, 2, lambda x: x * 1.0001), shapes, GRID)


def test_spectrum_check(ref):
    text = _cli("spectrum", *_shape_args(), "--p", "1,4", "--both")
    assert checks.check_spectrum_table(text, ref, [1, 4], 2, [False, True]) == []
    energy = _edit_cell(text, 1, 4, lambda x: x * 1.0001)
    assert checks.check_spectrum_table(energy, ref, [1, 4], 2, [False, True])
    coefficient = _edit_cell(text, 9, 5, lambda x: x + 1e-3)
    assert checks.check_spectrum_table(coefficient, ref, [1, 4], 2, [False, True])
    assert checks.check_spectrum_table(text, ref, [1, 4], 2, [True, False])


def test_current_check(ref):
    text = _cli("current", *_shape_args(), "--p", "2", "--both", "--grid", str(GRID))
    assert checks.check_current_table(text, ref, [2], 2, [False, True], GRID) == []
    one = _edit_cell(text, 20, 3, lambda x: x * 1.0001 + 1e-7)
    assert checks.check_current_table(one, ref, [2], 2, [False, True], GRID)
    lines = text.splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[7] = repr(float(cells[7]) * 1.001)
        lines[i] = ",".join(cells)
    assert checks.check_current_table("\n".join(lines), ref, [2], 2, [False, True], GRID)


def test_thermal_check(ref):
    text = _cli("thermal", *_shape_args(), "--p", "1,2", "--both", "--temperature", "0.1")
    assert checks.check_thermal_table(text, ref, [1, 2], 2, [False, True], 0.1) == []
    lines = text.splitlines()
    p, tag, avg, raw = lines[3].split()
    moments = ref.moments(1, 2, True)
    outside = float(moments.max()) + 1e-3
    for bad in (f"{float(avg) * 1.0001!r}", f"{outside!r}"):
        edited = lines[:3] + [f"{p}  {tag}  {bad}  {raw}"] + lines[4:]
        assert checks.check_thermal_table("\n".join(edited), ref, [1, 2], 2, [False, True], 0.1)
    edited = lines[:3] + [f"{p}  {tag}  {avg}  {float(raw) * 1.0001!r}"] + lines[4:]
    assert checks.check_thermal_table("\n".join(edited), ref, [1, 2], 2, [False, True], 0.1)
    assert checks.check_thermal_table(text, ref, [1, 2], 2, [False, True], 0.2)
    garbled = lines[:3] + [f"{p}  {tag}  x{avg}  {raw}"] + lines[4:]
    assert checks.safely(checks.check_thermal_table, "\n".join(garbled), ref, [1, 2], 2, [False, True], 0.1)


def test_thermal_overflow_is_expected(ref):
    # E_ground ~ -1.47 at T = 0.001 overflows exp(-E/T) in the raw sum.
    text = _cli("thermal", *_shape_args(), "--p", "1", "--with-vc", "--temperature", "0.001")
    assert "overflow" in text
    assert checks.check_thermal_table(text, ref, [1], 2, [True], 0.001) == []


class _Flaky:
    """A workload whose second op changes output after the first round."""

    def __init__(self, wrong=False):
        self.calls = 0
        self.ops = [workloads.Op("steady", lambda: "same"), workloads.Op("drifting", self._drift)]
        self.wrong = wrong

    def _drift(self):
        self.calls += 1
        return f"call {self.calls}"

    def check(self, outputs):
        return [["wrong value"] if self.wrong else [], []]

    @staticmethod
    def fingerprint(out):
        return out.encode()


def test_rounds_count_irreproducible_and_wrong_outputs():
    rounds = Rounds(_Flaky())
    for _ in range(3):
        rounds.run(budget=0.0)
    assert rounds.attempted == 6
    assert rounds.check() == 0
    assert rounds.failures == [0, 2]
    wrong = Rounds(_Flaky(wrong=True))
    wrong.run(budget=0.0)
    wrong.run(budget=0.0)
    assert wrong.check() == 2
    assert wrong.failures == [2, 1]


def test_tracer_counts_and_restores():
    from helixtm import geometry, spectrum

    original = geometry.speed
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert geometry.speed is not original
        _cli("moments", *_shape_args(), "--p", "1")
        moments = tracer.snapshot()
        tracer.reset()
        shape = helixtm.HelixShape(*SHAPE)
        config = helixtm.SpectrumConfig(include_vc=True, n_max=2)
        spectrum.solve_states(shape, spectrum.make_basis(shape, 1, config), config)
        solve = tracer.snapshot()
        tracer.reset()
        _cli("moments", *_shape_args(), "--p", "1")
        again = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert geometry.speed is original and cli.speed is original
    counts = [name for name in tracing.METRICS if not name.endswith("_s")]
    assert {k: again[k] for k in counts} == {k: moments[k] for k in counts}
    assert solve["spectrum.solves"] == 1 and solve["spectrum.elements"] == 25
    assert solve["linalg.calls"] == 2 and solve["linalg.rows"] == 10  # eigen_decompose, fix_phase
    assert solve["quadrature.calls"] == 25 and solve["cli.commands"] == 0
    assert moments["spectrum.solves"] == 2 and moments["observables.moments"] == 10
    assert moments["quadrature.calls"] == 50 + 30 + 1  # elements, moments (3 axes), arc length
    assert moments["cli.commands"] == 1 and moments["cli.bytes_out"] > 0
    assert moments["geometry.points"] > 0
    assert all(moments[name] > 0 for name in tracing.METRICS if name.endswith("_s"))


def test_harrell_davis_median():
    from run import harrell_davis_median

    assert harrell_davis_median([0.7]) == 0.7
    assert harrell_davis_median(range(1, 102)) == pytest.approx(51.0)
    # Two clusters of operation sizes: moving one operation across the
    # gap moves the estimate by a small step, not from cluster to cluster.
    low = harrell_davis_median([0.2] * 51 + [0.35] * 49)
    high = harrell_davis_median([0.2] * 49 + [0.35] * 51)
    assert 0.2 < low < high < 0.35 and high - low < 0.2 * (0.35 - 0.2)
