"""The stacked spectrum against the per-matrix path it replaced.

``spectrum.branch_spectra`` solves and sign-fixes a shape's whole
(p, V_c) stack with one ``linalg.eigh_exact`` call, which checks only
that the stack is finite.  Each matrix must come out exactly as from
one ``HermitianMatrix``, one ``eigen_decompose`` and one ``fix_phase``
per matrix, and the moments of the grouped states exactly as from
``moment_vectors`` with one state per group.  ``observables.branch_moments`` is
``branch_spectra`` followed by ``moment_vectors`` of its eigenvectors; both
must come out exactly as from their standalone calls.
Every matrix either path builds equals its transpose bit for bit.
"""

import re

import numpy as np
import pytest

from helixtm import geometry, spectrum
from helixtm.geometry import HelixShape
from helixtm.linalg import (
    EigenDecomposition,
    HermitianMatrix,
    eigen_decompose,
    eigh_exact,
    fix_phase,
)
from helixtm.observables import branch_moments, currents, moment_vectors
from helixtm.spectrum import (
    BlochBasis,
    SpectrumConfig,
    _hamiltonian_stack,
    branch_momenta,
    branch_spectra,
    build_hamiltonian,
)
from oracles import cosine_series_currents, series_moments

SHAPES = [(0.75, 0.25), (0.5, 0.5), (0.1, 0.9), (0.99, 0.01)]
FLAT6 = HelixShape(R=1.0, a=0.75, b=0.25, omega=6)


def all_pairs(omega):
    return [(p, include_vc) for p in range(omega) for include_vc in (False, True)]


@pytest.mark.parametrize("n_max", [2, 8, 16])
@pytest.mark.parametrize("omega", [1, 4, 6, 40])
@pytest.mark.parametrize("a, b", SHAPES)
def test_stack_equals_matrix_by_matrix(a, b, omega, n_max):
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    pairs = all_pairs(omega)
    dec = branch_spectra(shape, pairs, n_max)
    mats = _hamiltonian_stack(shape, pairs, n_max)
    for h, values, vectors in zip(mats, dec.eigenvalues, dec.eigenvectors):
        one = eigen_decompose(HermitianMatrix(h))
        assert np.array_equal(values, one.eigenvalues)
        assert np.array_equal(vectors, fix_phase(one.eigenvectors))


ONE_PASS_CASES = [
    pytest.param(a, b, omega, n_max, id=f"{a}-{b}-{omega}-{n_max}")
    for a, b in SHAPES for omega in (1, 4, 6, 40) for n_max in (2, 8, 16)
]


@pytest.mark.parametrize("a, b, omega, n_max", ONE_PASS_CASES)
def test_one_pass_equals_standalone_calls(a, b, omega, n_max):
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    pairs = all_pairs(omega)
    dec, vectors = branch_moments(shape, pairs, n_max)
    alone = branch_spectra(shape, pairs, n_max)
    ps = [p for p, _ in pairs]
    assert np.array_equal(dec.eigenvalues, alone.eigenvalues)
    assert np.array_equal(dec.eigenvectors, alone.eigenvectors)
    assert np.array_equal(vectors, moment_vectors(shape, alone.eigenvectors, ps))


@pytest.mark.parametrize(
    "shape, n_max",
    [(FLAT6, 2), (HelixShape(R=1.0, a=0.1, b=0.9, omega=40), 8), (HelixShape(1.0, 0.9, 0.1, 1), 2)],
)
def test_grouped_moments_equal_state_list(shape, n_max):
    # mixed branches and V_c settings, in an order that is not sorted
    pairs = [(p, vc) for p in sorted(range(shape.omega), reverse=True)[:3] for vc in (True, False)]
    d = 2 * n_max + 1
    dec = branch_spectra(shape, pairs, n_max)
    ps = [p for p, _ in pairs]
    got = moment_vectors(shape, dec.eigenvectors, ps)
    # one state per group, in the order of the stack's columns
    single = np.swapaxes(dec.eigenvectors, 1, 2).reshape(-1, d)[:, :, None]
    want = moment_vectors(shape, single, np.repeat(ps, d))
    assert got.shape == (len(pairs), d, 3)
    assert np.array_equal(got.reshape(-1, 3), want.reshape(-1, 3))


def test_momenta_table_matches_basis():
    ps = [3, 0, 5, 3]
    k = branch_momenta(FLAT6, ps, 4)
    assert k.dtype == np.float64 and k.shape == (4, 9)
    for p, row in zip(ps, k):
        basis = BlochBasis(p=p, n_max=4, omega=6)
        assert np.array_equal(row, basis.momentum(basis.indices))
    with pytest.raises(ValueError, match="branch index"):
        branch_momenta(FLAT6, [1, 6], 4)
    with pytest.raises(ValueError, match="n_max"):
        branch_momenta(FLAT6, [1], 1)


@pytest.mark.parametrize("shape, n_max", [(FLAT6, 4), (HelixShape(1.0, 0.9, 0.1, 1), 2)])
def test_branch_indices_give_the_momenta_table(shape, n_max):
    # currents and moment_vectors form k with branch_momenta: bit for bit a
    # reference that hands that table in
    branches = sorted({0, shape.omega // 2, shape.omega - 1}, reverse=True)
    pairs = [(p, vc) for p in branches for vc in (True, False)]
    ps = [p for p, _ in pairs]
    dec = branch_spectra(shape, pairs, n_max)
    k = branch_momenta(shape, ps, n_max)
    want = series_moments(shape, dec.eigenvectors, k)
    assert np.array_equal(moment_vectors(shape, dec.eigenvectors, ps), want)
    phi = 2.0 * np.pi * np.arange(48) / 48
    j = currents(shape, dec.eigenvectors, ps, phi)
    assert np.array_equal(j, cosine_series_currents(shape, dec.eigenvectors, k, phi))


@pytest.mark.parametrize("p", [-1, 6])
def test_branch_outside_the_range_is_refused(p):
    coefficients = branch_spectra(FLAT6, [(1, True)], 2).eigenvectors
    with pytest.raises(ValueError, match="0 <= p < omega"):
        moment_vectors(FLAT6, coefficients, [p])
    with pytest.raises(ValueError, match="0 <= p < omega"):
        currents(FLAT6, coefficients, [p], [0.0, 1.0])


def test_every_matrix_gathers_its_own_a_row():
    # T_A is gathered by index from A0 and A0 + V_c, each formed once for the
    # stack: every matrix equals its own row's gather, and its one-pair
    # stack, bit for bit
    pairs = [(p, vc) for p in range(6) for vc in (False, True)]
    stack = _hamiltonian_stack(FLAT6, pairs, 3)
    k = branch_momenta(FLAT6, [p for p, _ in pairs], 3)
    a0, b, v_c = geometry.winding_harmonics(FLAT6, geometry._moment_reach(FLAT6, 6), True)
    idx = np.arange(7)
    table = np.abs(idx - idx[:, None])
    for (p, vc), matrix, row in zip(pairs, stack, k):
        a = a0 + v_c if vc else a0
        assert np.array_equal(matrix, a[table] + np.outer(row, row) * b[table])
        assert np.array_equal(matrix, _hamiltonian_stack(FLAT6, [(p, vc)], 3)[0])


@pytest.mark.parametrize("p", [0.5, True, "1", None, 1 + 0j])
def test_branch_that_is_not_an_integer_is_refused(p):
    # e^{i(p + omega n) phi} is periodic on the closed curve only for an
    # integer p; p = 1.0 is the integer 1, and a bool, a string, None or a
    # complex number is no branch index
    coefficients = branch_spectra(FLAT6, [(1, True)], 2).eigenvectors
    refused = re.escape(f"branch index must be an integer, got p={p!r}")
    with pytest.raises(ValueError, match=refused):
        spectrum.make_basis(FLAT6, p, SpectrumConfig())
    with pytest.raises(ValueError, match=refused):
        BlochBasis(p=p, n_max=2, omega=6)
    with pytest.raises(ValueError, match=refused):
        branch_momenta(FLAT6, [p], 2)
    with pytest.raises(ValueError, match=refused):
        branch_spectra(FLAT6, [(p, True)], 2)
    with pytest.raises(ValueError, match=refused):
        moment_vectors(FLAT6, coefficients, [p])
    with pytest.raises(ValueError, match=refused):
        currents(FLAT6, coefficients, [p], [0.0, 1.0])
    for one in (1.0, np.float64(1.0), np.int64(1), np.uint8(1)):
        assert spectrum.make_basis(FLAT6, one, SpectrumConfig()).p == 1
        assert np.array_equal(branch_spectra(FLAT6, [(one, True)], 2).eigenvectors, coefficients)
        assert np.array_equal(moment_vectors(FLAT6, coefficients, [one]),
                              moment_vectors(FLAT6, coefficients, [1]))


@pytest.mark.parametrize("size, ps", [
    pytest.param((2, 5, 5), [1], id="fewer-branches"),
    pytest.param((1, 5, 5), [1, 2], id="more-branches"),
    pytest.param((1, 4, 4), [1], id="even-d"),
    pytest.param((1, 6, 2), [1], id="even-d-6"),
    pytest.param((5, 5), [1] * 5, id="2-d"),
    pytest.param((1, 1, 5, 5), [1], id="4-d"),
])
def test_coefficient_stack_of_the_wrong_shape_is_refused(size, ps):
    # one (len(ps), 2*n_max + 1, S) stack per call: anything else is named
    # by its shape, for the currents and the moments alike
    coefficients = np.full(size, 0.5)
    refused = re.escape(f"got shape {size}")
    with pytest.raises(ValueError, match=refused):
        moment_vectors(FLAT6, coefficients, ps)
    with pytest.raises(ValueError, match=refused):
        currents(FLAT6, coefficients, ps, [0.0, 1.0])


def _symmetry_cases():
    rng = np.random.default_rng(17)
    for _ in range(12):
        a = rng.uniform(0.05, 0.95)
        omega = int(rng.integers(1, 41))
        ps = sorted({int(p) for p in rng.integers(0, omega, 3)})
        pairs = [(p, include_vc) for p in ps for include_vc in (False, True)]
        shape = HelixShape(R=1.0, a=a, b=rng.uniform(0.05, 1.5), omega=omega)
        yield shape, pairs, int(rng.integers(2, 17))
    # max |H| grows like (omega * n_max)^2, here to about 1e9
    yield HelixShape(R=1.0, a=0.99, b=0.01, omega=6), [(1, False), (1, True)], 192


@pytest.mark.parametrize("shape, pairs, n_max", _symmetry_cases())
def test_every_hamiltonian_is_symmetric_bit_for_bit(shape, pairs, n_max, monkeypatch):
    # H = Re A_{n-m} + k_m k_n Re B_{n-m}: the harmonics d and -d share
    # their real part and k_m k_n == k_n k_m, so H equals its transpose
    # the production solve skips HermitianMatrix's drift check and
    # eigen_decompose's averaging; these stacks are the evidence that
    # neither could change a result
    solved = []

    def recording(stack):
        solved.append(stack)
        return eigh_exact(stack)

    # branch_spectra and branch_moments both solve through spectrum's name
    monkeypatch.setattr(spectrum, "eigh_exact", recording)
    branch_spectra(shape, pairs, n_max)
    branch_moments(shape, pairs, n_max)
    p, include_vc = pairs[-1]
    config = SpectrumConfig(include_vc=include_vc, n_max=n_max)
    one = build_hamiltonian(shape, BlochBasis(p, n_max, shape.omega), config).entries
    assert [len(stack) for stack in solved] == [len(pairs)] * 2
    for h in [*solved[0], *solved[1], one]:
        assert h.shape == (2 * n_max + 1, 2 * n_max + 1)
        assert np.array_equal(h, h.swapaxes(-1, -2))


def test_flat_coil_solves_at_n_max_192():
    shape = HelixShape(R=1.0, a=0.99, b=0.01, omega=6)
    dec = branch_spectra(shape, [(1, False), (1, True)], 192)
    assert dec.eigenvalues.shape == (2, 385)
    assert dec.eigenvalues[0, 0] == pytest.approx(0.243439, abs=1e-6)


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _lean_solve_cases():
    rng = np.random.default_rng(2203)
    for _ in range(10):
        omega = int(rng.integers(1, 41))
        ps = sorted({int(p) for p in rng.integers(0, omega, 3)})
        shape = HelixShape(R=1.0, a=rng.uniform(0.05, 0.95), b=rng.uniform(0.05, 1.5), omega=omega)
        yield pytest.param(shape, ps, int(rng.integers(2, 17)), id=f"draw-{omega}")
    # at a = b, p = 0 and p = omega/2 hold the +-m pairs of the free loop,
    # degenerate up to the basis truncation
    for omega, n_max in [(1, 2), (2, 2), (4, 8), (6, 16), (40, 16)]:
        shape = HelixShape(R=1.0, a=0.5, b=0.5, omega=omega)
        ps = sorted({0, omega // 2})
        yield pytest.param(shape, ps, n_max, id=f"round-{omega}-{n_max}")


def _per_matrix_solve(stack):
    """The reference solve: one HermitianMatrix, eigen_decompose and fix_phase per matrix."""
    decs = [eigen_decompose(HermitianMatrix(h)) for h in stack]
    return EigenDecomposition(eigenvalues=np.array([dec.eigenvalues for dec in decs]),
                              eigenvectors=np.array([fix_phase(dec.eigenvectors) for dec in decs]))


@pytest.mark.parametrize("shape, ps, n_max", _lean_solve_cases())
def test_production_solve_equals_the_per_matrix_solve(shape, ps, n_max, monkeypatch):
    # branch_spectra skips the copy, the drift check and the averaging of
    # the per-matrix solve; on these symmetric stacks that changes no bit
    # of either array
    pairs = [(p, include_vc) for p in ps for include_vc in (False, True)]
    stack = _hamiltonian_stack(shape, pairs, n_max)
    lean = branch_spectra(shape, pairs, n_max)
    lean_moments = branch_moments(shape, pairs, n_max)
    full = _per_matrix_solve(stack)
    assert _same_bits(lean.eigenvalues, full.eigenvalues)
    assert _same_bits(lean.eigenvectors, full.eigenvectors)
    # the moments of the solve they replace, through the per-matrix solve
    monkeypatch.setattr(spectrum, "eigh_exact", _per_matrix_solve)
    full_moments = branch_moments(shape, pairs, n_max)
    assert _same_bits(lean_moments[0].eigenvalues, full_moments[0].eigenvalues)
    assert _same_bits(lean_moments[0].eigenvectors, full_moments[0].eigenvectors)
    assert _same_bits(lean_moments[1], full_moments[1])
    monkeypatch.undo()
    states = spectrum.solve_states(shape, BlochBasis(ps[-1], n_max, shape.omega),
                                   SpectrumConfig(include_vc=True, n_max=n_max))
    for alpha, state in enumerate(states):
        assert state.energy == full.eigenvalues[-1, alpha] and state.alpha == alpha
        assert _same_bits(state.coefficients, full.eigenvectors[-1, :, alpha])
