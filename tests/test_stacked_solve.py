"""The stacked spectrum against the per-matrix path it replaced.

``spectrum.branch_spectra`` validates, solves and sign-fixes a shape's
whole (p, V_c) stack with one ``linalg.eigh_stack`` call.  Each matrix
must come out exactly as from one ``HermitianMatrix``, one
``eigen_decompose`` and one ``fix_phase`` per matrix, and the moments of
the grouped states exactly as from ``moment_vectors`` with one state per
group.  ``observables.branch_moments`` samples the Hamiltonian, the
moments and the arc length in one pass; each must come out exactly as
from its standalone call.
"""

import numpy as np
import pytest

from helixtm.geometry import HelixShape, arc_length
from helixtm.linalg import HermiticityViolation, HermitianMatrix, eigen_decompose, fix_phase
from helixtm.observables import branch_moments, moment_vectors
from helixtm.quadrature import QuadratureSpec
from helixtm.spectrum import BlochBasis, _hamiltonian_stack, branch_momenta, branch_spectra

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
    mats = _hamiltonian_stack(shape, pairs, n_max, None)
    for h, values, vectors in zip(mats, dec.eigenvalues, dec.eigenvectors):
        one = eigen_decompose(HermitianMatrix(h))
        assert np.array_equal(values, one.eigenvalues)
        assert np.array_equal(vectors, fix_phase(one.eigenvectors))


@pytest.mark.parametrize("n_max", [2, 8, 16])
@pytest.mark.parametrize("omega", [1, 4, 6, 40])
@pytest.mark.parametrize("a, b", SHAPES)
def test_one_pass_equals_standalone_calls(a, b, omega, n_max):
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    pairs = all_pairs(omega)
    dec, vectors, length = branch_moments(shape, pairs, n_max, length=True)
    alone = branch_spectra(shape, pairs, n_max)
    k = branch_momenta(shape, [p for p, _ in pairs], n_max)
    assert np.array_equal(dec.eigenvalues, alone.eigenvalues)
    assert np.array_equal(dec.eigenvectors, alone.eigenvectors)
    assert np.array_equal(vectors, moment_vectors(shape, alone.eigenvectors, k))
    assert length == arc_length(shape)
    assert branch_moments(shape, pairs, n_max)[2] is None


@pytest.mark.parametrize(
    "shape, n_max",
    [(FLAT6, 2), (HelixShape(R=1.0, a=0.1, b=0.9, omega=40), 8), (HelixShape(1.0, 0.9, 0.1, 1), 2)],
)
def test_grouped_moments_equal_state_list(shape, n_max):
    # mixed branches and V_c settings, in an order that is not sorted
    pairs = [(p, vc) for p in sorted(range(shape.omega), reverse=True)[:3] for vc in (True, False)]
    d = 2 * n_max + 1
    dec = branch_spectra(shape, pairs, n_max)
    k = branch_momenta(shape, [p for p, _ in pairs], n_max)
    got = moment_vectors(shape, dec.eigenvectors, k)
    # one state per group, in the order of the stack's columns
    single = np.swapaxes(dec.eigenvectors, 1, 2).reshape(-1, d)[:, :, None]
    want = moment_vectors(shape, single, np.repeat(k, d, axis=0))
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


def test_under_resolved_grid_fails_hermiticity():
    # the stacked path checks every matrix, as HermitianMatrix does
    quad = QuadratureSpec(initial_points=32, tolerance=1e6, max_doublings=1)
    with pytest.raises(HermiticityViolation, match="exceeds tolerance 1.0e-09"):
        branch_spectra(FLAT6, [(0, False), (1, True)], 16, quad)
