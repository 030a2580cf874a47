"""Hermitian eigensolver checks.

The solver under test is LAPACK through ``numpy.linalg.eigh``.  Its
independent oracle is an inertia-count bisection coded here from
scratch: Sylvester's law says the number of negative pivots of the
Gaussian elimination of A - lam*I equals the number of eigenvalues below
lam, so bisecting each count boundary pins every eigenvalue without any
rotation-based scheme.  The comparisons with ``numpy.linalg.eigvalsh``
check the wrapper's conventions (ascending order, Hermitian averaging),
not the solver itself.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helixtm.cli import main
from helixtm.geometry import HelixShape
from helixtm.linalg import (
    EigenDecomposition,
    HermiticityViolation,
    HermitianMatrix,
    NoConvergence,
    eigen_decompose,
    eigh_exact,
    fix_phase,
)
from helixtm.spectrum import BlochBasis, SpectrumConfig, branch_spectra, build_hamiltonian


def random_hermitian(rng, dim, scale=1.0):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (raw + raw.conj().T) / 2.0


def count_below(a, lam):
    """Eigenvalues of Hermitian a strictly below lam, via elimination pivots."""
    m = (a - lam * np.eye(a.shape[0])).astype(complex)
    neg = 0
    for k in range(m.shape[0]):
        piv = m[k, k].real
        if abs(piv) < 1e-13:
            # lam grazed a submatrix eigenvalue; perturb and restart
            return count_below(a, lam + 3e-11)
        if piv < 0:
            neg += 1
        if k + 1 < m.shape[0]:
            factor = m[k + 1 :, k] / piv
            m[k + 1 :, k + 1 :] -= np.outer(factor, m[k, k + 1 :])
    return neg


def bisection_eigenvalues(a):
    dim = a.shape[0]
    radius = np.sum(np.abs(a), axis=1).max()
    out = []
    for index in range(1, dim + 1):
        lo, hi = -radius, radius
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if count_below(a, mid) >= index:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


class TestKnownMatrices:
    def test_identity(self):
        dec = eigen_decompose(HermitianMatrix(np.eye(3)))
        assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
        assert_allclose(
            np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors), np.eye(3), atol=1e-13
        )

    def test_pauli_like(self):
        dec = eigen_decompose(HermitianMatrix(np.array([[0.0, -1j], [1j, 0.0]])))
        assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_shifted_pauli(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        dec = eigen_decompose(HermitianMatrix(a))
        assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)
        for i in range(2):
            v = dec.eigenvectors[:, i]
            assert_allclose(a @ v, dec.eigenvalues[i] * v, atol=1e-13)

    def test_real_symmetric(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        dec = eigen_decompose(HermitianMatrix(a))
        assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)


class TestAgainstBisectionOracle:
    def test_random_five_by_five(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            a = random_hermitian(rng, 5)
            got = eigen_decompose(HermitianMatrix(a)).eigenvalues
            want = bisection_eigenvalues(a)
            assert_allclose(got, want, atol=1e-9)

    def test_clustered_spectrum(self):
        # nearly degenerate pair: bisection still separates the counts
        rng = np.random.default_rng(8)
        v = eigen_decompose(HermitianMatrix(random_hermitian(rng, 4))).eigenvectors
        a = (v * np.array([1.0, 2.0, 2.0 + 1e-5, 5.0])) @ v.conj().T
        got = eigen_decompose(HermitianMatrix(a, hermiticity_tol=1e-9)).eigenvalues
        want = bisection_eigenvalues(a)
        assert_allclose(got, want, atol=1e-9)

    def test_helix_hamiltonian(self):
        # a production matrix: dim 17, entries up to about 1.4e2
        shape = HelixShape(R=1.0, a=0.75, b=0.25, omega=6)
        basis = BlochBasis(p=1, n_max=8, omega=6)
        h = build_hamiltonian(shape, basis, SpectrumConfig(include_vc=True, n_max=8))
        a = 0.5 * (h.entries + h.entries.conj().T)
        got = eigen_decompose(h).eigenvalues
        want = bisection_eigenvalues(a)
        assert_allclose(got, want, atol=1e-9 * max(1.0, np.max(np.abs(a))))


class TestAgainstNumpy:
    def test_random_dims(self):
        rng = np.random.default_rng(9)
        for dim in range(2, 22):
            a = random_hermitian(rng, dim, scale=rng.uniform(0.1, 10.0))
            dec = eigen_decompose(HermitianMatrix(a))
            assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(a), atol=1e-10 * dim)

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(10)
        for dim in (3, 8, 15):
            a = random_hermitian(rng, dim)
            dec = eigen_decompose(HermitianMatrix(a))
            norm = np.linalg.norm(a)
            resid = a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
            assert np.max(np.abs(resid)) <= 1e-10 * max(norm, 1.0)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12

    def test_ascending_order(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            vals = eigen_decompose(HermitianMatrix(random_hermitian(rng, 9))).eigenvalues
            assert np.all(np.diff(vals) >= 0)


class TestInvariants:
    def test_trace_and_frobenius_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = random_hermitian(rng, 7)
            vals = eigen_decompose(HermitianMatrix(a)).eigenvalues
            assert np.sum(vals) == pytest.approx(np.trace(a).real, abs=1e-11)
            assert np.sum(vals**2) == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-12)

    def test_unitary_conjugation_invariance(self):
        # conjugate by a unitary built from our own decomposition of an
        # unrelated matrix; the spectrum must not move
        rng = np.random.default_rng(13)
        a = random_hermitian(rng, 6)
        u = eigen_decompose(HermitianMatrix(random_hermitian(rng, 6))).eigenvectors
        rotated = HermitianMatrix(u @ a @ u.conj().T, hermiticity_tol=1e-12)
        assert_allclose(
            eigen_decompose(rotated).eigenvalues,
            eigen_decompose(HermitianMatrix(a)).eigenvalues,
            atol=1e-11,
        )

    def test_determinism(self):
        rng = np.random.default_rng(14)
        a = random_hermitian(rng, 8)
        d1 = eigen_decompose(HermitianMatrix(a))
        d2 = eigen_decompose(HermitianMatrix(a))
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityViolation):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros(4))

    def test_non_finite_rejected(self):
        # a non-finite entry is reported as such, not as a drift (inf - inf)
        for bad in ([[np.nan, 0.0], [0.0, 1.0]], [[0.0, np.inf], [np.inf, 1.0]],
                    [[1.0, np.inf], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="^matrix entries must be finite$") as info:
                HermitianMatrix(np.array(bad))
            assert not isinstance(info.value, HermiticityViolation)

    def test_tolerance_semantics(self):
        a = np.array([[1.0, 0.5 + 1e-10j], [0.5 - 3e-10j, 2.0]])
        HermitianMatrix(a, hermiticity_tol=1e-9)  # drift below tol: accepted
        with pytest.raises(HermiticityViolation):
            HermitianMatrix(a, hermiticity_tol=1e-11)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300])
    def test_rejects_a_nan_or_negative_tolerance(self, tol):
        # nan would accept any matrix and a negative tolerance refuse every
        # one, the identity included: both are bad input, not a drift
        for a in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)):
            with pytest.raises(ValueError, match="hermiticity_tol must be >= 0") as info:
                HermitianMatrix(a, hermiticity_tol=tol)
            assert not isinstance(info.value, HermiticityViolation)

    @pytest.mark.parametrize("tol", ["1e-9", None, True, 1e-9j])
    def test_rejects_a_tolerance_that_is_not_a_real_number(self, tol):
        # a ValueError like the other bad input, not a TypeError from ">="
        with pytest.raises(ValueError, match="hermiticity_tol must be a real number"):
            HermitianMatrix(np.eye(2), hermiticity_tol=tol)

    @pytest.mark.parametrize("tol", [0, np.float32(1e-6), np.int64(1)])
    def test_numpy_and_integer_tolerance(self, tol):
        assert HermitianMatrix(np.eye(2), hermiticity_tol=tol).hermiticity_tol == tol

    def test_zero_tolerance_accepts_an_exactly_hermitian_matrix(self):
        assert HermitianMatrix(np.eye(2), hermiticity_tol=0.0).dim == 2
        with pytest.raises(HermiticityViolation):
            HermitianMatrix(np.array([[0.0, 1.0], [np.nextafter(1.0, 2.0), 0.0]]), hermiticity_tol=0.0)

    def test_checks_to_the_default_tolerance(self):
        # the absolute DEFAULT_HERMITICITY_TOL, 1e-9, and the drift's message
        HermitianMatrix(np.array([[1.0, 0.5 + 1e-10j], [0.5 - 3e-10j, 2.0]]))
        with pytest.raises(HermiticityViolation) as info:
            HermitianMatrix(np.array([[1.0, 0.5 + 1e-9j], [0.5 - 3e-9j, 2.0]]))
        assert str(info.value) == "max |A - A*| = 2.000e-09 exceeds tolerance 1.0e-09"

    def test_entries_are_insulated(self):
        src = np.eye(2)
        m = HermitianMatrix(src)
        src[0, 0] = 99.0
        assert m.entries[0, 0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            m.entries[0, 0] = 5.0

    def test_no_convergence_is_reported(self, monkeypatch, capsys):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        rng = np.random.default_rng(15)
        with pytest.raises(NoConvergence):
            eigen_decompose(HermitianMatrix(random_hermitian(rng, 8)))
        assert main(["spectrum", "--p", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("helixtm: numerical failure:")
        assert err.count("\n") == 1


class TestFixPhase:
    def test_rotates_dominant_entry_to_positive_real(self):
        v = fix_phase(np.array([0.0, 1j]))
        assert_allclose(v, [0.0, 1.0], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(16)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        once = fix_phase(v)
        assert_allclose(fix_phase(once), once, atol=1e-15)

    def test_tie_breaks_to_lowest_index(self):
        v = fix_phase(np.array([-1.0, 1.0]) / math.sqrt(2))
        assert v[0] == pytest.approx(1 / math.sqrt(2))
        assert v[1] == pytest.approx(-1 / math.sqrt(2))
        # a tie that holds only up to round-off still goes to the lowest index
        v = fix_phase(np.array([0.6, 0.1, -0.6 * (1 + 1e-15)]))
        assert_allclose(v, [0.6, 0.1, -0.6 * (1 + 1e-15)], rtol=1e-15)

    def test_matrix_columns_fixed_independently(self):
        cols = fix_phase(np.array([[1j, 0.0], [0.0, -1.0]]))
        assert_allclose(cols, np.eye(2), atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.linalg.norm(fix_phase(v)) == pytest.approx(np.linalg.norm(v), rel=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            fix_phase(np.zeros(3, dtype=complex))

    def test_decomposition_type(self):
        dec = eigen_decompose(HermitianMatrix(np.eye(2)))
        assert isinstance(dec, EigenDecomposition)

    @staticmethod
    def tie_stack(dtype):
        rng = np.random.default_rng(18)
        stack = rng.standard_normal((7, 5, 6)).astype(dtype)
        if dtype is complex:
            stack += 1j * rng.standard_normal(stack.shape)
        # ties: an exact one, ones within the 1e-9 tie tolerance (either
        # side of the pivot) and one just outside it
        stack[0, :, 0] = [0.5, -0.5, 0.1, 0.2, 0.3]
        stack[1, :, 1] = [0.1, 0.7, 0.2, -0.7 * (1 + 5e-10), 0.0]
        stack[2, :, 2] = [-0.4 * (1 - 5e-10), 0.1, 0.4, 0.0, 0.2]
        stack[3, :, 3] = [0.3, 0.0, -0.3 * (1 + 1e-15), 0.3 * (1 - 9e-10), 0.1]
        stack[4, :, 4] = [0.6, 0.0, -0.6 * (1 + 2e-9), 0.1, 0.2]
        return stack

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_equals_matrix_by_matrix(self, dtype):
        stack = self.tie_stack(dtype)
        got = fix_phase(stack)
        want = np.array([fix_phase(matrix) for matrix in stack])
        assert got.shape == stack.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        # a column and a lone vector go through the same rule
        for b, k in [(0, 0), (1, 1), (3, 3), (4, 4)]:
            assert np.array_equal(fix_phase(stack[b, :, k]), want[b, :, k])
        assert got[4, 2, 4] > 0  # 2e-9 outside the tolerance: the larger entry wins

    def test_real_sign_equals_the_complex_formula(self):
        # the real path multiplies by copysign(1, pivot); the rotation
        # conj(pivot)/|pivot| of the complex path is that sign bit for bit
        stack = self.tie_stack(float)
        stack[5, 2, :] = 0.0  # zero entries, whose sign the rotation flips
        mags = np.abs(stack)
        first = np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=-2, keepdims=True), axis=-2)
        pivot = np.take_along_axis(stack, first[:, None, :], axis=-2)
        want = stack * (np.conj(pivot) / np.abs(pivot))
        for got in (fix_phase(stack), np.array([fix_phase(m) for m in stack]),
                    np.stack([fix_phase(stack[:, :, k].T).T for k in range(6)], axis=-1)):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(fix_phase(stack[6, :, 5]), want[6, :, 5])

    def test_zero_column_in_stack_rejected(self):
        stack = np.ones((3, 4, 2))
        stack[2, :, 1] = 0.0
        with pytest.raises(ValueError):
            fix_phase(stack)


class TestEighExact:
    """The production solve: one eigh and one fix_phase call for a stack,
    after a finite check only."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_matrix_by_matrix(self, dtype):
        rng = np.random.default_rng(19)
        stack = np.array([
            random_hermitian(rng, 9).real if dtype is float else random_hermitian(rng, 9)
            for _ in range(6)
        ])
        # these stacks equal their adjoints bit for bit, so the solve, which
        # neither checks the drift nor averages, agrees with the validated
        # per-matrix solve bit for bit
        assert np.array_equal(stack, np.swapaxes(stack, 1, 2).conj())
        dec = eigh_exact(stack)
        assert isinstance(dec, EigenDecomposition)
        assert dec.eigenvalues.shape == (6, 9) and dec.eigenvectors.shape == (6, 9, 9)
        assert dec.eigenvectors.dtype == stack.dtype
        for h, values, vectors in zip(stack, dec.eigenvalues, dec.eigenvectors):
            one = eigen_decompose(HermitianMatrix(h))
            assert values.tobytes() == one.eigenvalues.tobytes()
            assert vectors.tobytes() == fix_phase(one.eigenvectors).tobytes()

    def test_non_finite_stack_rejected_as_by_hermitian_matrix(self):
        good = np.eye(3)
        for bad in (np.nan, np.inf, -np.inf):
            stack = np.array([good, good, good])
            stack[1, 0, 2] = stack[1, 2, 0] = bad
            with pytest.raises(ValueError) as want:
                HermitianMatrix(stack[1])
            with pytest.raises(ValueError) as got:
                eigh_exact(stack)
            assert type(got.value) is type(want.value) is ValueError
            assert str(got.value) == str(want.value) == "matrix entries must be finite"

    def test_no_convergence_is_reported(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NoConvergence, match="did not converge"):
            eigh_exact(np.array([np.eye(2)]))
        shape = HelixShape(R=1.0, a=0.75, b=0.25, omega=6)
        with pytest.raises(NoConvergence):
            branch_spectra(shape, [(1, True)], 2)
