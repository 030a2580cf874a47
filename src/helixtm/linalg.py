"""Dense Hermitian eigendecomposition with reproducible eigenvector phases.

``HermitianMatrix`` validates the input (square, finite, Hermitian up
to the constant ``HERMITICITY_TOL``), ``eigen_decompose`` hands it to
LAPACK through ``numpy.linalg.eigh`` and ``fix_phase`` standardises
eigenvector phases, which otherwise float freely and would spoil
bitwise reproducibility of downstream output.  The solver is checked
against an inertia-count bisection oracle in the tests.

``eigh_exact``, the production solve, takes a (B, d, d) stack that
equals its conjugate transpose bit for bit, as the helix Hamiltonians do
(see ``spectrum``), and checks only that it is finite.  It makes one
``eigh`` call and one ``fix_phase`` call for the whole stack.
``numpy.linalg.eigh`` solves a stack matrix by matrix with the same
LAPACK routine, so every result equals
``fix_phase(eigen_decompose(HermitianMatrix(h)).eigenvectors)`` of its
matrix h bit for bit: for such a matrix the drift that ``HermitianMatrix``
measures is exactly 0, and ``0.5 * (A + A*)`` is A bit for bit (the sum
of two equal floats and the halving are exact unless the sum overflows,
past 8.9e307), so the average cannot change what LAPACK sees.

Real input stays real throughout: a real matrix is stored as float64,
LAPACK's real symmetric solver returns real eigenvectors, and
``fix_phase`` fixes their sign by indexing each pivot, with no complex
arithmetic.  Complex input stays complex.  The helix Hamiltonians are
real, so production never takes the complex path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest |A - A*| entry HermitianMatrix accepts; not a setting.
HERMITICITY_TOL = 1e-9
# Relative magnitude gap below which fix_phase treats entries as tied.
_TIE_RTOL = 1e-9


def _real_or_complex(values, copy=True):
    """Real input as float64, complex input as complex128: a copy, or with
    ``copy=False`` the input itself where it already has that type."""
    arr = np.asarray(values)
    return arr.astype(complex if np.iscomplexobj(arr) else float, copy=copy)


def _adjoint(arr):
    """Conjugate transpose of every matrix of a (..., d, d) stack."""
    return np.swapaxes(arr, -1, -2).conj()


def _hermitian_part(arr):
    """(A + A*) / 2 of every matrix of a (..., d, d) stack."""
    return 0.5 * (arr + _adjoint(arr))


def _check_finite(arr):
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")


class HermiticityViolation(ValueError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class NoConvergence(RuntimeError):
    """The eigensolver failed to converge."""


@dataclass(frozen=True)
class HermitianMatrix:
    """A validated square matrix with |A - A*| <= ``HERMITICITY_TOL`` entrywise.

    Construction copies the input, as float64 if it is real and as
    complex128 if it is complex, and rejects non-square, non-finite or
    non-Hermitian data, so downstream code can rely on all three.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _real_or_complex(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        _check_finite(arr)
        drift = float(np.abs(arr - _adjoint(arr)).max(initial=0.0))
        if drift > HERMITICITY_TOL:
            raise HermiticityViolation(
                f"max |A - A*| = {drift:.3e} exceeds tolerance {HERMITICITY_TOL:.1e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order; eigenvector i in column i.

    For a stack of B matrices, eigenvalues (B, d) and eigenvectors
    (B, d, d), one matrix per leading index.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigen_decompose(matrix):
    """Full eigendecomposition of a HermitianMatrix by LAPACK (``numpy.linalg.eigh``).

    The solver sees the exactly Hermitian average ``(A + A*) / 2``, so
    tolerance-level drift in the stored entries cannot bias it.  A real
    matrix goes to the real symmetric solver.

    Returns
    -------
    EigenDecomposition
        Ascending real eigenvalues and the matching orthonormal column
        set, real for a real matrix.  Column phases (signs, for a real
        matrix) are whatever LAPACK returns; ``fix_phase`` makes them
        reproducible.

    Raises
    ------
    NoConvergence
        If LAPACK reports that the decomposition did not converge.
    """
    eigenvalues, eigenvectors = _eigh(_hermitian_part(matrix.entries[None]))
    return EigenDecomposition(eigenvalues=eigenvalues[0], eigenvectors=eigenvectors[0])


def _eigh(arr):
    """(eigenvalues, eigenvectors) of a (B, d, d) stack as given, by LAPACK, phases as returned."""
    try:
        return np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc


def eigh_exact(stack):
    """Solve and phase-fix a (B, d, d) stack that is Hermitian bit for bit.

    The production solve: a finite check, one ``numpy.linalg.eigh`` call
    on the stack as given, with no copy, no drift pass and no averaging,
    and one ``fix_phase`` call.  For a stack that equals its conjugate
    transpose bit for bit those passes cannot change the result (see the
    module docstring), so matrix b of the result is
    ``fix_phase(eigen_decompose(HermitianMatrix(stack[b])).eigenvectors)``
    bit for bit.  A stack that is not exactly Hermitian is the caller's
    error: LAPACK then reads one triangle only.

    Returns
    -------
    EigenDecomposition
        ``eigenvalues`` of shape (B, d), ascending per matrix, and
        ``eigenvectors`` of shape (B, d, d), eigenvector i of matrix b in
        ``eigenvectors[b, :, i]``, with fixed phases.

    Raises
    ------
    ValueError
        If an entry is not finite (``HermitianMatrix``'s message).
    NoConvergence
        If LAPACK reports that the decomposition did not converge.
    """
    _check_finite(stack)
    eigenvalues, eigenvectors = _eigh(stack)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=fix_phase(eigenvectors))


def fix_phase(vectors):
    """Rotate each vector's global phase so its largest-magnitude
    component is real and positive.

    Entries within a relative 1e-9 of the largest magnitude count as
    tied and the lowest index among them wins, so a tie that holds only
    up to round-off (the mirror-symmetric +-k pairs of a Bloch branch)
    picks the same entry whatever rounding the solver left.

    Real vectors stay real: the rotation is then a sign, +-1, taken from
    the pivot by ``copysign`` (bit for bit ``conj(pivot)/|pivot|``),
    which makes that entry positive and leaves the norm exactly as it was.

    Accepts a single vector, a matrix of column vectors or a stack of
    such matrices, shape (..., n, k), each column fixed on its own;
    returns the same shape.  Raises ValueError on a zero vector.
    """
    arr = _real_or_complex(vectors, copy=False)  # the rotation below makes the new array
    # (M, n, k): the pivot of column j of matrix i is cols[i, first[i, j], j]
    cols = arr.reshape((-1,) + (arr.shape[-2:] if arr.ndim > 1 else arr.shape + (1,)))
    mags = np.abs(cols)
    top = mags.max(axis=-2, keepdims=True)
    if not top.all():
        raise ValueError("cannot fix the phase of a zero vector")
    first = np.argmax(mags >= (1.0 - _TIE_RTOL) * top, axis=-2)
    pivot = cols[np.arange(len(cols))[:, None], first, np.arange(cols.shape[-1])]
    if np.iscomplexobj(cols):
        rotation = np.conj(pivot) / np.abs(pivot)
    else:
        rotation = np.copysign(1.0, pivot)
    return (cols * rotation[:, None, :]).reshape(arr.shape)
