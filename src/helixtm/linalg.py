"""Dense Hermitian eigendecomposition with reproducible eigenvector phases.

``HermitianMatrix`` validates the input (square, finite, Hermitian up
to a tolerance), ``eigen_decompose`` hands it to LAPACK through
``numpy.linalg.eigh`` and ``fix_phase`` standardises eigenvector phases,
which otherwise float freely and would spoil bitwise reproducibility of
downstream output.  The solver is checked against an inertia-count
bisection oracle in the tests.

Real input stays real throughout: a real matrix is stored as float64,
LAPACK's real symmetric solver returns real eigenvectors, and
``fix_phase`` fixes their sign.  Complex input stays complex.  The helix
Hamiltonians are real symmetric (see ``spectrum``), so production never
takes the complex path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_HERMITICITY_TOL = 1e-9
# Relative magnitude gap below which fix_phase treats entries as tied.
_TIE_RTOL = 1e-9


def _real_or_complex(values):
    """A float64 copy of real input, a complex128 copy of complex input."""
    arr = np.asarray(values)
    return arr.astype(complex if np.iscomplexobj(arr) else float)


class HermiticityViolation(ValueError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class NoConvergence(RuntimeError):
    """The eigensolver failed to converge."""


@dataclass(frozen=True)
class HermitianMatrix:
    """A validated square matrix with A == A* up to tolerance.

    Construction copies the input, as float64 if it is real and as
    complex128 if it is complex, and rejects non-square, non-finite or
    non-Hermitian data, so downstream code can rely on all three.
    """

    entries: np.ndarray
    hermiticity_tol: float = DEFAULT_HERMITICITY_TOL

    def __post_init__(self):
        arr = _real_or_complex(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        drift = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
        if drift > self.hermiticity_tol:
            raise HermiticityViolation(
                f"max |A - A*| = {drift:.3e} exceeds tolerance {self.hermiticity_tol:.1e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order; eigenvector i in column i."""

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
    a = 0.5 * (matrix.entries + matrix.entries.conj().T)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def fix_phase(vectors):
    """Rotate each vector's global phase so its largest-magnitude
    component is real and positive.

    Entries within a relative 1e-9 of the largest magnitude count as
    tied and the lowest index among them wins, so a tie that holds only
    up to round-off (the mirror-symmetric +-k pairs of a Bloch branch)
    picks the same entry whatever rounding the solver left.

    Real vectors stay real: the rotation is then a sign, +-1, which makes
    that entry positive and leaves the norm exactly as it was.

    Accepts a single vector or a matrix of column vectors; returns the
    same shape.  Raises ValueError on a zero vector.
    """
    arr = _real_or_complex(vectors)
    single = arr.ndim == 1
    cols = arr[:, None] if single else arr
    mags = np.abs(cols)
    top = mags.max(axis=0)
    if np.any(top == 0.0):
        raise ValueError("cannot fix the phase of a zero vector")
    first = np.argmax(mags >= (1.0 - _TIE_RTOL) * top, axis=0)
    pivot = cols[first, np.arange(cols.shape[1])]
    cols = cols * (np.conj(pivot) / np.abs(pivot))
    return cols[:, 0] if single else cols
