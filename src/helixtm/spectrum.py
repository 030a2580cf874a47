"""Low-lying quantum states of a particle confined to the helix.

Units: hbar = particle mass = 1, lengths in units of the major radius
(set R = 1; the command line layer rescales reported quantities when a
different R is requested).

Wavefunctions on the curve separate into Bloch branches labelled by an
integer p in [0, omega).  Within a branch the basis functions are

    chi_n(phi) = exp(i*(p + omega*n)*phi) / sqrt(2*pi * f(phi)),

n = -n_max..n_max, which are exactly orthonormal under the line measure
f(phi) dphi.  Projecting the confined-particle Hamiltonian (kinetic term
along the curve plus, optionally, the curvature attraction -kappa^2/8)
onto this basis gives, with k = p + omega*n,

    H[m, n] = (1/(2*pi)) * Integral_0^{2pi} exp(i*omega*(n - m)*phi) * (
                  V_c(phi) [if included]
                  + k^2 / (2 f^2)
                  + i*k*f' / f^3
                  - (5/8) * f'^2 / f^4
                  + f'' / (4 f^3)
              ) dphi

The f-derivative terms come from moving the flat Laplacian through the
1/sqrt(f) normalisation; integration by parts shows the matrix is
Hermitian.  In the circular-ring limit (a = b -> 0) the matrix is
diagonal with entries k^2/(2R^2) - 1/(8R^2).

The bracket is A + k^2 B + i k C with three real functions of the shape,

    A = V_c [if included] - (5/8) f'^2/f^4 + f''/(4 f^3),
    B = 1/(2 f^2),    C = f'/f^3,

so every element is a Fourier coefficient at harmonic d = omega*(n - m):

    H[m, n] = A_d + k_n^2 B_d + i k_n C_d,   X_d = (1/(2*pi)) Integral X e^{i d phi}.

``build_hamiltonian`` samples A, B and C once per grid, takes all their
harmonics from one real FFT and gathers the matrix, refining the grid
until the whole matrix settles (``integrate_harmonics``).  Nothing
enforces the symmetry: H[n, m] uses the harmonic -d and the other k, and
(k_n - k_m) B_d + i C_d = 0 holds only to quadrature accuracy, so the
hermiticity check on construction still flags a too-coarse grid.
``hamiltonian_element`` integrates one element on its own and serves as
the reference for the gathered matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .linalg import HermitianMatrix, eigen_decompose, fix_phase
from .quadrature import QuadratureSpec, integrate_harmonics, integrate_periodic


@dataclass(frozen=True)
class BlochBasis:
    """Truncated Bloch basis for branch p on an omega-winding helix."""

    p: int
    n_max: int
    omega: int

    def __post_init__(self):
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")
        if not 0 <= self.p < self.omega:
            raise ValueError(f"branch index must satisfy 0 <= p < omega, got p={self.p}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def indices(self):
        return np.arange(-self.n_max, self.n_max + 1)

    @property
    def dim(self):
        return 2 * self.n_max + 1

    def momentum(self, n):
        """Angular wavenumber k = p + omega*n of basis function n."""
        return self.p + self.omega * n


@dataclass(frozen=True)
class SpectrumConfig:
    """Solver settings: curvature term on/off, basis size, quadrature."""

    include_vc: bool = True
    n_max: int = 2
    quad: QuadratureSpec | None = None

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")


@dataclass(frozen=True)
class EigenState:
    """One bound state: energy and basis coefficients.

    ``coefficients[i]`` multiplies chi_n with n = i - n_max.  The vector
    is unit-norm with the phase fixed so the dominant coefficient is
    real and positive.  ``alpha`` is the index within the branch,
    counting from the lowest energy.
    """

    energy: float
    coefficients: np.ndarray
    p: int
    alpha: int
    include_vc: bool

    @property
    def n_max(self):
        return (len(self.coefficients) - 1) // 2

    @property
    def n_indices(self):
        return np.arange(-self.n_max, self.n_max + 1)


def basis_wavefunction(shape, basis, n, phi):
    """Evaluate chi_n(phi) = e^{i(p + omega n) phi} / sqrt(2 pi f)."""
    if not -basis.n_max <= n <= basis.n_max:
        raise ValueError(f"basis index {n} outside [-{basis.n_max}, {basis.n_max}]")
    phi = np.asarray(phi, dtype=float)
    k = basis.momentum(n)
    return np.exp(1j * k * phi) / np.sqrt(2.0 * math.pi * geometry.speed(shape, phi))


def _resolve_quad(shape, config):
    if config.quad is not None:
        return config.quad
    # A multiple of omega resolves the winding harmonics from the start.
    return QuadratureSpec(initial_points=64 * shape.omega)


def hamiltonian_element(shape, basis, m, n, config):
    """Matrix element H[m, n] between basis functions m and n."""
    for idx in (m, n):
        if not -basis.n_max <= idx <= basis.n_max:
            raise ValueError(f"basis index {idx} outside [-{basis.n_max}, {basis.n_max}]")
    k = float(basis.momentum(n))
    hop = shape.omega * (n - m)

    def integrand(phi):
        f = geometry.speed(shape, phi)
        f1, f2 = geometry.speed_derivatives(shape, phi)
        bracket = (
            k * k / (2.0 * f * f)
            + 1j * k * f1 / f**3
            - 0.625 * f1 * f1 / f**4
            + f2 / (4.0 * f**3)
        )
        if config.include_vc:
            bracket = bracket + geometry.curvature_potential(shape, phi)
        return np.exp(1j * hop * phi) * bracket

    result = integrate_periodic(integrand, _resolve_quad(shape, config))
    return result.value / (2.0 * math.pi)


def build_hamiltonian(shape, basis, config):
    """Assemble the full matrix over the basis as a HermitianMatrix.

    All elements come from one converged grid: the harmonics
    omega*(n - m) of A, B and C are gathered into A_d + k^2 B_d + i k C_d.
    Both triangles are gathered (no symmetry shortcut), so the
    hermiticity check on construction is a real consistency test of the
    quadrature.
    """
    idx = basis.indices
    k = basis.momentum(idx).astype(float)
    offsets = idx[None, :] - idx[:, None] + 2 * basis.n_max

    def sample(phi):
        f = geometry.speed(shape, phi)
        f1, f2 = geometry.speed_derivatives(shape, phi)
        terms = np.empty((3, phi.size))
        terms[0] = f2 / (4.0 * f**3) - 0.625 * f1 * f1 / f**4
        if config.include_vc:
            terms[0] += geometry.curvature_potential(shape, phi)
        terms[1] = 0.5 / (f * f)
        terms[2] = f1 / f**3
        return terms

    def gather(integrals):
        a, b, c = integrals[:, offsets]
        return a + (k * k) * b + 1j * k * c

    result = integrate_harmonics(
        sample,
        basis.omega * np.arange(-2 * basis.n_max, 2 * basis.n_max + 1),
        gather,
        _resolve_quad(shape, config),
    )
    return HermitianMatrix(result.value / (2.0 * math.pi))


def make_basis(shape, p, config):
    """Bloch basis for branch p sized per the config."""
    return BlochBasis(p=p, n_max=config.n_max, omega=shape.omega)


def solve_states(shape, basis, config):
    """All 2*n_max + 1 states of a branch, sorted by ascending energy."""
    h = build_hamiltonian(shape, basis, config)
    dec = eigen_decompose(h)
    vecs = fix_phase(dec.eigenvectors)
    norms = np.sqrt(np.sum(np.abs(vecs) ** 2, axis=0))
    return [
        EigenState(
            energy=float(dec.eigenvalues[i]),
            coefficients=vecs[:, i] / norms[i],
            p=basis.p,
            alpha=int(i),
            include_vc=config.include_vc,
        )
        for i in range(basis.dim)
    ]
