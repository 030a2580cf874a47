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
    B = 1/(2 f^2),    C = f'/f^3.

A, B and C depend on phi only through the winding angle
theta = omega*phi, and the phase has harmonic omega*(n - m), so the
substitution theta = omega*phi turns every element into a Fourier
coefficient over one winding at harmonic d = n - m:

    H[m, n] = A_d + k_n^2 B_d + i k_n C_d,
    X_d = (1/(2*pi)) Integral_0^{2pi} X(theta) e^{i d theta} dtheta,

with no factor left over (see ``quadrature``).  The functions are
sampled at phi = theta/omega, so the grid, and the cost, do not grow
with omega.

Only A depends on whether V_c is included and only k on the branch p,
so ``build_hamiltonians`` assembles any list of (p, include_vc) pairs
from one pass: it samples A without V_c and A with V_c (each only if a
pair needs it), B and C once per grid of one winding, takes all their
harmonics from one real FFT, gathers every matrix and refines the grid
until the whole stack settles (``integrate_harmonics``).
``solve_branches`` diagonalises such a stack.  ``build_hamiltonian``
and ``solve_states`` are their one-branch cases.  Nothing enforces the
symmetry: H[n, m] uses the harmonic -d and the other k, and
(k_n - k_m) B_d + i C_d = 0 holds only to quadrature accuracy, so the
hermiticity check on construction of each matrix still flags a
too-coarse grid.  ``hamiltonian_element`` integrates one element on its
own over the full turn, from omega times as many points, and serves as
the reference for the gathered matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def hamiltonian_element(shape, basis, m, n, config):
    """Matrix element H[m, n] between basis functions m and n.

    Integrates over the full turn, so it starts from omega times the
    spec's points per winding.
    """
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

    quad = config.quad if config.quad is not None else QuadratureSpec()
    quad = replace(quad, initial_points=quad.initial_points * shape.omega)
    return integrate_periodic(integrand, quad).value / (2.0 * math.pi)


def build_hamiltonians(shape, branches, n_max, quad=None):
    """One HermitianMatrix per (p, include_vc) pair, all from one converged grid.

    Every matrix gathers the harmonics d = n - m of the shared samples,
    taken over one winding, into A_d + k^2 B_d + i k C_d with its own
    k = p + omega*n.
    Both triangles are gathered (no symmetry shortcut), so the
    hermiticity check on construction of each matrix is a real
    consistency test of the quadrature.  The grid is refined until the
    whole stack settles to ``tolerance * max(1, max |H|)``.
    """
    if not branches:
        raise ValueError("need at least one branch")
    bases = [BlochBasis(p=p, n_max=n_max, omega=shape.omega) for p, _ in branches]
    idx = np.arange(-n_max, n_max + 1)
    k = np.array([basis.momentum(idx) for basis in bases], dtype=float)[:, None, :]
    offsets = idx[None, :] - idx[:, None] + 2 * n_max
    # one sampled row of A per V_c setting in use (the one with V_c
    # last), then B and C
    variants = sorted({bool(vc) for _, vc in branches})
    a_rows = [variants.index(bool(vc)) for _, vc in branches]

    def sample(theta):
        phi = theta / shape.omega
        f = geometry.speed(shape, phi)
        f1, f2 = geometry.speed_derivatives(shape, phi)
        terms = np.empty((len(variants) + 2, phi.size))
        terms[: len(variants)] = f2 / (4.0 * f**3) - 0.625 * f1 * f1 / f**4
        if variants[-1]:
            terms[len(variants) - 1] += geometry.curvature_potential(shape, phi)
        terms[-2] = 0.5 / (f * f)
        terms[-1] = f1 / f**3
        return terms

    def gather(integrals):
        blocks = integrals[:, offsets]
        return blocks[a_rows] + (k * k) * blocks[-2] + 1j * k * blocks[-1]

    result = integrate_harmonics(sample, np.arange(-2 * n_max, 2 * n_max + 1), gather, quad)
    return [HermitianMatrix(h) for h in result.value / (2.0 * math.pi)]


def build_hamiltonian(shape, basis, config):
    """The matrix of one branch over the basis (``build_hamiltonians`` of one pair)."""
    return build_hamiltonians(shape, [(basis.p, config.include_vc)], basis.n_max, config.quad)[0]


def make_basis(shape, p, config):
    """Bloch basis for branch p sized per the config."""
    return BlochBasis(p=p, n_max=config.n_max, omega=shape.omega)


def solve_branches(shape, branches, n_max, quad=None):
    """States of every (p, include_vc) pair from one ``build_hamiltonians`` pass.

    Returns one list per pair, each with its 2*n_max + 1 states sorted by
    ascending energy.
    """
    out = []
    for h, (p, include_vc) in zip(build_hamiltonians(shape, branches, n_max, quad), branches):
        dec = eigen_decompose(h)
        vecs = fix_phase(dec.eigenvectors)
        norms = np.sqrt(np.sum(np.abs(vecs) ** 2, axis=0))
        out.append([
            EigenState(
                energy=float(dec.eigenvalues[i]),
                coefficients=vecs[:, i] / norms[i],
                p=p,
                alpha=int(i),
                include_vc=include_vc,
            )
            for i in range(h.dim)
        ])
    return out


def solve_states(shape, basis, config):
    """All 2*n_max + 1 states of a branch, sorted by ascending energy."""
    return solve_branches(shape, [(basis.p, config.include_vc)], basis.n_max, config.quad)[0]
