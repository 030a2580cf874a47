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

H is real symmetric.  For every shape of the family

    f^2 = (R + a cos theta)^2 + omega^2 (a^2 sin^2 theta + b^2 cos^2 theta)

is even in theta, and so are f'', V_c, A and B, while f' and C are
odd.  So A_d and B_d are real, C_d is imaginary, and

    H[m, n] = Re A_d + k_n^2 Re B_d - k_n Im C_d.

The assembly gathers exactly that.  The parts it drops vanish
on the trapezoid grid, which is symmetric under theta -> -theta, up to
rounding; the tests check the real matrices against a complex
full-turn reference element, imaginary part included.  Everything downstream
(eigenvectors, coefficients, the printed tables) is real, with a sign
in place of a phase.

Only A depends on whether V_c is included and only k on the branch p,
so ``branch_spectra`` assembles any list of (p, include_vc) pairs of a
shape from one pass: it samples A without V_c and A with V_c (each only
if a pair needs it), B and C once per grid of one winding, takes all
their harmonics from one real FFT, gathers every matrix and refines the
grid until the whole stack settles (``quadrature.settle``, relative
test).
The sampler takes f, f', f'' and V_c from one evaluation of the winding
angle's sine and cosine (``geometry.winding_terms``).

That grid is ``winding_grid``, the one pass over a shape.  Besides the
rows of H it can hold the moment weights g / (2 pi f^2) and f itself, so
``observables.branch_moments`` samples the Hamiltonian, the toroidal
moments and the arc length of a command together: H settles first, the
moments then settle with its eigenvectors on the stored levels, and the
arc length last, each at its own level and refining only its own rows
past the stored ones.  ``branch_spectra``, ``observables.moment_vectors``,
``observables.classical_moment_numeric`` and ``geometry.arc_length`` are
the grids of one quantity.

``branch_spectra`` keeps the stack as one (B, d, d) array and solves it
with ``linalg.eigh_stack``: one validation pass, one LAPACK call and one
sign rule for all B matrices, giving energies (B, d) and coefficients
(B, d, d).  ``branch_momenta`` is the matching k = p + omega*n table,
which ``observables.moment_vectors`` and ``observables.currents`` take
with the coefficients.  Arrays are the only batch path; the one-branch
API wraps them in objects: ``build_hamiltonian`` is one matrix of the
stack as a ``HermitianMatrix`` and ``solve_states`` one pair of
``branch_spectra`` as a list of ``EigenState`` objects.  Nothing enforces
the symmetry: H[n, m] uses the harmonic -d and the other k, and
H[m, n] - H[n, m] = (k_n + k_m) * ((k_n - k_m) Re B_d - Im C_d)
vanishes only to quadrature accuracy (integration by parts makes the
bracket zero exactly), so the symmetry check on construction of each
matrix still flags a too-coarse grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .linalg import HermitianMatrix, eigh_stack
from .quadrature import NestedGrid, QuadratureSpec, settle


def _check_n_max(n_max):
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")


def _check_branch(p, omega):
    if not 0 <= p < omega:
        raise ValueError(f"branch index must satisfy 0 <= p < omega, got p={p}")


@dataclass(frozen=True)
class BlochBasis:
    """Truncated Bloch basis for branch p on an omega-winding helix."""

    p: int
    n_max: int
    omega: int

    def __post_init__(self):
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")
        _check_branch(self.p, self.omega)
        _check_n_max(self.n_max)

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
        _check_n_max(self.n_max)


@dataclass(frozen=True)
class EigenState:
    """One bound state: energy and basis coefficients.

    ``coefficients[i]`` multiplies chi_n with n = i - n_max.  The vector
    is real (float64) and unit-norm, with the sign fixed so the dominant
    coefficient is positive.  ``alpha`` is the index within the branch,
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


def branch_momenta(shape, ps, n_max):
    """The k = p + omega*n table of branches ``ps``, shape (len(ps), 2*n_max + 1).

    Row b holds the wavenumbers of branch ps[b] for n = -n_max..n_max,
    as floats.  Branches and n_max are validated as in ``BlochBasis``.
    """
    for p in ps:
        _check_branch(p, shape.omega)
    _check_n_max(n_max)
    idx = np.arange(-n_max, n_max + 1)
    return np.add.outer(np.asarray(ps, dtype=float), shape.omega * idx)


def _moment_axes(shape):
    """The rows of g a moment pass samples: z for omega >= 2, all three at omega = 1."""
    return (0, 1, 2) if shape.omega == 1 else (2,)


def _vc_variants(branches):
    """The V_c settings in use, sorted: one sampled row of A each, the one with V_c last."""
    return sorted({bool(vc) for _, vc in branches})


def winding_grid(shape, quad=None, n_max=0, branches=(), moments=None, length=False):
    """The ``quadrature.NestedGrid`` of one shape's pass over one winding.

    Its parts, sampled together by one ``geometry.winding_terms`` call
    per level until the first of them settles, are

    - ``"hamiltonian"`` (when ``branches`` is given): A once per V_c
      setting the (p, include_vc) pairs use, then B and C;
    - ``"moments"``: the nonzero rows of the toroidal-moment weight
      g / (2 pi f^2) (``moments="weights"``) or of g itself
      (``moments="integrand"``), the z row for omega >= 2 and all three
      rows at omega = 1 (see ``observables``);
    - ``"length"`` (when ``length`` is set): f.

    The first two are read through their harmonics -2*n_max..2*n_max
    (harmonic 0 alone at n_max = 0).  Every part is sampled at
    phi = theta/omega, so the grid counts points per winding.  Nothing is
    sampled until a quantity settles on the grid (``quadrature.settle``).
    """
    variants = _vc_variants(branches)
    axes = _moment_axes(shape) if moments else ()
    parts = {}
    if variants:
        parts["hamiltonian"] = len(variants) + 2
    if moments:
        parts["moments"] = len(axes)
    if length:
        parts["length"] = 1
    weighted = moments == "weights"

    def sample(theta, names):
        phi = theta / shape.omega
        hamiltonian = "hamiltonian" in names
        f, f1, f2, vc, g = geometry.winding_terms(
            shape, phi, derivatives=hamiltonian, potential=hamiltonian and variants[-1],
            moment_axes=axes if "moments" in names else (),
        )
        out = np.empty((sum(parts[name] for name in names), phi.size))
        row = 0
        if hamiltonian:
            out[: len(variants)] = f2 / (4.0 * f**3) - 0.625 * f1 * f1 / f**4
            if variants[-1]:
                out[len(variants) - 1] += vc
            out[len(variants)] = 0.5 / (f * f)
            out[len(variants) + 1] = f1 / f**3
            row = len(variants) + 2
        if g is not None:
            out[row: row + len(axes)] = g / (2.0 * math.pi * f * f) if weighted else g
            row += len(axes)
        if "length" in names:
            out[row] = f
        return out

    transformed = [name for name in ("hamiltonian", "moments") if name in parts]
    return NestedGrid(sample, parts, quad, np.arange(-2 * n_max, 2 * n_max + 1), transformed)


def _hamiltonians(grid, shape, branches, n_max):
    """The (len(branches), d, d) matrices of the pairs, settled on a ``winding_grid``
    of the same branches and n_max."""
    if not branches:
        raise ValueError("need at least one branch")
    idx = np.arange(-n_max, n_max + 1)
    k = branch_momenta(shape, [p for p, _ in branches], n_max)[:, None, :]
    offsets = idx[None, :] - idx[:, None] + 2 * n_max
    variants = _vc_variants(branches)
    a_rows = [variants.index(bool(vc)) for _, vc in branches]

    def gather(integrals):
        blocks = integrals[:, offsets]
        return blocks[a_rows].real + (k * k) * blocks[-2].real - k * blocks[-1].imag

    return settle(grid, "hamiltonian", gather, relative=True).value / (2.0 * math.pi)


def _hamiltonian_stack(shape, branches, n_max, quad):
    """The (len(branches), d, d) real symmetric matrices of the pairs, from one grid.

    Every matrix gathers the harmonics d = n - m of the shared samples,
    taken over one winding, into Re A_d + k^2 Re B_d - k Im C_d with its
    own k = p + omega*n (see the module docstring for why that is all of
    A_d + k^2 B_d + i k C_d).  Both triangles are gathered (no symmetry
    shortcut), so the symmetry check of ``eigh_stack`` or
    ``HermitianMatrix`` is a real consistency test of the quadrature.
    The grid is refined until the whole stack settles to
    ``tolerance * max(1, max |H|)``.
    """
    return _hamiltonians(winding_grid(shape, quad, n_max, branches), shape, branches, n_max)


def build_hamiltonian(shape, basis, config):
    """The HermitianMatrix of one branch over the basis (``_hamiltonian_stack`` of one pair)."""
    pair = [(basis.p, config.include_vc)]
    return HermitianMatrix(_hamiltonian_stack(shape, pair, basis.n_max, config.quad)[0])


def make_basis(shape, p, config):
    """Bloch basis for branch p sized per the config."""
    return BlochBasis(p=p, n_max=config.n_max, omega=shape.omega)


def branch_spectra(shape, branches, n_max, quad=None):
    """Spectra of every (p, include_vc) pair as arrays, from one pass and one solve.

    The matrices of ``_hamiltonian_stack`` go through ``eigh_stack`` as
    one (B, d, d) array, B = len(branches), d = 2*n_max + 1: the same
    checks (``HermiticityViolation`` for a too-coarse grid), one LAPACK
    call and one sign rule.  Returns an ``EigenDecomposition`` with
    ``eigenvalues`` (B, d), ascending per pair, and ``eigenvectors``
    (B, d, d), the coefficients of state alpha of pair b in column
    ``eigenvectors[b, :, alpha]`` (row i multiplies chi_n, n = i - n_max).
    """
    return eigh_stack(_hamiltonian_stack(shape, branches, n_max, quad))


def solve_states(shape, basis, config):
    """All 2*n_max + 1 states of a branch, sorted by ascending energy.

    The one-pair case of ``branch_spectra``, wrapped in ``EigenState`` objects.
    """
    dec = branch_spectra(shape, [(basis.p, config.include_vc)], basis.n_max, config.quad)
    return [
        EigenState(energy=energy, coefficients=dec.eigenvectors[0][:, alpha], p=basis.p,
                   alpha=alpha, include_vc=config.include_vc)
        for alpha, energy in enumerate(dec.eigenvalues[0].tolist())
    ]
