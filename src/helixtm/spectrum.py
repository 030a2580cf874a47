"""Low-lying quantum states of a particle confined to the helix.

Units: hbar = particle mass = 1, lengths as given (the command line
solves the shape at unit major radius, (1, a/R, b/R, omega)).

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

The bracket is A + k^2 B + i k C with three real functions of the shape.
With D = f^2 = |r'|^2 they are rational in D, D', D'' and |r''|^2:

    A = V_c [if included] - (5/8) f'^2/f^4 + f''/(4 f^3)
      = V_c [if included] + D''/(8 D^2) - (7/32) D'^2/D^3,
    B = 1/(2 f^2) = 1/(2 D),    C = f'/f^3 = D'/(2 D^2) = -dB/dphi,
    V_c = -kappa^2/8 = -(D |r''|^2 - D'^2/4)/(8 D^3),

with no square root.
A, B and C depend on phi only through the winding angle
theta = omega*phi, and the phase has harmonic omega*(n - m), so the
substitution theta = omega*phi turns every element into a Fourier
coefficient over one winding at harmonic d = n - m:

    H[m, n] = A_d + k_n^2 B_d + i k_n C_d,
    X_d = (1/(2*pi)) Integral_0^{2pi} X(theta) e^{i d theta} dtheta,

with no factor left over (the turn covers omega windings, each giving
the same integral, and dphi = dtheta / omega divides their sum by
omega), at a cost that does not grow with omega.

C is fixed by B: C = -omega dB/dtheta, so integrating by parts gives
C_d = i omega d B_d, and with omega d = k_n - k_m

    H[m, n] = A_d + k_n^2 B_d - k_n (k_n - k_m) B_d = A_d + k_m k_n B_d,

that is H = T_A + K T_B K with T_X[m, n] = X_{n-m} and K = diag(k).
C is never formed.  H is real symmetric.  For every shape of the family

    D = (R + a cos theta)^2 + omega^2 (a^2 sin^2 theta + b^2 cos^2 theta)

is even in theta, and so are f'', V_c, A and B.  So A_d and B_d are
real and even in d, and

    H[m, n] = Re A_{n-m} + k_m k_n Re B_{n-m}.

The harmonics come in closed form from ``geometry.winding_harmonics``:
1/D has harmonics that follow a two-term recurrence in the roots of D,
and A and V_c come from its derivatives, so no angle is sampled and
nothing is refined.  The assembly gathers Re A_{|n-m|} + k_m k_n B_{|n-m|} from
those real arrays.  The gathered matrix is symmetric bit for bit, since
the harmonics d and -d are one float and k_m k_n is the same float as
k_n k_m, and the n_max matrix is the central principal block of the
n_max + 1 one bit for bit, since a longer recurrence leaves its first
terms unchanged.  Everything downstream (eigenvectors, coefficients,
the printed tables) is real, with a sign in place of a phase.  The tests
check the matrices against a complex full-turn reference element that
integrates C, imaginary part included, and against a fine trapezoid of
the sampled rows A and B (``tests/oracles.py``).

Only A depends on whether V_c is included and only k on the branch p,
so ``_hamiltonian_stack`` assembles any list of (p, include_vc) pairs
of a shape from one set of harmonics: A without V_c and A with V_c
(each only if a pair needs it) and B.  It reads them as read-only
prefixes of the shape object's store (``geometry._harmonics``), which
keeps the longest ``winding_harmonics`` call made of that object, with
V_c once asked for, and alone decides how many harmonics a basis of
width 2*n_max needs.  So a ladder of n_max and V_c choices on one shape
calls the recurrence only where it grows, while a command line run,
which builds its own shape, still makes one call.  A prefix of a longer
call is the shorter call bit for bit, so the matrices do not depend on
what was asked before.  The arc length is a complete elliptic integral
in the same constants (``geometry.arc_length``): nothing samples an
angle.

``branch_spectra`` keeps the stack as one (B, d, d) array and solves it
with ``linalg.eigh_exact``: a finite check, one LAPACK call and one sign
rule for all B matrices, giving energies (B, d) and coefficients
(B, d, d).  It skips the drift check and Hermitian averaging of
``HermitianMatrix`` and ``eigen_decompose``, which cannot change a
result here: the stack equals its transpose bit for bit, so its drift is
exactly 0 and its average (H + H^T)/2 is H bit for bit.
``branch_momenta`` is the matching k = p + omega*n table, the one form
of it: ``_hamiltonian_stack`` forms it from the pairs' branch indices,
and the observables from the branch indices they take with the
coefficients.  Arrays are the only batch path; the one-branch
API wraps them in objects: ``build_hamiltonian`` is one matrix of the
stack as a ``HermitianMatrix`` and ``solve_states`` one pair of
``branch_spectra`` as a list of ``EigenState`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat

import numpy as np

from . import geometry
from .linalg import HermitianMatrix, eigh_exact


def _check_integer(name, value):
    """Raise ValueError unless ``value`` is an integer (numpy integers included, bool not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")


def _check_n_max(n_max):
    _check_integer("n_max", n_max)
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")


def _check_branch(p, omega):
    # a real number: 1.0 is the integer 1, True is not a branch
    if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)):
        raise ValueError(f"branch index must be an integer, got p={p!r}")
    if not 0 <= p < omega:
        raise ValueError(f"branch index must satisfy 0 <= p < omega, got p={p}")
    if p != int(p):  # e^{i(p + omega n) phi} is periodic on the closed curve only for integer p
        raise ValueError(f"branch index must be an integer, got p={p}")


@dataclass(frozen=True)
class BlochBasis:
    """Truncated Bloch basis for branch p on an omega-winding helix."""

    p: int
    n_max: int
    omega: int

    def __post_init__(self):
        _check_integer("omega", self.omega)
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")
        _check_branch(self.p, self.omega)
        _check_n_max(self.n_max)
        # Python ints, as in ``geometry.HelixShape``: -n_max of a numpy unsigned wraps
        vars(self).update(n_max=int(self.n_max), omega=int(self.omega))

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
    """Solver settings: curvature term on/off and basis size."""

    include_vc: bool = True
    n_max: int = 2

    def __post_init__(self):
        _check_n_max(self.n_max)
        vars(self).update(n_max=int(self.n_max))


@dataclass(frozen=True, init=False)
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

    def __init__(self, energy, coefficients, p, alpha, include_vc):
        # frozen: one dict update sets the fields, not an object.__setattr__ each
        vars(self).update(energy=energy, coefficients=coefficients, p=p, alpha=alpha,
                          include_vc=include_vc)

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
    as floats.  Branches and n_max are validated as in ``BlochBasis``, and
    n_max is taken as a Python int, so a small numpy integer cannot wrap.
    """
    for p in ps:
        _check_branch(p, shape.omega)
    _check_n_max(n_max)
    n_max = int(n_max)
    idx = np.arange(-n_max, n_max + 1)
    return np.add.outer(np.asarray(ps, dtype=float), shape.omega * idx)


def _hamiltonian_stack(shape, branches, n_max):
    """The pairs' (len(branches), d, d) real symmetric matrices.

    Every matrix gathers the closed-form harmonics d = |n - m| into
    Re A_d + k_m k_n Re B_d with its own k = p + omega*n (see the module
    docstring for why that is all of A_d + k_n^2 B_d + i k_n C_d), symmetric
    bit for bit.  T_A is one gather from the rows A0 and, if any pair asks
    for it, A0 + V_c, formed once.  The harmonics are read-only prefixes of
    the shape's store (``geometry._harmonics``): ``winding_harmonics`` runs
    only when this object has not yet been asked for that many, or for V_c,
    and the prefix is the fresh call bit for bit.
    """
    if not branches:
        raise ValueError("need at least one branch")
    k = branch_momenta(shape, [p for p, _ in branches], n_max)
    with_vc = [bool(vc) for _, vc in branches]
    d = k.shape[1]  # 2*n_max + 1, as a Python int
    a0, b, v_c = geometry._harmonics(shape, d - 1, any(with_vc))
    idx = np.arange(d)
    table = np.abs(idx - idx[:, None])  # |n - m|
    rows = np.array([a0, a0 + v_c]) if any(with_vc) else a0[None]
    t_a = rows[np.array(with_vc, dtype=np.intp)[:, None, None], table]
    return t_a + k[:, :, None] * k[:, None, :] * b[table]


def _check_basis(shape, basis, config):
    """Raise ValueError unless the basis has the shape's omega and the config's n_max."""
    if basis.omega != shape.omega or basis.n_max != config.n_max:
        raise ValueError(f"basis (omega={basis.omega}, n_max={basis.n_max}) does not match "
                         f"shape omega={shape.omega} and config n_max={config.n_max}")


def build_hamiltonian(shape, basis, config):
    """The HermitianMatrix of one branch over the basis (``_hamiltonian_stack`` of one pair).

    Raises ValueError if the basis's omega is not the shape's or its
    n_max not the config's.
    """
    _check_basis(shape, basis, config)
    pair = [(basis.p, config.include_vc)]
    return HermitianMatrix(_hamiltonian_stack(shape, pair, basis.n_max)[0])


def make_basis(shape, p, config):
    """Bloch basis for branch p sized per the config."""
    return BlochBasis(p=p, n_max=config.n_max, omega=shape.omega)


def branch_spectra(shape, branches, n_max):
    """Spectra of every (p, include_vc) pair as arrays, from one set of harmonics and one solve.

    The matrices of ``_hamiltonian_stack`` go through ``eigh_exact`` as
    one (B, d, d) array, B = len(branches), d = 2*n_max + 1: a finite
    check, one LAPACK call and one sign rule, bit for bit as the
    per-matrix solve, since the stack is symmetric bit for bit.  Returns an
    ``EigenDecomposition`` with ``eigenvalues`` (B, d), ascending per
    pair, and ``eigenvectors`` (B, d, d), the coefficients of state alpha
    of pair b in column ``eigenvectors[b, :, alpha]`` (row i multiplies
    chi_n, n = i - n_max).  ``observables.branch_moments`` takes the
    moments of these eigenvectors.
    """
    return eigh_exact(_hamiltonian_stack(shape, branches, n_max))


def solve_states(shape, basis, config):
    """All 2*n_max + 1 states of a branch, sorted by ascending energy.

    The one-pair case of ``branch_spectra``, wrapped in ``EigenState``
    objects.  Raises ValueError if the basis's omega is not the shape's
    or its n_max not the config's (``make_basis`` gives a basis that fits).
    """
    _check_basis(shape, basis, config)
    dec = branch_spectra(shape, [(basis.p, config.include_vc)], basis.n_max)
    return list(map(EigenState, dec.eigenvalues[0].tolist(), dec.eigenvectors[0].T,
                    repeat(basis.p), count(), repeat(config.include_vc)))
