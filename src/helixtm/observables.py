"""Probability currents, toroidal moments, and thermal averages.

Natural units (hbar = mass = charge = 1, lengths in units of the major
radius) throughout; the command line layer rescales on output.

For a state with basis coefficients C_n the scalar current along the
curve (the flux through the cross-section at angle phi) is

    j(phi) = Re[ conj(S0) * S1 ] / (2*pi*f^2),
    S0 = sum_n C_n e^{i n omega phi},  S1 = sum_n (p + n*omega) C_n e^{i n omega phi}.

The branch phase e^{i p phi} cancels between the factors, so only the
relative harmonics enter: ``currents`` tabulates j of a whole stack of
states of one shape from one table of e^{i n omega phi} and one
evaluation of f; ``current`` is its one-state case.

The toroidal (anapole) moment of a line current j(phi) flowing along the
curve is

    T = (1/10) * Integral [ (j_vec . r) r - 2 r^2 j_vec ] f dphi,

with j_vec = j(phi) * T_hat.  Since T_hat * f = dr/dphi, the integrand
reduces to j(phi) * g(phi) with g = (r' . r) r - 2 r^2 r', with no
explicit frame or extra speed factor; the same reduction with a constant
loop current I gives the classical moment, whose closed form is

    T_classical = -(pi * omega * I * a * b * R / 2) z_hat

for the elliptic cross-section (a = b recovers the circular case).

For an eigenstate, conj(S0) * S1 is a double sum over harmonics, so each
component of the quantum moment is a quadratic form in the coefficients:

    T_axis = (2*pi/10) * Re( C^H M_axis C ),
    M_axis[m, n] = k_n * coeff_{omega*(n - m)}[ g_axis / (2*pi*f^2) ],

where coeff_h[w] = (1/(2*pi)) Integral_0^{2pi} w(phi) e^{i h phi} dphi.
The coefficients depend only on the shape; the state enters through C
and k_n = p + omega*n.

The z weight depends on phi only through the winding angle
theta = omega*phi, so, as for the Hamiltonian (see ``quadrature``), its
coefficient at harmonic omega*d is the one-winding coefficient
(1/(2*pi)) Integral_0^{2pi} w_z(theta) e^{i d theta} dtheta, sampled at
phi = theta/omega.  The x and y weights are e^{+-i phi} times functions
of theta, so their harmonics are +-1 + omega*j, which never equal
omega*(n - m) once omega >= 2: the in-plane moments vanish identically
and only the z row is integrated, while ``vector`` still carries the
exact zeros.  At omega = 1 one winding is the whole turn and all three
rows are integrated.

``moment_vectors`` therefore takes the moments of a whole stack of
states of one shape and one n_max as arrays: coefficients (B, d, S), S
states per group in columns (the eigenvectors of
``spectrum.branch_spectra``), and the (B, d) table of k = p + omega*n
(``spectrum.branch_momenta``), from the harmonics of the nonzero rows of
g / (2*pi*f^2) on one grid of one winding (``spectrum.winding_grid``),
refined until every moment of the stack settles.  ``branch_moments``
puts those rows on the grid of the Hamiltonian (and f, for the arc
length) and settles the spectra, their moments and the length in one
sampling pass, each at its own level; every result equals the one of the
standalone call bit for bit.  The command line's ``moments`` and
``thermal`` use it.  ``toroidal_moment`` is the one-state case of
``moment_vectors``, wrapped in a ``MomentResult``.
``classical_moment_numeric`` takes harmonic 0 of the same rows of g.
The rows of g are written elementwise by ``geometry.winding_terms``.
The tests check the quantum moments against integrating j * g_axis
over the full turn on all three axes, with g formed from the stacked
position and velocity, and the classical one against its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .linalg import eigh_stack
from .quadrature import settle
from .spectrum import _hamiltonians, _moment_axes, branch_momenta, winding_grid


@dataclass(frozen=True)
class MomentResult:
    """Toroidal moment vector and its z component; state_ref = (p, alpha, vc)."""

    vector: np.ndarray
    z: float
    state_ref: tuple


@dataclass(frozen=True)
class ThermalSpec:
    """Boltzmann-weighting settings for sub-state averages.

    ``normalize=True`` divides by the partition sum (weights are shifted
    by the lowest energy first, so any temperature is safe).  With
    ``normalize=False`` the raw weighted sum with unshifted exponents is
    returned, which can overflow for deep levels at small temperature;
    the OverflowError is deliberately allowed to surface.
    """

    temperature: float
    normalize: bool = True

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def _phase_table(shape, phi, n):
    """exp(i omega phi n) for every angle (rows) and harmonic (columns)."""
    return np.exp(1j * shape.omega * np.multiply.outer(phi, n.astype(float)))


def currents(shape, coefficients, k, phi):
    """Scalar currents j(phi) of stacks of states of one shape, from one phase table.

    ``coefficients`` (B, d, S) and ``k`` (B, d) are those of
    ``moment_vectors``: S states per group in columns and the wavenumbers
    p + omega*n of group b.  The phase table e^{i n omega phi} and the
    speed are evaluated once for the whole stack.  Returns the currents
    as a (B, S) + phi.shape array, the current of column s of group b at
    ``[b, s]``.
    """
    phi = np.asarray(phi, dtype=float)
    groups, d, per_group = coefficients.shape
    n_max = (d - 1) // 2
    phases = _phase_table(shape, phi, np.arange(-n_max, n_max + 1))
    f = geometry.speed(shape, phi)
    denominator = 2.0 * math.pi * f * f
    out = np.empty((groups, per_group) + phi.shape)
    for b in range(groups):
        for s in range(per_group):
            # one product per column: a single one over all columns rounds
            # differently, in the last bit
            c = coefficients[b, :, s]
            s0 = phases @ c
            s1 = phases @ (k[b] * c)
            out[b, s] = np.real(np.conj(s0) * s1) / denominator
    return out


def current(state, shape, phi):
    """Scalar current j(phi) of a normalised eigenstate (``currents`` of one state)."""
    k = state.p + shape.omega * state.n_indices
    return currents(shape, state.coefficients[None, :, None], k[None], phi)[0, 0]


def _moments(grid, shape, coefficients, k):
    """``moment_vectors`` settled on a ``spectrum.winding_grid`` with moment weights."""
    groups, d, per_group = coefficients.shape
    n_max = (d - 1) // 2
    n = np.arange(-n_max, n_max + 1)
    # one row per state, group-major, as C-contiguous (states, d) arrays
    c = np.ascontiguousarray(np.swapaxes(coefficients, 1, 2)).reshape(-1, d)
    c_conj = c.conj()
    kc = np.repeat(k, per_group, axis=0) * c
    offsets = n[None, :] - n[:, None] + 2 * n_max

    def gather(integrals):
        # Re sum_{m,n} conj(C_m) C_n k_n I_{n-m} per state and sampled axis
        return np.real(np.einsum("sm,amn,sn->sa", c_conj, integrals[:, offsets], kc))

    vectors = np.zeros((groups * per_group, 3))
    vectors[:, _moment_axes(shape)] = settle(grid, "moments", gather, relative=True).value
    return (vectors / 10.0).reshape(groups, per_group, 3)


def moment_vectors(shape, coefficients, k, quad=None):
    """Toroidal moment vectors of stacks of states of one shape, from one grid.

    ``coefficients`` has shape (B, d, S): S states per group in columns,
    d = 2*n_max + 1 coefficients each (the ``eigenvectors`` of
    ``spectrum.branch_spectra``), and ``k`` shape (B, d): the wavenumbers
    p + omega*n of group b (``spectrum.branch_momenta``).  Returns the
    (B, S, 3) moment vectors.  The grid of one winding is refined until
    all moments together settle to ``tolerance * max(1, max |T|)``.
    """
    n_max = (coefficients.shape[1] - 1) // 2
    return _moments(winding_grid(shape, quad, n_max, moments="weights"), shape, coefficients, k)


def branch_moments(shape, branches, n_max, quad=None, length=False):
    """Spectra and moments of every (p, include_vc) pair, and the arc length, from one pass.

    One ``spectrum.winding_grid`` samples the Hamiltonian's rows, the
    moment weights and (when ``length`` is set) f together.  The
    Hamiltonians settle first and are solved as ``branch_spectra`` solves
    them; the moments of all their states then settle on the stored
    levels, as ``moment_vectors`` of the eigenvectors, and the arc length
    last, as ``geometry.arc_length``.  Each quantity stops at its own
    level, so every result equals the one of the standalone call bit for
    bit.  Returns ``(decomposition, vectors, length)``: the
    ``EigenDecomposition`` of ``branch_spectra``, the (B, d, 3) moment
    vectors and the length (None unless ``length`` is set).
    """
    grid = winding_grid(shape, quad, n_max, branches, moments="weights", length=length)
    dec = eigh_stack(_hamiltonians(grid, shape, branches, n_max))
    k = branch_momenta(shape, [p for p, _ in branches], n_max)
    vectors = _moments(grid, shape, dec.eigenvectors, k)
    return dec, vectors, settle(grid, "length").value.real if length else None


def toroidal_moment(state, shape, quad=None):
    """Toroidal moment of an eigenstate's current distribution (``moment_vectors`` of one state)."""
    k = state.p + shape.omega * state.n_indices
    vector = moment_vectors(shape, state.coefficients[None, :, None], k[None], quad)[0, 0]
    return MomentResult(vector=vector, z=float(vector[2]),
                        state_ref=(state.p, state.alpha, state.include_vc))


def classical_moment_numeric(shape, loop_current, quad=None):
    """Toroidal moment vector of a constant loop current by quadrature."""
    grid = winding_grid(shape, quad, moments="integrand")
    vector = np.zeros(3)
    vector[list(_moment_axes(shape))] = settle(
        grid, "moments", lambda integrals: loop_current * integrals[:, 0].real, relative=True
    ).value
    return vector / 10.0


def classical_moment_closed(shape, loop_current):
    """Closed-form classical moment, purely along -z."""
    z = -math.pi * shape.omega * loop_current * shape.a * shape.b * shape.R / 2.0
    return np.array([0.0, 0.0, z])


def loop_current(p, length):
    """Loop current 2*pi*p/L^2 of a curvature-free particle in branch p on a curve of length L."""
    return 2.0 * math.pi * p / (length * length)


def free_particle_current(shape, p, quad=None):
    """Loop current 2*pi*p/L^2 of a curvature-free particle in branch p."""
    return loop_current(p, geometry.arc_length(shape, quad))


def thermal_average(moments, spec):
    """Boltzmann average of (energy, value) pairs over sub-states.

    Normalized mode shifts energies by their minimum (the shift cancels
    against the partition sum); raw mode exponentiates the energies as
    given, so it can overflow by design.
    """
    pairs = [(float(e), float(v)) for e, v in moments]
    if not pairs:
        raise ValueError("need at least one (energy, value) pair")
    if spec.normalize:
        low = min(e for e, _ in pairs)
        weights = [math.exp(-(e - low) / spec.temperature) for e, _ in pairs]
        return sum(w * v for w, (_, v) in zip(weights, pairs)) / sum(weights)
    return sum(v * math.exp(-e / spec.temperature) for e, v in pairs)
