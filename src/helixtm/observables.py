"""Probability currents, toroidal moments, and thermal averages.

Natural units (hbar = mass = charge = 1, lengths in units of the major
radius) throughout; the command line layer rescales on output.

For a state with basis coefficients C_n the scalar current along the
curve (the flux through the cross-section at angle phi) is

    j(phi) = Re[ conj(S0) * S1 ] / (2*pi*f^2),
    S0 = sum_n C_n e^{i n omega phi},  S1 = sum_n (p + n*omega) C_n e^{i n omega phi}.

The branch phase e^{i p phi} cancels between the factors, so only the
relative harmonics enter: ``sample_current_profiles`` tabulates j of
several states of one n_max from one table of e^{i n omega phi} and one
evaluation of f.

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

``toroidal_moments`` therefore takes the moments of any list of states
of one shape and one n_max (mixed branches and V_c settings) from one
converged one-winding grid of the nonzero rows of g / (2*pi*f^2)
(``integrate_harmonics``), refined until every moment of the list
settles; ``toroidal_moment`` is its one-state case.
``classical_moment_numeric`` takes harmonic 0 of the same rows of g.
The tests check the quantum moments against integrating j * g_axis
over the full turn on all three axes, and the classical one against its
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .quadrature import integrate_harmonics


@dataclass(frozen=True)
class CurrentProfile:
    """Sampled scalar current over one turn; state_ref = (p, alpha, vc)."""

    phi: np.ndarray
    values: np.ndarray
    state_ref: tuple


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


def _shared_n_max(states):
    """The n_max of a non-empty list of states that all share it."""
    if not states:
        raise ValueError("need at least one state")
    n_max = states[0].n_max
    if any(state.n_max != n_max for state in states):
        raise ValueError("all states must share one n_max")
    return n_max


def _phase_table(shape, phi, n):
    """exp(i omega phi n) for every angle (rows) and harmonic (columns)."""
    return np.exp(1j * shape.omega * np.multiply.outer(phi, n.astype(float)))


def _current_values(state, shape, phases, denominator):
    k = state.p + shape.omega * state.n_indices
    s0 = phases @ state.coefficients
    s1 = phases @ (k * state.coefficients)
    return np.real(np.conj(s0) * s1) / denominator


def current(state, shape, phi):
    """Scalar current j(phi) of a normalised eigenstate."""
    phi = np.asarray(phi, dtype=float)
    f = geometry.speed(shape, phi)
    return _current_values(state, shape, _phase_table(shape, phi, state.n_indices),
                           2.0 * math.pi * f * f)


def sample_current_profiles(states, shape, grid_size):
    """Tabulate j of several eigenstates of one shape on one uniform grid.

    The states must share n_max; their branches and V_c settings may
    differ.  The phase table and the speed are evaluated once for all of
    them.  Returns one CurrentProfile per state, in order, with the
    values of ``current`` bit for bit.  The grid needs at least 2 points
    per winding.
    """
    _shared_n_max(states)
    if grid_size < 2 * shape.omega:
        raise ValueError(f"grid_size must be >= 2*omega = {2 * shape.omega}, got {grid_size}")
    phi = 2.0 * math.pi * np.arange(grid_size) / grid_size
    phases = _phase_table(shape, phi, states[0].n_indices)
    f = geometry.speed(shape, phi)
    denominator = 2.0 * math.pi * f * f
    return [
        CurrentProfile(
            phi=phi,
            values=_current_values(state, shape, phases, denominator),
            state_ref=(state.p, state.alpha, state.include_vc),
        )
        for state in states
    ]


def sample_current_profile(state, shape, grid_size):
    """Tabulate j on a uniform angle grid (at least 2 points per winding)."""
    return sample_current_profiles([state], shape, grid_size)[0]


def _moment_integrand(shape, phi):
    """g = (r' . r) r - 2 r^2 r', shape (..., 3)."""
    r = geometry.position(shape, phi)
    v = geometry.velocity(shape, phi)
    dot = np.sum(v * r, axis=-1)
    rsq = np.sum(r * r, axis=-1)
    return dot[..., None] * r - 2.0 * rsq[..., None] * v


def _moment_weights(shape, phi):
    """g / (2 pi f^2), shape (..., 3)."""
    f = geometry.speed(shape, phi)
    return _moment_integrand(shape, phi) / (2.0 * math.pi * f * f)[..., None]


def _winding_moments(shape, weights, harmonics, gather, quad):
    """Moment vectors from the one-winding harmonics of a weight's nonzero rows.

    ``weights(shape, phi)`` has the axis last.  Only its z row is sampled
    for omega >= 2 (all three at omega = 1); ``gather`` maps the
    integrals of those rows to an array with them on the last axis, and
    the rows left out come back as exact zeros.
    """
    axes = [0, 1, 2] if shape.omega == 1 else [2]
    result = integrate_harmonics(
        lambda theta: weights(shape, theta / shape.omega)[..., axes].T, harmonics, gather, quad
    )
    out = np.zeros(result.value.shape[:-1] + (3,))
    out[..., axes] = result.value
    return out


def toroidal_moments(states, shape, quad=None):
    """Toroidal moments of several eigenstates of one shape, from one grid.

    The states must share n_max; their branches and V_c settings may
    differ.  Returns one MomentResult per state, in order.  The grid of
    one winding is refined until all moments together settle to
    ``tolerance * max(1, max |T|)``.
    """
    n_max = _shared_n_max(states)
    n = np.arange(-n_max, n_max + 1)
    c = np.array([state.coefficients for state in states])
    kc = np.array([state.p + shape.omega * n for state in states]) * c
    offsets = n[None, :] - n[:, None] + 2 * n_max

    def gather(integrals):
        # Re sum_{m,n} conj(C_m) C_n k_n I_{n-m} per state and axis
        return np.real(np.einsum("sm,amn,sn->sa", c.conj(), integrals[:, offsets], kc))

    vectors = _winding_moments(
        shape, _moment_weights, np.arange(-2 * n_max, 2 * n_max + 1), gather, quad
    )
    return [
        MomentResult(vector=vec, z=float(vec[2]), state_ref=(s.p, s.alpha, s.include_vc))
        for s, vec in zip(states, vectors / 10.0)
    ]


def toroidal_moment(state, shape, quad=None):
    """Toroidal moment of an eigenstate's current distribution."""
    return toroidal_moments([state], shape, quad)[0]


def classical_moment_numeric(shape, loop_current, quad=None):
    """Toroidal moment vector of a constant loop current by quadrature."""
    return _winding_moments(
        shape, _moment_integrand, [0], lambda integrals: loop_current * integrals[:, 0].real, quad
    ) / 10.0


def classical_moment_closed(shape, loop_current):
    """Closed-form classical moment, purely along -z."""
    z = -math.pi * shape.omega * loop_current * shape.a * shape.b * shape.R / 2.0
    return np.array([0.0, 0.0, z])


def free_particle_current(shape, p, quad=None):
    """Loop current 2*pi*p/L^2 of a curvature-free particle in branch p."""
    length = geometry.arc_length(shape, quad)
    return 2.0 * math.pi * p / (length * length)


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
