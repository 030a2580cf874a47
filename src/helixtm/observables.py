"""Probability currents, toroidal moments, and thermal averages.

Natural units (hbar = mass = charge = 1, lengths as given) throughout;
the command line solves the shape at unit major radius.

For a state with basis coefficients C_n the scalar current along the
curve (the flux through the cross-section at angle phi) is

    j(phi) = Re[ conj(S0) * S1 ] / (2*pi*f^2),
    S0 = sum_n C_n e^{i n theta},  S1 = sum_n k_n C_n e^{i n theta},

with theta = omega*phi and k_n = p + n*omega; the branch phase e^{i p phi}
cancels between the factors.  conj(S0) * S1 is the double sum
sum_{m,n} conj(C_m) k_n C_n e^{i (n - m) theta}, so j is a trig
polynomial of degree 2*n_max in theta (Boyd, "Chebyshev and Fourier
Spectral Methods", ch. 2):

    j(phi) = sum_{h=0}^{2 n_max} (Re E_h cos h theta - Im E_h sin h theta) / (2*pi*f^2),
    E_0 = sum_n |C_n|^2 k_n,   E_h = B_h + conj(B_{-h}),
    B_h = sum_{n - m = h} conj(C_m) k_n C_n,

real E_h, so a cosine series, for real coefficients.  ``currents``
tabulates the currents of a whole stack of states of one shape: the E_h
of every state, then one table of cos h theta (and of sin h theta) and
one f^2 = D for the stack, all from cos and sin of the exact winding
angle (``_winding_angle``); ``current`` is its one-state case.
``currents`` and ``moment_vectors`` take each group's branch index p,
and ``_current_harmonics``, which both call, checks the stack's shape
and forms k from the indices with ``spectrum.branch_momenta``, the one
form of the k table, which also checks that p is an integer with
0 <= p < omega and that n_max >= 2.

The toroidal (anapole) moment of a line current j(phi) flowing along the
curve is

    T = (1/10) * Integral [ (j_vec . r) r - 2 r^2 j_vec ] f dphi,

with j_vec = j(phi) * T_hat.  Since T_hat * f = dr/dphi, the integrand
reduces to j(phi) * g(phi) with g = (r' . r) r - 2 r^2 r', with no
explicit frame or extra speed factor; the same reduction with a constant
loop current I gives the classical moment, whose closed form is

    T_classical = -(pi * omega * I * a * b * R / 2) z_hat

for the elliptic cross-section (a = b recovers the circular case), plus,
at omega = 1 only, an in-plane part -(pi * I * a / 2) (R^2 - (b^2 - a^2)/4) y_hat.

For an eigenstate j is the series above, so each component of the
quantum moment is a sum over the same current harmonics E_h:

    T_axis = (1/10) * Re sum_{h=0}^{2 n_max} W_h E_h,
    W_h = Integral_0^{2pi} g_axis / (2*pi*f^2) e^{i h theta} dtheta.

The weight is real, so W_{-h} = conj(W_h), and
Re(W_{-h} B_{-h}) = Re(W_h conj(B_{-h})) folds the negative harmonics
into E_h = B_h + conj(B_{-h}).  The W_h depend only on the shape; the
state enters through E_h, the one array its current is tabulated from.

The z weight depends on phi only through the winding angle
theta = omega*phi, so, as for the Hamiltonian (see ``spectrum``), its
integral over the turn is the one-winding integral above.  The x and
y weights are e^{+-i phi} times functions of theta, so their harmonics
in phi are +-1 + omega*j, which never equal omega*h once omega >= 2: the
in-plane moments vanish identically and only the z row is formed, while
``vector`` still carries the exact zeros.  At omega = 1 one winding is
the whole turn and all three rows are formed.

Each weight g / (2*pi*D), D = f^2, is a trig polynomial of degree 3 (z)
or 4 (x and y) over D, so its harmonics come in closed form from those
of 1/D (``geometry.moment_harmonics``, which reads the B_d of
``geometry.winding_harmonics`` from the shape's store
``geometry._harmonics``), with no sampling and no stopping test.
``moment_vectors`` therefore
takes the moments of a whole stack of states of one shape and one n_max
as arrays: coefficients (B, d, S), S states per group in columns (the
eigenvectors of ``spectrum.branch_spectra``), and the groups' branch
indices, from the harmonics 0..2*n_max, elementwise as the currents are.
``branch_moments`` is ``spectrum.branch_spectra`` followed by
``moment_vectors`` of its eigenvectors; the solve and the moments read
one store, so a new shape makes one ``winding_harmonics`` call.  The
command line's ``moments`` and ``thermal`` use it, and ``moments``
takes the arc length of the classical column apart, also in closed
form (``geometry.arc_length``).
``toroidal_moment`` is the one-state case of ``moment_vectors``, wrapped
in a ``MomentResult``.
``classical_moment_numeric`` takes the same rows of g as the mean of a
fixed trapezoid over one winding: the numerators sin(theta)^odd P(cos theta)
of ``geometry._moment_numerators``, the one form of g in the package,
evaluated by Horner's rule.  Each row is a trig polynomial of degree at
most 4 in theta, which the trapezoid on more than 4 nodes integrates
exactly.
The tests check the quantum moments against integrating j * g_axis
over the full turn on all three axes, with g formed from the stacked
position and velocity, their harmonics against a fine trapezoid of the
sampled rows (``tests/oracles.py``), and the classical moment against
its closed form and against the same stacked g over the whole turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .spectrum import branch_momenta, branch_spectra


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
        t = self.temperature
        if isinstance(t, bool) or not isinstance(t, (int, float, np.integer, np.floating)):
            raise ValueError(f"temperature must be a real number, got {t!r}")
        if not t > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def _current_harmonics(shape, coefficients, ps):
    """E_h, h = 0..2*n_max, of the currents of a (B, d, S) stack of states,
    group b in branch ps[b]: row h holds E_h of every state, group-major,
    real for real coefficients.

    The stack must be 3-d with an odd d and one branch index per group,
    and k comes from ``spectrum.branch_momenta``.  E_0 = sum_n |c_n|^2 k_n
    and E_h = B_h + conj(B_-h), where B_h sums conj(c_m) k_n c_n over
    n - m = h, in order of m; every state's column is formed elementwise,
    so it does not depend on the rest of the stack.
    """
    size = np.shape(coefficients)
    if len(size) != 3 or size[1] % 2 == 0 or size[0] != len(ps):
        raise ValueError(f"coefficients must be a (len(ps), 2*n_max + 1, S) stack for "
                         f"{len(ps)} branch indices, got shape {size}")
    _, d, per_group = size
    k = branch_momenta(shape, ps, (d - 1) // 2)
    # (d, states), C-contiguous: row n holds c_n of every state
    c = np.ascontiguousarray(np.swapaxes(coefficients, 0, 1)).reshape(d, -1)
    kc = np.repeat(k.T, per_group, axis=1) * c
    b = np.zeros((2 * d - 1, c.shape[1]), c.dtype)  # B_h at row h + d - 1
    term = np.empty_like(kc)
    for m, conj_c in enumerate(c.conj()):
        b[d - 1 - m:2 * d - 1 - m] += np.multiply(conj_c, kc, out=term)
    e = b[d - 1:] + b[d - 1::-1].conj()
    e[0] = b[d - 1].real
    return e


# Veltkamp's splitting factor 2^27 + 1: x * _SPLIT - (x * _SPLIT - x) keeps
# the upper 26 bits of x's 53-bit mantissa.
_SPLIT = 134217729.0


def _winding_angle(shape, phi):
    """cos and sin of theta = omega*phi, the exact product of the float angles.

    omega*phi = hi + lo exactly (Dekker's product, with phi split in two
    halves whose products with omega < 2^26 are exact; |phi| < 2^996, so
    that phi * 2^27 is finite), and cos(hi + lo) = cos hi - lo sin hi up to
    lo^2 ~ ulp(theta)^2: the rounding of theta, which grows with omega, does
    not enter.
    """
    upper = phi * _SPLIT
    upper -= upper - phi
    hi = shape.omega * phi
    lo = (shape.omega * upper - hi) + shape.omega * (phi - upper)
    c, s = np.cos(hi), np.sin(hi)
    return c - lo * s, s + lo * c


def _current_series(shape, e, phi):
    """j(phi) of each column of E (``_current_harmonics``), shape (states,) + phi.shape.

    The cosine series sum_h (Re E_h cos h theta - Im E_h sin h theta),
    summed from the highest harmonic down, over 2 pi D, with cos h theta,
    sin h theta and D = f^2 (``geometry._d_form``) formed from one
    ``_winding_angle``: cos and sin of (a + b) theta from those of a theta
    and b theta, a = h // 2 and b = h - a.  The sine terms enter only for
    complex E.  Every operation is elementwise, so a current does not
    depend on the other angles or on the other states.
    """
    phi = np.asarray(phi, dtype=float)
    c, s = _winding_angle(shape, phi.ravel())
    harmonics = [None, (c, s)]  # (cos h theta, sin h theta)
    for h in range(2, e.shape[0]):
        (ca, sa), (cb, sb) = harmonics[h // 2], harmonics[h - h // 2]
        harmonics.append((ca * cb - sa * sb, sa * cb + ca * sb))
    j = np.zeros((e.shape[1], phi.size))
    sine_terms = np.iscomplexobj(e)
    for h in range(e.shape[0] - 1, 0, -1):
        j += e[h, :, None].real * harmonics[h][0]
        if sine_terms:
            j -= e[h, :, None].imag * harmonics[h][1]
    j += e[0, :, None].real
    # 2 pi D overflows on tall coils while D is finite: numerator and
    # denominator are taken over the power of two ``geometry._tall``, which
    # leaves the quotient's bits as they are
    tall = geometry._tall(shape)
    d = geometry._d_form(shape, s, c, shape.R + shape.a * c)
    j = tall * j / (2.0 * math.pi * (tall * d))
    return j.reshape((e.shape[1],) + phi.shape)


def currents(shape, coefficients, ps, phi):
    """Scalar currents j(phi) of stacks of states of one shape, as cosine series.

    ``coefficients`` (B, d, S) and ``ps`` (B branch indices) are those of
    ``moment_vectors``: S states per group in columns, group b in branch
    ps[b].  Each state's current is the series of degree 2*n_max in
    theta = omega*phi of its harmonics E_h (see the module docstring),
    Re E_h cos h theta - Im E_h sin h theta summed over 2 pi f^2: a cosine
    series for real coefficients, whose sine terms are never formed.  One
    table of the cos h theta and one f^2 serve the whole stack, and every
    step is elementwise, so a state's current has the same bits alone as
    in any stack.  Returns the currents as a (B, S) + phi.shape array, the
    current of column s of group b at ``[b, s]``.
    """
    j = _current_series(shape, _current_harmonics(shape, coefficients, ps), phi)
    groups, _, per_group = np.shape(coefficients)
    return j.reshape((groups, per_group) + j.shape[1:])


def current(state, shape, phi):
    """Scalar current j(phi) of a normalised eigenstate (``currents`` of one state)."""
    return currents(shape, state.coefficients[None, :, None], [state.p], phi)[0, 0]


def moment_vectors(shape, coefficients, ps):
    """Toroidal moment vectors of stacks of states of one shape, from closed-form harmonics.

    ``coefficients`` has shape (B, d, S): S states per group in columns,
    d = 2*n_max + 1 coefficients each (the ``eigenvectors`` of
    ``spectrum.branch_spectra``), and group b belongs to branch ps[b].
    Each moment is (1/10) Re sum_h W_h E_h, summed from the highest
    harmonic down, over the current harmonics E_h (``_current_harmonics``,
    which forms k) and the weights' harmonics W_h
    (``geometry.moment_harmonics``, which reads B_d from the shape's
    store), so after a solve of the same shape object at this n_max the
    moments call no recurrence.  Returns the (B, S, 3) moment vectors.
    """
    e = _current_harmonics(shape, coefficients, ps)
    axes, weights = geometry.moment_harmonics(shape, e.shape[0] - 1)
    terms = (e[:, :, None] * weights.T[:, None]).real  # W_h E_h at [h, state, axis]
    t = np.zeros(terms.shape[1:])
    for term in terms[::-1]:
        t += term
    vectors = np.zeros((e.shape[1], 3))
    vectors[:, axes] = t
    groups, _, per_group = np.shape(coefficients)
    return (vectors / 10.0).reshape(groups, per_group, 3)


def branch_moments(shape, branches, n_max):
    """Spectra and moments of every (p, include_vc) pair: ``spectrum.branch_spectra``
    and ``moment_vectors`` of its eigenvectors.

    Both read the shape object's store (``geometry._harmonics``), so a new
    shape, such as each ``moments`` or ``thermal`` command builds, makes one
    ``winding_harmonics`` call, and a shape whose store already reaches that
    far (with V_c if a pair asks for it) makes none.  Returns
    ``(decomposition, vectors)``: the ``EigenDecomposition`` of the stack
    and the (B, d, 3) moment vectors.
    """
    dec = branch_spectra(shape, branches, n_max)
    return dec, moment_vectors(shape, dec.eigenvectors, [p for p, _ in branches])


def toroidal_moment(state, shape):
    """Toroidal moment of an eigenstate's current distribution (``moment_vectors`` of one state)."""
    vector = moment_vectors(shape, state.coefficients[None, :, None], [state.p])[0, 0]
    return MomentResult(vector=vector, z=float(vector[2]),
                        state_ref=(state.p, state.alpha, state.include_vc))


# Nodes of the classical moment's trapezoid: more than the rows' degree 4,
# so the trapezoid is exact for them.
_CLASSICAL_NODES = 16


def classical_moment_numeric(shape, loop_current):
    """Toroidal moment vector of a constant loop current by a fixed trapezoid.

    Each axis that does not vanish identically (see the module docstring)
    is 2 pi times the mean of its row of g, sin(theta)^odd P(cos theta)
    with P of ``geometry._moment_numerators`` by Horner's rule, over
    ``_CLASSICAL_NODES`` equally spaced angles of one winding, exact for
    these degree-4 trig polynomials.
    """
    theta = 2.0 * math.pi * np.arange(_CLASSICAL_NODES) / _CLASSICAL_NODES
    s, c = np.sin(theta), np.cos(theta)
    vector = np.zeros(3)
    for axis, odd, coefficients in geometry._moment_numerators(shape, 1.0):
        g = 0.0
        for coefficient in reversed(coefficients):
            g = g * c + coefficient
        vector[axis] = np.mean(s * g if odd else g)
    return loop_current * 2.0 * math.pi * vector / 10.0


def classical_moment_closed(shape, loop_current):
    """Closed-form classical moment: along -z, with a y component at omega = 1.

    The means of the rows of g (``geometry._moment_numerators``) give
    T_z = -pi omega I a b R / 2 and, at omega = 1, where one winding is
    the whole turn, T_y = -(pi I a / 2) (R^2 - (b^2 - a^2)/4); T_x is 0.
    """
    a, b, R = shape.a, shape.b, shape.R
    z = -math.pi * shape.omega * loop_current * a * b * R / 2.0
    y = 0.0
    if shape.omega == 1:
        y = -math.pi * loop_current * a * (R * R - (b * b - a * a) / 4.0) / 2.0
    return np.array([0.0, y, z])


def loop_current(p, length):
    """Loop current 2*pi*p/L^2 of a curvature-free particle in branch p on a curve of length L."""
    return 2.0 * math.pi * p / (length * length)


def free_particle_current(shape, p):
    """Loop current 2*pi*p/L^2 of a curvature-free particle in branch p."""
    return loop_current(p, geometry.arc_length(shape))


def thermal_average(moments, spec):
    """Boltzmann average of (energy, value) pairs over sub-states.

    Normalized mode shifts energies by their minimum (the shift cancels
    against the partition sum); raw mode exponentiates the energies as
    given, so it can overflow by design: OverflowError whenever the sum is
    not finite, also where -E/T is inf, whose ``math.exp`` does not raise.
    """
    pairs = [(float(e), float(v)) for e, v in moments]
    if not pairs:
        raise ValueError("need at least one (energy, value) pair")
    if spec.normalize:
        low = min(e for e, _ in pairs)
        weights = [math.exp(-(e - low) / spec.temperature) for e, _ in pairs]
        return sum(w * v for w, (_, v) in zip(weights, pairs)) / sum(weights)
    total = sum(v * math.exp(-e / spec.temperature) for e, v in pairs)
    if not math.isfinite(total):
        raise OverflowError(f"unnormalized Boltzmann sum is {total} at temperature {spec.temperature}")
    return total
