"""Differential geometry of toroidal helices with elliptic winding cross-section.

The curve winds ``omega`` times around a torus of major radius ``R`` while
circling the symmetry (z) axis once.  With ``s = sin(omega*phi)`` and
``c = cos(omega*phi)``:

    W(phi) = R + a*c                       distance from the z axis
    r(phi) = (W*cos(phi), W*sin(phi), b*s)

``a`` is the radial and ``b`` the vertical half-axis of the winding
cross-section; ``a == b`` gives a circular cross-section.  The speed is

    f(phi) = |dr/dphi| = sqrt((a^2*s^2 + b^2*c^2)*omega^2 + W^2)

The Frenet frame, curvature and torsion come from one evaluation of the
jet r', r'', r''' (``_jet``):

    T = r'/f,   c = T x r'' = f^2*kappa*B,   N = B x T,
    kappa = |c|/f^2,   tau = (c . r''')/(|c|^2*f)

Dividing r' by f before the cross product keeps every intermediate at
the size of R^2.  The jet and the frame are formed column-wise, one
array per Cartesian component, with every cross and dot product written
out per component; the public functions stack the components.  The
frame is undefined where the dimensionless curvature kappa*R is at most
``KAPPA_MIN``.  ``speed`` and V_c read one sampled D = f^2 (``_d_form``);
V_c is rational in D, and nothing divides by a quantity that vanishes
with b.  The Fourier harmonics of the
Hamiltonian's rows come in closed form from the roots of D
(``winding_harmonics``), those of the toroidal-moment weights g / D from
the same harmonics of 1/D (``moment_harmonics``), and the arc length is
a complete elliptic integral in the same constants (``arc_length``):
nothing in the shape's physics samples an angle.

All functions accept a scalar angle or an ndarray of angles; vector-valued
results carry the Cartesian component on the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Below this dimensionless curvature kappa*R the principal normal direction
# is numerically undefined.
KAPPA_MIN = 1e-12

# Bulirsch's cel stops once its two means agree to this relative
# difference; the loop converges quadratically, so the error left is of
# the order of its square, far below rounding.
CEL_TOLERANCE = 1e-10


class DegenerateFrame(ValueError):
    """Curvature kappa*R too small to orient the principal normal."""


class InvalidTubePoint(ValueError):
    """Transverse offset reaches the local radius of curvature."""


@dataclass(frozen=True)
class HelixShape:
    """Geometric parameters of the helix.

    Parameters
    ----------
    R : float
        Major (toroidal) radius, > 0.
    a : float
        Radial half-axis of the winding cross-section, in (0, R).
    b : float
        Vertical half-axis of the winding cross-section, > 0.
    omega : int
        Number of windings per full turn around the z axis, >= 1.

    Any real number (numpy scalars included) is accepted and stored, once
    validated, as a Python float (R, a, b) or int (omega).  The object also
    keeps its longest ``winding_harmonics`` call (``_harmonics``) in its
    instance dict, outside the fields: equality, hashing, ``repr`` and
    pickling see only the four parameters.
    """

    R: float
    a: float
    b: float
    omega: int

    def __post_init__(self):
        for name in ("R", "a", "b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"shape parameters must be real numbers, got {name}={value!r}")
            if not math.isfinite(value):
                raise ValueError(f"shape parameters must be finite, got {name}={value}")
        if not self.R > 0:
            raise ValueError(f"major radius must be positive, got R={self.R}")
        if not self.a > 0:
            raise ValueError(f"radial half-axis must be positive, got a={self.a}")
        if not self.b > 0:
            raise ValueError(f"vertical half-axis must be positive, got b={self.b}")
        if not (isinstance(self.omega, (int, np.integer)) and not isinstance(self.omega, bool)):
            raise ValueError(f"winding count must be an integer, got omega={self.omega!r}")
        if self.omega < 1:
            raise ValueError(f"winding count must be >= 1, got omega={self.omega}")
        if not self.R - self.a > 0:
            raise ValueError(
                f"winding must not reach the z axis: need R - a > 0, got {self.R - self.a}"
            )
        # Python numbers from here on: a numpy float32 would carry its
        # precision into the products, and a small numpy integer omega**3 wraps
        vars(self).update(R=float(self.R), a=float(self.a), b=float(self.b), omega=int(self.omega))

    def __getstate__(self):
        # a pickle or copy carries the parameters only, not the harmonics store
        return {name: value for name, value in vars(self).items() if name != "_harmonics"}


@dataclass(frozen=True)
class FrenetData:
    """Frenet frame and curve scalars at one angle (or one per angle)."""

    tangent: np.ndarray
    normal: np.ndarray
    binormal: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    speed: np.ndarray


@dataclass(frozen=True)
class TubePoint:
    """A point in tube coordinates: angle plus transverse offsets.

    ``q_n`` is the offset along the principal normal, ``q_b`` along the
    binormal.  Validity (offset inside the local radius of curvature) is
    checked where the metric is evaluated, since it depends on the shape.
    """

    phi: float
    q_n: float
    q_b: float


@dataclass(frozen=True)
class MetricTensors:
    """Covariant and contravariant tube metric and its volume factor."""

    covariant: np.ndarray
    contravariant: np.ndarray
    sqrt_det: float


def _sc(shape, phi):
    """sin/cos of the winding angle and the axis distance W."""
    phi = np.asarray(phi, dtype=float)
    s = np.sin(shape.omega * phi)
    c = np.cos(shape.omega * phi)
    return s, c, shape.R + shape.a * c


def _cross(u, v):
    """u x v of two (x, y, z) component tuples, written out per component."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    """u . v of two (x, y, z) component tuples, summed in axis order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _stack(vector):
    """An (x, y, z) component tuple as one array, components on the last axis."""
    return np.stack(vector, axis=-1)


def _jet(shape, phi):
    """r, r', r'', r''' and f = |r'| column-wise: each vector an (x, y, z)
    tuple of arrays of phi's shape, from one sin/cos of phi and of omega*phi.

    In the cylindrical basis, with W' = -a*omega*s, W'' = -a*omega^2*c and
    W''' = a*omega^3*s:

        r    = W*rho_hat + b*s*z_hat
        r'   = W'*rho_hat + W*phi_hat + b*omega*c*z_hat
        r''  = (W'' - W)*rho_hat + 2*W'*phi_hat - b*omega^2*s*z_hat
        r''' = (W''' - 3*W')*rho_hat + (3*W'' - W)*phi_hat - b*omega^3*c*z_hat

    (rho_hat' = phi_hat and phi_hat' = -rho_hat fold the cylindrical
    basis derivatives into the coefficients.)  ``position``,
    ``curve_derivatives`` and ``frenet_frame`` stack its components at
    their boundary; the command line's ``geometry`` reads them as columns.
    """
    a, b, w = shape.a, shape.b, shape.omega
    s, c, W = _sc(shape, phi)
    phi = np.asarray(phi, dtype=float)
    cp, sp = np.cos(phi), np.sin(phi)

    def lift(radial, azimuthal, z):
        return (radial * cp - azimuthal * sp, radial * sp + azimuthal * cp, z)

    w1 = -a * w * s
    w2 = -a * w * w * c
    w3 = a * w**3 * s
    return ((W * cp, W * sp, b * s),
            lift(w1, W, b * w * c),
            lift(w2 - W, 2 * w1, -(b * w * w * s)),
            lift(w3 - 3 * w1, 3 * w2 - W, -(b * w**3 * c)),
            np.sqrt(_d_form(shape, s, c, W)))


def position(shape, phi):
    """Cartesian point r(phi) = W rho_hat + b s z_hat on the curve, shape (..., 3)."""
    return _stack(_jet(shape, phi)[0])


def velocity(shape, phi):
    """First derivative dr/dphi, shape (..., 3): the first of ``curve_derivatives``."""
    return curve_derivatives(shape, phi)[0]


def curve_derivatives(shape, phi):
    """First three derivatives (r', r'', r''') of r with respect to phi, each
    of shape (..., 3): those of ``_jet``, which gives them in the cylindrical
    basis."""
    return tuple(_stack(vector) for vector in _jet(shape, phi)[1:4])


def _d_form(shape, s, c, W):
    """D = f^2 = (a^2 s^2 + b^2 c^2) omega^2 + W^2 from the winding angle's sin/cos and W."""
    a, b, w = shape.a, shape.b, shape.omega
    return ((a * s) ** 2 + (b * c) ** 2) * w * w + W * W


def speed(shape, phi):
    """Parametrisation speed f(phi) = |dr/dphi| = sqrt(D)."""
    return np.sqrt(_d_form(shape, *_sc(shape, phi)))


def _tall(shape):
    """2^-k, 2^k the power of two of D(pi) / 2^500, or 1 below D(pi) = 2^500.

    D(pi) = (R - a)^2 + (omega b)^2.  Products of two sizes of D, which
    overflow on tall coils long before D does, are taken over it.  Below
    2^500 nothing is scaled, so no small term drops to a subnormal; above,
    every factor it scales is large.  Every use cancels the power of two
    exactly, so only the exponent of D(pi) matters, not its rounding.
    """
    w_b = shape.omega * shape.b
    d_pi = (shape.R - shape.a) * (shape.R - shape.a) + w_b * w_b
    return 2.0 ** -max(math.frexp(d_pi)[1] - 500, 0)


def _d_factor(shape):
    """The constants of D = K |1 - s z + p z^2|^2 that ``winding_harmonics`` reads.

    (omega^2, a, b, R, alpha, beta, gamma, r, q, m, g, v^2, v, t, s, p) as
    numpy floats, named as in ``winding_harmonics``, whose docstring
    derives them.
    """
    w2 = np.float64(shape.omega) ** 2
    a, b, R = np.float64(shape.a), np.float64(shape.b), np.float64(shape.R)
    alpha = a * a + w2 * (b * b - a * a)
    beta = 2 * a * (R - a) + 2 * w2 * (a * a - b * b)
    gamma = (R - a) ** 2 + w2 * b * b
    r, q = np.sqrt(gamma), np.sqrt((R + a) ** 2 + w2 * b * b)
    m = 0.5 * (r + q)
    # v^2 = m^2 - alpha = (g + r q)/2 with g = gamma + beta.  Where g < 0
    # (tall coils, roots near the unit circle) that sum cancels, and
    # (4 alpha gamma - beta^2) / (2 (r q - g)), with the numerator expanded
    # as 4 omega^2 (R^2 (b^2 - a^2) + a^2 alpha), adds positive terms only.
    # 2 omega^2 times that bracket reaches omega^4 b^2: both sides are
    # taken over ``_tall``
    g = (R - a) * (R + a) + w2 * (2 * a * a - b * b)
    if g >= 0:
        v2 = 0.5 * (g + r * q)
    else:
        tall = _tall(shape)
        v2 = 2 * w2 * (tall * (R * R * (b * b - a * a) + a * a * alpha)) / (tall * (r * q - g))
    v = np.sqrt(v2)
    t = 0.5 * (m + v)
    s, p = -a * R / (m * t), 0.25 * alpha / (t * t)
    return w2, a, b, R, alpha, beta, gamma, r, q, m, g, v2, v, t, s, p


def winding_harmonics(shape, count, potential=False):
    """(A0_d, B_d, V_c_d), d = 0..count-1: the Hamiltonian rows' harmonics in closed form.

    X_d = (1/(2 pi)) Integral_0^{2pi} X(theta) e^{i d theta} dtheta for
    the Hamiltonian's rows, with D = f^2 and its phi-derivatives D', D''

        A0  = D''/(8 D^2) - (7/32) D'^2/D^3,
        B   = 1/(2 D),
        V_c = -(D |r''|^2 - D'^2/4)/(8 D^3) = ``curvature_potential``:

    A0 is the bracket's A of ``spectrum`` without V_c; its odd function
    C = f'/f^3 = -omega dB/dtheta enters through B's harmonics.  Each is
    real and even in d, so the arrays hold d >= 0.  No angle is sampled.

    In u = 1 + cos(theta), D = f^2 = alpha u^2 + beta u + gamma with

        alpha = a^2 + omega^2 (b^2 - a^2),
        beta  = 2 a (R - a) + 2 omega^2 (a^2 - b^2),
        gamma = (R - a)^2 + omega^2 b^2 = D(pi),

    and D(0) = (R + a)^2 + omega^2 b^2.  On the unit circle z = e^{i theta}
    D = K |1 - s z + p z^2|^2, where s and p are the sum and product of
    the roots of D inside the circle, so the harmonics F_d of 1/D follow

        F_d = s F_{d-1} - p F_{d-2}   (d >= 2),
        F_0 = (1 + p) / ((1 - p) sqrt(D(0) D(pi))),   F_1 = s F_0 / (1 + p).

    With r = sqrt(D(pi)), q = sqrt(D(0)), m = (r + q)/2, v = sqrt(m^2 - alpha)
    and t = (m + v)/2 these are 1 + p = m/t, 1 - p = v/t, p = alpha/(4 t^2),
    s = -a R/(m t) and F_0 = m/(v r q): no root of D and no difference of
    roots is formed, so alpha = 0 (p = 0) and a double root (s^2 = 4 p) are
    not special.  Since (1/D)'' = 2 D'^2/D^3 - D''/D^2 (theta
    derivatives), the rows are

        A0  = omega^2 (D''/D^2 - 7 (1/D)'') / 64,
        V_c = -|r''|^2 / (8 D^2) + omega^2 (D''/D^2 + (1/D)'') / 64,

    with |r''|^2 the phi-derivative's square.  The harmonic of (1/D)'' is
    -d^2 F_d.  D'' = -4 alpha u^2 + (6 alpha - beta) u + beta and |r''|^2
    are quadratics P in u, and the harmonic of P/D^2 is minus the
    derivative of F_d along D -> D + eps P, so F is carried through the
    recurrence with its derivatives along those two directions.  The
    recurrence runs in Python floats after the shape's constants are
    formed in numpy, where an overflow or invalid value follows numpy's
    error state.  A longer ``count`` extends the arrays and leaves the
    first entries unchanged bit for bit.  V_c_d is None unless
    ``potential`` is set.
    """
    w2, a, b, R, alpha, beta, gamma, r, q, m, g, v2, v, t, s, p = _d_factor(shape)
    # (u^0, u^1, u^2) coefficients of D'' and, with V_c, of |r''|^2, over
    # 2^k, the power of two of D(pi) = gamma (k >= 0).  A direction is of
    # the size of D, so on tall coils a direction times gamma overflows
    # long before D does; scaled, the products stay of the size of D.  The
    # slopes are linear in the direction and 2^k is a power of two, so the
    # scaled slopes times 2^k are the unscaled ones bit for bit.  The
    # products below of two sizes of D (6 alpha - beta, omega^4 b^2,
    # p2 gamma and v r q) are taken over ``_tall`` and the rest of 2^k
    # after it.
    scale, tall = 2.0 ** -max(math.frexp(gamma)[1], 0), _tall(shape)
    rest = scale / tall
    ta, tb = tall * alpha, tall * beta
    directions = [(scale * beta, rest * (6 * ta - tb), scale * (-4 * alpha))]
    if potential:
        k = a * (w2 + 1)
        c0 = R - k
        e = (4 * a * a + b * b * w2) * (tall * w2)
        directions.append((scale * (c0 * c0), rest * (2 * (tall * (k * c0) + e)),
                           rest * (tall * (k * k) - e)))
    rq = r * q
    f0 = (tall * m) / (v * r * (tall * q))
    f1 = s * f0 / (1 + p)
    starts = []  # d = 0 and 1 and the forcing (ds, dp) of each slope row
    for p0, p1, p2 in directions:
        # derivatives along D -> D + eps (p0 + p1 u + p2 u^2)
        dr = 0.5 * p0 / r
        dq = 0.5 * (p0 + 2 * p1 + 4 * p2) / q
        dm = 0.5 * (dr + dq)
        drq, dg = r * dq + q * dr, p0 + p1
        if g >= 0:
            dv2 = 0.5 * (dg + drq)
        else:
            dv2 = (2 * (p2 * (tall * gamma) + ta * p0) - tb * p1
                   - v2 * (tall * (drq - dg))) / (tall * (rq - g))
        dv = 0.5 * dv2 / v
        dt = 0.5 * (dm + dv)
        ds = -0.5 * (2 * p2 + p1) / (m * t) - s * (dm / m + dt / t)
        dp = 0.25 * p2 / (t * t) - 2 * p * dt / t
        df0 = f0 * (dm / m - dv / v - dr / r - dq / q)
        starts.append([float(z) for z in (df0, (ds * f0 + s * df0 - f1 * dp) / (1 + p), ds, dp)])
    # F, with its zero forcing 0.0 x - 0.0 y that signs an underflowed F_d, then the slope rows
    s, p, y, x = float(s), float(p), float(f0), float(f1)
    f = [y, x]
    for _ in range(2, count):
        x, y = s * x - p * y + 0.0 * x - 0.0 * y, x
        f.append(x)
    rows = f[:count]  # every row's entries in turn
    for y, x, ds, dp in starts:
        rows += (y, x)[:count]
        for v2, v1 in zip(f, f[1:count - 1]):
            x, y = s * x - p * y + ds * v1 - dp * v2, x
            rows.append(x)
    rows = np.fromiter(rows, float, len(rows)).reshape(len(starts) + 1, count)
    f, slopes = rows[0], rows[1:] / scale
    d2f = np.arange(count, dtype=float) ** 2 * f
    a0 = w2 / 64 * (7 * d2f - slopes[0])
    vc = slopes[1] / 8 - w2 / 64 * (slopes[0] + d2f) if potential else None
    return a0, 0.5 * f, vc


def _harmonics(shape, width, potential=False):
    """``winding_harmonics(shape, _moment_reach(shape, width), potential)``, the
    harmonics that a basis reading harmonics 0..width (``2 n_max``) and the
    moments of its states need, as read-only prefixes of the shape object's
    store, bit for bit the fresh call's arrays.

    The store, kept in the shape's instance dict, is the longest call made
    of this object so far, with V_c once a call has asked for it.  A request
    past its length, or for V_c that it lacks, calls ``winding_harmonics``
    again at the larger length, with V_c if either side asks for it: a
    longer call keeps the first entries bit for bit, and V_c leaves A0 and
    B as they are.  A result is stored only when every entry is finite, so
    one that overflowed is recomputed, under whatever numpy error state the
    next call runs.  Equal shapes built apart share nothing, and the store
    goes with its shape.
    """
    count = _moment_reach(shape, width)
    store = vars(shape).get("_harmonics")
    if store is None or store[1].size < count or (potential and store[2] is None):
        length, with_vc = count, potential
        if store is not None:
            length, with_vc = max(count, store[1].size), potential or store[2] is not None
        store = winding_harmonics(shape, length, with_vc)
        rows = [x for x in store if x is not None]
        for x in rows:
            x.flags.writeable = False
        if np.isfinite(np.concatenate(rows)).all():
            vars(shape)["_harmonics"] = store
    a0, b, vc = store
    return a0[:count], b[:count], vc[:count] if potential else None


def _moment_reach(shape, width):
    """Entries of B_d that harmonics 0..width of the moment weights read: width + 1
    plus the numerators' degree, 4 with the x and y rows (omega = 1), 3 for z alone."""
    return width + 1 + (4 if shape.omega == 1 else 3)


def _moment_numerators(shape, scale):
    """(axis, odd, P) per row of g that does not vanish: g_axis = sin(theta)^odd P(cos theta).

    P's coefficients ascend in c = cos theta and carry the factor
    ``scale``, a power of two, which keeps them finite on tall coils
    (``moment_harmonics``).  This is the package's one form of the
    toroidal-moment integrand g = (r' . r) r - 2 r^2 r'.  With
    r . r' = omega s ((b^2 - a^2) c - a R) and r^2 = (R + a c)^2 + b^2 s^2,
    g_z = b omega ((1 - c^2)((b^2 - a^2) c - a R) - 2 c r^2);
    at omega = 1, where cos phi = c and sin phi = s, g_x is s times a cubic
    and g_y a quartic in c.  Only z is formed for omega >= 2, where the x
    and y moments vanish identically; axes are 0, 1, 2 for x, y, z.
    """
    a, b, R, w = shape.a, shape.b, shape.R, shape.omega
    bw = b * w * scale
    rows = {2: (False, [-bw * a * R, -bw * (a * a + b * b + 2 * R * R), -3 * bw * a * R,
                        bw * (b * b - a * a)])}
    if w == 1:  # of the size of D: scaled last, so a small a R term stays normal
        rows[0] = (True, [scale * x for x in (
            2 * R * (R * R + b * b), a * (7 * R * R + 4 * b * b), R * (8 * a * a - b * b),
            3 * a * (a * a - b * b))])
        rows[1] = (False, [scale * x for x in (
            a * (R * R + 2 * b * b), R * (2 * a * a - b * b - 2 * R * R),
            a * (a * a - 5 * b * b - 7 * R * R), R * (b * b - 8 * a * a), 3 * a * (b * b - a * a))])
    return [(axis, *rows[axis]) for axis in sorted(rows)]


def moment_harmonics(shape, width):
    """(axes, harmonics d = 0..width of the toroidal-moment weights g_axis / (2 pi D)).

    Entry [i, d] is Integral_0^{2pi} g_i(theta) / (2 pi D) e^{i d theta} dtheta,
    the harmonic of g_i / D, for the rows ``axes`` of g = (r' . r) r - 2 r^2 r'
    that ``_moment_numerators`` forms; the weights are real, so harmonic -d
    is the conjugate of harmonic d.  They come from the B_d = F_d / 2,
    d >= 0, of the shape's store (``_harmonics``), where F_d are the
    harmonics of 1/D, even in d.  Each g_axis is sin(theta)^odd times
    a polynomial P in c = cos theta (``_moment_numerators``), of degree 3
    for z and 4 for x and y as trig polynomials.  Multiplying by c maps
    harmonics X_d to (X_{d-1} + X_{d+1})/2, so P(c)/D follows from F by
    Horner's rule, and the factor sin(theta) maps X_d to
    (X_{d+1} - X_{d-1})/(2i): the x row is odd, its harmonics imaginary.
    Harmonic width reads F up to the numerators' degree past it, as many
    as the store forms for ``width`` (``_moment_reach``).  No angle is
    sampled.  The coefficients of P reach the size of D^(3/2), so they are
    taken over ``_tall`` and F times it: the products are the unscaled ones
    bit for bit.
    """
    scale = _tall(shape)
    f = 2.0 / scale * _harmonics(shape, width)[1]
    full = np.concatenate([f[:0:-1], f])  # F_d for d = 1 - size..size - 1
    rows = _moment_numerators(shape, scale)
    out = []
    for _, odd, coefficients in rows:
        x = coefficients[-1] * full
        for trim, coefficient in enumerate(reversed(coefficients[:-1]), 1):
            x = 0.5 * (x[:-2] + x[2:]) + coefficient * full[trim:-trim]
        if odd:
            x = 0.5j * (x[:-2] - x[2:])
        mid = x.size // 2
        out.append(x[mid:mid + width + 1])
    return [axis for axis, _, _ in rows], np.array(out)


class _BinormalJet(NamedTuple):
    """The curve at a set of angles, column-wise: each vector an (x, y, z)
    tuple of arrays of the angles' shape."""

    r: tuple
    f: np.ndarray
    tangent: tuple
    c: tuple
    csq: np.ndarray
    c_norm: np.ndarray
    r3: tuple
    kappa: np.ndarray


def _binormal_jet(shape, phi):
    """r, f, T = r'/f, c = T x r'' = f^2 kappa B, |c|^2, |c|, r''' and
    kappa = |c|/f^2 from one ``_jet``.

    r' is divided by f before the cross product, so no intermediate
    exceeds the size of R^2 (r' x r'' would reach R^4).
    """
    r, r1, r2, r3, f = _jet(shape, phi)
    tangent = tuple(x / f for x in r1)
    c = _cross(tangent, r2)
    csq = _dot(c, c)
    c_norm = np.sqrt(csq)
    return _BinormalJet(r, f, tangent, c, csq, c_norm, r3, c_norm / (f * f))


def _degenerate(shape, kappa):
    """Whether kappa*R <= KAPPA_MIN anywhere in ``kappa``: the frame is undefined."""
    return np.any(kappa * shape.R <= KAPPA_MIN)


def _check_frame(shape, kappa):
    """Raise DegenerateFrame if the frame is undefined anywhere in ``kappa`` (``_degenerate``)."""
    if _degenerate(shape, kappa):
        raise DegenerateFrame(
            f"curvature kappa*R = {np.min(kappa * shape.R):g} <= KAPPA_MIN, frame undefined")


def _frame_rest(jet):
    """(tau, N, B) column-wise from a ``_binormal_jet`` whose frame is
    defined (``_check_frame``)."""
    binormal = tuple(x / jet.c_norm for x in jet.c)
    return _dot(jet.c, jet.r3) / jet.csq / jet.f, _cross(binormal, jet.tangent), binormal


def curvature(shape, phi):
    """Curvature kappa(phi) = |r' x r''| / f^3 >= 0 of the curve."""
    return _binormal_jet(shape, phi).kappa


def curvature_potential(shape, phi):
    """Binding potential -kappa^2/8 from confinement to the curve (<= 0).

    A rational function of D = f^2, its derivative D' and |r''|^2
    (``_potential_at``), with no division by a quantity that vanishes
    with b.
    """
    s, c, _ = _sc(shape, phi)
    return _potential_at(shape, s, c)


def _potential_at(shape, s, c):
    """``curvature_potential`` from the sin and cos of the winding angle, which
    every shape of one omega shares: -(D |r''|^2 - D'^2/4)/(8 D^3) written as
    -(|r''|^2/D - q^2/4)/(8 D), q = D'/D, so nothing squares D';
    D' = 2 omega^3 (a^2 - b^2) s c + 2 W W'."""
    a, b, w = shape.a, shape.b, shape.omega
    W = shape.R + a * c
    d0 = _d_form(shape, s, c, W)
    w1 = -a * w * s
    q = (2 * w**3 * (a * a - b * b) * s * c + 2 * W * w1) / d0
    r2sq = (a * w * w * c + W) ** 2 + 4 * w1 * w1 + (b * w * w * s) ** 2
    return -(r2sq / d0 - 0.25 * q * q) / (8.0 * d0)


def frenet_frame(shape, phi):
    """Frenet frame (T, N, B) with curvature, torsion and speed, from one jet.

    B = c/|c| with c = T x r'', and N = B x T (see module docstring).

    Raises
    ------
    DegenerateFrame
        If kappa*R <= KAPPA_MIN anywhere in ``phi``.
    """
    jet = _binormal_jet(shape, phi)
    _check_frame(shape, jet.kappa)
    tau, normal, binormal = _frame_rest(jet)
    return FrenetData(tangent=_stack(jet.tangent), normal=_stack(normal),
                      binormal=_stack(binormal), kappa=jet.kappa, tau=tau, speed=jet.f)


def metric_at(shape, point):
    """Tube-coordinate metric at a TubePoint.

    Coordinates are ordered (phi, q_n, q_b).  With G = 1 - q_n*kappa:

        g_cov = [[f^2*(G^2 + tau^2*(q_n^2 + q_b^2)), -tau*q_b*f, tau*q_n*f],
                 [-tau*q_b*f, 1, 0],
                 [ tau*q_n*f, 0, 1]]

    and sqrt(det g) = f*G.  The contravariant tensor is the closed-form
    inverse (verified against direct inversion in the tests).

    Raises
    ------
    DegenerateFrame
        If kappa*R <= KAPPA_MIN at the angle (see ``frenet_frame``).
    InvalidTubePoint
        If |q_n|*kappa >= 1, where the tube coordinates fold over.
    """
    frame = frenet_frame(shape, float(point.phi))
    f, kap, tau = float(frame.speed), float(frame.kappa), float(frame.tau)
    qn, qb = point.q_n, point.q_b
    if abs(qn) * kap >= 1.0:
        raise InvalidTubePoint(
            f"|q_n|*kappa = {abs(qn) * kap:g} >= 1: offset reaches the radius of curvature"
        )
    G = 1.0 - qn * kap
    cov = np.array(
        [
            [f * f * (G * G + tau * tau * (qn * qn + qb * qb)), -tau * qb * f, tau * qn * f],
            [-tau * qb * f, 1.0, 0.0],
            [tau * qn * f, 0.0, 1.0],
        ]
    )
    pref = 1.0 / (f * f * G * G)
    contra = pref * np.array(
        [
            [1.0, tau * qb * f, -tau * qn * f],
            [tau * qb * f, f * f * (G * G + tau * tau * qb * qb), -tau * tau * qn * qb * f * f],
            [-tau * qn * f, -tau * tau * qn * qb * f * f, f * f * (G * G + tau * tau * qn * qn)],
        ]
    )
    return MetricTensors(covariant=cov, contravariant=contra, sqrt_det=f * G)


def _cel(kc, p, a, b):
    """Bulirsch's general complete elliptic integral, for kc > 0 and p > 0:

        cel(kc, p, a, b) = Integral_0^{pi/2} (a cos^2 + b sin^2)
                           / ((cos^2 + p sin^2) sqrt(cos^2 + kc^2 sin^2)) dphi

    (R. Bulirsch, Numer. Math. 13 (1969) 305-315), from one AGM-like loop
    in Python floats.  With a, b >= 0 every term it forms is positive, so
    nothing cancels, and kc > 1 (a negative squared modulus) is not special.
    The loop ends once its two means agree to ``CEL_TOLERANCE`` or either
    stops being finite, so it always ends; no step divides by zero.
    """
    p = math.sqrt(p)
    b /= p
    e, em = kc, 1.0
    while True:
        f = a
        a += b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p += g
        g = em
        em += kc
        if not abs(g - kc) > CEL_TOLERANCE * g:
            return 0.5 * math.pi * (b + a * em) / (em * (em + p))
        kc = 2.0 * math.sqrt(e)
        e = kc * em


def arc_length(shape):
    """Total curve length, integral of f over one full turn, in closed form.

    Always exceeds 2*pi*R (the planar circle is the degenerate limit).
    f depends on phi only through theta = omega*phi, so the length is the
    integral of f(theta) = sqrt(D) over one winding.  With the constants
    of ``winding_harmonics`` (r = sqrt(D(pi)), q = sqrt(D(0)),
    m = (r + q)/2 and v^2 = m^2 - alpha),

        kc^2 = v^2 / (r q),   n = (q - r)^2 / (4 r q) = (a R / m)^2 / (r q),
        L = 4 sqrt(r q) (cel(kc, 1, 1, kc^2) + n cel(kc, 1 + n, 1, 0)).

    t = tan(theta/2) turns D (1 + t^2)^2 into r^2 t^4 + 2 g t^2 + q^2,
    and t = sqrt(q/r) u with u = tan(phi/2) turns that into
    q^2 (1 + u^2)^2 (1 - k^2 sin^2 phi) with k^2 = 1 - kc^2; one partial
    fraction and one integration by parts leave the two ``_cel`` terms.
    The first is E(k), and k^2 is negative on flat coils; both terms are
    positive, so nothing cancels and no angle is sampled.  The constants
    are formed in numpy, where an overflow follows numpy's error state, and
    ``_cel`` runs in Python floats.

    Raises
    ------
    FloatingPointError
        If kc^2 underflows to 0, where the loop would not converge.
    """
    _, a, _, R, _, _, _, r, q, m, _, v2, _, _, _, _ = _d_factor(shape)
    rq = r * q
    kc2, n = v2 / rq, (a * R / m) ** 2 / rq
    kc, scale = np.sqrt(kc2), 4.0 * np.sqrt(rq)
    kc, kc2, n, scale = float(kc), float(kc2), float(n), float(scale)
    if kc == 0.0:
        raise FloatingPointError("arc length: kc^2 underflows to 0")
    return scale * (_cel(kc, 1.0, 1.0, kc2) + n * _cel(kc, 1.0 + n, 1.0, 0.0))
