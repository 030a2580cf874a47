"""References for the one-winding real passes: the old formulas and full-turn integrals.

``separate_speed_terms`` writes f, f', f'' and -kappa^2/8 in their first
form: f' and f'' from the sine and cosine of the doubled winding angle,
and the curvature from its components on the cross-section frame
(``curvature_components``), which divide by P = sqrt(a^2 s^2 + b^2 c^2)
and meet in a hypot.  ``frenet_frame_reference`` builds the Frenet frame
from the same fields; production takes it from one jet of the curve
(``geometry.frenet_frame``).  Production writes every row of the pass as
a rational function of D = f^2 (``geometry.winding_rows``);
``winding_rows_reference`` forms the same rows from the old terms.

Production assembles H as Re A_d + k_m k_n Re B_d from one-winding
harmonics of A and B alone, which holds because f'/f^3 is a derivative
of 1/(2 f^2) and the theta -> -theta symmetry of the shape, and takes
those harmonics in closed form (``geometry.winding_harmonics``).
``hamiltonian_rows`` samples the rows A0, B and V_c as rational
functions of D, D' and D'', and ``sampled_hamiltonians`` is the pass
that took their harmonics before: a trapezoid over one winding, at a
fixed grid.
``sampled_moment_harmonics`` is the moment pass that sampled the
weights g / (2 pi D) of ``geometry.winding_rows`` before production took
their harmonics in closed form (``geometry.moment_harmonics``), at a
fixed grid.
Production takes toroidal moments as quadratic forms in the
coefficients.  The full-turn references here do neither.  ``hamiltonian_element`` integrates one complex element
H[m, n] over the whole turn from the old terms, the i k f'/f^3 term and
the imaginary part included, and ``moment_from_current`` integrates j(phi) * g_axis(phi) over the whole
turn on all three axes, with g = (r' . r) r - 2 r^2 r' formed from the
stacked ``position`` and ``velocity`` (``moment_integrand``) rather than
from production's elementwise rows.  Both integrals start from omega
times the spec's points per winding, the density production works at.
"""

import math
from dataclasses import replace

import numpy as np

from helixtm import geometry
from helixtm.quadrature import QuadratureSpec, integrate_periodic


def separate_speed_terms(shape, phi):
    """f, f', f'' and -kappa^2/8 written out term by term, each from its own
    sin/cos evaluation: the formulas before the rational form."""
    a, b, w = shape.a, shape.b, shape.omega
    s, c = np.sin(w * phi), np.cos(w * phi)
    W = shape.R + a * c
    f = np.sqrt(((a * s) ** 2 + (b * c) ** 2) * w * w + W * W)
    dsq = a * a - b * b
    d1 = w**3 * dsq * np.sin(2 * w * phi) - 2 * a * w * s * W
    d2 = 2 * w**4 * dsq * np.cos(2 * w * phi) - 2 * a * w * w * c * W + 2 * (a * w * s) ** 2
    f1 = d1 / (2 * f)
    f2 = d2 / (2 * f) - d1 * d1 / (4 * f**3)
    return f, f1, f2, -np.hypot(*curvature_components(shape, phi)) ** 2 / 8.0


def _cross_section(shape, phi):
    """s, c, W, the cross-section ellipse speed P = sqrt(a^2 s^2 + b^2 c^2) and f^2."""
    a, b, w = shape.a, shape.b, shape.omega
    s, c = np.sin(w * phi), np.cos(w * phi)
    W = shape.R + a * c
    P = np.sqrt((a * s) ** 2 + (b * c) ** 2)
    return s, c, W, P, P * P * w * w + W * W


def curvature_components(shape, phi):
    """Curvature-vector components (k_n, k_e) on n_hat and e2 (see ``frenet_frame_reference``)."""
    a, b, w = shape.a, shape.b, shape.omega
    s, c, W, P, fsq = _cross_section(shape, phi)
    k_n = -(b / P) * (a * w * w + W * c) / fsq
    k_e = (s / np.sqrt(fsq)) * (a / P + (w * w * W * (a * a - b * b) * c + P * P * a * w * w) / (fsq * P))
    return k_n, k_e


def frenet_frame_reference(shape, phi):
    """(T, N, B, kappa, tau) from the unit fields of the winding cross-section.

    In the cylindrical basis (rho_hat, phi_hat, z_hat):

        theta_hat = (-a*s*rho_hat + b*c*z_hat) / P     along the winding
        n_hat     = ( b*c*rho_hat + a*s*z_hat) / P     cross-section normal
        T         = (P*omega*theta_hat + W*phi_hat) / f
        e2        = (W*theta_hat - P*omega*phi_hat) / f

    (T, e2, n_hat) is orthonormal, the curvature vector is
    k_n n_hat + k_e e2, and N and B follow by normalising it and crossing
    with T.  tau is the triple product of the unnormalised r' x r''.
    """
    a, b, w = shape.a, shape.b, shape.omega
    phi = np.asarray(phi, dtype=float)
    s, c, W, P, fsq = _cross_section(shape, phi)
    f = np.sqrt(fsq)
    k_n, k_e = curvature_components(shape, phi)
    kappa = np.hypot(k_n, k_e)
    zero = np.zeros_like(phi)
    rho = np.stack([np.cos(phi), np.sin(phi), zero], axis=-1)
    az = np.stack([-np.sin(phi), np.cos(phi), zero], axis=-1)
    zhat = np.stack([zero, zero, zero + 1.0], axis=-1)

    def combine(*terms):
        return sum(coef[..., None] * vec for coef, vec in terms)

    theta_hat = combine((-a * s / P, rho), (b * c / P, zhat))
    n_hat = combine((b * c / P, rho), (a * s / P, zhat))
    tangent = combine((P * w / f, theta_hat), (W / f, az))
    e2 = combine((W / f, theta_hat), (-P * w / f, az))
    normal = combine((k_e / kappa, e2), (k_n / kappa, n_hat))
    binormal = combine((-k_n / kappa, e2), (k_e / kappa, n_hat))
    r1, r2, r3 = geometry.curve_derivatives(shape, phi)
    cross = np.cross(r1, r2)
    tau = np.sum(cross * r3, axis=-1) / np.sum(cross * cross, axis=-1)
    return tangent, normal, binormal, kappa, tau


def winding_rows_reference(shape, phi, moment_axes=(2,)):
    """(f, B, g) of ``geometry.winding_rows`` at theta = omega*phi, from the old terms.

    B = 1/(2 f^2), and g from the stacked ``position`` and ``velocity``.
    """
    phi = np.asarray(phi, dtype=float)
    f = separate_speed_terms(shape, phi)[0]
    g = moment_integrand(shape, phi)[..., list(moment_axes)].T
    return f, 0.5 / (f * f), g


def hamiltonian_rows(shape, theta):
    """(A0, B, V_c) at the winding angle ``theta``, rational in D = f^2.

    One evaluation of theta's sine and cosine gives D and its
    phi-derivatives D' and D'', and each row is written with q = D'/D so
    that nothing squares D':

        A0  = D''/(8 D^2) - (7/32) D'^2/D^3 = (D''/D - (7/4) q^2)/(8 D),
        B   = 1/(2 D),
        V_c = -(|r''|^2/D - q^2/4)/(8 D)   (``geometry.curvature_potential``),

    with D'' = 2 omega^4 (a^2 - b^2)(c^2 - s^2) + 2 W'^2 - 2 a omega^2 c W.
    """
    a, b, w = shape.a, shape.b, shape.omega
    s, c = np.sin(theta), np.cos(theta)
    W = shape.R + a * c
    w1, d0 = geometry._d_form(shape, s, c, W)
    d1 = 2 * w**3 * (a * a - b * b) * s * c + 2 * W * w1
    d2 = 2 * w**4 * (a * a - b * b) * (c * c - s * s) + 2 * w1 * w1 - 2 * a * w * w * c * W
    q = d1 / d0
    a0 = (d2 / d0 - 1.75 * q * q) / (8.0 * d0)
    return a0, 0.5 / d0, geometry._potential_from(shape, s, c, W, w1, d0)


def hamiltonian_rows_reference(shape, phi):
    """(A0, B, V_c) of ``hamiltonian_rows`` at theta = omega*phi, from the old terms.

    A0 = f''/(4 f^3) - (5/8) f'^2/f^4 and B = 1/(2 f^2).
    """
    f, f1, f2, vc = separate_speed_terms(shape, np.asarray(phi, dtype=float))
    return f2 / (4.0 * f**3) - 0.625 * f1 * f1 / f**4, 0.5 / (f * f), vc


def moment_integrand(shape, phi):
    """g = (r' . r) r - 2 r^2 r' from the stacked ``position`` and ``velocity``, shape (..., 3)."""
    r = geometry.position(shape, phi)
    v = geometry.velocity(shape, phi)
    dot = np.sum(v * r, axis=-1)
    rsq = np.sum(r * r, axis=-1)
    return dot[..., None] * r - 2.0 * rsq[..., None] * v


def hamiltonian_element(shape, basis, m, n, config, quad=None):
    """Matrix element H[m, n] between basis functions m and n, as a complex number.

    ``config`` says whether V_c is included; ``quad`` (default
    ``QuadratureSpec()``) sets the points per winding and the tolerance.
    """
    for idx in (m, n):
        if not -basis.n_max <= idx <= basis.n_max:
            raise ValueError(f"basis index {idx} outside [-{basis.n_max}, {basis.n_max}]")
    k = float(basis.momentum(n))
    hop = shape.omega * (n - m)

    def integrand(phi):
        f, f1, f2, vc = separate_speed_terms(shape, phi)
        bracket = (
            k * k / (2.0 * f * f)
            + 1j * k * f1 / f**3
            - 0.625 * f1 * f1 / f**4
            + f2 / (4.0 * f**3)
        )
        if config.include_vc:
            bracket = bracket + vc
        return np.exp(1j * hop * phi) * bracket

    quad = quad if quad is not None else QuadratureSpec()
    quad = replace(quad, initial_points=quad.initial_points * shape.omega)
    return integrate_periodic(integrand, quad).value / (2.0 * math.pi)


def sampled_hamiltonians(shape, branches, n_max, points):
    """The (len(branches), d, d) matrices of ``spectrum._hamiltonian_stack``
    from a ``points``-node trapezoid of the sampled rows.

    The pass that built H before the closed form: A0, A0 + V_c and B of
    ``hamiltonian_rows`` at ``points`` winding angles, their harmonics
    -2*n_max..2*n_max from one real FFT, gathered as
    Re A_{n-m} + k_m k_n Re B_{n-m}.
    """
    theta = 2.0 * math.pi * np.arange(points) / points
    a0, b, vc = hamiltonian_rows(shape, theta)
    spectra = np.fft.rfft(np.stack([a0, a0 + vc, b]), axis=-1).real / points
    idx = np.arange(-n_max, n_max + 1)
    harmonics = spectra[:, np.abs(idx[None, :] - idx[:, None])]
    out = []
    for p, include_vc in branches:
        k = p + shape.omega * idx.astype(float)
        out.append(harmonics[int(include_vc)] + np.multiply.outer(k, k) * harmonics[2])
    return np.array(out)


def sampled_moment_harmonics(shape, width, points):
    """Harmonics d = -width..width of the moment weights from a ``points``-node trapezoid.

    The rows of ``geometry.moment_harmonics`` (z, and x, y, z at
    omega = 1): g / (2 pi D) of ``geometry.winding_rows`` at ``points``
    winding angles, integrated against e^{i d theta} by one FFT.
    """
    axes = (0, 1, 2) if shape.omega == 1 else (2,)
    theta = 2.0 * math.pi * np.arange(points) / points
    _, b, g = geometry.winding_rows(shape, theta, moment_axes=axes)
    spectra = np.fft.fft(g * (b / math.pi), axis=-1) * (2.0 * math.pi / points)
    # sum_j w(theta_j) e^{i d theta_j} is DFT index (-d) mod points
    return spectra[:, -np.arange(-width, width + 1) % points]


def moment_from_current(shape, current_fn, quad):
    """Moment vector from integrating current * g per axis over the full turn."""
    quad = quad if quad is not None else QuadratureSpec()
    quad = replace(quad, initial_points=quad.initial_points * shape.omega)
    out = np.empty(3)
    for axis in range(3):
        def integrand(phi, axis=axis):
            return current_fn(phi) * moment_integrand(shape, phi)[..., axis]
        out[axis] = integrate_periodic(integrand, quad).value.real / 10.0
    return out
