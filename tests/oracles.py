"""References for the one-winding real passes: the old formulas and full-turn integrals.

``separate_speed_terms`` writes f, f', f'' and -kappa^2/8 in their first
form: f' and f'' from the sine and cosine of the doubled winding angle,
and the curvature from its components on the cross-section frame
(``curvature_components``), which divide by P = sqrt(a^2 s^2 + b^2 c^2)
and meet in a hypot.  ``frenet_frame_reference`` builds the Frenet frame
from the same fields; production takes it from one jet of the curve
(``geometry.frenet_frame``).  ``winding_rows_reference`` forms the
sampled rows of a pass over the winding from the old terms: f, B = 1/(2 D)
with D = f^2, and the toroidal-moment integrand g from the stacked
``position`` and ``velocity``.  Production samples none of them: it
takes f from ``geometry.speed`` and writes g only as the polynomial
numerators of ``geometry._moment_numerators``.

Production assembles H as Re A_d + k_m k_n Re B_d from one-winding
harmonics of A and B alone, which holds because f'/f^3 is a derivative
of 1/(2 f^2) and the theta -> -theta symmetry of the shape, and takes
those harmonics in closed form (``geometry.winding_harmonics``).
``hamiltonian_rows`` samples the rows A0, B and V_c as rational
functions of D, D' and D'', and ``sampled_hamiltonians`` is the pass
that took their harmonics before: a trapezoid over one winding, at a
fixed grid.
``sampled_moment_harmonics`` is the moment pass that sampled the
weights g / (2 pi D) before production took their harmonics in closed
form (``geometry.moment_harmonics``), at a fixed grid, with g and B of
``winding_rows_reference``.
``list_of_rows_harmonics`` is ``geometry.winding_harmonics`` as first
written, and ``unscaled_moment_harmonics`` is ``geometry.moment_harmonics``
without the power of two that keeps tall coils' coefficients finite:
production must equal both bit for bit wherever they are finite.
Production takes each toroidal moment as (1/10) Re sum_h W_h E_h over the
current harmonics h >= 0 of a state and the weights' harmonics.
``einsum_moments`` is the form it took before: the quadratic form
Re sum_{m,n} conj(c_m) k_n c_n W_{n-m} in the coefficients, from one
einsum over an (axes, d, d) gather of the weights' harmonics
-2*n_max..2*n_max, with the negative ones computed, not folded.  The
full-turn references here do neither.  ``hamiltonian_element`` integrates one complex element
H[m, n] over the whole turn from the old terms, the i k f'/f^3 term and
the imaginary part included, and ``moment_from_current`` integrates j(phi) * g_axis(phi) over the whole
turn on all three axes, with g = (r' . r) r - 2 r^2 r' formed from the
stacked ``position`` and ``velocity`` (``moment_integrand``) rather than
from production's elementwise rows.  Both integrals start from omega
times the spec's points per winding, the density production works at.
``phase_table_currents`` is the form ``observables.currents`` took before
its cosine series, Re[conj(S0) S1] from one table of e^{i n omega phi},
and ``cosine_series_currents`` the series itself, one state at a time in
production's order of operations, without the power of two of tall coils.
``series_moments`` is ``observables.moment_vectors`` in the same way:
each state's sum of W_h E_h in production's order of operations.  Both
take the k table as given, where production forms it from the branch
indices.
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
    """(f, B, g) at theta = omega*phi from the old terms: every sampled row of a pass.

    f from ``separate_speed_terms``, B = 1/(2 f^2), and the rows
    ``moment_axes`` of g from the stacked ``position`` and ``velocity``
    (``moment_integrand``), shape (len(moment_axes),) + phi.shape.
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
    w1, d0 = -a * w * s, geometry._d_form(shape, s, c, W)
    d1 = 2 * w**3 * (a * a - b * b) * s * c + 2 * W * w1
    d2 = 2 * w**4 * (a * a - b * b) * (c * c - s * s) + 2 * w1 * w1 - 2 * a * w * w * c * W
    q = d1 / d0
    a0 = (d2 / d0 - 1.75 * q * q) / (8.0 * d0)
    return a0, 0.5 / d0, geometry._potential_at(shape, s, c)


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
    """The (len(branches), d, d) stack that ``spectrum._hamiltonian_stack``
    returns, from a ``points``-node trapezoid of the sampled rows.

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
    omega = 1): g / (2 pi D) of ``winding_rows_reference`` at ``points``
    winding angles, integrated against e^{i d theta} by one FFT.
    """
    axes = (0, 1, 2) if shape.omega == 1 else (2,)
    theta = 2.0 * math.pi * np.arange(points) / points
    _, b, g = winding_rows_reference(shape, theta / shape.omega, axes)
    spectra = np.fft.fft(g * (b / math.pi), axis=-1) * (2.0 * math.pi / points)
    # sum_j w(theta_j) e^{i d theta_j} is DFT index (-d) mod points
    return spectra[:, -np.arange(-width, width + 1) % points]


def list_of_rows_harmonics(shape, count, potential=False):
    """``geometry.winding_harmonics`` as first written: nothing scaled but the
    directions, and the recurrence over a list of rows.

    The constants of D = K |1 - s z + p z^2|^2 in numpy floats with v^2
    unscaled, the derivative directions of D'' and |r''|^2 over the power
    of two of D(pi), then one step per harmonic that appends to F and to
    each slope row in turn, F with zero forcing.  Production forms the same
    floats over fewer, larger steps, and takes its products of two sizes of
    D over a further power of two on tall coils; where these are finite the
    two agree bit for bit.
    """
    w2 = np.float64(shape.omega) ** 2
    a, b, R = np.float64(shape.a), np.float64(shape.b), np.float64(shape.R)
    alpha = a * a + w2 * (b * b - a * a)
    beta = 2 * a * (R - a) + 2 * w2 * (a * a - b * b)
    gamma = (R - a) ** 2 + w2 * b * b
    r, q = np.sqrt(gamma), np.sqrt((R + a) ** 2 + w2 * b * b)
    m = 0.5 * (r + q)
    g = (R - a) * (R + a) + w2 * (2 * a * a - b * b)
    if g >= 0:
        v2 = 0.5 * (g + r * q)
    else:
        v2 = 2 * w2 * (R * R * (b * b - a * a) + a * a * alpha) / (r * q - g)
    v = np.sqrt(v2)
    t = 0.5 * (m + v)
    s, p = -a * R / (m * t), 0.25 * alpha / (t * t)
    scale = 2.0 ** -max(math.frexp(gamma)[1], 0)
    directions = [(beta, 6 * alpha - beta, -4 * alpha)]
    if potential:
        k = a * (w2 + 1)
        c0 = R - k
        e = (4 * a * a + b * b * w2) * w2
        directions.append((c0 * c0, 2 * (k * c0 + e), k * k - e))
    directions = [(scale * p0, scale * p1, scale * p2) for p0, p1, p2 in directions]
    rq = r * q
    f0 = m / (v * r * q)
    f1 = s * f0 / (1 + p)
    rows, forcing = [[f0, f1]], [(0.0, 0.0)]
    for p0, p1, p2 in directions:
        dr = 0.5 * p0 / r
        dq = 0.5 * (p0 + 2 * p1 + 4 * p2) / q
        dm = 0.5 * (dr + dq)
        drq, dg = r * dq + q * dr, p0 + p1
        if g >= 0:
            dv2 = 0.5 * (dg + drq)
        else:
            dv2 = (2 * (p2 * gamma + alpha * p0) - beta * p1 - v2 * (drq - dg)) / (rq - g)
        dv = 0.5 * dv2 / v
        dt = 0.5 * (dm + dv)
        ds = -0.5 * (2 * p2 + p1) / (m * t) - s * (dm / m + dt / t)
        dp = 0.25 * p2 / (t * t) - 2 * p * dt / t
        df0 = f0 * (dm / m - dv / v - dr / r - dq / q)
        rows.append([df0, (ds * f0 + s * df0 - f1 * dp) / (1 + p)])
        forcing.append((ds, dp))
    rows = [[float(x) for x in row] for row in rows]
    s, p = float(s), float(p)
    forcing = [(float(ds), float(dp)) for ds, dp in forcing]
    for _ in range(2, count):
        v1, v2 = rows[0][-1], rows[0][-2]
        for row, (ds, dp) in zip(rows, forcing):
            row.append(s * row[-1] - p * row[-2] + ds * v1 - dp * v2)
    f = np.array(rows[0][:count])
    slopes = np.array([row[:count] for row in rows[1:]]) / scale
    d2f = np.arange(count, dtype=float) ** 2 * f
    a0 = w2 / 64 * (7 * d2f - slopes[0])
    vc = slopes[1] / 8 - w2 / 64 * (slopes[0] + d2f) if potential else None
    return a0, 0.5 * f, vc


def unscaled_moment_harmonics(shape, b, width):
    """``geometry.moment_harmonics`` with its numerators' coefficients unscaled.

    Horner's rule on F = 2 B with the coefficients of
    ``geometry._moment_numerators`` as they are, the form that overflows
    on tall coils; where it is finite production agrees bit for bit.
    """
    f = 2.0 * np.asarray(b)
    full = np.concatenate([f[:0:-1], f])
    out = []
    for _, odd, coefficients in geometry._moment_numerators(shape, 1.0):
        x = coefficients[-1] * full
        for trim, coefficient in enumerate(reversed(coefficients[:-1]), 1):
            x = 0.5 * (x[:-2] + x[2:]) + coefficient * full[trim:-trim]
        if odd:
            x = 0.5j * (x[:-2] - x[2:])
        mid = x.size // 2
        out.append(x[mid - width:mid + width + 1])
    return np.array(out)


def einsum_moments(shape, coefficients, k):
    """(moment vectors, term sums), each (B, S, 3), of the states of
    ``observables.moment_vectors``, with its k table handed in, as the
    quadratic form in the coefficients.

    The vectors are Re sum_{m,n} conj(c_m) k_n c_n W_{n-m} / 10 per state
    and axis, from ``unscaled_moment_harmonics``, and the term sums are
    sum_{m,n} |c_m k_n c_n W_{n-m}| / 10, the scale of their rounding.
    """
    groups, d, per_group = coefficients.shape
    n_max = (d - 1) // 2
    b = geometry.winding_harmonics(shape, geometry._moment_reach(shape, 2 * n_max))[1]
    weights = unscaled_moment_harmonics(shape, b, 2 * n_max)
    axes = [axis for axis, _, _ in geometry._moment_numerators(shape, 1.0)]
    n = np.arange(-n_max, n_max + 1)
    gathered = weights[:, n[None, :] - n[:, None] + 2 * n_max]
    c = np.swapaxes(coefficients, 1, 2).reshape(-1, d)
    kc = np.repeat(k, per_group, axis=0) * c
    vectors, sums = np.zeros((2, groups * per_group, 3))
    vectors[:, axes] = np.real(np.einsum("sm,amn,sn->sa", c.conj(), gathered, kc))
    sums[:, axes] = np.einsum("sm,amn,sn->sa", np.abs(c), np.abs(gathered), np.abs(kc))
    return tuple(x.reshape(groups, per_group, 3) / 10.0 for x in (vectors, sums))


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


def phase_table(shape, phi, n):
    """exp(i omega phi n) for every angle (rows) and harmonic (columns)."""
    return np.exp(1j * shape.omega * np.multiply.outer(phi, n.astype(float)))


def phase_table_currents(shape, coefficients, k, phi):
    """j = Re[conj(S0) S1] / (2 pi f^2) of every state, (B, S) + phi.shape, from
    one phase table: S0 = sum_n c_n e^{i n theta} and S1 = sum_n k_n c_n
    e^{i n theta}, theta = omega phi rounded once, with the k table handed
    in.  This is the form ``observables.currents`` took before its cosine
    series."""
    phi = np.asarray(phi, dtype=float)
    groups, d, per_group = coefficients.shape
    n_max = (d - 1) // 2
    phases = phase_table(shape, phi, np.arange(-n_max, n_max + 1))
    f = geometry.speed(shape, phi)
    out = np.empty((groups, per_group) + phi.shape)
    for b in range(groups):
        for s in range(per_group):
            c = coefficients[b, :, s]
            s0, s1 = phases @ c, phases @ (k[b] * c)
            out[b, s] = np.real(np.conj(s0) * s1) / (2.0 * math.pi * f * f)
    return out


def cosine_series_currents(shape, coefficients, k, phi):
    """The cosine series of ``observables.currents``, one state at a time and
    in its order of operations, with the k table handed in and without the
    power of two that keeps 2 pi D finite on tall coils.

    E_0 = sum_n |c_n|^2 k_n and E_h = B_h + conj(B_-h), B_h summing
    conj(c_m) k_n c_n over n - m = h in order of m; cos and sin of h theta
    from those of theta = omega phi, taken exactly as hi + lo, by the
    angle sum with halves h // 2 and h - h // 2; the series summed from
    the highest harmonic down, over 2 pi D.
    """
    phi = np.asarray(phi, dtype=float)
    groups, d, per_group = coefficients.shape
    w = shape.omega
    upper = phi * 134217729.0
    upper = upper - (upper - phi)
    hi = w * phi
    lo = (w * upper - hi) + w * (phi - upper)
    cos_hi, sin_hi = np.cos(hi), np.sin(hi)
    harmonics = [None, (cos_hi - lo * sin_hi, sin_hi + lo * cos_hi)]
    for h in range(2, d):
        (ca, sa), (cb, sb) = harmonics[h // 2], harmonics[h - h // 2]
        harmonics.append((ca * cb - sa * sb, sa * cb + ca * sb))
    c1, s1 = harmonics[1]
    D = geometry._d_form(shape, s1, c1, shape.R + shape.a * c1)
    out = np.empty((groups, per_group) + phi.shape)
    for b in range(groups):
        for s in range(per_group):
            c = coefficients[b, :, s]
            e = _state_harmonics(c, k[b])
            j = 0.0
            for h in range(d - 1, 0, -1):
                j = j + e[h].real * harmonics[h][0]
                if np.iscomplexobj(c):
                    j = j - e[h].imag * harmonics[h][1]
            out[b, s] = (j + e[0]) / (2.0 * math.pi * D)
    return out


def series_moments(shape, coefficients, k):
    """The (B, S, 3) moment vectors of ``observables.moment_vectors``, one
    state at a time and in its order of operations, with the k table handed in.

    (1/10) Re sum_h W_h E_h per state, with the current harmonics E_h of
    ``cosine_series_currents`` and the weights W_h of
    ``geometry.moment_harmonics``, summed from the highest harmonic down.
    """
    groups, d, per_group = coefficients.shape
    axes, weights = geometry.moment_harmonics(shape, d - 1)
    out = np.zeros((groups, per_group, 3))
    for b in range(groups):
        for s in range(per_group):
            e = _state_harmonics(coefficients[b, :, s], k[b])
            t = 0.0
            for h in range(d - 1, -1, -1):
                t = t + (e[h] * weights[:, h]).real
            out[b, s, axes] = t / 10.0
    return out


def _state_harmonics(c, k):
    """E_h, h = 0..d-1, of one state's coefficients c and its k row.

    E_0 = sum_n |c_n|^2 k_n and E_h = B_h + conj(B_-h), B_h summing
    conj(c_m) k_n c_n over n - m = h in order of m.
    """
    d = len(c)
    kc = k * c

    def b_h(h):
        total = 0.0
        for m in range(d):
            if 0 <= m + h < d:
                total += np.conj(c[m]) * kc[m + h]
        return total

    return [b_h(0).real] + [b_h(h) + np.conj(b_h(-h)) for h in range(1, d)]
