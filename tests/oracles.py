"""Full-turn complex references for the one-winding real passes.

Production assembles H from one-winding harmonics and keeps only the
parts that survive the theta -> -theta symmetry of the shape; it takes
toroidal moments as quadratic forms in the coefficients.  The references
here do neither.  ``hamiltonian_element`` integrates one complex element
H[m, n] over the whole turn, imaginary part included, and
``moment_from_current`` integrates j(phi) * g_axis(phi) over the whole
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


def moment_integrand(shape, phi):
    """g = (r' . r) r - 2 r^2 r' from the stacked ``position`` and ``velocity``, shape (..., 3)."""
    r = geometry.position(shape, phi)
    v = geometry.velocity(shape, phi)
    dot = np.sum(v * r, axis=-1)
    rsq = np.sum(r * r, axis=-1)
    return dot[..., None] * r - 2.0 * rsq[..., None] * v


def hamiltonian_element(shape, basis, m, n, config):
    """Matrix element H[m, n] between basis functions m and n, as a complex number."""
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
