"""Self-converging trapezoidal quadrature on [0, 2*pi) for periodic integrands.

For a smooth 2*pi-periodic function the equally spaced trapezoidal rule
converges geometrically, so doubling the node count until two successive
estimates agree gives both the value and a usable error estimate.  Node
doubling reuses every previously evaluated point: the refined grid is the
old grid interleaved with its midpoints.  The first sampling takes every
level up to 512 nodes in one call, since below that a call costs mostly
its fixed overhead and most integrals settle there; its nodes are the
ones the doubling walk builds, so each level holds the same floats as
when sampled alone.

``integrate_periodic`` (one scalar integrand, absolute stopping test with
a floor at a few ulp of the value) integrates the numeric classical
moment (``observables.classical_moment_numeric``, one row of g per call),
the cross-check of its closed form.  No command samples: the spectrum and
the quantum moments take closed-form harmonics
(``geometry.winding_harmonics`` and ``geometry.moment_harmonics``) and
the arc length is a complete elliptic integral (``geometry.arc_length``).

On a helix every function these integrals take depends on the turn
angle phi only through the winding angle theta = omega*phi.
Substituting theta = omega*phi turns a full-turn integral into a
one-winding one with no extra factor,

    Integral_0^{2pi} G(omega phi) e^{i omega d phi} dphi
        = Integral_0^{2pi} G(theta) e^{i d theta} dtheta,

and the trapezoid estimate from N*omega nodes over the turn equals the
one from N nodes over the winding.  So the callers hand the integrator
the winding angle theta as its [0, 2*pi) variable (``geometry.winding_rows``
samples at it), at a cost that does not depend on omega.
``QuadratureSpec.initial_points`` therefore counts points per winding; an
integrand over the full turn (the test references in ``tests/oracles.py``)
scales it by omega to keep the same density.

Integrands are called once per grid with an ndarray of angles and must
return the values elementwise, so evaluation is a single vectorised pass.
Summation runs over ascending node index with numpy's pairwise algorithm,
making results bit-reproducible for a given spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Each integral may double its grid this many times, to
# initial_points * 2**MAX_DOUBLINGS points.
MAX_DOUBLINGS = 8

# An estimate whose change is at most this many ulp of its magnitude has
# met the rounding of its own sum: no finer level can tell two apart.
ROUNDING_ULPS = 4


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid-refinement policy: start size and target accuracy.

    ``initial_points`` is the first grid's size on [0, 2*pi).  The
    classical moment is integrated over one winding, so there it counts
    points per winding; the default of 64 resolves the low winding
    harmonics from the first grid for every omega.
    ``tolerance`` is the absolute stopping test of each integral.
    """

    initial_points: int = 64
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.initial_points < 8:
            raise ValueError(f"initial_points must be >= 8, got {self.initial_points}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class QuadratureResult:
    """Converged (or best) estimate of a periodic integral.

    ``value`` is a complex number, ``error_estimate`` the last
    inter-grid change and ``points_used`` the final grid size.
    """

    value: complex
    error_estimate: float
    points_used: int


class QuadratureNotConverged(RuntimeError):
    """Doubling cap hit before two estimates agreed; carries the best result."""

    def __init__(self, result):
        super().__init__(
            f"no convergence after {result.points_used} points "
            f"(last change {result.error_estimate:.3e})"
        )
        self.result = result


# The first sampling takes every level up to this many nodes in one call:
# up to here a call's cost is mostly its fixed overhead (cost table in
# CHANGES.md), and most integrals settle by then.
_PREFETCH_POINTS = 512


def _eval(fn, nodes):
    vals = np.asarray(fn(nodes), dtype=complex)
    if vals.shape != nodes.shape:
        raise ValueError(
            f"integrand returned shape {vals.shape} for {nodes.shape[0]} nodes"
        )
    return vals


def _interleave(old, new):
    """Samples of the doubled grid: ``old`` at even and ``new`` at odd nodes."""
    merged = np.empty(2 * old.size, dtype=old.dtype)
    merged[0::2] = old
    merged[1::2] = new
    return merged


def integrate_periodic(fn, spec=None):
    """Integrate fn over [0, 2*pi) to the spec's tolerance.

    Parameters
    ----------
    fn : callable
        Maps an ndarray of angles to complex (or real) values elementwise.
    spec : QuadratureSpec, optional
        Defaults to QuadratureSpec().

    The grid doubles, at most ``MAX_DOUBLINGS`` times, until two
    estimates differ by at most ``spec.tolerance``, or by at most
    ``ROUNDING_ULPS`` ulp of the finer one's magnitude.  That floor is
    read only where the tolerance test fails, so it changes nothing where
    it lies below the tolerance.

    Returns
    -------
    QuadratureResult
        ``value`` is the converged estimate, ``error_estimate`` the last
        inter-grid change, ``points_used`` the final grid size.

    Raises
    ------
    QuadratureNotConverged
        If ``MAX_DOUBLINGS`` refinements do not settle.  The exception's
        ``result`` attribute holds the best estimate.
    """
    spec = spec if spec is not None else QuadratureSpec()
    start = spec.initial_points
    nodes = 2.0 * math.pi * np.arange(start) / start  # the finest nodes so far
    top = 0  # their level

    def refine():
        nonlocal nodes, top
        mids = nodes + math.pi / (start << top)
        nodes = _interleave(nodes, mids)
        top += 1
        return mids

    while start << (top + 1) <= _PREFETCH_POINTS:
        refine()
    vals = _eval(fn, nodes)  # samples on the finest nodes; level l is every 2**(top - l)-th

    def estimate(level):
        level_vals = vals[:: 1 << (top - level)]
        return complex(2.0 * math.pi * np.sum(level_vals) / level_vals.size)

    current = estimate(0)
    for level in range(1, MAX_DOUBLINGS + 1):
        if level > top:
            vals = _interleave(vals, _eval(fn, refine()))
        refined = estimate(level)
        change = abs(refined - current)
        current = refined
        if change <= spec.tolerance or change <= ROUNDING_ULPS * np.finfo(float).eps * abs(current):
            return QuadratureResult(value=current, error_estimate=change,
                                    points_used=start << level)
    raise QuadratureNotConverged(QuadratureResult(
        value=current, error_estimate=change, points_used=start << MAX_DOUBLINGS,
    ))
