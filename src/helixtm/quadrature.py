"""Self-converging trapezoidal quadrature on [0, 2*pi) for periodic integrands.

For a smooth 2*pi-periodic function the equally spaced trapezoidal rule
converges geometrically, so doubling the node count until two successive
estimates agree gives both the value and a usable error estimate.  Level
l is the trapezoid on n = initial_points * 2**l nodes at 2*pi*j/n; each
level keeps the nodes of the one before and samples only its odd nodes.

No command samples an integral: the spectrum and the quantum moments
take closed-form harmonics (``geometry.winding_harmonics`` and
``geometry.moment_harmonics``), the arc length is a complete elliptic
integral (``geometry.arc_length``) and the classical moment's numeric
form is a fixed 16-node trapezoid of the polynomial rows of g
(``observables.classical_moment_numeric``), exact for them.
``integrate_periodic`` takes the reference integrals of the tests.

Integrands are called once per level with an ndarray of angles and must
return the values elementwise, so evaluation is a single vectorised pass.
Each level adds numpy's pairwise sum of its new samples to the sum of
the level before, making results bit-reproducible for a given spec.
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

    ``initial_points``, an integer >= 8, is the first grid's size on
    [0, 2*pi).
    ``tolerance``, a positive real number, is the absolute stopping test
    of each integral.
    """

    initial_points: int = 64
    tolerance: float = 1e-10

    def __post_init__(self):
        points = self.initial_points
        if not (isinstance(points, (int, np.integer)) and not isinstance(points, bool)):
            raise ValueError(f"initial_points must be an integer, got {points!r}")
        if points < 8:
            raise ValueError(f"initial_points must be >= 8, got {points}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)):
            raise ValueError(f"tolerance must be a real number, got {tol!r}")
        if not tol > 0:
            raise ValueError(f"tolerance must be positive, got {tol}")


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


def _eval(fn, nodes):
    vals = np.asarray(fn(nodes), dtype=complex)
    if vals.shape != nodes.shape:
        raise ValueError(
            f"integrand returned shape {vals.shape} for {nodes.shape[0]} nodes"
        )
    return vals


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
    n = spec.initial_points
    total = np.sum(_eval(fn, 2.0 * math.pi * np.arange(n) / n))
    current = complex(2.0 * math.pi * total / n)
    for _ in range(MAX_DOUBLINGS):
        # node 2 pi j / n of a level is node 2 pi 2j / 2n of the next, bit for
        # bit, so the doubled grid samples only its odd nodes
        n *= 2
        total = total + np.sum(_eval(fn, 2.0 * math.pi * np.arange(1, n, 2) / n))
        refined = complex(2.0 * math.pi * total / n)
        change = abs(refined - current)
        current = refined
        if change <= spec.tolerance or change <= ROUNDING_ULPS * np.finfo(float).eps * abs(current):
            return QuadratureResult(value=current, error_estimate=change, points_used=n)
    raise QuadratureNotConverged(QuadratureResult(value=current, error_estimate=change,
                                                  points_used=n))
