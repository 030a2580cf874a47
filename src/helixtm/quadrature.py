"""Self-converging trapezoidal quadrature on [0, 2*pi) for periodic integrands.

For a smooth 2*pi-periodic function the equally spaced trapezoidal rule
converges geometrically, so doubling the node count until two successive
estimates agree gives both the value and a usable error estimate.  Node
doubling reuses every previously evaluated point: the refined grid is the
old grid interleaved with its midpoints.

Two entry points share that one doubling loop.  ``integrate_periodic``
integrates a single scalar integrand.  ``integrate_harmonics`` samples a
few real functions once per grid, takes the trapezoid integrals of any
set of their Fourier harmonics from one real FFT, and gathers them into
an array-valued result (a whole Hamiltonian, a moment vector); the loop
stops when that whole array settles.  The trapezoid sum is linear, so on
a given grid each gathered entry is the same sum ``integrate_periodic``
would form for it, taken in another order.

On a helix every function the spectral passes integrate depends on the
turn angle phi only through the winding angle theta = omega*phi, and
every harmonic they need is a multiple of omega.  Substituting
theta = omega*phi turns a full-turn integral into a one-winding one with
no extra factor,

    Integral_0^{2pi} G(omega phi) e^{i omega d phi} dphi
        = Integral_0^{2pi} G(theta) e^{i d theta} dtheta,

and the trapezoid estimate from N*omega nodes over the turn equals the
one from N nodes over the winding.  So the callers hand these integrators the
winding angle theta as their [0, 2*pi) variable (sampling at
phi = theta/omega) and ask for harmonic d in place of omega*d, at a cost
that does not depend on omega.  ``QuadratureSpec.initial_points``
therefore counts points per winding; an integrand over the full turn
(the test references in ``tests/oracles.py``) scales it by omega to
keep the same density.

Integrands are called once per grid with an ndarray of angles and must
return the values elementwise, so evaluation is a single vectorised pass.
Summation runs over ascending node index with numpy's pairwise algorithm,
making results bit-reproducible for a given spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid-refinement policy: start size, target accuracy, refinement cap.

    ``initial_points`` is the first grid's size on [0, 2*pi).  The
    Hamiltonian, moment and arc-length passes integrate over one winding,
    so there it counts points per winding; the default of 64 resolves the
    low winding harmonics from the first grid for every omega.
    """

    initial_points: int = 64
    tolerance: float = 1e-10
    max_doublings: int = 8

    def __post_init__(self):
        if self.initial_points < 8:
            raise ValueError(f"initial_points must be >= 8, got {self.initial_points}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_doublings < 1:
            raise ValueError(f"max_doublings must be >= 1, got {self.max_doublings}")


@dataclass(frozen=True)
class QuadratureResult:
    """Converged (or best) estimate of a periodic integral.

    ``value`` is a complex number from ``integrate_periodic`` and an
    ndarray from ``integrate_harmonics``.  ``error_estimate`` is the last
    inter-grid change (the largest over the entries of an array value)
    and ``points_used`` the final grid size.
    """

    value: complex | np.ndarray
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


def _interleave(old, new):
    """Samples of the doubled grid: ``old`` at even and ``new`` at odd nodes."""
    merged = np.empty(old.shape[:-1] + (2 * old.shape[-1],), dtype=old.dtype)
    merged[..., 0::2] = old
    merged[..., 1::2] = new
    return merged


def _refine(sample, estimate, spec, relative):
    """The node-doubling loop shared by both integrators.

    ``sample(nodes)`` returns values with the node axis last;
    ``estimate(values)`` turns the samples of a whole grid into the
    quantity being computed.  Each doubling samples only the midpoints
    and interleaves them with the old values.  The loop stops once the
    largest change of the estimate is at most ``spec.tolerance``, scaled
    by ``max(1, max |estimate|)`` when ``relative`` is set.
    """
    n = spec.initial_points
    nodes = 2.0 * math.pi * np.arange(n) / n
    vals = sample(nodes)
    current = estimate(vals)

    for _ in range(spec.max_doublings):
        mids = nodes + math.pi / n
        vals = _interleave(vals, sample(mids))
        nodes = _interleave(nodes, mids)
        n *= 2

        refined = estimate(vals)
        change = float(np.max(np.abs(refined - current)))
        current = refined
        limit = spec.tolerance
        if relative:
            limit *= max(1.0, float(np.max(np.abs(current))))
        if change <= limit:
            return QuadratureResult(value=current, error_estimate=change, points_used=n)

    raise QuadratureNotConverged(
        QuadratureResult(value=current, error_estimate=change, points_used=n)
    )


def integrate_periodic(fn, spec=None):
    """Integrate fn over [0, 2*pi) to the spec's tolerance.

    Parameters
    ----------
    fn : callable
        Maps an ndarray of angles to complex (or real) values elementwise.
    spec : QuadratureSpec, optional
        Defaults to QuadratureSpec().

    Returns
    -------
    QuadratureResult
        ``value`` is the converged estimate, ``error_estimate`` the last
        inter-grid change (at most ``spec.tolerance``), ``points_used``
        the final grid size.

    Raises
    ------
    QuadratureNotConverged
        If max_doublings refinements do not reach the tolerance.  The
        exception's ``result`` attribute holds the best estimate.
    """
    if spec is None:
        spec = QuadratureSpec()
    return _refine(
        lambda nodes: _eval(fn, nodes),
        lambda vals: complex(2.0 * math.pi * np.sum(vals) / vals.shape[-1]),
        spec,
        relative=False,
    )


def integrate_harmonics(sample, harmonics, gather, spec=None):
    """Harmonic integrals of a few real periodic functions, gathered and converged.

    Parameters
    ----------
    sample : callable
        Maps an ndarray of N angles to a real array of shape (k, N): the
        k functions g_i sampled at those angles.
    harmonics : array_like of int
        The wanted harmonics h_j.
    gather : callable
        Maps the complex (k, len(harmonics)) array of trapezoid integrals
        ``I[i, j] = Integral_0^{2pi} g_i(phi) exp(i h_j phi) dphi`` to the
        quantity being computed, an ndarray.
    spec : QuadratureSpec, optional
        Defaults to QuadratureSpec().

    Returns
    -------
    QuadratureResult
        ``value`` is the gathered array on the final grid.  The loop stops
        when no entry changes by more than ``spec.tolerance * max(1,
        max |value|)`` between two grids; ``error_estimate`` is that
        largest change.

    Raises
    ------
    QuadratureNotConverged
        If max_doublings refinements do not reach the tolerance.

    Notes
    -----
    One real FFT per grid gives every harmonic.  A harmonic at or beyond
    the grid's Nyquist index aliases exactly as in the trapezoid sum
    itself, so coarse grids give the same (under-resolved) integrals as
    ``integrate_periodic`` would.  Only the (k, N) samples and their
    (k, N/2 + 1) transform are held.
    """
    if spec is None:
        spec = QuadratureSpec()
    harmonics = np.asarray(harmonics, dtype=int)

    def estimate(vals):
        n = vals.shape[-1]
        spectra = np.fft.rfft(vals, axis=-1)
        # sum_j g(phi_j) e^{i h phi_j} is DFT index (-h) mod n; indices past
        # n/2 are the conjugates of their mirror images for real g.
        idx = (-harmonics) % n
        upper = idx > n // 2
        picked = spectra[:, np.where(upper, n - idx, idx)]
        picked[:, upper] = picked[:, upper].conj()
        return gather(picked * (2.0 * math.pi / n))

    return _refine(sample, estimate, spec, relative=True)
