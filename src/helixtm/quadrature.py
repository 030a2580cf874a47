"""Self-converging trapezoidal quadrature on [0, 2*pi) for periodic integrands.

For a smooth 2*pi-periodic function the equally spaced trapezoidal rule
converges geometrically, so doubling the node count until two successive
estimates agree gives both the value and a usable error estimate.  Node
doubling reuses every previously evaluated point: the refined grid is the
old grid interleaved with its midpoints.

One loop, ``settle``, does all the doubling.  It walks the levels of a
``NestedGrid``: one array of the samples of a few groups of rows
(parts) on the finest level sampled so far, since level l is every
2**(finest - l)-th of them.  Several quantities settle on one grid one
after another, each with its own estimate and stopping rule and at its
own level; a later quantity reads the levels already stored, and a
level past them samples every part.  The first sampling of a grid takes
every level up to 512 nodes in one call, since below that a call costs
mostly its fixed overhead and most grids settle there; its nodes are the
ones the doubling walk builds, so each level holds the same floats as
when sampled alone.  A part can be read through the trapezoid integrals
of a set of its Fourier harmonics, taken by one real FFT per level for
all such rows of the grid and kept for later quantities.
The trapezoid sum is linear, so on a given level each of those entries is
the same sum ``integrate_periodic`` would form for it, taken in another
order.

``integrate_periodic`` (one scalar integrand, absolute stopping test) is
the grid of one part of one row.  It integrates the standalone arc
length (``geometry.arc_length``) and the numeric classical moment
(``observables.classical_moment_numeric``, one row of g per call).  The
moment pass over a shape (``observables.winding_grid``) holds the moment
weights and the speed on one grid; its moments are read through their
harmonics, with a relative stopping test and a floor at the rounding of
each moment's quadratic form.  The spectrum samples nothing:
its matrix elements are harmonics in closed form
(``geometry.winding_harmonics``), so ``QuadratureSpec`` steers only the
moments and the arc length.

On a helix every function these passes integrate depends on the
turn angle phi only through the winding angle theta = omega*phi, and
every harmonic they need is a multiple of omega.  Substituting
theta = omega*phi turns a full-turn integral into a one-winding one with
no extra factor,

    Integral_0^{2pi} G(omega phi) e^{i omega d phi} dphi
        = Integral_0^{2pi} G(theta) e^{i d theta} dtheta,

and the trapezoid estimate from N*omega nodes over the turn equals the
one from N nodes over the winding.  So the callers hand these integrators the
winding angle theta as their [0, 2*pi) variable (``geometry.winding_rows``
samples at it) and ask for harmonic d in place of omega*d, at a cost
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


# Each quantity may double its grid this many times, to
# initial_points * 2**MAX_DOUBLINGS points.
MAX_DOUBLINGS = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid-refinement policy: start size and target accuracy.

    ``initial_points`` is the first grid's size on [0, 2*pi).  The
    moments and the arc length are integrated over one winding, so there
    it counts points per winding; the default of 64
    resolves the low winding harmonics from the first grid for every
    omega.  ``tolerance`` applies to each quantity of a ``NestedGrid``
    separately: each may double the grid up to ``MAX_DOUBLINGS`` times,
    to ``initial_points * 2**MAX_DOUBLINGS`` points.
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

    ``value`` is what the quantity's estimate returns: a complex number
    from ``integrate_periodic``, an ndarray from a gather that returns one.
    ``error_estimate`` is the last inter-grid change (the largest over the
    entries of an array value) and ``points_used`` the final grid size.
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


# The first sampling of a grid takes every level up to this many nodes in
# one call: up to here a call's cost is mostly its fixed overhead (cost
# table in CHANGES.md), and most grids settle by then.
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
    merged = np.empty(old.shape[:-1] + (2 * old.shape[-1],), dtype=old.dtype)
    merged[..., 0::2] = old
    merged[..., 1::2] = new
    return merged


def _trapezoid(vals):
    """The trapezoid integral over [0, 2*pi) of one row of samples, as a complex."""
    return complex(2.0 * math.pi * np.sum(np.asarray(vals, dtype=complex)) / vals.shape[-1])


class NestedGrid:
    """Samples of a few groups of rows, the *parts*, on one node-doubling grid.

    ``sample(nodes)`` returns the rows of every part at the given nodes,
    stacked in the order of ``parts``, node axis last.  ``parts`` maps
    each name to its number of rows, in that order.  The rows of the
    parts named in ``transformed``, which come first, are read through
    the trapezoid integrals of their ``harmonics``.

    Quantities computed from the parts settle one after another with
    ``settle``, each at its own level.  Level l has
    ``spec.initial_points * 2**l`` nodes, and the grid keeps one array:
    every part's samples on the finest level so far.  Level l is every
    2**(finest - l)-th of them, the same floats, because doubling
    interleaves the new midpoints with the old nodes.  The first
    ``sample`` call takes every level up to 512 nodes at once (level 0
    at least; the cap lies past 512 nodes for every spec), on the nodes
    that interleaving builds; each level past those is one call on its
    midpoints.  The harmonics of a level are taken by one real FFT over
    the transformed rows and kept for the quantities that settle later.
    """

    def __init__(self, sample, parts, spec=None, harmonics=(), transformed=()):
        self._sample = sample
        self.spec = spec if spec is not None else QuadratureSpec()
        self._rows, start = {}, 0
        for name, count in parts.items():
            self._rows[name] = slice(start, start + count)
            start += count
        self._transformed = tuple(transformed)
        # the rows of every transformed part
        self._joint = slice(0, self._rows[transformed[-1]].stop) if transformed else None
        self._harmonics = np.asarray(harmonics, dtype=int)
        n = self.spec.initial_points
        self._nodes = 2.0 * math.pi * np.arange(n) / n  # the finest nodes so far
        self._top = 0  # their level
        self._vals = None  # every part's samples on them
        self._picked = {}  # level -> harmonic integrals of the transformed rows

    def _refine(self):
        """Double the grid; returns the new midpoints."""
        mids = self._nodes + math.pi / (self.spec.initial_points << self._top)
        self._nodes = _interleave(self._nodes, mids)
        self._top += 1
        return mids

    def _samples(self, level):
        """Every part's samples on level ``level``, at most one level past the stored ones."""
        if self._vals is None:  # the first sampling takes every level up to _PREFETCH_POINTS
            while self.spec.initial_points << (self._top + 1) <= _PREFETCH_POINTS:
                self._refine()
            self._vals = self._sample(self._nodes)
        elif level > self._top:
            self._vals = _interleave(self._vals, self._sample(self._refine()))
        return self._vals[..., :: 1 << (self._top - level)]

    def _integrals(self, level):
        """Trapezoid integrals of the transformed rows' harmonics on level ``level``, cached."""
        picked = self._picked.get(level)
        if picked is None:
            vals = self._samples(level)[self._joint]
            n = vals.shape[-1]
            spectra = np.fft.rfft(vals, axis=-1)
            # sum_j g(phi_j) e^{i h phi_j} is DFT index (-h) mod n; indices past
            # n/2 are the conjugates of their mirror images for real g.
            idx = (-self._harmonics) % n
            upper = idx > n // 2
            picked = spectra[:, np.where(upper, n - idx, idx)]
            picked[:, upper] = picked[:, upper].conj()
            picked *= 2.0 * math.pi / n
            self._picked[level] = picked
        return picked

    def _estimate(self, name, level, gather):
        rows = self._rows[name]
        if name in self._transformed:
            return gather(self._integrals(level)[rows])
        return gather(self._samples(level)[rows])


def settle(grid, part, gather=_trapezoid, relative=False, floor=None):
    """Walk the levels of one part of a grid until its quantity settles.

    This is the package's one node-doubling loop.  ``gather`` maps the
    part's level to the quantity being computed: the (k, len(harmonics))
    trapezoid integrals ``I[i, j] = Integral_0^{2pi} g_i(phi) exp(i h_j
    phi) dphi`` of a transformed part, the samples of any other part.
    The default integrates a part of one row.  Levels already stored
    cost no sampling: the grid's first sampling stores every level up to
    512 nodes, and the walk samples a later level, every part of it,
    only when it first needs it (see ``NestedGrid``).  It stops once the
    largest change of the quantity between two levels is at most
    ``spec.tolerance``, scaled by ``max(1, max |quantity|)`` when
    ``relative`` is set, and returns the quantity on the finer level.
    ``floor``, when given, maps the part's level as ``gather`` does to
    the rounding level of each entry of the quantity: the walk also
    stops once every entry changes by at most the larger of that limit
    and its own rounding level, below which no level can tell two
    estimates apart.

    Raises
    ------
    QuadratureNotConverged
        If ``MAX_DOUBLINGS`` levels do not reach the tolerance.  The
        exception's ``result`` attribute holds the best estimate.
    """
    spec = grid.spec
    current = grid._estimate(part, 0, gather)
    for level in range(1, MAX_DOUBLINGS + 1):
        refined = grid._estimate(part, level, gather)
        changes = np.abs(refined - current)
        change = float(np.max(changes))
        current = refined
        limit = spec.tolerance
        if relative:
            limit *= max(1.0, float(np.max(np.abs(current))))
        if change <= limit or floor is not None and np.all(
                changes <= np.maximum(limit, grid._estimate(part, level, floor))):
            return QuadratureResult(
                value=current, error_estimate=change, points_used=spec.initial_points << level
            )
    raise QuadratureNotConverged(QuadratureResult(
        value=current, error_estimate=change,
        points_used=spec.initial_points << MAX_DOUBLINGS,
    ))


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
        If ``MAX_DOUBLINGS`` refinements do not reach the tolerance.  The
        exception's ``result`` attribute holds the best estimate.
    """
    grid = NestedGrid(lambda nodes: _eval(fn, nodes)[None], {"fn": 1}, spec)
    return settle(grid, "fn")
