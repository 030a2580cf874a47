"""Self-converging trapezoidal quadrature on [0, 2*pi) for periodic integrands.

For a smooth 2*pi-periodic function the equally spaced trapezoidal rule
converges geometrically, so doubling the node count until two successive
estimates agree gives both the value and a usable error estimate.  Node
doubling reuses every previously evaluated point: the refined grid is the
old grid interleaved with its midpoints.

One loop, ``settle``, does all the doubling.  It walks the levels of a
``NestedGrid``: the samples of a few groups of rows (parts) on one grid,
of which only the finest are kept, since level l is every
2**(finest - l)-th of them.  Several quantities settle on one grid one
after another, each with its own estimate and stopping rule and at its
own level; a later quantity reads the levels already stored and samples
only its own rows past them.  A part can be read through the trapezoid
integrals of a set of its Fourier harmonics, taken by one real FFT per
level for all such rows of the grid and kept for later quantities.
The trapezoid sum is linear, so on a given level each of those entries is
the same sum ``integrate_periodic`` would form for it, taken in another
order.

``integrate_periodic`` (one scalar integrand, absolute stopping test) is
the grid of one part of one row.  The spectrum's pass over a shape
(``spectrum.winding_grid``) holds the Hamiltonian's rows, the moment
weights and the speed on one grid; its Hamiltonian and moments are read
through their harmonics, with a relative stopping test.

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
    Hamiltonian, the moments and the arc length are integrated over one
    winding, so there it counts points per winding; the default of 64
    resolves the low winding harmonics from the first grid for every
    omega.  ``tolerance`` and ``max_doublings`` apply to each quantity of
    a ``NestedGrid`` separately: each may double the grid up to
    ``max_doublings`` times, to ``initial_points * 2**max_doublings``
    points.
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

    ``sample(nodes, names)`` returns the rows of the named parts at the
    given nodes, stacked in the order of ``parts``, node axis last.
    ``parts`` maps each name to its number of rows, in that order.
    The rows of the parts named in ``transformed``, which come first,
    are read through the trapezoid integrals of their ``harmonics``.

    Quantities computed from the parts settle one after another with
    ``settle``, each at its own level.  Level l has
    ``spec.initial_points * 2**l`` nodes, and only the finest samples of
    a part are kept: its level l is every 2**(finest - l)-th of them,
    the same floats, because doubling interleaves the new midpoints with
    the old nodes.  Until the first quantity has settled, each level
    samples every part in one ``sample`` call; after that a quantity that
    needs a level past the stored ones samples only its own rows.  The
    harmonics of a level are taken by one real FFT over the transformed
    rows of one stored array and kept for the quantities that settle
    later.
    """

    def __init__(self, sample, parts, spec=None, harmonics=(), transformed=()):
        self._sample = sample
        self.spec = spec if spec is not None else QuadratureSpec()
        self._names = tuple(parts)
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
        self._shared, self._shared_level = None, -1  # every part, sampled together
        self._own = {}  # name -> (level, samples) of a part refined on its own
        self._picked = {}  # (name, level) -> harmonic integrals
        self._together = True

    def _mids(self, level):
        """The nodes that level ``level`` adds to level - 1."""
        if level > self._top:
            mids = self._nodes + math.pi / (self.spec.initial_points << self._top)
            self._nodes = _interleave(self._nodes, mids)
            self._top = level
            return mids
        step = 1 << (self._top - level)
        return self._nodes[step::2 * step]

    def _samples(self, name, level):
        """The part's samples on level ``level``, at most one level past the stored ones."""
        top, vals = self._own.get(name, (self._shared_level, self._shared))
        if level > top:
            names = self._names if self._together else (name,)
            new = self._sample(self._nodes if level == 0 else self._mids(level), names)
            if self._together:
                self._shared = new if level == 0 else _interleave(self._shared, new)
                self._shared_level = top = level
                vals = self._shared
            else:
                old = vals if name in self._own else vals[self._rows[name]]
                vals = _interleave(old, new)
                self._own[name] = (level, vals)
                return vals
        if name not in self._own:
            vals = vals[self._rows[name]]
        return vals[..., :: 1 << (top - level)]

    def _integrals(self, name, level):
        """Trapezoid integrals of the part's harmonics on level ``level``, cached."""
        picked = self._picked.get((name, level))
        if picked is not None:
            return picked
        vals = self._samples(name, level)
        if level > self._shared_level:  # the part's own rows
            names, rows = (name,), {name: slice(None)}
        else:  # every transformed part of the shared samples
            vals = self._shared[self._joint, :: 1 << (self._shared_level - level)]
            names, rows = self._transformed, self._rows
        n = vals.shape[-1]
        spectra = np.fft.rfft(vals, axis=-1)
        # sum_j g(phi_j) e^{i h phi_j} is DFT index (-h) mod n; indices past
        # n/2 are the conjugates of their mirror images for real g.
        idx = (-self._harmonics) % n
        upper = idx > n // 2
        picked = spectra[:, np.where(upper, n - idx, idx)]
        picked[:, upper] = picked[:, upper].conj()
        picked *= 2.0 * math.pi / n
        for other in names:
            self._picked[(other, level)] = picked[rows[other]]
        return self._picked[(name, level)]

    def _estimate(self, name, level, gather):
        if name in self._transformed:
            return gather(self._integrals(name, level))
        return gather(self._samples(name, level))


def settle(grid, part, gather=_trapezoid, relative=False):
    """Walk the levels of one part of a grid until its quantity settles.

    This is the package's one node-doubling loop.  ``gather`` maps the
    part's level to the quantity being computed: the (k, len(harmonics))
    trapezoid integrals ``I[i, j] = Integral_0^{2pi} g_i(phi) exp(i h_j
    phi) dphi`` of a transformed part, the samples of any other part.
    The default integrates a part of one row.  Levels already stored
    cost no sampling; the walk samples a level only when it first needs
    it (see ``NestedGrid``).  It stops once the largest change of the
    quantity between two levels is at most ``spec.tolerance``, scaled by
    ``max(1, max |quantity|)`` when ``relative`` is set, and returns the
    quantity on the finer level.  Once this returns or raises, later
    quantities of the grid refine only their own rows.

    Raises
    ------
    QuadratureNotConverged
        If ``spec.max_doublings`` levels do not reach the tolerance.  The
        exception's ``result`` attribute holds the best estimate.
    """
    spec = grid.spec
    try:
        current = grid._estimate(part, 0, gather)
        for level in range(1, spec.max_doublings + 1):
            refined = grid._estimate(part, level, gather)
            change = float(np.max(np.abs(refined - current)))
            current = refined
            limit = spec.tolerance
            if relative:
                limit *= max(1.0, float(np.max(np.abs(current))))
            if change <= limit:
                return QuadratureResult(
                    value=current, error_estimate=change, points_used=spec.initial_points << level
                )
        raise QuadratureNotConverged(QuadratureResult(
            value=current, error_estimate=change,
            points_used=spec.initial_points << spec.max_doublings,
        ))
    finally:
        grid._together = False


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
    grid = NestedGrid(lambda nodes, names: _eval(fn, nodes)[None], {"fn": 1}, spec)
    return settle(grid, "fn")
