"""Periodic trapezoid rule: exactness on low harmonics, spectral
convergence on smooth integrands, failure reporting, and the FFT path
for many harmonics of a few real functions on a ``NestedGrid``."""

import math

import numpy as np
import pytest

from helixtm.quadrature import (
    NestedGrid,
    QuadratureNotConverged,
    QuadratureResult,
    QuadratureSpec,
    integrate_periodic,
    settle,
)


class TestSpecValidation:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            QuadratureSpec(initial_points=4)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=-1e-8)

    def test_rejects_no_doublings(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_doublings=0)


class TestExactness:
    def test_constant(self):
        res = integrate_periodic(lambda phi: np.ones_like(phi))
        assert res.value == pytest.approx(2 * math.pi, rel=1e-15)
        assert res.error_estimate <= 1e-10

    def test_pure_harmonics_vanish(self):
        # trapezoid on N uniform points integrates e^{ik phi} exactly to 0
        # for 0 < |k| < N
        for k in (1, 2, 5, 31, 63):
            res = integrate_periodic(lambda phi, k=k: np.exp(1j * k * phi))
            assert abs(res.value) < 1e-12

    def test_trig_polynomial(self):
        res = integrate_periodic(lambda phi: 3.0 + np.cos(2 * phi) - 0.5 * np.sin(7 * phi))
        assert res.value == pytest.approx(6 * math.pi, rel=1e-14)

    def test_aliased_harmonic_recovered_by_doubling(self):
        # k equal to the initial grid size aliases to a constant on the
        # first pass; the doubling loop must resolve it to zero.
        res = integrate_periodic(lambda phi: np.cos(64 * phi), QuadratureSpec(initial_points=64))
        assert abs(res.value) < 1e-12
        assert res.points_used > 64


class TestConvergence:
    def test_smooth_integrand_matches_simpson(self):
        fn = lambda phi: np.exp(np.cos(phi)) / (2.0 + np.sin(phi))
        res = integrate_periodic(fn, QuadratureSpec(tolerance=1e-13))
        n = 1_000_000
        phi = np.linspace(0.0, 2 * math.pi, n + 1)
        vals = fn(phi)
        h = 2 * math.pi / n
        simpson = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
        assert res.value == pytest.approx(simpson, abs=1e-10)

    def test_geometric_error_decay(self):
        # manual trapezoid sums for e^{cos phi}: each doubling should cut
        # the distance to the limit by well over 10x (spectral accuracy)
        def trap(n):
            phi = np.arange(n) * (2 * math.pi / n)
            return np.exp(np.cos(phi)).sum() * (2 * math.pi / n)

        exact = integrate_periodic(
            lambda phi: np.exp(np.cos(phi)), QuadratureSpec(tolerance=1e-14)
        ).value.real
        errs = [abs(trap(n) - exact) for n in (4, 8, 16)]
        assert errs[1] < errs[0] / 10
        assert errs[2] < errs[1] / 10

    def test_linearity(self):
        f = lambda phi: np.exp(np.cos(phi))
        g = lambda phi: 1.0 / (2.0 + np.sin(3 * phi))
        spec = QuadratureSpec(tolerance=1e-13)
        lhs = integrate_periodic(lambda phi: 2.0 * f(phi) - 0.25 * g(phi), spec).value
        rhs = 2.0 * integrate_periodic(f, spec).value - 0.25 * integrate_periodic(g, spec).value
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_phase_shift_invariance(self):
        f = lambda phi: np.exp(np.cos(phi)) * np.cos(2 * phi)
        spec = QuadratureSpec(tolerance=1e-13)
        base = integrate_periodic(f, spec).value
        shifted = integrate_periodic(lambda phi: f(phi + 0.7318), spec).value
        assert shifted == pytest.approx(base, rel=1e-11, abs=1e-13)

    def test_complex_integrand(self):
        res = integrate_periodic(lambda phi: np.exp(np.cos(phi)) * np.exp(2j * phi))
        assert isinstance(res, QuadratureResult)
        assert isinstance(res.value, complex)
        # modified Bessel I_2(1) from the cosine-weighted harmonic
        assert res.value.real == pytest.approx(2 * math.pi * 0.13574766976703828, rel=1e-10)
        assert res.value.imag == pytest.approx(0.0, abs=1e-12)

    def test_error_estimate_within_tolerance_on_success(self):
        spec = QuadratureSpec(tolerance=1e-9)
        res = integrate_periodic(lambda phi: np.exp(np.sin(phi)), spec)
        assert res.error_estimate <= spec.tolerance


class TestFailure:
    def test_not_converged_carries_partial_result(self):
        # one doubling of an 8-point grid leaves a ~1e-6 inter-grid change,
        # far above the impossible tolerance, so the cap must trip
        spec = QuadratureSpec(initial_points=8, tolerance=1e-300, max_doublings=1)
        with pytest.raises(QuadratureNotConverged) as exc:
            integrate_periodic(lambda phi: np.exp(np.cos(phi)), spec)
        partial = exc.value.result
        assert isinstance(partial, QuadratureResult)
        assert partial.points_used == 16
        assert partial.error_estimate > 1e-300
        assert partial.value.real == pytest.approx(7.95492652101284, rel=1e-6)

    def test_bad_integrand_shape(self):
        with pytest.raises(ValueError):
            integrate_periodic(lambda phi: np.float64(1.0))
        with pytest.raises(ValueError):
            integrate_periodic(lambda phi: phi[:3])


class TestDeterminism:
    def test_repeat_calls_identical(self):
        fn = lambda phi: np.exp(np.cos(phi)) / (2.0 + np.sin(phi))
        a = integrate_periodic(fn)
        b = integrate_periodic(fn)
        assert a.value == b.value
        assert a.points_used == b.points_used


def _two_functions(phi):
    return np.stack([np.exp(np.cos(phi)), 1.0 / (2.0 + np.sin(3 * phi))])


def settle_harmonics(sample, rows, harmonics, gather, spec=None):
    """Settle ``gather`` of the harmonic integrals of a grid of one part.

    The part holds the ``rows`` real functions that ``sample`` returns,
    read through the trapezoid integrals of ``harmonics``, with the
    relative stopping test of the spectral passes.
    """
    grid = NestedGrid(lambda nodes, names: sample(nodes), {"g": rows}, spec, harmonics, ["g"])
    return settle(grid, "g", gather, relative=True)


class TestHarmonics:
    def test_trig_polynomial_exact(self):
        sample = lambda phi: np.stack([3.0 + np.cos(2 * phi), np.sin(5 * phi)])
        res = settle_harmonics(sample, 2, [-5, -2, 0, 2, 5], lambda integrals: integrals)
        pi = math.pi
        want = [[0, pi, 6 * pi, pi, 0], [-1j * pi, 0, 0, 0, 1j * pi]]
        assert isinstance(res.value, np.ndarray)
        assert res.value.shape == (2, 5)
        assert np.max(np.abs(res.value - np.array(want))) < 1e-13

    def test_each_harmonic_is_the_trapezoid_sum(self):
        # one grid, with harmonics past its Nyquist index: every entry is
        # the same (aliased) sum integrate_periodic forms for it
        spec = QuadratureSpec(initial_points=8, tolerance=1e6, max_doublings=1)
        harmonics = np.arange(-20, 21)
        res = settle_harmonics(_two_functions, 2, harmonics, lambda integrals: integrals, spec)
        assert res.points_used == 16
        for i in range(2):
            for j, h in enumerate(harmonics):
                want = integrate_periodic(
                    lambda phi: _two_functions(phi)[i] * np.exp(1j * h * phi), spec
                ).value
                assert abs(res.value[i, j] - want) < 1e-13

    def test_gather_sees_converged_integrals(self):
        spec = QuadratureSpec(tolerance=1e-13)
        res = settle_harmonics(
            _two_functions, 2, [0, 2], lambda integrals: integrals[0, 1] / integrals[0, 0], spec
        )
        # ratio of modified Bessel functions I_2(1) / I_0(1)
        assert res.value.real == pytest.approx(0.13574766976703828 / 1.2660658777520082, rel=1e-12)

    def test_stopping_test_scales_with_the_result(self):
        # e^{cos phi} scaled by 1e8 stops on the same grid as unscaled, with
        # its error estimate inside the scaled tolerance; the absolute test
        # of integrate_periodic needs a finer grid for the scaled integrand
        spec = QuadratureSpec(initial_points=8)
        identity = lambda integrals: integrals
        runs = [
            settle_harmonics(
                lambda phi, s=s: s * np.exp(np.cos(phi))[None], 1, [0, 1], identity, spec
            )
            for s in (1.0, 1e8)
        ]
        assert runs[1].points_used == runs[0].points_used
        assert runs[1].error_estimate <= spec.tolerance * np.max(np.abs(runs[1].value))
        absolute = integrate_periodic(lambda phi: 1e8 * np.exp(np.cos(phi)), spec)
        assert absolute.points_used > runs[1].points_used

    def test_not_converged_carries_array_result(self):
        spec = QuadratureSpec(initial_points=8, tolerance=1e-300, max_doublings=1)
        with pytest.raises(QuadratureNotConverged) as exc:
            settle_harmonics(_two_functions, 2, [0, 1, 2], lambda integrals: integrals, spec)
        partial = exc.value.result
        assert partial.points_used == 16
        assert partial.value.shape == (2, 3)
        assert partial.value[0, 0].real == pytest.approx(7.95492652101284, rel=1e-6)


def _smooth(phi):
    return np.stack([np.exp(np.cos(phi)), 1.0 / (2.0 + np.sin(3 * phi))])


def _sharp(phi):
    return (1.0 / (1.02 + np.cos(phi)))[None]


class TestNestedGrid:
    """Quantities of one grid, each at its own level, against a grid of each alone."""

    def grid(self, calls, spec):
        rows = {"smooth": _smooth, "sharp": _sharp, "plain": lambda phi: np.exp(np.sin(phi))[None]}

        def sample(nodes, names):
            calls.append((names, nodes.size))
            return np.concatenate([rows[name](nodes) for name in names])

        return NestedGrid(sample, {"smooth": 2, "sharp": 1, "plain": 1}, spec,
                          np.arange(-4, 5), ["smooth", "sharp"])

    @pytest.mark.parametrize("first", ["smooth", "sharp"])
    def test_each_quantity_equals_its_own_integrator(self, first):
        # the sharp row needs a finer grid than the smooth ones: settled
        # second it refines alone past the stored levels, settled first it
        # leaves stored levels for the others to read
        spec = QuadratureSpec(initial_points=8)
        identity = lambda integrals: integrals
        calls = []
        grid = self.grid(calls, spec)
        second = "sharp" if first == "smooth" else "smooth"
        got = {name: settle(grid, name, identity, relative=True) for name in (first, second)}
        got["plain"] = settle(grid, "plain", lambda vals: _trapezoid_of(vals[0]))
        want = {
            "smooth": settle_harmonics(_smooth, 2, np.arange(-4, 5), identity, spec),
            "sharp": settle_harmonics(_sharp, 1, np.arange(-4, 5), identity, spec),
            "plain": integrate_periodic(lambda phi: np.exp(np.sin(phi)), spec),
        }
        assert got["sharp"].points_used > got["smooth"].points_used
        for name, result in got.items():
            assert np.array_equal(result.value, want[name].value)
            assert result.points_used == want[name].points_used
            assert result.error_estimate == want[name].error_estimate
        # every part is sampled with the first quantity, up to its level;
        # past it a part is sampled alone, and no angle of a part twice
        levels = int(math.log2(got[first].points_used // 8)) + 1
        assert [names for names, _ in calls[:levels]] == [("smooth", "sharp", "plain")] * levels
        assert all(len(names) == 1 for names, _ in calls[levels:])
        for name, result in got.items():
            sampled = sum(size for names, size in calls if name in names)
            assert sampled == max(got[first].points_used, result.points_used)

    def test_default_gather_is_the_trapezoid_sum(self):
        spec = QuadratureSpec(initial_points=8)
        grid = NestedGrid(lambda nodes, names: np.exp(np.sin(nodes))[None], {"f": 1}, spec)
        want = integrate_periodic(lambda phi: np.exp(np.sin(phi)), spec)
        got = settle(grid, "f")
        assert got.value == want.value
        assert (got.points_used, got.error_estimate) == (want.points_used, want.error_estimate)

    def test_second_quantity_hits_the_cap_alone(self):
        spec = QuadratureSpec(initial_points=8, max_doublings=4)
        calls = []
        grid = self.grid(calls, spec)
        settle(grid, "smooth", lambda integrals: integrals, relative=True)
        with pytest.raises(QuadratureNotConverged) as exc:
            settle(grid, "sharp", lambda integrals: integrals, relative=True)
        with pytest.raises(QuadratureNotConverged) as alone:
            settle_harmonics(_sharp, 1, np.arange(-4, 5), lambda integrals: integrals, spec)
        assert str(exc.value) == str(alone.value)
        assert np.array_equal(exc.value.result.value, alone.value.result.value)


def _trapezoid_of(row):
    return complex(2.0 * math.pi * np.sum(row.astype(complex)) / row.size)
