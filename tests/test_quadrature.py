"""Periodic trapezoid rule: exactness on low harmonics, spectral
convergence on smooth integrands, the rounding floor and the doubling
cap, failure reporting, and the nodes each level samples."""

import math

import numpy as np
import pytest

from helixtm import quadrature
from helixtm.quadrature import (
    QuadratureNotConverged,
    QuadratureResult,
    QuadratureSpec,
    integrate_periodic,
)


class TestSpecValidation:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            QuadratureSpec(initial_points=4)

    @pytest.mark.parametrize("points", [64.0, 64.5, True, "64", None])
    def test_rejects_a_non_integer_grid(self, points):
        with pytest.raises(ValueError, match="initial_points must be an integer"):
            QuadratureSpec(initial_points=points)

    def test_numpy_integer_grid(self):
        spec = QuadratureSpec(initial_points=np.int64(16))
        res = integrate_periodic(lambda phi: np.cos(phi) ** 2, spec)
        assert res.value.real == pytest.approx(math.pi, rel=1e-15)
        assert res.points_used == 32

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=-1e-8)

    @pytest.mark.parametrize("tolerance", ["1e-10", None, True, 1e-10j, [1e-10]])
    def test_rejects_a_non_real_tolerance(self, tolerance):
        # a ValueError like the grid's, not a TypeError from the comparison
        with pytest.raises(ValueError, match="tolerance must be a real number"):
            QuadratureSpec(tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [1, np.float32(1e-6), np.int64(1)])
    def test_numpy_and_integer_tolerance(self, tolerance):
        assert QuadratureSpec(tolerance=tolerance).tolerance == tolerance


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
        # 1/(1 + 1e-6 + cos) has a pole 1.4e-3 from the real axis: its
        # trapezoid error falls like (1 - 1.4e-3)^N, so 8 doublings of an
        # 8-point grid (2048 points) leave a large inter-grid change
        spec = QuadratureSpec(initial_points=8)
        with pytest.raises(QuadratureNotConverged) as exc:
            integrate_periodic(_near_pole, spec)
        partial = exc.value.result
        assert isinstance(partial, QuadratureResult)
        assert partial.points_used == 8 << quadrature.MAX_DOUBLINGS == 2048
        assert partial.error_estimate > 1.0
        nodes = 2 * math.pi * np.arange(2048) / 2048
        assert partial.value.real == pytest.approx(2 * math.pi * np.mean(_near_pole(nodes)),
                                                   rel=1e-12)

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


def _near_pole(phi):
    return 1.0 / (1.0 + 1e-6 + np.cos(phi))


def _sharp(phi):
    return 1.0 / (1.02 + np.cos(phi))


def _trapezoid_levels(fn, start, levels):
    """Trapezoid sums on start * 2**l equally spaced nodes, l = 0..levels."""
    sums = []
    for level in range(levels + 1):
        n = start << level
        sums.append(2 * math.pi * np.mean(fn(2 * math.pi * np.arange(n) / n)))
    return sums


class TestRoundingFloor:
    def test_stops_within_a_few_ulp_of_the_value(self):
        # a tolerance no level meets: the walk stops once the change is
        # within ROUNDING_ULPS ulp of the value, here 2 ulp of 31.26
        spec = QuadratureSpec(initial_points=8, tolerance=1e-300)
        res = integrate_periodic(_sharp, spec)
        floor = quadrature.ROUNDING_ULPS * np.finfo(float).eps * abs(res.value)
        assert 0.0 < res.error_estimate <= floor
        assert res.points_used == 512
        assert res.value.real == pytest.approx(2 * math.pi / math.sqrt(1.02**2 - 1), rel=1e-14)

    @pytest.mark.parametrize("tolerance", [1e-6, 1e-10, 1e-13])
    def test_floor_below_the_tolerance_changes_nothing(self, tolerance):
        # the floor is read only where the tolerance test fails, and lies
        # below these tolerances: the walk stops on the first level whose
        # change meets the tolerance, as without it
        spec = QuadratureSpec(initial_points=8, tolerance=tolerance)
        res = integrate_periodic(_sharp, spec)
        sums = _trapezoid_levels(_sharp, 8, quadrature.MAX_DOUBLINGS)
        level = next(l for l in range(1, len(sums)) if abs(sums[l] - sums[l - 1]) <= tolerance)
        assert res.points_used == 8 << level
        assert res.value.real == pytest.approx(sums[level], rel=1e-15)


class TestDoublingCap:
    def test_the_cap_counts_doublings_of_the_first_grid(self):
        # a pole 1.4e-2 from the real axis needs 8192 points: past the cap of
        # 8 doublings from 8 points (2048), within it from 64 (16384)
        near_pole = lambda phi: 1.0 / (1.0 + 1e-4 + np.cos(phi))
        with pytest.raises(QuadratureNotConverged) as exc:
            integrate_periodic(near_pole, QuadratureSpec(initial_points=8))
        assert exc.value.result.points_used == 8 << quadrature.MAX_DOUBLINGS == 2048
        res = integrate_periodic(near_pole, QuadratureSpec(initial_points=64))
        assert res.points_used == 8192
        assert res.value.real == pytest.approx(2 * math.pi / math.sqrt(1.0001**2 - 1), rel=1e-12)


class TestDoublingWalk:
    def test_later_levels_sample_only_their_odd_nodes(self):
        # level l is the trapezoid on 8 * 2**l nodes at 2 pi j / n; each
        # level keeps the nodes before it, so no angle is sampled twice
        calls = []

        def sample(nodes):
            calls.append(nodes.copy())
            return _sharp(nodes)

        res = integrate_periodic(sample, QuadratureSpec(initial_points=8))
        assert [nodes.size for nodes in calls] == [8] + [8 << i for i in range(len(calls) - 1)]
        sampled = np.sort(np.concatenate(calls))
        n = res.points_used
        assert n == 8 << len(calls) - 1 and n > 16
        assert np.array_equal(sampled, 2 * math.pi * np.arange(n) / n)
        assert res.value.real == pytest.approx(_trapezoid_levels(_sharp, 8, len(calls) - 1)[-1],
                                               rel=1e-15)
