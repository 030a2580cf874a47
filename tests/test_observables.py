"""Probability currents, toroidal moments, and thermal averaging.

Quantum moments are checked against the classical loop formula in the
free-particle limit, against an exact closed form for the classical
integral, and against frozen five-state references for one eccentric
configuration.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helixtm import geometry, observables, quadrature
from helixtm.geometry import HelixShape, arc_length, speed
from helixtm.observables import (
    MomentResult,
    ThermalSpec,
    classical_moment_closed,
    classical_moment_numeric,
    current,
    currents,
    free_particle_current,
    moment_vectors,
    thermal_average,
    toroidal_moment,
)
from helixtm.spectrum import (
    EigenState,
    SpectrumConfig,
    branch_momenta,
    branch_spectra,
    make_basis,
    solve_states,
)
from oracles import (
    cosine_series_currents,
    einsum_moments,
    moment_from_current,
    moment_integrand,
    phase_table_currents,
    separate_speed_terms,
)

CIRC4 = HelixShape(R=1.0, a=0.5, b=0.5, omega=4)
UP4 = HelixShape(R=1.0, a=0.25, b=0.75, omega=4)
FLAT4 = HelixShape(R=1.0, a=0.75, b=0.25, omega=4)
UP8 = HelixShape(R=1.0, a=0.25, b=0.75, omega=8)


def _classical_shapes(count, seed):
    """Unit-radius shapes, omega 1 to 40, b/R 0.1 to 3.2, drawn from a seed."""
    rng = np.random.default_rng(seed)
    return [HelixShape(R=1.0, a=float(rng.uniform(0.05, 0.95)), b=float(10 ** rng.uniform(-1, 0.5)),
                       omega=int(rng.integers(1, 41))) for _ in range(count)]
FLAT8 = HelixShape(R=1.0, a=0.75, b=0.25, omega=8)


def states_for(shape, p, include_vc, n_max=2):
    cfg = SpectrumConfig(include_vc=include_vc, n_max=n_max)
    return solve_states(shape, make_basis(shape, p, cfg), cfg)


def current_mode_sum(state, shape, phi):
    """j(phi) as an explicit (m, n) double sum; assumes real coefficients.

    An independent cross-check of ``current``.  It includes the odd sin
    term multiplying f'/(2 f^3), which cancels pair by pair for a
    symmetric coefficient product; it is kept so the cancellation itself
    is exercised.
    """
    phi = np.asarray(phi, dtype=float)
    f, f1, _, _ = separate_speed_terms(shape, phi)
    c = state.coefficients
    idx = state.n_indices
    w = shape.omega
    total = np.zeros_like(phi, dtype=complex)
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            arg = w * (n - m) * phi
            total = total + c[i] * c[j] * (
                (state.p + w * n) * np.cos(arg) / (f * f)
                - f1 * np.sin(arg) / (2.0 * f**3)
            )
    return total.real / (2.0 * math.pi)


def one_hot_state(shape, p, n, n_max=2):
    coeffs = np.zeros(2 * n_max + 1, dtype=complex)
    coeffs[n + n_max] = 1.0
    return EigenState(energy=0.0, coefficients=coeffs, p=p, alpha=0, include_vc=False)


# frozen z moments for (R=1, a=0.25, b=0.75, omega=4, n_max=2), five
# sub-states each, computed by this implementation
REF_TZ_UP4 = {
    (1.0, False): [-0.033421162785, 0.089503919750, -0.147751881897, 0.190069482063, -0.240058713800],
    (1.0, True): [-0.031694480102, 0.071851574681, -0.130843049220, 0.183698512323, -0.234670914352],
    (2.0, False): [-0.066855820177, 0.060030371322, -0.008808536249, -0.003077371240, -0.264605356994],
    (2.0, True): [-0.055128490491, 0.052430540258, 0.019341503170, -0.034480655020, -0.265479611255],
    (3.0, False): [0.028796794020, -0.099301892237, 0.138041960462, -0.203748326588, -0.288763605663],
    (3.0, True): [0.030541950106, -0.079825156805, 0.120268931794, -0.205194018273, -0.290766776828],
}


class TestCurrent:
    def test_one_hot_state_closed_form(self):
        # a single harmonic carries current (p + n*omega) / (2 pi f^2)
        phi = np.linspace(0, 2 * math.pi, 41)
        for n in (-2, 0, 1):
            state = one_hot_state(UP4, 1.0, n)
            want = (1.0 + n * UP4.omega) / (2 * math.pi * speed(UP4, phi) ** 2)
            assert_allclose(current(state, UP4, phi), want, rtol=1e-12)

    def test_two_evaluation_paths_agree(self):
        phi = np.linspace(0, 2 * math.pi, 57)
        for shape in (CIRC4, UP4, FLAT4):
            for state in states_for(shape, 1.0, True):
                assert_allclose(
                    current(state, shape, phi), current_mode_sum(state, shape, phi), atol=1e-12
                )

    def test_winding_periodicity(self):
        phi = np.linspace(0, 2 * math.pi, 33)
        step = 2 * math.pi / UP4.omega
        for state in states_for(UP4, 2.0, False)[:3]:
            assert_allclose(current(state, UP4, phi + step), current(state, UP4, phi), atol=1e-13)

    def test_stationary_branch_carries_no_net_flow(self):
        # p = 0 ground state is a standing wave: current vanishes everywhere
        phi = np.linspace(0, 2 * math.pi, 65)
        ground = states_for(UP4, 0.0, True)[0]
        assert np.max(np.abs(current(ground, UP4, phi))) < 1e-12

    def test_circular_ground_current_nearly_uniform(self):
        phi = np.linspace(0, 2 * math.pi, 721)
        j = current(states_for(CIRC4, 1.0, False)[0], CIRC4, phi)
        spread = (j.max() - j.min()) / abs(j.mean())
        assert spread < 0.01

    def test_eccentric_ground_current_is_modulated(self):
        phi = np.linspace(0, 2 * math.pi, 721)
        j = current(states_for(FLAT4, 1.0, False)[0], FLAT4, phi)
        spread = (j.max() - j.min()) / abs(j.mean())
        assert spread > 0.01

    def test_stack_of_one_state_matches_pointwise_current(self):
        state = states_for(UP4, 1.0, True)[2]
        phi = 2.0 * math.pi * np.arange(64) / 64
        j = currents(UP4, state.coefficients[None, :, None], [state.p], phi)
        assert j.shape == (1, 1, 64)
        assert_allclose(j[0, 0], current(state, UP4, phi), atol=1e-14)


class TestCosineSeries:
    """``currents`` as a cosine series against the phase-table form it replaced."""

    @staticmethod
    def cases():
        # seeded shapes, every fifth a tall coil (b from 1e76 to 1e150); the
        # eigenvectors of two branches and as many random complex states
        rng = np.random.default_rng(30)
        for trial in range(24):
            b = 10 ** rng.uniform(76, 150) if trial % 5 == 4 else 10 ** rng.uniform(-1, 0.5)
            shape = HelixShape(R=1.0, a=float(rng.uniform(0.05, 0.95)), b=float(b),
                               omega=int(rng.integers(1, 41)))
            n_max = int(rng.integers(2, 5))
            ps = sorted({int(p) for p in rng.integers(0, shape.omega, 2)})
            eigen = branch_spectra(shape, [(p, True) for p in ps], n_max).eigenvectors
            noise = rng.standard_normal(eigen.shape) + 1j * rng.standard_normal(eigen.shape)
            yield shape, ps, eigen
            yield shape, ps, noise / np.linalg.norm(noise, axis=1, keepdims=True)

    def test_matches_the_phase_table_form(self):
        # within 8 eps of the terms both forms sum, (sum_n |c_n|)
        # (sum_n |k_n c_n|) / (2 pi f^2) at each angle; a current can be far
        # smaller than its terms.  The angles are multiples of 1/64, whose
        # products with omega and the harmonics are exact, so the phase
        # table's rounded omega*phi*n and the series' exact winding angle agree
        phi = np.arange(403) / 64.0
        for shape, ps, c in self.cases():
            k = branch_momenta(shape, ps, (c.shape[1] - 1) // 2)
            got, want = currents(shape, c, ps, phi), phase_table_currents(shape, c, k, phi)
            terms = np.sum(np.abs(c), axis=1) * np.sum(np.abs(k[:, :, None] * c), axis=1)
            bound = 8 * np.finfo(float).eps * terms[..., None] / (2 * math.pi * speed(shape, phi) ** 2)
            assert np.all(np.abs(got - want) <= bound), shape

    def test_exact_winding_angle(self):
        # cos and sin of omega*phi are those of the exact product of the float
        # phi, hi + lo with lo from exact fractions, where cos and sin of the
        # rounded product are off by up to omega*phi*eps/2 (2.8e-14 at omega 40)
        shape = HelixShape(R=1.0, a=0.1, b=0.9, omega=40)
        phi = 2.0 * math.pi * np.arange(257) / 257
        products = [Fraction(x) * 40 for x in phi.tolist()]
        hi = np.array([float(x) for x in products])
        lo = np.array([float(x - Fraction(h)) for x, h in zip(products, hi.tolist())])
        want_c = np.cos(hi) - lo * np.sin(hi)
        want_s = np.sin(hi) + lo * np.cos(hi)
        c, s = observables._winding_angle(shape, phi)
        eps = np.finfo(float).eps
        assert np.max(np.abs(c - want_c)) <= eps and np.max(np.abs(s - want_s)) <= eps
        assert np.max(np.abs(np.cos(40 * phi) - want_c)) > 1e-14


class TestBatchedCurrents:
    def test_mixed_states_match_pointwise_current_exactly(self):
        # one phase table and one speed for several branches and both V_c
        # settings; every column equals the one-state evaluation bit for bit
        pairs = [(p, include_vc) for p in (0, 1, 3) for include_vc in (True, False)]
        dec = branch_spectra(FLAT4, pairs, 2)
        phi = 2.0 * math.pi * np.arange(97) / 97
        j = currents(FLAT4, dec.eigenvectors, [p for p, _ in pairs], phi)
        assert j.shape == (len(pairs), 5, 97)
        for (p, include_vc), column in zip(pairs, j):
            for state, values in zip(states_for(FLAT4, p, include_vc), column):
                assert np.array_equal(values, current(state, FLAT4, phi))

    @pytest.mark.parametrize("b", [1e76, 1e120, 1e150])
    @pytest.mark.parametrize("omega", [1, 17])
    def test_tall_coils_give_the_unscaled_quotient(self, b, omega):
        # D(pi) > 2^500, so numerator and denominator are taken over a power
        # of two; where 2 pi f^2 is finite the quotient keeps its bits
        shape = HelixShape(R=1.0, a=0.5, b=b, omega=omega)
        pairs = [(p, include_vc) for p in sorted({0, omega - 1}) for include_vc in (False, True)]
        dec = branch_spectra(shape, pairs, 2)
        k = branch_momenta(shape, [p for p, _ in pairs], 2)
        phi = 2.0 * math.pi * np.arange(64) / 64
        j = currents(shape, dec.eigenvectors, [p for p, _ in pairs], phi)
        assert np.array_equal(j, cosine_series_currents(shape, dec.eigenvectors, k, phi))


class TestQuantumMoment:
    def test_returns_result_type(self):
        res = toroidal_moment(states_for(UP4, 1.0, False)[0], UP4)
        assert isinstance(res, MomentResult)
        assert res.z == pytest.approx(res.vector[2])

    def test_transverse_components_vanish(self):
        for shape in (UP4, FLAT4):
            for state in states_for(shape, 1.0, True)[:3]:
                vec = toroidal_moment(state, shape).vector
                assert abs(vec[0]) < 1e-8
                assert abs(vec[1]) < 1e-8

    def test_stationary_branch_has_no_moment(self):
        for state in states_for(UP4, 0.0, True)[:2]:
            assert abs(toroidal_moment(state, UP4).z) < 1e-12

    def test_frozen_regression(self):
        for (p, include_vc), want in REF_TZ_UP4.items():
            got = [toroidal_moment(s, UP4).z for s in states_for(UP4, p, include_vc)]
            assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("shape", [UP4, HelixShape(R=1.0, a=0.9, b=0.1, omega=1)])
    def test_moments_sample_nothing(self, shape, monkeypatch):
        # the weights' harmonics come in closed form: no quadrature, no sampled D = f^2
        def refuse(*args, **kwargs):
            raise AssertionError("sampled")

        for module, name in [(quadrature, "integrate_periodic"), (geometry, "_d_form")]:
            monkeypatch.setattr(module, name, refuse)
        pairs = [(0, True), (0, False)]
        dec, vectors = observables.branch_moments(shape, pairs, 2)
        assert vectors.shape == (2, 5, 3)
        assert toroidal_moment(states_for(shape, 0, True)[0], shape).vector.shape == (3,)

    @pytest.mark.parametrize(
        "shape, p, n_max",
        [
            (UP4, 1.0, 2),
            (FLAT4, 3.0, 2),
            (HelixShape(R=1.0, a=0.75, b=0.25, omega=6), 2.0, 8),
            (HelixShape(R=1.0, a=0.12, b=0.88, omega=40), 7.0, 2),
        ],
    )
    def test_quadratic_form_matches_current_quadrature(self, shape, p, n_max):
        # the quadratic form against integrating j(phi) * g(phi) directly
        for include_vc in (False, True):
            for state in states_for(shape, p, include_vc, n_max):
                want = moment_from_current(shape, lambda phi: current(state, shape, phi), None)
                got = toroidal_moment(state, shape).vector
                assert np.max(np.abs(got - want)) <= 1e-12


class TestBatchedMoments:
    @pytest.mark.parametrize(
        "shape, branches",
        [
            (UP4, (0, 1, 3)),
            (HelixShape(R=1.0, a=0.12, b=0.88, omega=40), (1, 20)),
        ],
    )
    def test_mixed_states_match_current_quadrature(self, shape, branches):
        # one call over several branches and both V_c settings; each
        # moment against integrating its own j(phi) * g(phi)
        pairs = [(p, include_vc) for p in branches for include_vc in (True, False)]
        dec = branch_spectra(shape, pairs, 2)
        ps = [p for p, _ in pairs]
        vectors = moment_vectors(shape, dec.eigenvectors, ps)
        assert vectors.shape == (len(pairs), 5, 3)
        for b in range(len(pairs)):
            for alpha in range(5):
                stack = dec.eigenvectors[b:b + 1, :, alpha:alpha + 1]
                want = moment_from_current(
                    shape, lambda phi: currents(shape, stack, ps[b:b + 1], phi)[0, 0], None)
                assert np.max(np.abs(vectors[b, alpha] - want)) <= 1e-12


# Ground states with V_c whose current settles by n_max 128: flat, tall,
# round and omega = 40 sections
SETTLED = [(0.75, 0.25, 6, 1), (0.1, 0.9, 6, 1), (0.3, 0.7, 6, 2), (0.5, 0.5, 4, 1), (0.25, 0.75, 40, 7)]


def _moment_draws(seed, count):
    """(a, b, omega, p) of unit-radius shapes drawn from a seed, omega 1 to 40."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        omega = int(rng.integers(1, 41))
        yield (float(rng.uniform(0.05, 0.95)), float(10 ** rng.uniform(-1, 0.5)), omega,
               int(rng.integers(0, omega)))


class TestMomentsFromCurrentHarmonics:
    @pytest.mark.parametrize("n_max", [8, 16])
    @pytest.mark.parametrize("omega", [1, 6, 40])
    def test_one_state_is_its_row_of_the_stack(self, omega, n_max):
        # each moment is summed elementwise over h, so a state has the same
        # bits alone as in a stack of several groups
        shape = HelixShape(R=1.0, a=0.75, b=0.25, omega=omega)
        pairs = [(p, vc) for p in sorted({0, omega // 2, omega - 1}) for vc in (False, True)]
        dec, vectors = observables.branch_moments(shape, pairs, n_max)
        for g, (p, include_vc) in enumerate(pairs):
            for alpha in range(2 * n_max + 1):
                c = dec.eigenvectors[g, :, alpha]
                state = EigenState(dec.eigenvalues[g, alpha], c, p, alpha, include_vc)
                want = vectors[g, alpha].tobytes()
                assert toroidal_moment(state, shape).vector.tobytes() == want
                assert moment_vectors(shape, c[None, :, None], [p])[0, 0].tobytes() == want

    @pytest.mark.parametrize("a, b, omega, p", SETTLED)
    def test_settled_moment_is_the_classical_moment_of_its_current(self, a, b, omega, p):
        # continuity makes a stationary current one constant J at the basis
        # limit, so the state's moment is the classical moment of J, its
        # theta-mean (1/pi) sum_h E_h B_h
        shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
        n_max = 128
        dec, vectors = observables.branch_moments(shape, [(p, True)], n_max)
        e = observables._current_harmonics(shape, dec.eigenvectors[:, :, :1], [p])[:, 0]
        loop = np.sum(e * geometry.winding_harmonics(shape, 2 * n_max + 1)[1]) / math.pi
        assert_allclose(vectors[0, 0, 2], classical_moment_closed(shape, loop)[2], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n_max", [2, 8, 32, 64])
    @pytest.mark.parametrize("a, b, omega, p", [*SETTLED, (0.9, 0.1, 1, 0), *_moment_draws(32, 6)])
    def test_match_the_quadratic_form(self, a, b, omega, p, n_max):
        # the E_h sum and the einsum over the (axes, d, d) gather differ only
        # in rounding: within 4 d eps of the summed magnitudes of the terms
        shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
        pairs = [(p, False), (p, True)]
        dec, vectors = observables.branch_moments(shape, pairs, n_max)
        want, sums = einsum_moments(shape, dec.eigenvectors, branch_momenta(shape, [p, p], n_max))
        d = 2 * n_max + 1
        assert np.all(np.abs(vectors - want) <= 4 * d * np.finfo(float).eps * sums)


class TestClassicalMoment:
    def test_circular_closed_form(self):
        # (0, 0, -pi*omega*I*a*b*R/2) gives -pi/2 for the unit-current
        # omega=4 circular coil
        res = classical_moment_closed(CIRC4, 1.0)
        assert res[2] == pytest.approx(-math.pi / 2, rel=1e-14)
        assert_allclose(res[:2], [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("shape", [
        CIRC4, UP4, FLAT4, UP8, HelixShape(R=2.0, a=0.3, b=0.9, omega=5),
        HelixShape(R=1.0, a=0.9, b=0.1, omega=1),
        HelixShape(R=1.0, a=0.3, b=0.3, omega=1),
        HelixShape(R=1.0, a=0.999, b=0.001, omega=6),  # flat
        HelixShape(R=1.0, a=0.2, b=3.0, omega=4),  # tall
        HelixShape(R=1.0, a=0.5, b=0.5, omega=40),
        *_classical_shapes(12, 4711),
    ], ids=repr)
    def test_numeric_matches_closed_form(self, shape):
        # the rows of g are trig polynomials of degree <= 4, so the fixed
        # trapezoid is exact: it meets the closed form to rounding, a
        # 64-sample trapezoid of the same numerator rows within a few ulp
        # of the rows' largest sample, and the whole turn of g formed from
        # the stacked position and velocity, at 16 omega nodes, to rounding
        # (on the rows that do not vanish: at omega >= 2 the turn's x and y
        # sums cancel only to rounding, where the numeric form has exact 0)
        closed = classical_moment_closed(shape, 0.7)
        numeric = classical_moment_numeric(shape, 0.7)
        assert_allclose(numeric, closed, rtol=1e-13, atol=1e-15)
        numerators = geometry._moment_numerators(shape, 1.0)
        axes = [axis for axis, _, _ in numerators]
        theta = 2 * math.pi * np.arange(64) / 64
        rows = np.array([np.sin(theta) ** odd * np.polyval(coefficients[::-1], np.cos(theta))
                         for _, odd, coefficients in numerators])
        fine = np.zeros(3)
        fine[list(axes)] = 0.7 * 2 * math.pi * rows.mean(axis=1) / 10
        ulp = np.finfo(float).eps * 0.7 * 2 * math.pi * np.abs(rows).max() / 10
        assert np.max(np.abs(numeric - fine)) <= 4 * ulp
        n = 16 * shape.omega
        turn = 0.7 * 2 * math.pi * moment_integrand(shape, 2 * math.pi * np.arange(n) / n).mean(axis=0) / 10
        assert_allclose(numeric[list(axes)], turn[list(axes)], rtol=1e-13, atol=1e-15)

    def test_linear_in_loop_current(self):
        base = classical_moment_closed(UP4, 1.0)[2]
        assert classical_moment_closed(UP4, 2.5)[2] == pytest.approx(2.5 * base, rel=1e-14)
        assert classical_moment_numeric(UP4, -1.0)[2] == pytest.approx(
            -classical_moment_numeric(UP4, 1.0)[2], rel=1e-12
        )

    @pytest.mark.parametrize("R, a, b, y", [
        (1.0, 0.5, 0.5, -0.628319),
        (1.0, 0.3, 0.9, -0.309133),
        (2.0, 0.7, 1.3, None),
    ])
    def test_one_winding_closed_form_has_a_y_component(self, R, a, b, y):
        # at omega = 1 one winding is the whole turn, and the classical
        # moment has T_y = -(pi I a / 2)(R^2 - (b^2 - a^2)/4) besides T_z
        shape = HelixShape(R=R, a=a, b=b, omega=1)
        closed = classical_moment_closed(shape, 0.8)
        assert closed[0] == 0.0
        if y is not None:
            assert closed[1] == pytest.approx(y, abs=5e-7)
        assert_allclose(closed, classical_moment_numeric(shape, 0.8), rtol=1e-13, atol=1e-15)

    def test_free_particle_current_values(self):
        assert free_particle_current(UP4, 0.0) == 0.0
        # circle limit: I = 2 pi p / L^2 with L = 2 pi R
        ring = HelixShape(R=1.0, a=1e-10, b=1e-10, omega=4)
        assert free_particle_current(ring, 1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-8)
        # frozen length-derived value for the upright coil
        L = arc_length(UP4)
        assert L == pytest.approx(14.937429, abs=1e-5)
        assert free_particle_current(UP4, 2.0) == pytest.approx(4 * math.pi / L**2, rel=1e-10)

    @pytest.mark.parametrize("shape", _classical_shapes(6, 36), ids=repr)
    def test_free_particle_current_of_an_array(self, shape):
        # the moments table passes every branch at once: each entry is the
        # scalar call's float
        ps = list(range(shape.omega))
        got = free_particle_current(shape, np.array(ps, dtype=float))
        want = [free_particle_current(shape, p) for p in ps]
        assert got.tolist() == want
        assert got.tobytes() == np.array(want).tobytes()


def _round_draws(seed, count):
    # round to moderate cross-sections: a in [0.1, 0.8] and b/a in
    # [1/2, 2], so f = ds/dphi stays within a factor 2.1 of constant.
    # The basis is uniform in phi and the exact states in arc length,
    # so that factor sets the convergence: here the levels settle to
    # rounding by n_max 64 (5e-16 of the top level of the 129), while
    # at b/a up to 8 truncation shows (6e-13), and on flat coils far
    # more.  p in [1, omega/2) keeps the +-m levels apart, so every
    # level has one moment
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = float(rng.uniform(0.1, 0.8))
        b = a * float(2.0 ** rng.uniform(-1.0, 1.0))
        omega = int(rng.integers(3, 41))
        p = int(rng.integers(1, (omega + 1) // 2))
        yield pytest.param(a, b, omega, p, id=f"{a:.3f}-{b:.3f}-{omega}-{p}")


class TestFreeLoop:
    """Without V_c the Hamiltonian is -1/2 d^2/ds^2 on a loop of length L,
    solved exactly by e^{2 pi i m s/L}: level alpha of branch p has
    E = 2 pi^2 m^2 / L^2, with m the alpha-th value of p + omega Z in order
    of |m|, and carries the constant current 2 pi m / L^2, so its moment is
    the classical one of that current.  One comparison covers the
    harmonics, H, the eigensolve, the moment gather and the arc length."""

    @pytest.mark.parametrize("a, b, omega, p", [
        (0.75, 0.25, 6, 1),
        (0.5, 0.5, 4, 1),
        (0.3, 0.7, 5, 2),
    ])
    def test_lowest_levels_match_the_exact_loop(self, a, b, omega, p):
        # the phi basis settles these shapes by n_max 64; flatter coils such
        # as (0.9, 0.1, 40) settle only to 4e-5 in E there
        shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
        dec, vectors = observables.branch_moments(shape, [(p, False)], 64)
        length = arc_length(shape)
        m = np.array(sorted((p + omega * j for j in range(-3, 4)), key=abs)[:5], dtype=float)
        currents_m = 2 * math.pi * m / length**2
        assert_allclose(dec.eigenvalues[0, :5], math.pi * m * currents_m, rtol=1e-11)
        want = [classical_moment_closed(shape, i)[2] for i in currents_m]
        assert_allclose(vectors[0, :5, 2], want, rtol=5e-12)

    @pytest.mark.parametrize("a, b, omega, p", _round_draws(64, 16))
    def test_seeded_shapes_match_the_exact_loop(self, a, b, omega, p):
        # the error left is rounding, of the size of eps times the largest
        # level, which dwarfs the ground level at large omega: the
        # tolerances are relative to the top level and to the largest moment
        shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
        dec, vectors = observables.branch_moments(shape, [(p, False)], 64)
        length = arc_length(shape)
        m = np.array(sorted((p + omega * j for j in range(-3, 4)), key=abs)[:5], dtype=float)
        currents_m = 2 * math.pi * m / length**2
        levels = dec.eigenvalues[0]
        assert_allclose(levels[:5], math.pi * m * currents_m, rtol=0, atol=1e-14 * levels[-1])
        want = np.array([classical_moment_closed(shape, i)[2] for i in currents_m])
        assert_allclose(vectors[0, :5, 2], want, rtol=0, atol=2e-11 * np.abs(want).max())


class TestQuantumClassicalAgreement:
    def test_lowest_substate_matches_classical_loop(self):
        # for the lowest p=1 sub-state without the bend potential, the
        # quantum moment lands within 5% of a classical loop carrying the
        # free-particle current
        for shape in (UP4, FLAT4, UP8, FLAT8):
            quantum = toroidal_moment(states_for(shape, 1.0, False)[0], shape).z
            classical = classical_moment_closed(shape, free_particle_current(shape, 1.0))[2]
            assert quantum == pytest.approx(classical, rel=0.05)

    def test_flattened_upright_asymmetry_with_bend_potential(self):
        # with the bend potential on, at least one omega=4 p=1 sub-state
        # moment differs between the two eccentric orientations by >10%
        up = [toroidal_moment(s, UP4).z for s in states_for(UP4, 1.0, True)]
        flat = [toroidal_moment(s, FLAT4).z for s in states_for(FLAT4, 1.0, True)]
        rel = [abs(f - u) / max(abs(u), abs(f)) for u, f in zip(up, flat)]
        assert max(rel) > 0.10


class TestThermalAverage:
    def test_single_state(self):
        spec = ThermalSpec(temperature=0.4)
        assert thermal_average([(1.3, -0.25)], spec) == pytest.approx(-0.25)

    def test_high_temperature_limit_is_mean(self):
        pairs = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]
        got = thermal_average(pairs, ThermalSpec(temperature=1e9))
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_low_temperature_limit_is_ground(self):
        pairs = [(0.0, 1.0), (1.0, 3.0)]
        got = thermal_average(pairs, ThermalSpec(temperature=1e-3))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_two_state_hand_value(self):
        # weights 1 and 1/2 -> (1*1 + 0.5*0) / 1.5 = 2/3
        tau = 0.7
        pairs = [(0.0, 1.0), (tau * math.log(2.0), 0.0)]
        got = thermal_average(pairs, ThermalSpec(temperature=tau))
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_order_independence(self):
        pairs = [(0.5, 2.0), (0.1, -1.0), (0.9, 4.0)]
        spec = ThermalSpec(temperature=0.3)
        assert thermal_average(pairs, spec) == pytest.approx(
            thermal_average(list(reversed(pairs)), spec), rel=1e-14
        )

    def test_unnormalized_hand_value(self):
        spec = ThermalSpec(temperature=1.0, normalize=False)
        got = thermal_average([(0.0, 2.0), (1.0, 4.0)], spec)
        assert got == pytest.approx(2.0 + 4.0 * math.exp(-1.0), rel=1e-14)

    def test_unnormalized_overflow_surfaces(self):
        spec = ThermalSpec(temperature=0.001, normalize=False)
        with pytest.raises(OverflowError):
            thermal_average([(-1.5, 1.0)], spec)

    @pytest.mark.parametrize("pairs", [[(-1.0, 1.0)], [(-1.0, 0.0)]], ids=["inf", "nan"])
    def test_unnormalized_sum_that_is_not_finite_raises(self, pairs):
        # below the smallest normal temperature -E/T is inf, whose exp is inf
        # without an OverflowError: the weighted sum is inf or 0 * inf = nan
        spec = ThermalSpec(temperature=1e-320, normalize=False)
        with pytest.raises(OverflowError):
            thermal_average(pairs, spec)

    def test_unnormalized_weight_that_underflows_stays_zero(self):
        spec = ThermalSpec(temperature=1e-320, normalize=False)
        assert thermal_average([(1.0, 5.0), (0.5, -2.0)], spec) == 0.0

    def test_normalized_shift_avoids_overflow(self):
        spec = ThermalSpec(temperature=0.001, normalize=True)
        got = thermal_average([(-1.5, 1.0), (-0.1, 99.0)], spec)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalSpec(temperature=0.0)
        with pytest.raises(ValueError):
            ThermalSpec(temperature=-1.0)
        with pytest.raises(ValueError):
            thermal_average([], ThermalSpec(temperature=1.0))

    @pytest.mark.parametrize("temperature", ["1", None, True, 1j])
    def test_rejects_a_temperature_that_is_not_a_real_number(self, temperature):
        # a ValueError like the other bad input, not a TypeError from ">"
        with pytest.raises(ValueError, match="temperature must be a real number"):
            ThermalSpec(temperature=temperature)

    @pytest.mark.parametrize("temperature", [1, np.float32(0.5), np.int64(2)])
    def test_numpy_and_integer_temperature(self, temperature):
        assert ThermalSpec(temperature=temperature).temperature == temperature
