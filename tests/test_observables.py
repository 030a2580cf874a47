"""Probability currents, toroidal moments, and thermal averaging.

Quantum moments are checked against the classical loop formula in the
free-particle limit, against an exact closed form for the classical
integral, and against frozen five-state references for one eccentric
configuration.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helixtm.geometry import HelixShape, arc_length, speed, speed_derivatives
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
from helixtm.quadrature import QuadratureSpec
from helixtm.spectrum import (
    EigenState,
    SpectrumConfig,
    branch_momenta,
    branch_spectra,
    make_basis,
    solve_states,
)
from oracles import moment_from_current

CIRC4 = HelixShape(R=1.0, a=0.5, b=0.5, omega=4)
UP4 = HelixShape(R=1.0, a=0.25, b=0.75, omega=4)
FLAT4 = HelixShape(R=1.0, a=0.75, b=0.25, omega=4)
UP8 = HelixShape(R=1.0, a=0.25, b=0.75, omega=8)
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
    f = speed(shape, phi)
    f1, _ = speed_derivatives(shape, phi)
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
        k = (state.p + UP4.omega * state.n_indices)[None]
        j = currents(UP4, state.coefficients[None, :, None], k, phi)
        assert j.shape == (1, 1, 64)
        assert_allclose(j[0, 0], current(state, UP4, phi), atol=1e-14)


class TestBatchedCurrents:
    def test_mixed_states_match_pointwise_current_exactly(self):
        # one phase table and one speed for several branches and both V_c
        # settings; every column equals the one-state evaluation bit for bit
        pairs = [(p, include_vc) for p in (0, 1, 3) for include_vc in (True, False)]
        dec = branch_spectra(FLAT4, pairs, 2)
        phi = 2.0 * math.pi * np.arange(97) / 97
        j = currents(FLAT4, dec.eigenvectors, branch_momenta(FLAT4, [p for p, _ in pairs], 2), phi)
        assert j.shape == (len(pairs), 5, 97)
        for (p, include_vc), column in zip(pairs, j):
            for state, values in zip(states_for(FLAT4, p, include_vc), column):
                assert np.array_equal(values, current(state, FLAT4, phi))


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

    def test_quadrature_spec_is_honoured(self):
        state = states_for(UP4, 1.0, True)[0]
        default = toroidal_moment(state, UP4).z
        fine = toroidal_moment(state, UP4, QuadratureSpec(initial_points=512, tolerance=1e-12)).z
        assert default == pytest.approx(fine, abs=1e-9)


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
        k = branch_momenta(shape, [p for p, _ in pairs], 2)
        vectors = moment_vectors(shape, dec.eigenvectors, k)
        assert vectors.shape == (len(pairs), 5, 3)
        for b in range(len(pairs)):
            for alpha in range(5):
                stack = dec.eigenvectors[b:b + 1, :, alpha:alpha + 1]
                want = moment_from_current(
                    shape, lambda phi: currents(shape, stack, k[b:b + 1], phi)[0, 0], None)
                assert np.max(np.abs(vectors[b, alpha] - want)) <= 1e-12


class TestClassicalMoment:
    def test_circular_closed_form(self):
        # (0, 0, -pi*omega*I*a*b*R/2) gives -pi/2 for the unit-current
        # omega=4 circular coil
        res = classical_moment_closed(CIRC4, 1.0)
        assert res[2] == pytest.approx(-math.pi / 2, rel=1e-14)
        assert_allclose(res[:2], [0.0, 0.0], atol=1e-15)

    def test_numeric_matches_closed_form(self):
        for shape in (CIRC4, UP4, FLAT4, UP8, HelixShape(R=2.0, a=0.3, b=0.9, omega=5)):
            closed = classical_moment_closed(shape, 0.7)
            numeric = classical_moment_numeric(shape, 0.7)
            assert numeric[2] == pytest.approx(closed[2], abs=1e-8)
            assert_allclose(numeric[:2], [0.0, 0.0], atol=1e-8)

    def test_linear_in_loop_current(self):
        base = classical_moment_closed(UP4, 1.0)[2]
        assert classical_moment_closed(UP4, 2.5)[2] == pytest.approx(2.5 * base, rel=1e-14)
        assert classical_moment_numeric(UP4, -1.0)[2] == pytest.approx(
            -classical_moment_numeric(UP4, 1.0)[2], rel=1e-12
        )

    def test_free_particle_current_values(self):
        assert free_particle_current(UP4, 0.0) == 0.0
        # circle limit: I = 2 pi p / L^2 with L = 2 pi R
        ring = HelixShape(R=1.0, a=1e-10, b=1e-10, omega=4)
        assert free_particle_current(ring, 1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-8)
        # frozen length-derived value for the upright coil
        L = arc_length(UP4)
        assert L == pytest.approx(14.937429, abs=1e-5)
        assert free_particle_current(UP4, 2.0) == pytest.approx(4 * math.pi / L**2, rel=1e-10)


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
