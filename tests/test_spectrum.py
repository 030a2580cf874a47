"""Bloch basis and Hamiltonian checks: orthonormality, exact free-rotor
limits, attractiveness of the bend potential, variational behaviour, and
frozen five-state references for one eccentric configuration."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helixtm.geometry import HelixShape, curvature_potential, speed
from helixtm.linalg import HermitianMatrix, HermiticityViolation
from helixtm.quadrature import QuadratureSpec, integrate_periodic
from helixtm.spectrum import (
    BlochBasis,
    EigenState,
    SpectrumConfig,
    _hamiltonian_stack,
    basis_wavefunction,
    branch_spectra,
    build_hamiltonian,
    make_basis,
    solve_states,
)
from oracles import hamiltonian_element

FLAT6 = HelixShape(R=1.0, a=0.75, b=0.25, omega=6)

# five-state reference for (R=1, a=0.75, b=0.25, omega=6, p=1, n_max=2),
# frozen from this implementation at tolerance-independent settings
REF_ENERGY_OFF = [0.072353064275, 1.636889462977, 3.004530742343, 7.790667765504, 10.918596718146]
REF_ENERGY_ON = [-1.473914432405, -0.044215759157, 2.139260064279, 5.725766413872, 9.271250524741]
REF_AMP_OFF = np.array(
    [
        [-0.1054896669, 0.1648475831, 0.0607424638, 0.9761140600, 0.0721727060],
        [0.0585031204, 0.9761574415, 0.1235941039, -0.1630607972, -0.0427750877],
        [0.9821697793, -0.0314809629, -0.0290582559, 0.1020320414, 0.1519755041],
        [0.0555811161, -0.1373844217, 0.9702492481, -0.0170699917, -0.1906863188],
        [-0.1330510398, 0.0087403286, 0.1969945809, -0.0995519773, 0.9661798830],
    ]
)
REF_AMP_ON = np.array(
    [
        [0.0606480030, 0.0309747896, -0.1230625993, 0.9410172943, -0.3077408497],
        [-0.3794136134, 0.7975041341, -0.4619963437, -0.0389125915, 0.0712576641],
        [0.8927172035, 0.4440689631, 0.0423975136, -0.0579036128, 0.0266152806],
        [-0.2353403225, 0.4070512348, 0.8712476431, 0.0771519734, -0.1178954714],
        [-0.0061690306, -0.0118223007, 0.1026887056, 0.3219736116, 0.9410686476],
    ]
)

# four-digit benchmark values for the same configuration
BENCH_ENERGY_OFF = [0.0724, 1.6369, 3.0045, 7.7907, 10.9186]
BENCH_ENERGY_ON = [-1.4739, -0.0442, 2.1393, 5.7258, 9.2713]
BENCH_AMP_OFF = np.array(
    [
        [-0.1055, -0.1648, -0.0607, -0.9761, 0.0722],
        [0.0585, -0.9762, -0.1236, 0.1631, -0.0428],
        [0.9822, 0.0315, 0.0291, -0.1020, 0.1520],
        [0.0556, 0.1374, -0.9702, 0.0171, -0.1907],
        [-0.1331, -0.0087, -0.1970, 0.0996, 0.9662],
    ]
)
BENCH_AMP_ON = np.array(
    [
        [0.0606, -0.0310, 0.1231, -0.9410, 0.3077],
        [-0.3794, -0.7975, 0.4620, 0.0389, -0.0713],
        [0.8927, -0.4441, -0.0424, 0.0579, -0.0266],
        [-0.2353, -0.4071, -0.8712, -0.0772, 0.1179],
        [-0.0062, 0.0118, -0.1027, -0.3220, -0.9411],
    ]
)


def assert_columns_match_up_to_sign(got, want, atol):
    assert got.shape == want.shape
    for j in range(got.shape[1]):
        col = got[:, j]
        ref = want[:, j]
        sign = 1.0 if np.linalg.norm(col - ref) <= np.linalg.norm(col + ref) else -1.0
        assert_allclose(sign * col, ref, atol=atol)


class TestValidation:
    def test_basis_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            BlochBasis(p=-0.5, n_max=2, omega=4)
        with pytest.raises(ValueError):
            BlochBasis(p=4.0, n_max=2, omega=4)
        with pytest.raises(ValueError):
            BlochBasis(p=1.0, n_max=0, omega=4)
        with pytest.raises(ValueError, match="n_max must be >= 2"):
            BlochBasis(p=1.0, n_max=1, omega=4)
        with pytest.raises(ValueError):
            BlochBasis(p=1.0, n_max=2, omega=0)

    def test_config_rejects_small_basis(self):
        with pytest.raises(ValueError):
            SpectrumConfig(n_max=1)

    def test_element_rejects_out_of_range_indices(self):
        basis = BlochBasis(p=1.0, n_max=2, omega=6)
        cfg = SpectrumConfig()
        with pytest.raises(ValueError):
            hamiltonian_element(FLAT6, basis, -3, 0, cfg)
        with pytest.raises(ValueError):
            hamiltonian_element(FLAT6, basis, 0, 3, cfg)
        with pytest.raises(ValueError):
            basis_wavefunction(FLAT6, basis, 5, 0.0)

    def test_basis_bookkeeping(self):
        basis = BlochBasis(p=1.0, n_max=2, omega=6)
        assert basis.dim == 5
        assert list(basis.indices) == [-2, -1, 0, 1, 2]
        assert basis.momentum(2) == pytest.approx(13.0)
        assert basis.momentum(-2) == pytest.approx(-11.0)


class TestBasisFunctions:
    def test_orthonormal_under_arc_measure(self):
        # <m|n> = integral conj(chi_m) chi_n f dphi must be delta_mn
        basis = BlochBasis(p=1.0, n_max=2, omega=6)
        spec = QuadratureSpec(initial_points=64 * 6, tolerance=1e-13)
        for m in basis.indices:
            for n in basis.indices:
                res = integrate_periodic(
                    lambda phi: (
                        np.conj(basis_wavefunction(FLAT6, basis, m, phi))
                        * basis_wavefunction(FLAT6, basis, n, phi)
                        * speed(FLAT6, phi)
                    ),
                    spec,
                )
                want = 1.0 if m == n else 0.0
                assert abs(res.value - want) < 1e-10

    def test_bloch_condition(self):
        basis = BlochBasis(p=1.0, n_max=2, omega=6)
        phi = np.linspace(0, 2 * math.pi, 23)
        step = 2 * math.pi / 6
        phase = np.exp(1j * 2 * math.pi * basis.p / basis.omega)
        for n in basis.indices:
            lhs = basis_wavefunction(FLAT6, basis, n, phi + step)
            rhs = phase * basis_wavefunction(FLAT6, basis, n, phi)
            assert_allclose(lhs, rhs, atol=1e-13)

    def test_winding_number_content(self):
        # chi_n carries angular dependence e^{i(p + n omega) phi} only
        basis = BlochBasis(p=0.5, n_max=2, omega=4)
        phi = np.linspace(0, 2 * math.pi, 31)
        for n in basis.indices:
            chi = basis_wavefunction(FLAT6, basis, n, phi)
            flattened = chi * np.exp(-1j * basis.momentum(n) * phi)
            assert np.max(np.abs(flattened.imag)) < 1e-13
            assert np.all(flattened.real > 0)


class TestHamiltonianStructure:
    def test_diagonal_is_real(self):
        basis = make_basis(FLAT6, 1.0, SpectrumConfig())
        h = build_hamiltonian(FLAT6, basis, SpectrumConfig()).entries
        assert np.max(np.abs(np.diag(h).imag)) < 1e-12

    def test_hermiticity_drift_small(self):
        cfg = SpectrumConfig()
        basis = make_basis(FLAT6, 1.0, cfg)
        h = build_hamiltonian(FLAT6, basis, cfg)
        assert isinstance(h, HermitianMatrix)
        drift = np.max(np.abs(h.entries - h.entries.conj().T))
        assert drift <= 1e-9

    def test_circle_limit_is_diagonal_free_rotor(self):
        # a = b -> 0 turns the coil into a unit ring: H -> diag(k^2/2) with
        # a constant -1/8 shift when the bend potential is kept.  The
        # residual coupling is first order in a, so a = 1e-10 keeps it
        # below the tolerance even at the largest winding momentum.
        ring = HelixShape(R=1.0, a=1e-10, b=1e-10, omega=4)
        for include_vc in (False, True):
            cfg = SpectrumConfig(include_vc=include_vc, n_max=2)
            basis = make_basis(ring, 0.5, cfg)
            h = build_hamiltonian(ring, basis, cfg).entries
            k = np.array([basis.momentum(n) for n in basis.indices])
            want = np.diag(k**2 / 2.0 - (0.125 if include_vc else 0.0))
            assert_allclose(h, want, atol=1e-8)

    def test_free_rotor_eigenvalues(self):
        ring = HelixShape(R=1.0, a=1e-10, b=1e-10, omega=4)
        cfg = SpectrumConfig(include_vc=False, n_max=2)
        basis = make_basis(ring, 0.5, cfg)
        states = solve_states(ring, basis, cfg)
        k = np.array([basis.momentum(n) for n in basis.indices])
        assert_allclose([s.energy for s in states], np.sort(k**2 / 2.0), atol=1e-8)

    def test_potential_difference_is_convolution(self):
        # H_on - H_off must be exactly the Fourier transform of V_c in the
        # winding harmonics, independently integrated here
        cfg_on = SpectrumConfig(include_vc=True)
        cfg_off = SpectrumConfig(include_vc=False)
        basis = make_basis(FLAT6, 1.0, cfg_on)
        h_on = build_hamiltonian(FLAT6, basis, cfg_on).entries
        h_off = build_hamiltonian(FLAT6, basis, cfg_off).entries
        spec = QuadratureSpec(initial_points=64 * 6, tolerance=1e-13)
        w = FLAT6.omega
        for i, m in enumerate(basis.indices):
            for j, n in enumerate(basis.indices):
                conv = integrate_periodic(
                    lambda phi: np.exp(1j * w * (n - m) * phi) * curvature_potential(FLAT6, phi),
                    spec,
                ).value / (2 * math.pi)
                assert abs((h_on[i, j] - h_off[i, j]) - conv) < 1e-10

    def test_quadrature_refinement_independence(self):
        coarse = SpectrumConfig(quad=QuadratureSpec(initial_points=64, tolerance=1e-11))
        fine = SpectrumConfig(quad=QuadratureSpec(initial_points=128, tolerance=1e-13))
        basis = make_basis(FLAT6, 1.0, coarse)
        h1 = build_hamiltonian(FLAT6, basis, coarse).entries
        h2 = build_hamiltonian(FLAT6, basis, fine).entries
        assert np.max(np.abs(h1 - h2)) < 1e-8


class TestSpectralAssembly:
    """The gathered matrix against element-by-element quadrature."""

    @staticmethod
    def elementwise(shape, basis, cfg):
        idx = basis.indices
        return np.array(
            [[hamiltonian_element(shape, basis, m, n, cfg) for n in idx] for m in idx]
        )

    @pytest.mark.parametrize(
        "a, b, omega, n_max",
        [
            (0.75, 0.25, 6, 2),
            (0.75, 0.25, 6, 8),
            (0.75, 0.25, 6, 16),
            (0.5, 0.5, 4, 2),
            (0.12, 0.88, 40, 2),
        ],
    )
    def test_matches_hamiltonian_element(self, a, b, omega, n_max):
        shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
        for include_vc in (False, True):
            cfg = SpectrumConfig(include_vc=include_vc, n_max=n_max)
            basis = make_basis(shape, 1, cfg)
            h = build_hamiltonian(shape, basis, cfg).entries
            want = self.elementwise(shape, basis, cfg)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(h - want)) <= 1e-10 * scale

    @pytest.mark.parametrize(
        "shape, branches, n_max",
        [
            (FLAT6, [(0, False), (1, True), (3, False), (3, True), (5, True)], 3),
            (HelixShape(R=1.0, a=0.12, b=0.88, omega=40), [(7, True), (0, False), (39, True)], 2),
        ],
    )
    def test_batched_matrices_match_hamiltonian_element(self, shape, branches, n_max):
        mats = _hamiltonian_stack(shape, branches, n_max, None)
        assert mats.shape == (len(branches), 2 * n_max + 1, 2 * n_max + 1)
        for (p, include_vc), h in zip(branches, mats):
            cfg = SpectrumConfig(include_vc=include_vc, n_max=n_max)
            want = self.elementwise(shape, make_basis(shape, p, cfg), cfg)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(h - want)) <= 1e-10 * scale

    def test_production_path_is_real(self):
        branches = [(0, False), (1, True), (3, True)]
        assert _hamiltonian_stack(FLAT6, branches, 3, None).dtype == np.float64
        assert branch_spectra(FLAT6, branches, 3).eigenvectors.dtype == np.float64
        cfg = SpectrumConfig(n_max=3)
        assert build_hamiltonian(FLAT6, make_basis(FLAT6, 1, cfg), cfg).entries.dtype == np.float64
        for state in solve_states(FLAT6, make_basis(FLAT6, 1, cfg), cfg):
            assert state.coefficients.dtype == np.float64

    def test_batch_validates_branches(self):
        with pytest.raises(ValueError):
            branch_spectra(FLAT6, [], 2)
        with pytest.raises(ValueError):
            branch_spectra(FLAT6, [(1, True), (6, True)], 2)

    def test_under_resolved_grid_fails_hermiticity(self):
        # 32 -> 64 points per winding cannot resolve harmonics up to
        # 2*n_max = 32 to 1e-9; nothing symmetrises the gathered matrix,
        # so the drift reaches the check
        quad = QuadratureSpec(initial_points=32, tolerance=1e6, max_doublings=1)
        cfg = SpectrumConfig(n_max=16, quad=quad)
        with pytest.raises(HermiticityViolation):
            build_hamiltonian(FLAT6, make_basis(FLAT6, 1, cfg), cfg)


class TestReferenceConfiguration:
    def test_energies_match_benchmark(self):
        for include_vc, bench in ((False, BENCH_ENERGY_OFF), (True, BENCH_ENERGY_ON)):
            cfg = SpectrumConfig(include_vc=include_vc, n_max=2)
            states = solve_states(FLAT6, make_basis(FLAT6, 1.0, cfg), cfg)
            assert_allclose([s.energy for s in states], bench, atol=5e-3)

    def test_amplitudes_match_benchmark(self):
        for include_vc, bench in ((False, BENCH_AMP_OFF), (True, BENCH_AMP_ON)):
            cfg = SpectrumConfig(include_vc=include_vc, n_max=2)
            states = solve_states(FLAT6, make_basis(FLAT6, 1.0, cfg), cfg)
            mat = np.column_stack([s.coefficients for s in states])
            assert np.max(np.abs(mat.imag)) < 1e-12
            assert_columns_match_up_to_sign(mat.real, bench, atol=5e-3)

    def test_ground_state_central_amplitude(self):
        cfg = SpectrumConfig(include_vc=True, n_max=2)
        ground = solve_states(FLAT6, make_basis(FLAT6, 1.0, cfg), cfg)[0]
        assert abs(ground.coefficients[2]) == pytest.approx(0.8927, abs=5e-3)

    def test_frozen_regression(self):
        for include_vc, ref_e, ref_amp in (
            (False, REF_ENERGY_OFF, REF_AMP_OFF),
            (True, REF_ENERGY_ON, REF_AMP_ON),
        ):
            cfg = SpectrumConfig(include_vc=include_vc, n_max=2)
            states = solve_states(FLAT6, make_basis(FLAT6, 1.0, cfg), cfg)
            assert_allclose([s.energy for s in states], ref_e, atol=1e-6)
            mat = np.column_stack([s.coefficients for s in states])
            assert_columns_match_up_to_sign(mat.real, ref_amp, atol=1e-6)


class TestPhysicalBehaviour:
    def test_bend_potential_is_attractive(self):
        for shape, p in [
            (FLAT6, 1.0),
            (HelixShape(R=1.0, a=0.25, b=0.75, omega=4), 2.0),
            (HelixShape(R=1.0, a=0.75, b=0.25, omega=8), 1.0),
        ]:
            off = solve_states(shape, make_basis(shape, p, SpectrumConfig(include_vc=False)),
                               SpectrumConfig(include_vc=False))
            on = solve_states(shape, make_basis(shape, p, SpectrumConfig(include_vc=True)),
                              SpectrumConfig(include_vc=True))
            for s_on, s_off in zip(on, off):
                assert s_on.energy <= s_off.energy + 1e-9
            assert on[0].energy < off[0].energy - 1e-3

    def test_variational_monotonicity(self):
        # enlarging the basis can only lower the ground state
        energies = []
        for n_max in (2, 3, 4):
            cfg = SpectrumConfig(include_vc=True, n_max=n_max)
            energies.append(solve_states(FLAT6, make_basis(FLAT6, 1.0, cfg), cfg)[0].energy)
        assert energies[1] <= energies[0] + 1e-12
        assert energies[2] <= energies[1] + 1e-12

    def test_truncation_interlacing(self):
        # the n_max=2 matrix is the central principal submatrix of the
        # n_max=3 matrix, so Cauchy interlacing bounds every level:
        # lam_k(big) <= lam_k(small) <= lam_{k+2}(big)
        cfg_small = SpectrumConfig(include_vc=True, n_max=2)
        cfg_big = SpectrumConfig(include_vc=True, n_max=3)
        h_small = build_hamiltonian(FLAT6, make_basis(FLAT6, 1.0, cfg_small), cfg_small).entries
        h_big = build_hamiltonian(FLAT6, make_basis(FLAT6, 1.0, cfg_big), cfg_big).entries
        assert_allclose(h_big[1:6, 1:6], h_small, atol=1e-10)
        small = [s.energy for s in solve_states(FLAT6, make_basis(FLAT6, 1.0, cfg_small), cfg_small)]
        big = [s.energy for s in solve_states(FLAT6, make_basis(FLAT6, 1.0, cfg_big), cfg_big)]
        for k in range(5):
            assert big[k] <= small[k] + 1e-10
            assert small[k] <= big[k + 2] + 1e-10

    @pytest.mark.parametrize(
        "a, b, omega, p", [(0.75, 0.25, 6, 1), (0.25, 0.75, 4, 1), (0.9, 0.1, 40, 3)]
    )
    def test_mirror_gap_shrinks_with_basis(self, a, b, omega, p):
        # time reversal maps branch p onto omega - p, so their levels agree
        # untruncated; the gap left by truncation must fall as the basis grows
        shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
        gaps = []
        for n_max in (2, 4, 8):
            cfg = SpectrumConfig(include_vc=True, n_max=n_max)
            levels = [
                [s.energy for s in solve_states(shape, BlochBasis(q, n_max, omega), cfg)[:3]]
                for q in (p, omega - p)
            ]
            gaps.append(max(abs(x - y) for x, y in zip(*levels)))
        assert gaps[0] > gaps[1] > gaps[2]


class TestSolveStates:
    def test_state_invariants(self):
        cfg = SpectrumConfig(include_vc=True, n_max=2)
        basis = make_basis(FLAT6, 1.0, cfg)
        states = solve_states(FLAT6, basis, cfg)
        assert len(states) == 5
        energies = [s.energy for s in states]
        assert energies == sorted(energies)
        for alpha, state in enumerate(states):
            assert isinstance(state, EigenState)
            assert state.alpha == alpha
            assert state.p == pytest.approx(1.0)
            assert state.include_vc is True
            assert state.n_max == 2
            assert list(state.n_indices) == [-2, -1, 0, 1, 2]
            assert np.linalg.norm(state.coefficients) == pytest.approx(1.0, abs=1e-12)
            lead = state.coefficients[np.argmax(np.abs(state.coefficients))]
            assert lead.real > 0
            assert abs(lead.imag) < 1e-12

    def test_determinism(self):
        cfg = SpectrumConfig(include_vc=True, n_max=2)
        basis = make_basis(FLAT6, 1.0, cfg)
        s1 = solve_states(FLAT6, basis, cfg)
        s2 = solve_states(FLAT6, basis, cfg)
        for a, b in zip(s1, s2):
            assert a.energy == b.energy
            assert np.array_equal(a.coefficients, b.coefficients)
