"""The one-winding passes against full-turn references.

Hamiltonian assembly, toroidal moments and arc length sample the winding
angle theta = omega*phi over [0, 2*pi) and take harmonic n - m in place
of omega*(n - m).  Each is checked here against an integral over the
whole turn that knows nothing of that reduction: element-by-element
quadrature, the moment integral of j(phi) * g(phi) on all three axes,
and a dense trapezoid sum of the speed.
"""

import math

import numpy as np
import pytest

from helixtm import geometry
from helixtm.cli import main
from helixtm.geometry import HelixShape, arc_length, speed
from helixtm.observables import current, toroidal_moments
from helixtm.quadrature import QuadratureSpec
from helixtm.spectrum import (
    SpectrumConfig,
    build_hamiltonians,
    make_basis,
    solve_branches,
)
from oracles import hamiltonian_element, moment_from_current

CASES = [
    (a, b, omega)
    for a, b in [(0.75, 0.25), (0.5, 0.5), (0.1, 0.9), (0.9, 0.1), (0.99, 0.01)]
    for omega in (1, 2, 4, 6, 40)
]
N_MAX = 2


@pytest.mark.parametrize("a, b, omega", CASES)
def test_matrices_match_full_turn_elements(a, b, omega):
    # A_d, B_d and C_d do not depend on the branch, so the highest one
    # (the largest momenta) stands for all.  The reference converges each
    # element to an absolute tolerance, which rounding keeps out of reach
    # where |H| is large (the flat coil), so it gets the relative
    # tolerance the assembly works to.
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    branches = [(omega - 1, False), (omega - 1, True)]
    for (p, include_vc), h in zip(branches, build_hamiltonians(shape, branches, N_MAX)):
        scale = max(1.0, float(np.max(np.abs(h.entries))))
        cfg = SpectrumConfig(include_vc=include_vc, n_max=N_MAX,
                             quad=QuadratureSpec(tolerance=1e-10 * scale))
        basis = make_basis(shape, p, cfg)
        want = np.array([
            [hamiltonian_element(shape, basis, m, n, cfg) for n in basis.indices]
            for m in basis.indices
        ])
        assert np.max(np.abs(h.entries - want)) <= 1e-10 * scale


@pytest.mark.parametrize("a, b, omega", CASES)
def test_moments_match_full_turn_current_integral(a, b, omega):
    # The lowest, middle and highest branch, both V_c settings, and all
    # three components: at omega = 1 the in-plane ones are integrated,
    # above it they are exact zeros and the reference must agree.  Both
    # sides converge to 1e-13, so the 1e-12 bound measures the reduction
    # rather than where the default 1e-10 stopping rule happens to stop.
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    branches = [(p, vc) for p in sorted({0, omega // 2, omega - 1}) for vc in (False, True)]
    quad = QuadratureSpec(tolerance=1e-13)
    states = [s for branch in solve_branches(shape, branches, N_MAX) for s in branch]
    for state, res in zip(states, toroidal_moments(states, shape, quad)):
        want = moment_from_current(shape, lambda phi: current(state, shape, phi), quad)
        assert np.max(np.abs(res.vector - want)) <= 1e-12
        if omega > 1:
            assert res.vector[0] == 0.0 and res.vector[1] == 0.0


@pytest.mark.parametrize("a, b, omega", CASES)
def test_arc_length_matches_dense_full_turn_sum(a, b, omega):
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    n = 1 << 18
    dense = 2 * math.pi * np.mean(speed(shape, 2 * math.pi * np.arange(n) / n))
    assert arc_length(shape) == pytest.approx(dense, rel=1e-12)


def test_moments_command_grid_does_not_grow_with_omega(monkeypatch, capsys):
    # a full-turn grid would start at 64 * omega = 2560 angles
    sizes = []
    original = geometry.speed

    def recording(shape, phi):
        sizes.append(np.size(phi))
        return original(shape, phi)

    monkeypatch.setattr(geometry, "speed", recording)
    code = main(["moments", "--a", "0.9", "--b", "0.1", "--omega", "40", "--p", "1"])
    capsys.readouterr()
    assert code == 0
    assert 0 < max(sizes) < 64 * 40
