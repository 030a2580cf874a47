"""The one-winding passes against full-turn references.

Hamiltonian assembly, toroidal moments and arc length work over one
winding, theta = omega*phi in [0, 2*pi), and take harmonic n - m in
place of omega*(n - m).  Each is checked here against an integral over the
whole turn that knows nothing of that reduction: element-by-element
quadrature, the moment integral of j(phi) * g(phi) on all three axes,
and a dense trapezoid sum of the speed for the closed-form arc length.
"""

import math

import numpy as np
import pytest

from helixtm import geometry
from helixtm.cli import main
from helixtm.geometry import HelixShape, arc_length, speed
from helixtm.observables import currents, moment_vectors
from helixtm.quadrature import QuadratureSpec
from helixtm.spectrum import (
    SpectrumConfig,
    _hamiltonian_stack,
    branch_spectra,
    make_basis,
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
    for (p, include_vc), h in zip(branches, _hamiltonian_stack(shape, branches, N_MAX)):
        scale = max(1.0, float(np.max(np.abs(h))))
        cfg = SpectrumConfig(include_vc=include_vc, n_max=N_MAX)
        quad = QuadratureSpec(tolerance=1e-10 * scale)
        basis = make_basis(shape, p, cfg)
        want = np.array([
            [hamiltonian_element(shape, basis, m, n, cfg, quad) for n in basis.indices]
            for m in basis.indices
        ])
        assert np.max(np.abs(h - want)) <= 1e-10 * scale


@pytest.mark.parametrize("a, b, omega", CASES)
def test_moments_match_full_turn_current_integral(a, b, omega):
    # The lowest, middle and highest branch, both V_c settings, and all
    # three components: at omega = 1 the in-plane ones are formed, above it
    # they are exact zeros and the reference must agree.  The reference
    # converges to 1e-13 and the moments take closed-form harmonics, so the
    # 1e-12 bound measures the reduction.
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    branches = [(p, vc) for p in sorted({0, omega // 2, omega - 1}) for vc in (False, True)]
    quad = QuadratureSpec(tolerance=1e-13)
    dec = branch_spectra(shape, branches, N_MAX)
    ps = [p for p, _ in branches]
    vectors = moment_vectors(shape, dec.eigenvectors, ps)
    for b in range(len(branches)):
        for alpha in range(2 * N_MAX + 1):
            stack = dec.eigenvectors[b:b + 1, :, alpha:alpha + 1]
            want = moment_from_current(
                shape, lambda phi: currents(shape, stack, ps[b:b + 1], phi)[0, 0], quad)
            assert np.max(np.abs(vectors[b, alpha] - want)) <= 1e-12
            if omega > 1:
                assert vectors[b, alpha, 0] == 0.0 and vectors[b, alpha, 1] == 0.0


@pytest.mark.parametrize("a, b, omega", CASES)
def test_arc_length_matches_dense_full_turn_sum(a, b, omega):
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    n = 1 << 18
    dense = 2 * math.pi * np.mean(speed(shape, 2 * math.pi * np.arange(n) / n))
    assert arc_length(shape) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("omega", [1, 4, 40])
def test_moments_command_samples_nothing_at_any_omega(monkeypatch, capsys, omega):
    # closed-form harmonics and arc length: D = f^2 is never sampled, so
    # nothing grows with omega (a full-turn grid would start at 64 * omega)
    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(geometry, "_d_form", refuse)
    monkeypatch.setattr(geometry, "speed", refuse)
    code = main(["moments", "--a", "0.9", "--b", "0.1", "--omega", str(omega), "--p", "0"])
    capsys.readouterr()
    assert code == 0
