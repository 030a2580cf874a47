"""Geometry checks: closed forms against finite differences, vector
identities, and an independently coded circular-cross-section path."""

import math
from decimal import Decimal

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helixtm import geometry
from helixtm.geometry import (
    KAPPA_MIN,
    DegenerateFrame,
    HelixShape,
    InvalidTubePoint,
    TubePoint,
    arc_length,
    curvature,
    curvature_potential,
    curve_derivatives,
    frenet_frame,
    metric_at,
    position,
    speed,
    velocity,
)
from helixtm.observables import branch_moments, classical_moment_numeric

from oracles import (
    curvature_components,
    frenet_frame_reference,
    hamiltonian_rows,
    hamiltonian_rows_reference,
    separate_speed_terms,
)

CIRCULAR = HelixShape(R=1.0, a=0.5, b=0.5, omega=4)
UPRIGHT = HelixShape(R=1.0, a=0.25, b=0.75, omega=4)
FLAT = HelixShape(R=1.0, a=0.75, b=0.25, omega=4)
SIXTURN = HelixShape(R=1.0, a=0.75, b=0.25, omega=6)

# (R, a, b, omega, L): the arc length to 50 digits, from the closed form of
# ``arc_length`` in mpmath's E, K and Pi at 70 digits, which a tanh-sinh
# quadrature of f split at theta = pi matched to 1e-50.  The special shapes
# (a flat coil near rho = 1, the double root of D, alpha = 0, a tall coil
# and omega = 1) come first, then 12 draws (seed 4721) with R in (0.5, 3),
# a/R in (0.01, 0.999), b/R = 10^(-6..2) and omega in 1..60.
ARC_LENGTH_REFERENCE = [
    (1.0, 0.75, 0.25, 6, "21.409923362294252459852990559423666445624414037380"),
    (1.0, 0.99, 0.01, 6, "25.439755397138087589381834731001346156658339813506"),
    (1.0, 0.999, 0.001, 6, "25.651416432091443879461945458165721866815439452984"),
    (1.0, 0.999999, 1e-06, 40, "160.43816403319736937253941965277086961706641573257"),
    (1.0, 0.50645, 0.49355, 4, "14.194692744302730871651606389087662387161682681091"),
    (1.0, 0.5, 0.4330127018922193, 2, "8.7377525709848046370403765981872020204722202044167"),
    (1.0, 0.5, 300.0, 4, "4800.0618471487887639454718355078379958799665130857"),
    (1.0, 0.9, 0.1, 1, "7.6701397597671038908834766500489644694584250074208"),
    (1.0, 0.5, 0.5, 1, "7.1036982471962684922036020612387259184748110302844"),
    (1.6354894230417714, 0.6567152183778838, 0.7612472506767749, 29,
     "129.80083577971645028916336465729863796729282137232"),
    (1.9868979597047227, 0.23251259403792318, 1.6522145654554397, 3,
     "24.523418316251314398522764035530242268132071756542"),
    (2.2086822043618404, 0.6888690641846921, 0.40108993905822904, 35,
     "122.80390050262031767661050258222609376874321245779"),
    (1.6249466391950214, 0.9821645825134216, 0.0009907946936677792, 7,
     "30.317866559831807723425894250432098252903827509082"),
    (1.5248765295962254, 0.1001788160980532, 5.2059940465358026e-05, 32,
     "16.586819287433463890153787853140270914868170525432"),
    (2.802396824376663, 1.3529385539656091, 0.03171467678206138, 2,
     "21.338430895621156285845353755032218608167560269358"),
    (2.222618184057019, 0.757496432589325, 0.3423449856050718, 57,
     "204.57820804972118028907626903625317052273713064790"),
    (2.381962048581035, 1.6054983586969636, 1.6053546286164447e-05, 15,
     "98.685638661882707335329320413911221135265476665618"),
    (1.259098732873312, 0.891768211783968, 0.1044158538934712, 32,
     "117.04888805082525172720488504258881046436109379252"),
    (1.8879193456170076, 1.5894919882574075, 12.717562238084376, 37,
     "1926.0704587078191835890083627664946630195862548789"),
    (0.9216476233579014, 0.8852244926384973, 1.027580176232593, 55,
     "331.04007433634570912097585273276343194305641209081"),
    (1.2963562089609626, 0.8231302362939654, 1.6106782031696267, 26,
     "204.23607687032181663347299116571653088614995816577"),
]


def random_shapes(rng, count):
    shapes = []
    for _ in range(count):
        R = rng.uniform(0.5, 3.0)
        shapes.append(
            HelixShape(
                R=R,
                a=rng.uniform(0.05, 0.8) * R,
                b=rng.uniform(0.05, 2.0),
                omega=int(rng.integers(1, 9)),
            )
        )
    return shapes


# Independent re-implementation of the circular-cross-section closed forms,
# used as the reduction oracle for the general (elliptic) code path.

def circular_reference(shape, phi):
    assert shape.a == shape.b
    a, w = shape.a, shape.omega
    s, c = np.sin(w * phi), np.cos(w * phi)
    W = shape.R + a * c
    f = math.sqrt(a * a * w * w + W * W)
    rho = np.array([math.cos(phi), math.sin(phi), 0.0])
    az = np.array([-math.sin(phi), math.cos(phi), 0.0])
    k = np.array([0.0, 0.0, 1.0])
    theta = -s * rho + c * k
    n_hat = c * rho + s * k
    e2 = (W * theta - a * w * az) / f
    tangent = (a * w * theta + W * az) / f
    p1 = -(a * w * w + W * c) / f**2
    p2 = (s / f) * (1.0 + (a * w / f) ** 2)
    kappa = math.hypot(p1, p2)
    normal = (p2 * e2 + p1 * n_hat) / kappa
    binormal = (-p1 * e2 + p2 * n_hat) / kappa
    return f, p1, p2, kappa, tangent, normal, binormal


class TestShapeValidation:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            HelixShape(R=0.0, a=0.5, b=0.5, omega=4)
        with pytest.raises(ValueError):
            HelixShape(R=1.0, a=-0.1, b=0.5, omega=4)
        with pytest.raises(ValueError):
            HelixShape(R=1.0, a=0.5, b=0.0, omega=4)

    def test_rejects_bad_winding_count(self):
        with pytest.raises(ValueError):
            HelixShape(R=1.0, a=0.5, b=0.5, omega=0)
        with pytest.raises(ValueError):
            HelixShape(R=1.0, a=0.5, b=0.5, omega=2.5)

    def test_rejects_winding_reaching_axis(self):
        with pytest.raises(ValueError):
            HelixShape(R=1.0, a=1.0, b=0.5, omega=4)
        with pytest.raises(ValueError):
            HelixShape(R=1.0, a=1.5, b=0.5, omega=4)

    def test_rejects_non_finite_lengths(self):
        for bad in (math.inf, math.nan):
            for kwargs in ({"R": bad}, {"a": bad}, {"b": bad}):
                params = {"R": 1.0, "a": 0.5, "b": 0.5, "omega": 4, **kwargs}
                with pytest.raises(ValueError, match="finite"):
                    HelixShape(**params)

    @pytest.mark.parametrize("name", ["R", "a", "b"])
    @pytest.mark.parametrize("bad", ["1", None, True, 0.5j])
    def test_rejects_lengths_that_are_not_real_numbers(self, name, bad):
        # a ValueError like the other bad input, not a TypeError from
        # math.isfinite; True is not taken as 1
        params = {"R": 2.0, "a": 0.5, "b": 0.5, "omega": 4, name: bad}
        with pytest.raises(ValueError, match=f"real numbers, got {name}="):
            HelixShape(**params)

    @pytest.mark.parametrize("R, a, b", [(2, 1, 1), (np.float32(2.0), np.float64(0.5), np.int64(3))])
    def test_numpy_and_integer_lengths(self, R, a, b):
        assert HelixShape(R=R, a=a, b=b, omega=4).b == b

    @pytest.mark.parametrize("given, python", [
        ((np.float32(1), np.float32(0.75), np.float32(0.3), 1),
         (1.0, float(np.float32(0.75)), float(np.float32(0.3)), 1)),
        # omega**3 wraps in int8
        ((1.0, 0.75, 0.3, np.int8(100)), (1.0, 0.75, 0.3, 100)),
    ])
    def test_numpy_numbers_are_stored_as_python_numbers(self, given, python):
        shape, want = HelixShape(*given), HelixShape(*python)
        assert [type(x) for x in (shape.R, shape.a, shape.b, shape.omega)] == [float] * 3 + [int]
        pairs = [(p, vc) for p in sorted({0, want.omega // 2}) for vc in (False, True)]
        got_dec, got = branch_moments(shape, pairs, 4)
        want_dec, vectors = branch_moments(want, pairs, 4)
        assert np.array_equal(got, vectors)
        assert np.array_equal(got_dec.eigenvectors, want_dec.eigenvectors)
        assert np.array_equal(classical_moment_numeric(shape, 0.5),
                              classical_moment_numeric(want, 0.5))
        phi = np.linspace(0.1, 6.0, 9)
        for x, y in zip(vars(frenet_frame(shape, phi)).values(),
                        vars(frenet_frame(want, phi)).values()):
            assert np.array_equal(x, y)


class TestPosition:
    def test_circular_at_zero(self):
        assert_allclose(position(CIRCULAR, 0.0), [1.5, 0.0, 0.0], atol=1e-15)

    def test_upright_at_eighth_turn(self):
        # omega*phi = pi/2 kills the cosine: W = 1, z = 0.75
        got = position(UPRIGHT, math.pi / 8)
        want = [math.cos(math.pi / 8), math.sin(math.pi / 8), 0.75]
        assert_allclose(got, want, atol=1e-15)

    def test_six_turn_point(self):
        # direct evaluation of the defining parametrisation at phi = 0.3
        phi = 0.3
        W = 1.0 + 0.75 * math.cos(6 * phi)
        want = [W * math.cos(phi), W * math.sin(phi), 0.25 * math.sin(6 * phi)]
        assert_allclose(position(SIXTURN, phi), want, rtol=1e-15)

    def test_full_turn_periodicity(self):
        rng = np.random.default_rng(11)
        phi = rng.uniform(0, 2 * math.pi, 50)
        for shape in random_shapes(rng, 5):
            assert_allclose(position(shape, phi + 2 * math.pi), position(shape, phi), atol=1e-12)

    def test_velocity_matches_position_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for shape in random_shapes(rng, 5):
            phi = rng.uniform(0, 2 * math.pi, 20)
            fd = (position(shape, phi + h) - position(shape, phi - h)) / (2 * h)
            assert_allclose(velocity(shape, phi), fd, rtol=1e-7, atol=1e-7)

    def test_velocity_is_first_curve_derivative(self):
        # the Cartesian closed form, with W = R + a cos(omega phi) and
        # W' = -a omega sin(omega phi)
        rng = np.random.default_rng(14)
        for shape in random_shapes(rng, 5) + [HelixShape(R=1.0, a=0.12, b=0.88, omega=40)]:
            phi = rng.uniform(-2 * math.pi, 4 * math.pi, 200)
            R, a, b, w = shape.R, shape.a, shape.b, shape.omega
            W = R + a * np.cos(w * phi)
            dW = -a * w * np.sin(w * phi)
            want = np.stack([dW * np.cos(phi) - W * np.sin(phi),
                             dW * np.sin(phi) + W * np.cos(phi),
                             b * w * np.cos(w * phi)], axis=-1)
            assert np.max(np.abs(velocity(shape, phi) - want)) <= 1e-15 * np.max(np.abs(want))
        assert velocity(SIXTURN, 0.3).shape == (3,)

    def test_higher_curve_derivatives_match_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for shape in random_shapes(rng, 3):
            phi = rng.uniform(0, 2 * math.pi, 10)
            r1, r2, r3 = curve_derivatives(shape, phi)
            fd2 = (velocity(shape, phi + h) - velocity(shape, phi - h)) / (2 * h)
            fd3 = (curve_derivatives(shape, phi + h)[1] - curve_derivatives(shape, phi - h)[1]) / (2 * h)
            assert_allclose(r2, fd2, rtol=1e-6, atol=1e-6)
            assert_allclose(r3, fd3, rtol=1e-6, atol=1e-6)


class TestSpeed:
    def test_circular_at_zero(self):
        assert speed(CIRCULAR, 0.0) == pytest.approx(2.5, abs=1e-15)

    def test_circular_formula_anywhere(self):
        phi = np.linspace(0, 2 * math.pi, 97)
        a, w = CIRCULAR.a, CIRCULAR.omega
        W = CIRCULAR.R + a * np.cos(w * phi)
        assert_allclose(speed(CIRCULAR, phi), np.sqrt(a * a * w * w + W * W), atol=1e-14)

    def test_upright_at_eighth_turn(self):
        assert speed(UPRIGHT, math.pi / 8) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_derivatives_against_finite_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-5
        for shape in random_shapes(rng, 8):
            phi = rng.uniform(0, 2 * math.pi, 25)
            _, f1, f2, _ = separate_speed_terms(shape, phi)
            fd1 = (speed(shape, phi + h) - speed(shape, phi - h)) / (2 * h)
            fd2 = (speed(shape, phi + h) - 2 * speed(shape, phi) + speed(shape, phi - h)) / h**2
            assert_allclose(f1, fd1, rtol=1e-6, atol=1e-8)
            assert_allclose(f2, fd2, rtol=1e-4, atol=1e-4)

    def test_circular_first_derivative_closed_form(self):
        phi = np.linspace(0.1, 2 * math.pi, 40)
        a, w = CIRCULAR.a, CIRCULAR.omega
        W = CIRCULAR.R + a * np.cos(w * phi)
        f = speed(CIRCULAR, phi)
        want = -a * w * W * np.sin(w * phi) / f
        assert_allclose(separate_speed_terms(CIRCULAR, phi)[1], want, atol=1e-13)
        assert separate_speed_terms(CIRCULAR, 0.0)[1] == pytest.approx(0.0, abs=1e-15)

    def test_winding_periodicity(self):
        rng = np.random.default_rng(22)
        for shape in random_shapes(rng, 6):
            phi = rng.uniform(0, 2 * math.pi, 20)
            step = 2 * math.pi / shape.omega
            assert_allclose(speed(shape, phi + step), speed(shape, phi), rtol=1e-12)
            for got, want in zip(separate_speed_terms(shape, phi + step)[1:3],
                                 separate_speed_terms(shape, phi)[1:3]):
                assert_allclose(got, want, rtol=1e-9, atol=1e-12)


# the shapes the rational rows were first checked at: (a, b, omega) at R = 1
ROW_SHAPES = [(0.75, 0.25, 6), (0.5, 0.5, 4), (0.99, 0.01, 40), (0.999, 0.001, 6), (0.1, 0.9, 1)]


def assert_rows_close(got, want, label="", tol=1e-13):
    """Every row within ``tol`` of its largest magnitude."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    assert got.shape == want.shape, label
    for g_row, w_row in zip(got, want):
        assert np.max(np.abs(g_row - w_row)) <= tol * np.max(np.abs(w_row)), label


class TestWindingRows:
    """The rational rows of a pass over the winding against the old formulas."""

    def shapes(self):
        rng = np.random.default_rng(16)
        shapes = [HelixShape(R=1.0, a=a, b=b, omega=w) for a, b, w in ROW_SHAPES]
        return shapes + random_shapes(rng, 12)

    def test_hamiltonian_reference_rows_match_the_old_formulas(self):
        # the rational A0, B and V_c that the closed-form harmonics are checked against
        rng = np.random.default_rng(7)
        for shape in self.shapes():
            theta = 2 * math.pi * np.arange(512) / 512
            for phi in (theta / shape.omega, rng.uniform(-10.0, 10.0, 301)):
                got = hamiltonian_rows(shape, shape.omega * phi)
                want = hamiltonian_rows_reference(shape, phi)
                for row, (g, w) in enumerate(zip(got, want)):
                    assert_rows_close(g, w, f"{shape}, row {row}")
            # V_c is the production potential, bit for bit at the same winding angle
            assert np.array_equal(hamiltonian_rows(shape, shape.omega * phi)[2],
                                  curvature_potential(shape, phi))

    def test_potential_matches_the_old_formula(self):
        rng = np.random.default_rng(8)
        for shape in self.shapes():
            phi = rng.uniform(-10.0, 10.0, 301)
            want_vc = separate_speed_terms(shape, phi)[3]
            assert_rows_close(curvature_potential(shape, phi), want_vc)

    def test_flat_limit_is_the_planar_polar_curve(self):
        # b = 1e-300 squares to 0: f and V_c are those of the planar curve
        # W(theta) in the plane, with no division by the vertical half-axis.
        # At theta = 0, W = 1.5, W' = 0 and W'' = -a omega^2 = -8, so
        # kappa = (W^2 + 2 W'^2 - W W'')/(W^2 + W'^2)^(3/2) = 14.25/3.375
        shape = HelixShape(R=1.0, a=0.5, b=1e-300, omega=4)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            f = speed(shape, 0.0)
            assert curvature_potential(shape, 0.0) == pytest.approx(-(14.25 / 3.375) ** 2 / 8,
                                                                     rel=1e-15)
        # g_z = -2 r^2 z' with z' = b omega: the numerator's coefficients at c = 1
        ((axis, odd, coefficients),) = geometry._moment_numerators(shape, 1.0)
        assert f == 1.5 and axis == 2 and not odd and sum(coefficients) == pytest.approx(-2 * 1.5**2 * 4e-300)


class TestCurvature:
    def test_circular_at_zero(self):
        k_n, k_e = curvature_components(CIRCULAR, 0.0)
        assert k_n == pytest.approx(-1.52, abs=1e-14)
        assert k_e == pytest.approx(0.0, abs=1e-15)
        assert curvature(CIRCULAR, 0.0) == pytest.approx(1.52, abs=1e-14)

    def test_near_circle_limit(self):
        tiny = HelixShape(R=1.0, a=1e-8, b=1e-8, omega=4)
        phi = np.linspace(0, 2 * math.pi, 17)
        assert_allclose(curvature(tiny, phi), 1.0, atol=1e-6)

    def test_vector_oracle_analytic_derivatives(self):
        # kappa = |r' x r''| / |r'|^3 with the analytic curve derivatives
        rng = np.random.default_rng(31)
        for shape in random_shapes(rng, 8):
            phi = rng.uniform(0, 2 * math.pi, 30)
            r1, r2, _ = curve_derivatives(shape, phi)
            cross = np.cross(r1, r2)
            want = np.linalg.norm(cross, axis=-1) / np.linalg.norm(r1, axis=-1) ** 3
            assert_allclose(curvature(shape, phi), want, rtol=1e-12)

    def test_vector_oracle_finite_differences(self):
        h = 1e-4
        phi = np.linspace(0.05, 2 * math.pi, 25)
        for shape in (CIRCULAR, UPRIGHT, FLAT, SIXTURN):
            r1 = (position(shape, phi + h) - position(shape, phi - h)) / (2 * h)
            r2 = (position(shape, phi + h) - 2 * position(shape, phi) + position(shape, phi - h)) / h**2
            want = np.linalg.norm(np.cross(r1, r2), axis=-1) / np.linalg.norm(r1, axis=-1) ** 3
            assert_allclose(curvature(shape, phi), want, rtol=1e-6)


class TestTorsion:
    def test_near_circle_is_planar(self):
        tiny = HelixShape(R=1.0, a=1e-8, b=1e-8, omega=4)
        phi = np.linspace(0, 2 * math.pi, 17)
        assert np.max(np.abs(frenet_frame(tiny, phi).tau)) < 1e-6

    def test_degenerate_frame_raises(self):
        # a(omega^2 + 1) = R makes the winding curvature cancel the ring
        # curvature exactly at omega*phi = pi.
        degenerate = HelixShape(R=1.0, a=0.1, b=0.1, omega=3)
        assert curvature(degenerate, math.pi / 3) <= KAPPA_MIN
        with pytest.raises(DegenerateFrame):
            frenet_frame(degenerate, math.pi / 3)
        with pytest.raises(DegenerateFrame):
            frenet_frame(degenerate, np.array([0.1, math.pi / 3]))
        # away from the degenerate angle the same shape is fine
        assert np.isfinite(frenet_frame(degenerate, 0.3).tau)

    def test_degenerate_frame_reports_the_frame(self):
        # the message names the curvature and the frame
        degenerate = HelixShape(R=1.0, a=0.1, b=0.1, omega=3)
        with pytest.raises(DegenerateFrame, match=r"<= KAPPA_MIN, frame undefined$"):
            frenet_frame(degenerate, np.array([0.1, math.pi / 3]))


class TestFrenetFrame:
    def test_orthonormal_right_handed_everywhere(self):
        rng = np.random.default_rng(41)
        for shape in random_shapes(rng, 10):
            phi = rng.uniform(0, 2 * math.pi, 100)
            fr = frenet_frame(shape, phi)
            for v in (fr.tangent, fr.normal, fr.binormal):
                assert_allclose(np.sum(v * v, axis=-1), 1.0, atol=1e-12)
            assert np.max(np.abs(np.sum(fr.tangent * fr.normal, axis=-1))) < 1e-12
            assert np.max(np.abs(np.sum(fr.tangent * fr.binormal, axis=-1))) < 1e-12
            assert np.max(np.abs(np.sum(fr.normal * fr.binormal, axis=-1))) < 1e-12
            assert_allclose(np.cross(fr.tangent, fr.normal), fr.binormal, atol=1e-12)
            assert np.all(fr.kappa >= 0)

    def test_tangent_is_normalized_velocity(self):
        rng = np.random.default_rng(42)
        for shape in random_shapes(rng, 6):
            phi = rng.uniform(0, 2 * math.pi, 40)
            fr = frenet_frame(shape, phi)
            v = velocity(shape, phi)
            assert_allclose(fr.tangent, v / np.linalg.norm(v, axis=-1, keepdims=True), atol=1e-13)
            assert_allclose(fr.speed, np.linalg.norm(v, axis=-1), rtol=1e-13)

    def test_tangent_matches_position_differences(self):
        h = 1e-6
        fd = (position(UPRIGHT, 0.7 + h) - position(UPRIGHT, 0.7 - h)) / (2 * h)
        fd /= np.linalg.norm(fd)
        assert_allclose(frenet_frame(UPRIGHT, 0.7).tangent, fd, atol=1e-9)

    def test_circular_reduction(self):
        rng = np.random.default_rng(43)
        for R, a, w in [(1.0, 0.5, 4), (1.0, 0.25, 6), (2.0, 0.9, 3), (1.0, 0.75, 1)]:
            shape = HelixShape(R=R, a=a, b=a, omega=w)
            for phi in rng.uniform(0.02, 2 * math.pi, 25):
                f, p1, p2, kappa, tangent, normal, binormal = circular_reference(shape, phi)
                fr = frenet_frame(shape, phi)
                assert fr.speed == pytest.approx(f, rel=1e-12)
                k_n, k_e = curvature_components(shape, phi)
                assert k_n == pytest.approx(p1, rel=1e-12, abs=1e-13)
                assert k_e == pytest.approx(p2, rel=1e-12, abs=1e-13)
                assert fr.kappa == pytest.approx(kappa, rel=1e-12)
                assert_allclose(fr.tangent, tangent, atol=1e-12)
                assert_allclose(fr.normal, normal, atol=1e-12)
                assert_allclose(fr.binormal, binormal, atol=1e-12)

    def test_frame_transport_equations(self):
        # dT/dphi = f*kappa*N, dN/dphi = f*(-kappa*T + tau*B), dB/dphi = -f*tau*N
        rng = np.random.default_rng(44)
        h = 1e-6
        for shape in (CIRCULAR, UPRIGHT, FLAT, SIXTURN):
            for phi in rng.uniform(0, 2 * math.pi, 25):
                fr = frenet_frame(shape, phi)
                plus = frenet_frame(shape, phi + h)
                minus = frenet_frame(shape, phi - h)
                dT = (plus.tangent - minus.tangent) / (2 * h)
                dN = (plus.normal - minus.normal) / (2 * h)
                dB = (plus.binormal - minus.binormal) / (2 * h)
                f, k, t = fr.speed, fr.kappa, fr.tau
                assert_allclose(dT, f * k * fr.normal, atol=1e-6)
                assert_allclose(dN, f * (-k * fr.tangent + t * fr.binormal), atol=1e-6)
                assert_allclose(dB, -f * t * fr.normal, atol=1e-6)


# the cross-sections of the golden grid tables, and the flattest coil
FRAME_SECTIONS = [(0.75, 0.25), (0.5, 0.5), (0.1, 0.9), (0.99, 0.01)]


class TestFrameAgainstReference:
    """The frame from one jet against the cross-section construction."""

    def test_matches_the_cross_section_frame(self):
        shapes = [HelixShape(R=1.0, a=a, b=b, omega=w)
                  for w in (1, 4, 6, 40) for a, b in FRAME_SECTIONS]
        shapes += random_shapes(np.random.default_rng(45), 12)
        phi = 2 * math.pi * np.arange(257) / 257
        for shape in shapes:
            fr = frenet_frame(shape, phi)
            tangent, normal, binormal, kappa, tau = frenet_frame_reference(shape, phi)
            for got, want in ((fr.tangent, tangent), (fr.normal, normal), (fr.binormal, binormal)):
                assert np.max(np.abs(got - want)) <= 1e-13, shape
            assert np.max(np.abs(fr.kappa - kappa) / kappa) <= 1e-13, shape
            assert np.max(np.abs(fr.tau - tau)) <= 1e-13 * np.max(np.abs(tau)), shape
            assert np.array_equal(fr.speed, speed(shape, phi))

    def test_one_jet_per_call(self, monkeypatch):
        calls = []

        jet = geometry._jet

        def counted(shape, phi):
            calls.append(phi)
            return jet(shape, phi)

        monkeypatch.setattr(geometry, "_jet", counted)
        for fn in (curvature, frenet_frame):
            calls.clear()
            fn(SIXTURN, np.linspace(0.0, 1.0, 5))
            assert len(calls) == 1, fn.__name__
        calls.clear()
        metric_at(SIXTURN, TubePoint(phi=0.3, q_n=0.1, q_b=0.2))
        assert len(calls) == 1


class TestLengthScale:
    """A shape in another length unit: lengths scale, directions do not."""

    @pytest.mark.parametrize("lam", [1e-3, 1e6, 1e13, 1e100])
    def test_frame_scales_with_the_length_unit(self, lam):
        phi = 2 * math.pi * np.arange(257) / 257
        unit = HelixShape(R=1.0, a=0.5, b=0.5, omega=4)
        scaled = HelixShape(R=lam, a=0.5 * lam, b=0.5 * lam, omega=4)
        want, got = frenet_frame(unit, phi), frenet_frame(scaled, phi)
        assert_rows_close((position(scaled, phi) / lam).T, position(unit, phi).T)
        assert_allclose(got.speed / lam, want.speed, rtol=1e-14)
        assert_allclose(got.kappa * lam, want.kappa, rtol=1e-14)
        assert np.max(np.abs(got.tau * lam - want.tau)) <= 1e-14 * np.max(np.abs(want.tau))
        for g, w in ((got.tangent, want.tangent), (got.normal, want.normal),
                     (got.binormal, want.binormal)):
            assert_rows_close(g.T, w.T)
        m = metric_at(scaled, TubePoint(phi=0.3, q_n=0.1 * lam, q_b=0.2 * lam))
        assert m.sqrt_det / lam == pytest.approx(
            metric_at(unit, TubePoint(phi=0.3, q_n=0.1, q_b=0.2)).sqrt_det, rel=1e-13)

    @pytest.mark.parametrize("lam", [1e-3, 1e6, 1e13, 1e100])
    def test_degenerate_frame_at_every_length_unit(self, lam):
        # a (omega^2 + 1) = R at omega 1: kappa*R vanishes at phi = pi
        degenerate = HelixShape(R=lam, a=0.5 * lam, b=0.5 * lam, omega=1)
        with pytest.raises(DegenerateFrame, match=r"<= KAPPA_MIN, frame undefined$"):
            frenet_frame(degenerate, np.array([0.1, math.pi]))
        with pytest.raises(DegenerateFrame):
            metric_at(degenerate, TubePoint(phi=math.pi, q_n=0.0, q_b=0.0))


class TestCurvaturePotential:
    def test_circular_at_zero(self):
        assert curvature_potential(CIRCULAR, 0.0) == pytest.approx(-0.28880, abs=1e-5)

    def test_never_positive(self):
        rng = np.random.default_rng(51)
        for shape in random_shapes(rng, 10):
            assert np.all(curvature_potential(shape, rng.uniform(0, 2 * math.pi, 50)) <= 0)

    def test_winding_periodicity(self):
        phi = np.linspace(0, 2 * math.pi, 33)
        step = 2 * math.pi / UPRIGHT.omega
        assert_allclose(
            curvature_potential(UPRIGHT, phi + step), curvature_potential(UPRIGHT, phi), rtol=1e-12
        )

    def test_eccentric_dominates_circular(self):
        phi = np.linspace(0, 2 * math.pi, 257)
        circ = np.max(np.abs(curvature_potential(CIRCULAR, phi)))
        flat = np.max(np.abs(curvature_potential(FLAT, phi)))
        upright = np.max(np.abs(curvature_potential(UPRIGHT, phi)))
        assert flat > 5 * circ
        assert upright > circ
        # flattened loops (a > b) bind far more strongly than upright ones
        assert flat > upright


class TestMetric:
    def test_on_curve_diagonal(self):
        m = metric_at(UPRIGHT, TubePoint(phi=0.9, q_n=0.0, q_b=0.0))
        f = speed(UPRIGHT, 0.9)
        assert_allclose(m.covariant, np.diag([f * f, 1.0, 1.0]), atol=1e-13)
        assert m.sqrt_det == pytest.approx(float(f), rel=1e-13)

    def _random_points(self, rng, shape, count):
        pts = []
        while len(pts) < count:
            phi = rng.uniform(0, 2 * math.pi)
            kap = float(curvature(shape, phi))
            qn = rng.uniform(-0.9, 0.9) / kap
            pts.append(TubePoint(phi=phi, q_n=qn, q_b=rng.uniform(-0.5, 0.5)))
        return pts

    def test_inverse_and_determinant(self):
        rng = np.random.default_rng(61)
        for shape in (CIRCULAR, UPRIGHT, FLAT, SIXTURN):
            for pt in self._random_points(rng, shape, 25):
                m = metric_at(shape, pt)
                assert_allclose(m.covariant, m.covariant.T, atol=1e-14)
                assert_allclose(m.contravariant, m.contravariant.T, atol=1e-14)
                assert_allclose(m.contravariant @ m.covariant, np.eye(3), atol=1e-10)
                assert_allclose(m.contravariant, np.linalg.inv(m.covariant), atol=1e-10)
                assert np.linalg.det(m.covariant) == pytest.approx(m.sqrt_det**2, rel=1e-10)
                f = float(speed(shape, pt.phi))
                kap = float(curvature(shape, pt.phi))
                assert m.sqrt_det == pytest.approx(f * (1 - pt.q_n * kap), rel=1e-12)

    def test_quadratic_form_against_embedding(self):
        # dx.dx for a small tube-coordinate step matches g_ij dq^i dq^j
        def embed(shape, phi, qn, qb):
            fr = frenet_frame(shape, phi)
            return position(shape, phi) + qn * fr.normal + qb * fr.binormal

        rng = np.random.default_rng(62)
        for shape in (CIRCULAR, UPRIGHT, FLAT):
            for pt in self._random_points(rng, shape, 10):
                m = metric_at(shape, pt)
                dq = rng.uniform(-1, 1, 3) * 1e-4
                x1 = embed(shape, pt.phi + dq[0], pt.q_n + dq[1], pt.q_b + dq[2])
                x0 = embed(shape, pt.phi - dq[0], pt.q_n - dq[1], pt.q_b - dq[2])
                dx = (x1 - x0) / 2.0
                got = float(dx @ dx)
                want = float(dq @ m.covariant @ dq)
                assert got == pytest.approx(want, rel=1e-6)

    def test_invalid_offset_raises(self):
        kap = float(curvature(CIRCULAR, 0.0))  # 1.52
        with pytest.raises(InvalidTubePoint):
            metric_at(CIRCULAR, TubePoint(phi=0.0, q_n=1.0 / kap, q_b=0.0))
        with pytest.raises(InvalidTubePoint):
            metric_at(CIRCULAR, TubePoint(phi=0.0, q_n=-1.1 / kap, q_b=0.0))
        # just inside is fine
        metric_at(CIRCULAR, TubePoint(phi=0.0, q_n=0.99 / kap, q_b=0.0))


class TestArcLength:
    def test_circle_limit(self):
        tiny = HelixShape(R=1.0, a=1e-10, b=1e-10, omega=4)
        assert arc_length(tiny) == pytest.approx(2 * math.pi, abs=1e-8)

    def test_against_simpson_oracle(self):
        n = 1_000_000
        phi = np.linspace(0.0, 2 * math.pi, n + 1)
        vals = speed(UPRIGHT, phi)
        h = 2 * math.pi / n
        simpson = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
        assert arc_length(UPRIGHT) == pytest.approx(simpson, abs=1e-9)

    def test_axis_swap_changes_length(self):
        upright = arc_length(UPRIGHT)
        flat = arc_length(FLAT)
        assert upright == pytest.approx(14.937429, abs=1e-5)
        assert flat == pytest.approx(15.234675, abs=1e-5)
        assert abs(upright - flat) > 0.1

    def test_exceeds_plain_circle(self):
        rng = np.random.default_rng(71)
        for shape in random_shapes(rng, 6):
            assert arc_length(shape) > 2 * math.pi * shape.R

    def test_flat_high_winding_coil_matches_a_dense_sum(self):
        coil = HelixShape(R=1.0, a=0.99, b=0.01, omega=40)
        n = 1 << 20
        dense = 2 * math.pi * np.mean(speed(coil, 2 * math.pi * np.arange(n) / n))
        assert arc_length(coil) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("R, a, b, omega, want", ARC_LENGTH_REFERENCE)
    def test_within_eight_ulp_of_the_reference(self, R, a, b, omega, want):
        got = arc_length(HelixShape(R=R, a=a, b=b, omega=omega))
        assert abs(Decimal(got) - Decimal(want)) <= 8 * Decimal(np.spacing(float(want)))

    def test_underflowing_modulus_raises(self):
        # at R = 1e-160 the constants of D underflow and kc^2 reads 0, where
        # Bulirsch's loop would never end; unit-radius shapes never get there
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            arc_length(HelixShape(R=1e-160, a=5e-161, b=1e-150, omega=4))

    @pytest.mark.parametrize("kc", [math.nan, math.inf])
    def test_cel_ends_on_values_that_are_not_finite(self, kc):
        # an overflowed constant, outside a command's error state, gives nan
        # rather than a loop that never ends
        assert math.isnan(geometry._cel(kc, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("kc, p, a, b, want", [
        # cel(1, 1, 1, 1) = pi/2; cel(kc, 1, 1, kc^2) = E(1 - kc^2) and
        # cel(kc, 1, 1, 1) = K(1 - kc^2) (mpmath's ellipe and ellipk)
        (1.0, 1.0, 1.0, 1.0, math.pi / 2),
        (0.6, 1.0, 1.0, 0.36, 1.2763499431699064),
        (3.0, 1.0, 1.0, 9.0, 3.3412233051388145),
        (0.6, 1.0, 1.0, 1.0, 1.9953027776647294),
    ])
    def test_cel_special_values(self, kc, p, a, b, want):
        assert geometry._cel(kc, p, a, b) == pytest.approx(want, rel=1e-15)
