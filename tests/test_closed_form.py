"""The closed-form harmonics against the sampled passes they replaced.

``geometry.winding_harmonics`` gives A0_d, B_d and V_c_d from a two-term
recurrence in the roots of D = f^2 and its derivatives along D'' and
|r''|^2, with no sampling.  ``oracles.sampled_hamiltonians`` builds the
same matrices from a fixed fine trapezoid of the sampled rows
(``oracles.hamiltonian_rows``), the pass production used before.  ``geometry.moment_harmonics`` takes
the toroidal-moment weights' harmonics from the same harmonics of 1/D,
and ``oracles.sampled_moment_harmonics`` from a fixed fine trapezoid of
the sampled weights.  The shapes cover seeded draws and the cases the
recurrence could trip on: a double root of D, alpha = 0 (D linear in
cos theta), one winding, and the flat and the tall coils, whose roots
approach the unit circle (at theta = pi and at theta = +-pi/2).

A shape object keeps its longest ``winding_harmonics`` call
(``geometry._harmonics``), which the assembly and the moment pass read;
the store rests on a longer call keeping the first harmonics bit for bit
and on V_c leaving A0 and B as they are.
"""

import math
import pickle

import numpy as np
import pytest

from helixtm import cli, geometry
from helixtm.geometry import (
    HelixShape,
    _d_factor,
    _harmonics,
    _moment_reach,
    moment_harmonics,
    winding_harmonics,
)
from helixtm.observables import branch_moments, moment_vectors, toroidal_moment
from helixtm.spectrum import (
    SpectrumConfig,
    _hamiltonian_stack,
    branch_spectra,
    make_basis,
    solve_states,
)
from oracles import (
    list_of_rows_harmonics,
    sampled_hamiltonians,
    sampled_moment_harmonics,
    unscaled_moment_harmonics,
)

# points per winding of the reference trapezoid: the flattest shape here,
# (0.999, 0.001, 6), is 2.8e-11 of max |H| off its limit at 2^15 points
# and within rounding (2e-13) at 2^16
REFERENCE_POINTS = 1 << 16

SPECIAL_SHAPES = [
    pytest.param(0.50645, 0.49355, 4, 8, id="double-root"),
    pytest.param(0.5, math.sqrt(3) / 4, 2, 8, id="alpha-zero"),
    pytest.param(0.99, 0.01, 6, 8, id="flat-6"),
    pytest.param(0.999, 0.001, 6, 4, id="flattest-6"),
    pytest.param(0.9, 0.1, 1, 16, id="one-winding"),
    pytest.param(0.5, 300.0, 4, 8, id="tall-300"),
]


def _draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = float(rng.uniform(0.05, 0.99))
        b = float(rng.uniform(0.01, 1.0))
        omega = int(rng.integers(1, 41))
        n_max = int(rng.integers(2, 17))
        yield pytest.param(a, b, omega, n_max, id=f"{a:.3f}-{b:.3f}-{omega}-{n_max}")


def _stack(shape):
    ps = sorted({0, shape.omega // 2, shape.omega - 1})
    return [(p, include_vc) for p in ps for include_vc in (False, True)]


@pytest.mark.parametrize("a, b, omega, n_max", [*_draws(19, 12), *SPECIAL_SHAPES])
def test_matrices_match_a_fine_trapezoid(a, b, omega, n_max):
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    pairs = _stack(shape)
    got = _hamiltonian_stack(shape, pairs, n_max)
    want = sampled_hamiltonians(shape, pairs, n_max, REFERENCE_POINTS)
    for h, ref in zip(got, want):
        assert np.max(np.abs(h - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_reference_trapezoid_has_converged():
    # doubling the reference grid moves the flattest matrices by far less
    # than the tolerance above
    shape = HelixShape(R=1.0, a=0.999, b=0.001, omega=6)
    pairs = [(1, False), (1, True)]
    ref = sampled_hamiltonians(shape, pairs, 4, REFERENCE_POINTS)
    finer = sampled_hamiltonians(shape, pairs, 4, 2 * REFERENCE_POINTS)
    assert np.max(np.abs(finer - ref)) <= 1e-12 * np.max(np.abs(finer))


# the shapes the command line's checks run, where the recurrence could trip:
# the flat coil, one winding, alpha = 0, a double root of D and a tall coil
# in the g < 0 branch of ``_d_factor``
CI_SHAPES = [
    pytest.param(0.999, 0.001, 6, id="flattest-6"),
    pytest.param(0.9, 0.1, 1, id="one-winding"),
    pytest.param(0.5, 0.4330127018922193, 2, id="alpha-zero"),
    pytest.param(0.50645, 0.49355, 4, id="double-root"),
    pytest.param(0.5, 1e100, 17, id="tall-1e100-17"),
]


def _shape_draws(seed, count):
    # (a, b, omega): half of ``_draws``, b/R in [0.01, 1], and half of
    # ``_wide_draws``, b/R from 1e-3 to 1e100, log-uniform
    for param in [*_draws(seed, count // 2), *_wide_draws(seed + 1, count - count // 2, 100)]:
        yield pytest.param(*param.values[:3], id=param.id.rsplit("-", 1)[0])


def _wide_draws(seed, count, max_log_b):
    # b/R from 1e-3 to 10^max_log_b, log-uniform, so the tall coils whose
    # products of two sizes of D are scaled (D(pi) > 2^500) are drawn too
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = float(rng.uniform(0.01, 0.99))
        b = 10.0 ** float(rng.uniform(-3.0, max_log_b))
        omega = int(rng.integers(1, 41))
        size = int(rng.integers(1, 34))
        yield pytest.param(a, b, omega, size, id=f"{a:.3f}-{b:.3g}-{omega}-{size}")


@pytest.mark.parametrize("a, b, omega", [
    (0.75, 0.25, 6), (0.999, 0.001, 6), (0.3, 0.9, 40), *CI_SHAPES[1:], *_shape_draws(37, 8)])
def test_longer_recurrence_keeps_the_first_harmonics(a, b, omega):
    # the premise of the shapes' harmonics store: a prefix of a longer call
    # is the shorter call, and V_c does not move A0 or B
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    if b == 1e100:
        assert _d_factor(shape)[10] < 0  # g
    long = winding_harmonics(shape, 65, potential=True)
    for count in (2, 5, 33):
        short = winding_harmonics(shape, count, potential=True)
        for x, y in zip(short, long):
            assert x.tobytes() == y[:count].tobytes()
    # V_c changes A only: B and A0 do not depend on whether it is formed
    without = winding_harmonics(shape, 65)
    assert without[2] is None
    assert without[0].tobytes() == long[0].tobytes() and without[1].tobytes() == long[1].tobytes()


# (count, potential) requests of one shape object, in turn
STORE_ORDERS = {
    "growing": [(5, False), (12, True), (33, False), (65, True)],
    "shrinking": [(65, False), (33, False), (12, False), (5, False), (2, False)],
    "vc-off-then-on": [(20, False), (20, True), (8, False), (36, True), (36, False)],
    "vc-on-then-off": [(20, True), (20, False), (8, True), (36, False), (12, True)],
}


def _same_arrays(got, want):
    for x, y in zip(got, want, strict=True):
        assert (x is None) == (y is None)
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("order", STORE_ORDERS)
@pytest.mark.parametrize("a, b, omega", [*CI_SHAPES, *_shape_draws(41, 16)])
def test_the_store_gives_the_fresh_calls(a, b, omega, order):
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    fresh = HelixShape(R=1.0, a=a, b=b, omega=omega)
    empty = (hash(shape), repr(shape), pickle.dumps(shape))
    for width, potential in STORE_ORDERS[order]:
        count = _moment_reach(shape, width)
        got = _harmonics(shape, width, potential)
        want = winding_harmonics(HelixShape(R=1.0, a=a, b=b, omega=omega), count, potential)
        _same_arrays(got, want)
        assert not any(x.flags.writeable for x in got if x is not None)
        assert all(x.flags.writeable for x in winding_harmonics(shape, count, potential)
                   if x is not None)
    # the store holds the longest call, with V_c once asked for
    requests = STORE_ORDERS[order]
    stored = vars(shape)["_harmonics"]
    assert stored[1].size == max(_moment_reach(shape, width) for width, _ in requests)
    assert (stored[2] is not None) == any(potential for _, potential in requests)
    assert "_harmonics" not in vars(fresh)
    # the store is not part of the shape's value
    assert shape == fresh and (hash(shape), repr(shape), pickle.dumps(shape)) == empty
    loaded = pickle.loads(pickle.dumps(shape))
    assert loaded == shape and repr(loaded) == repr(shape) and "_harmonics" not in vars(loaded)


@pytest.mark.parametrize("potential", [False, True], ids=["A0-B", "with-Vc"])
def test_a_non_finite_result_is_not_stored(potential):
    # (omega b)^2 is finite and the constants overflow: ignored, the call
    # gives NaN, which the store must not keep, so that the same request
    # under over="raise" raises as the fresh call does
    shape = HelixShape(R=1.0, a=0.5, b=1e200, omega=17)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _harmonics(shape, 8, potential)
    assert not np.isfinite(got[1]).any()
    assert "_harmonics" not in vars(shape)
    for call in (winding_harmonics, _harmonics):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            call(shape, 8, potential)


def test_one_shape_makes_one_call_per_longer_request(monkeypatch, capsys):
    # the gain of the store rests on one shape object asked for its
    # harmonics more than once: a ladder of n_max 8, 12, 16, V_c off then
    # on, calls winding_harmonics on its first pass only where it grows
    # (20 entries, 20 with V_c, 28, 36), and the moments of its states read
    # the same store.  A command builds its own shape: one call each
    calls = []
    original = geometry.winding_harmonics

    def counted(shape, count, potential=False):
        calls.append((count, potential))
        return original(shape, count, potential)

    monkeypatch.setattr(geometry, "winding_harmonics", counted)
    shape = HelixShape(R=1.0, a=0.75, b=0.25, omega=6)
    ladder = [SpectrumConfig(include_vc=vc, n_max=n) for n in (8, 12, 16) for vc in (False, True)]
    states = [solve_states(shape, make_basis(shape, 1, config), config) for config in ladder]
    assert calls == [(20, False), (20, True), (28, True), (36, True)]
    again = [solve_states(shape, make_basis(shape, 1, config), config) for config in ladder]
    assert len(calls) == 4
    for first, second in zip(states, again):
        assert [s.energy for s in first] == [s.energy for s in second]
    for state in (s for solved in states for s in solved):
        toroidal_moment(state, shape)
    assert len(calls) == 4
    coil = ["--a", "0.75", "--b", "0.25", "--omega", "6", "--p", "0-5", "--n-max", "8"]
    commands = [
        (["moments"], [(20, True)]),
        (["spectrum", "--both"], [(20, True)]),
        (["spectrum", "--without-vc"], [(20, False)]),
        (["current", "--grid", "64"], [(20, True)]),
        (["thermal", "--temperature", "0.1"], [(20, True)]),
    ]
    for command, want in commands:
        for _ in range(2):
            calls.clear()
            assert cli.main(command + coil) == 0
            assert calls == want, command
    capsys.readouterr()


def _interlacing_draws():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = float(rng.uniform(0.05, 0.99))
        omega = int(rng.integers(1, 41))
        shape = HelixShape(R=1.0, a=a, b=float(rng.uniform(0.01, 1.0)), omega=omega)
        p = int(rng.integers(0, omega))
        yield pytest.param(shape, p, int(rng.integers(2, 16)),
                           id=f"{shape.a:.3f}-{shape.b:.3f}-{omega}-p{p}")
    yield pytest.param(HelixShape(R=1.0, a=0.99, b=0.01, omega=6), 1, 8, id="flat-6")


@pytest.mark.parametrize("shape, p, n_max", _interlacing_draws())
def test_levels_interlace_as_the_basis_grows(shape, p, n_max):
    # the n_max matrix is the central principal block of the n_max + 1 one,
    # bit for bit, so Cauchy interlacing bounds every level:
    # E_k(n_max + 1) <= E_k(n_max) <= E_{k+2}(n_max + 1)
    pairs = [(p, False), (p, True)]
    small = _hamiltonian_stack(shape, pairs, n_max)
    big = _hamiltonian_stack(shape, pairs, n_max + 1)
    assert np.array_equal(big[:, 1:-1, 1:-1], small)
    e_small = branch_spectra(shape, pairs, n_max).eigenvalues
    e_big = branch_spectra(shape, pairs, n_max + 1).eigenvalues
    slack = 1e-12 * np.max(np.abs(big), axis=(1, 2))[:, None]
    assert np.all(e_big[:, :-2] <= e_small + slack)
    assert np.all(e_small <= e_big[:, 2:] + slack)


MOMENT_SHAPES = [
    pytest.param(0.50645, 0.49355, 4, 8, id="double-root"),
    pytest.param(0.5, 0.4330127018922193, 2, 8, id="alpha-zero"),
    pytest.param(0.9, 0.1, 1, 16, id="one-winding-flat"),
    pytest.param(0.5, 0.5, 1, 8, id="one-winding-round"),
    pytest.param(0.1, 0.9, 1, 8, id="one-winding-tall"),
    pytest.param(0.5, 300.0, 4, 4, id="tall-300"),
    pytest.param(0.99, 0.01, 6, 8, id="flat-6"),
    pytest.param(0.999, 0.001, 6, 6, id="flattest-6"),
]


def _moment_harmonics(shape, n_max):
    return moment_harmonics(shape, 2 * n_max)[1]


@pytest.mark.parametrize("a, b, omega, n_max", [*_draws(20, 12), *MOMENT_SHAPES])
def test_moment_harmonics_match_a_fine_trapezoid(a, b, omega, n_max):
    # every row of the weights, each against its own largest harmonic: at
    # omega = 1 the x and y rows too.  Production keeps harmonics d >= 0;
    # the weights are real, so the trapezoid's harmonic -d is the conjugate
    # of its harmonic d, and the half holds them all
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    got = _moment_harmonics(shape, n_max)
    full = sampled_moment_harmonics(shape, 2 * n_max, REFERENCE_POINTS)
    want = full[:, 2 * n_max:]
    assert got.shape == want.shape == (3 if omega == 1 else 1, 2 * n_max + 1)
    for row, ref in zip(got, want):
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(full[:, 2 * n_max::-1] - np.conj(want))) <= 1e-12 * np.max(np.abs(full))
    if omega == 1:
        # g_x is odd in theta and g_y even: imaginary and real harmonics,
        # and the odd row's mean is 0
        assert np.all(got[0].real == 0) and np.all(got[1:].imag == 0) and got[0, 0] == 0


def test_moment_reference_trapezoid_has_converged():
    shape = HelixShape(R=1.0, a=0.999, b=0.001, omega=6)
    ref = sampled_moment_harmonics(shape, 12, REFERENCE_POINTS)
    finer = sampled_moment_harmonics(shape, 12, 2 * REFERENCE_POINTS)
    assert np.max(np.abs(finer - ref)) <= 1e-13 * np.max(np.abs(finer))


def test_moment_harmonics_need_the_numerator_degree():
    # harmonic d of g / D reads F up to d + 4 (x, y, at omega = 1) or d + 3
    # (z alone): the store forms that many for the width asked
    one, two = (HelixShape(R=1.0, a=0.9, b=0.1, omega=w) for w in (1, 2))
    assert _moment_reach(one, 7) == _moment_reach(two, 8) == 12
    axes, weights = moment_harmonics(one, 7)
    assert list(axes) == [0, 1, 2] and weights.shape == (3, 8)
    axes, weights = moment_harmonics(two, 8)
    assert list(axes) == [2] and weights.shape == (1, 9)
    assert vars(one)["_harmonics"][1].size == vars(two)["_harmonics"][1].size == 12


def _moment_stacks():
    for param in _draws(21, 6):
        a, b, omega, n_max = param.values
        shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
        yield pytest.param(shape, _stack(shape), n_max, id=param.id)
    flattest = HelixShape(R=1.0, a=0.999, b=0.001, omega=6)
    yield pytest.param(flattest, [(1, False), (1, True)], 8, id="flattest-6")
    one = HelixShape(R=1.0, a=0.9, b=0.1, omega=1)
    yield pytest.param(one, [(0, True), (0, False)], 16, id="one-winding")
    yield pytest.param(flattest, [(5, False), (0, False)], 2, id="without-vc")


@pytest.mark.parametrize("shape, pairs, n_max", _moment_stacks())
def test_branch_moments_equal_the_separate_calls(shape, pairs, n_max):
    # one winding_harmonics call, longer than the spectra need, serves H and
    # the moments: its first entries are those of the spectra's own call
    dec, vectors = branch_moments(shape, pairs, n_max)
    alone = branch_spectra(shape, pairs, n_max)
    assert np.array_equal(dec.eigenvalues, alone.eigenvalues)
    assert np.array_equal(dec.eigenvectors, alone.eigenvectors)
    ps = [p for p, _ in pairs]
    assert np.array_equal(vectors, moment_vectors(shape, alone.eigenvectors, ps))


@pytest.mark.parametrize("b", [1e78, 1e100, 1e150])
def test_tall_coil_harmonics_do_not_overflow(b):
    # a direction of D'' or |r''|^2 times D(pi) is of the size of
    # (omega b)^4, which overflows from b near 1e77 at omega 17; the
    # directions are scaled by the power of two of D(pi), so the harmonics
    # answer wherever D is finite.  Far up the tall-coil limit the even
    # harmonics of A0 and V_c grow like b and those of B fall like 1/b.
    ref = winding_harmonics(HelixShape(R=1.0, a=0.5, b=1e60, omega=17), 8, potential=True)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = winding_harmonics(HelixShape(R=1.0, a=0.5, b=b, omega=17), 8, potential=True)
    ratio = b / 1e60
    for x, want, scale in zip(got, ref, (ratio, 1 / ratio, ratio)):
        assert np.all(np.isfinite(x))
        assert np.allclose(x[::2] / scale, want[::2], rtol=4e-15, atol=0)


@pytest.mark.parametrize("a, b, omega, count", [
    *_wide_draws(23, 24, 76),
    # F underflows to signed zeros: F's own zero forcing fixes their signs
    pytest.param(1e-200, 1e-200, 1, 33, id="underflow-1"),
    pytest.param(1e-200, 2e-200, 39, 33, id="underflow-39"),
    pytest.param(0.5, 1e76, 40, 33, id="tall-1e76-40"),
])
@pytest.mark.parametrize("potential", [False, True], ids=["A0-B", "with-Vc"])
def test_harmonics_equal_the_list_of_rows_recurrence(a, b, omega, count, potential):
    # production runs F first and each slope row after it over local
    # floats, and scales the products of two sizes of D on tall coils; the
    # floats are those of one step per harmonic over a list of rows
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    got = winding_harmonics(shape, count, potential)
    want = list_of_rows_harmonics(shape, count, potential)
    for x, y in zip(got, want):
        assert (x is None) == (y is None)
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("a, b, omega, count", [
    *_wide_draws(29, 24, 100),
    pytest.param(1e-300, 4e18, 4, 10, id="tiny-a"),
    pytest.param(1e-300, 1e10, 1, 10, id="tiny-a-one-winding"),
    pytest.param(7.6e-285, 1.8e99, 1, 6, id="tiny-a-tall-one-winding"),
])
def test_moment_weights_equal_the_unscaled_horner(a, b, omega, count):
    # up to b near 1e100 the unscaled numerators are finite; taken over a
    # power of two, with F times it, every product is the same float.  Below
    # D(pi) = 2^500 nothing is scaled, so the a R terms of a thin coil keep
    # their bits.  Production keeps the oracle's harmonics d >= 0
    shape = HelixShape(R=1.0, a=a, b=b, omega=omega)
    harmonics = winding_harmonics(shape, _moment_reach(shape, count))[1]
    got = moment_harmonics(shape, count)[1]
    assert got.tobytes() == unscaled_moment_harmonics(shape, harmonics, count)[:, count:].tobytes()


@pytest.mark.parametrize("b", [1e120, 1e152])
def test_tall_coil_spectra_and_moments_do_not_overflow(b):
    # v^2, 6 alpha - beta, omega^4 b^2, p2 gamma, v r q and the moment
    # weights' numerators are products of two sizes of D, or reach
    # D^(3/2): over a power of two they stay finite while D does
    shape = HelixShape(R=1.0, a=0.5, b=b, omega=17)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        constants = _d_factor(shape)
        dec, vectors = branch_moments(shape, [(1, False), (1, True)], 4)
    assert np.all(np.isfinite(constants))
    assert np.all(np.isfinite(dec.eigenvalues)) and np.all(np.isfinite(vectors))
