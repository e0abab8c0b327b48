import random
from dataclasses import FrozenInstanceError

import pytest
from mpmath import mpf

import baryiter
from baryiter.errors import SingularDenominator, ZeroDerivative
from baryiter.interpolants import (
    ObjectiveSample,
    Sample,
    eval_hermite,
    eval_plain,
    hermite_node_curvature,
)
from baryiter.numerics import real, set_precision
from baryiter.optimise import phi_curvature_d1, phi_third_d1
from baryiter.root_search import (
    second_derivative_f_interp,
    second_derivative_x_interp,
    step_exact_d1,
)
from baryiter.weights import HermiteWeights, product_weights, squared_product_weights

from oracles import fd_derivative, random_nodes, rel_err


def _samples(xs, fn, dfn=None):
    return [Sample(x, fn(x), dfn(x) if dfn else None) for x in xs]


def test_plain_direct_linear():
    samples = [Sample(mpf(0), mpf(0)), Sample(mpf(1), mpf(1))]
    w = [mpf(-1), mpf(1)]
    assert eval_plain(samples, w, "0.5") == mpf("0.5")


def test_plain_inverse_is_secant_iterate():
    # f = x^2 - 2 sampled at 1 and 2; reading x off at f=0 is the secant step
    samples = [Sample(mpf(1), mpf(-1)), Sample(mpf(2), mpf(2))]
    w = product_weights([s.f for s in samples])
    assert w == [mpf(-1) / 3, mpf(1) / 3]
    assert eval_plain(samples, w, 0, orientation="inverse") == mpf(4) / 3


def test_plain_interpolation_property_near_node():
    set_precision(256)
    xs = [mpf(1), mpf(2), mpf(3)]
    samples = _samples(xs, lambda x: x ** 3 - x)
    w = product_weights(xs)
    value = eval_plain(samples, w, mpf(2) + mpf(10) ** -20)
    assert abs(value - samples[1].f) <= abs(samples[1].f) * mpf(10) ** -15
    # inside the separation floor, the node value comes back exactly
    assert eval_plain(samples, w, mpf(2) + mpf(2) ** -260) == samples[1].f


def test_plain_polynomial_exactness():
    set_precision(256)
    rng = random.Random(5)
    tol = mpf(10) ** (-int(0.25 * 256))
    for degree in (1, 2, 4):
        xs = random_nodes(rng, degree + 1)
        coeffs = [real(repr(rng.uniform(-3, 3))) for _ in range(degree + 1)]

        def poly(x):
            acc = mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        samples = _samples(xs, poly)
        w = product_weights(xs)
        for _ in range(5):
            t = real(repr(rng.uniform(-4, 4)))
            expected = poly(t)
            got = eval_plain(samples, w, t)
            assert abs(got - expected) <= tol * max(abs(expected), mpf(1))


def test_plain_singular_denominator():
    samples = [Sample(mpf(0), mpf(0)), Sample(mpf(1), mpf(2))]
    # equal weights: the inverse-form denominator vanishes midway between the f nodes
    with pytest.raises(SingularDenominator):
        eval_plain(samples, [mpf(1), mpf(1)], 1, orientation="inverse")


def test_hermite_singular_denominator():
    samples = [Sample(mpf(0), mpf(0), mpf(1)), Sample(mpf(1), mpf(2), mpf(1))]
    # opposite lam and no gam: the denominator vanishes midway between the x nodes
    hw = HermiteWeights((mpf(1), mpf(-1)), (mpf(0), mpf(0)))
    with pytest.raises(SingularDenominator, match="^denominator sum vanished at t=0.5$"):
        eval_hermite(samples, hw, "0.5")


def test_hermite_single_sample_inverse_is_tangent():
    samples = [Sample(mpf(1), mpf(-1), mpf(2))]
    hw = squared_product_weights([samples[0].f])
    assert eval_hermite(samples, hw, 0, orientation="inverse") == mpf("1.5")


def test_hermite_direct_exact_on_quadratic():
    set_precision(256)
    xs = [mpf(0), mpf(1)]
    samples = _samples(xs, lambda x: x * x, lambda x: 2 * x)
    hw = squared_product_weights(xs)
    t = real("0.70710678118654752440")
    got = eval_hermite(samples, hw, t)
    assert abs(got - t * t) <= mpf(10) ** -70


def test_hermite_polynomial_exactness_degree_2n_plus_1():
    set_precision(256)
    rng = random.Random(11)
    tol = mpf(10) ** (-int(0.25 * 256))
    for count in (2, 3):
        xs = random_nodes(rng, count)
        degree = 2 * count - 1
        coeffs = [real(repr(rng.uniform(-2, 2))) for _ in range(degree + 1)]

        def poly(x):
            acc = mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        def dpoly(x):
            acc = mpf(0)
            for k, c in enumerate(coeffs[1:], start=1):
                acc += k * c * x ** (k - 1)
            return acc

        samples = _samples(xs, poly, dpoly)
        hw = squared_product_weights(xs)
        for _ in range(5):
            t = real(repr(rng.uniform(-4, 4)))
            expected = poly(t)
            assert abs(eval_hermite(samples, hw, t) - expected) <= tol * max(abs(expected), mpf(1))


def test_hermite_osculation_via_finite_differences():
    set_precision(256)
    xs = [mpf(1), mpf(2)]
    samples = _samples(
        xs, lambda x: x ** 4 - 3 * x, lambda x: 4 * x ** 3 - 3
    )
    hw = squared_product_weights(xs)
    h = mpf(10) ** -30
    for s in samples:
        slope = (eval_hermite(samples, hw, s.x + h) - eval_hermite(samples, hw, s.x - h)) / (2 * h)
        assert rel_err(slope, s.f_prime) <= mpf(10) ** -20
        assert eval_hermite(samples, hw, s.x) == s.f


def test_hermite_inverse_osculation():
    set_precision(256)
    xs = [mpf(1), mpf(2)]
    samples = _samples(xs, lambda x: x * x - 2, lambda x: 2 * x)
    hw = squared_product_weights([s.f for s in samples])
    h = mpf(10) ** -30
    for s in samples:
        slope = (
            eval_hermite(samples, hw, s.f + h, orientation="inverse")
            - eval_hermite(samples, hw, s.f - h, orientation="inverse")
        ) / (2 * h)
        assert rel_err(slope, 1 / s.f_prime) <= mpf(10) ** -20


def test_hermite_inverse_requires_nonzero_slopes():
    samples = [Sample(mpf(0), mpf(1), mpf(0)), Sample(mpf(1), mpf(2), mpf(1))]
    hw = squared_product_weights([s.f for s in samples])
    with pytest.raises(ZeroDerivative):
        eval_hermite(samples, hw, 5, orientation="inverse")
    with pytest.raises(ValueError):
        eval_hermite([Sample(mpf(0), mpf(1))], squared_product_weights([mpf(0)]), 5)


def test_node_curvature_matches_finite_differences():
    set_precision(256)
    xs = [mpf(1), mpf(2)]
    samples = _samples(xs, lambda x: x ** 4, lambda x: 4 * x ** 3)
    hw = squared_product_weights(xs)
    curvature = hermite_node_curvature(
        xs, [s.f for s in samples], [s.f_prime for s in samples], hw
    )
    fd = fd_derivative(lambda t: eval_hermite(samples, hw, t), xs[-1], mpf(10) ** -15, order=2)
    assert rel_err(curvature, fd) <= mpf(10) ** -12
    # the cubic fit of x^4 through these nodes has curvature 46 at x=2
    assert curvature == 46


# every public consumer of the samples' slopes, called on its weights over x or f
SLOPE_CONSUMERS = {
    "step_exact_d1": ("f", step_exact_d1),
    "second_derivative_x_interp": ("f", second_derivative_x_interp),
    "second_derivative_f_interp": ("x", second_derivative_f_interp),
    "phi_curvature_d1": ("x", phi_curvature_d1),
    "phi_third_d1": ("x", lambda window, hw: phi_third_d1(window, hw, mpf(1))),
    "eval_hermite direct": ("x", lambda window, hw: eval_hermite(window, hw, mpf(3))),
    "eval_hermite inverse": (
        "f", lambda window, hw: eval_hermite(window, hw, mpf(3), orientation="inverse")),
}


@pytest.mark.parametrize("consumer", SLOPE_CONSUMERS)
def test_a_missing_slope_is_the_one_value_error_of_every_consumer(consumer):
    key, call = SLOPE_CONSUMERS[consumer]
    window = [Sample(mpf(1), mpf(-1)), Sample(mpf(2), mpf(2), mpf(4))]
    hw = squared_product_weights([getattr(s, key) for s in window])
    with pytest.raises(ValueError, match="f_prime on every sample"):
        call(window, hw)


_LINE = [Sample(mpf(1), mpf(-1), mpf(2)), Sample(mpf(2), mpf(1), mpf(2))]


@pytest.mark.parametrize("call, message", [
    (lambda: eval_plain(_LINE, product_weights([1, 2]), 0, orientation="sideways"),
     "orientation must be one of ('direct', 'inverse'), got 'sideways'"),
    (lambda: eval_plain(_LINE, product_weights([1, 2, 3]), 0),
     "weight list length must equal the sample count"),
    (lambda: eval_hermite(_LINE, squared_product_weights([1, 2, 3]), 0),
     "weight list length must equal the sample count"),
])
def test_an_argument_that_does_not_fit_the_samples_is_a_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_public_names_resolve_and_an_objective_sample_is_a_frozen_sample():
    for name in baryiter.__all__:
        assert hasattr(baryiter, name), name
    s = ObjectiveSample(mpf(1), mpf(2), mpf(3))
    assert isinstance(s, Sample)
    assert (s.phi, s.phi_prime) == (s.f, s.f_prime) == (2, 3)
    with pytest.raises(FrozenInstanceError):
        s.f = mpf(0)
