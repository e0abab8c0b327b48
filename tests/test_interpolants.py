import random
from dataclasses import FrozenInstanceError

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp

import baryiter
from baryiter.errors import DegenerateNodes, SingularDenominator, SingularStep, ZeroDerivative
from baryiter.interpolants import (
    ObjectiveSample,
    Sample,
    eval_hermite,
    eval_plain,
    hermite_node_curvature,
    node_derivative,
)
from baryiter.numerics import make_mpf, precision, real, set_precision
from baryiter.optimise import phi_curvature_d1, phi_curvature_df, phi_third_d1
from baryiter.root_search import (
    direct_slope_estimate,
    f_product,
    f_shifted,
    inverse_slope_estimate,
    second_derivative_f_interp,
    second_derivative_x_interp,
    step_exact_d1,
    step_exact_df,
    x_product,
)
from baryiter.weights import (
    HermiteWeights,
    product_weights,
    shifted_product_weights,
    squared_product_weights,
)

from oracles import random_nodes, rel_err


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


@pytest.mark.parametrize("orientation", ("direct", "inverse"))
def test_node_curvature_matches_finite_differences(orientation):
    rng = random.Random(f"hermite-{orientation}")
    for size in range(2, 9):
        with precision(256):
            xs = random_nodes(rng, size)
            rng.shuffle(xs)
            window = [Sample(x, mpmath.cos(x) - x, -mpmath.sin(x) - 1) for x in xs]
            nodes = xs if orientation == "direct" else [s.f for s in window]
            hw = squared_product_weights(nodes)
            curvature = hermite_node_curvature(window, hw, orientation)
            third = phi_third_d1(window, hw, curvature) if orientation == "direct" else None
        with precision(512):
            # f''(x_n) of the direct ratio, x''(f_n) of the inverse one
            want = mpmath.diff(lambda t: eval_hermite(window, hw, t, orientation), nodes[-1], 2)
            assert rel_err(curvature, want, floor=1) <= mpf(10) ** -60, size
            if third is not None:  # and f'''(x_n) of the direct ratio, given its f''
                want = mpmath.diff(lambda t: eval_hermite(window, hw, t), nodes[-1], 3)
                assert rel_err(third, want, floor=1) <= mpf(10) ** -60, size
    if orientation == "direct":
        with precision(256):
            # the cubic fit of x^4 through x = 1, 2 is 6x^3 - 13x^2 + 12x - 4: at x = 2 its
            # curvature is 46 and its third derivative 36
            quartic = _samples([mpf(1), mpf(2)], lambda x: x ** 4, lambda x: 4 * x ** 3)
            hw = squared_product_weights([1, 2])
            assert hermite_node_curvature(quartic, hw) == 46
            assert phi_third_d1(quartic, hw, mpf(46)) == 36


def test_the_third_derivative_is_taken_in_the_direct_orientation_only():
    window = _samples([mpf(1), mpf(2)], lambda x: x ** 4, lambda x: 4 * x ** 3)
    hw = squared_product_weights([s.f for s in window])
    with pytest.raises(ValueError, match="^r\'\'\' is taken in the direct orientation only$"):
        hermite_node_curvature(window, hw, "inverse", curvature=mpf(1))


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


_PAIR = [mpf(1), mpf(-1)]
_HW = HermiteWeights((mpf(1), mpf(1)), (mpf(1), mpf(1)))

# every estimate of a derivative at the newest node, with the coordinate its nodes are
REPEATED_NODE_ESTIMATES = {
    "inverse_slope_estimate": ("f", lambda window: inverse_slope_estimate(window, _PAIR)),
    "direct_slope_estimate": ("x", lambda window: direct_slope_estimate(window, _PAIR)),
    "phi_curvature_df": ("x", lambda window: phi_curvature_df(window, _PAIR, mpf(1))),
    "second_derivative_x_interp": ("f", lambda window: second_derivative_x_interp(window, _HW)),
    "second_derivative_f_interp": ("x", lambda window: second_derivative_f_interp(window, _HW)),
    "hermite_node_curvature": ("x", lambda window: hermite_node_curvature(window, _HW)),
    "hermite_node_curvature/inverse": ("f", lambda window: hermite_node_curvature(
        window, _HW, "inverse")),
    "phi_curvature_d1": ("x", lambda window: phi_curvature_d1(window, _HW)),
    "phi_third_d1": ("x", lambda window: phi_third_d1(window, _HW, mpf(1))),
}


@pytest.mark.parametrize("estimate", REPEATED_NODE_ESTIMATES)
def test_a_repeated_node_is_the_one_degenerate_nodes_of_every_node_derivative_estimate(estimate):
    key, call = REPEATED_NODE_ESTIMATES[estimate]
    # (x, f, f') = (1, 2, 3) and (1, 5, 1), with x and f swapped when the nodes are f
    window = [Sample(mpf(1), mpf(2), mpf(3)), Sample(mpf(1), mpf(5), mpf(1))]
    if key == "f":
        window = [Sample(s.f, s.x, s.f_prime) for s in window]
    with pytest.raises(DegenerateNodes) as info:
        call(window)
    assert type(info.value) is DegenerateNodes
    assert str(info.value) == f"repeated {key} value in the window"


# the weights over the nodes c: product weights, and alpha-shifted ones; both sum to zero
NODE_WEIGHTS = {
    "product": product_weights,
    "alpha": lambda nodes: shifted_product_weights(nodes, mpf("1.25")),
}


@pytest.mark.parametrize("scheme", NODE_WEIGHTS)
@pytest.mark.parametrize("orientation", ("direct", "inverse"))
def test_node_derivative_is_the_plain_ratios_derivative_at_the_newest_node(orientation, scheme):
    rng = random.Random(f"{orientation}-{scheme}")
    for size in range(2, 9):
        with precision(256):
            xs = random_nodes(rng, size)
            rng.shuffle(xs)
            window = [Sample(x, mpmath.cos(x) - x) for x in xs]
            nodes = xs if orientation == "direct" else [s.f for s in window]
            weights = NODE_WEIGHTS[scheme](nodes)
            slope = node_derivative(window, weights, orientation)
            curvature = node_derivative(window, weights, orientation, slope=slope)
        with precision(512):
            # mpmath.diff steps 2^-522 from the node, far outside eval_plain's
            # separation floor at its working precision; a two-node ratio is
            # linear, so its r'' is 0 up to the rounding of the sum
            for order, got in ((1, slope), (2, curvature)):
                want = mpmath.diff(lambda t: eval_plain(window, weights, t, orientation),
                                   nodes[-1], order)
                assert rel_err(got, want, floor=1) <= mpf(10) ** -60, (size, order)


_LINE = [Sample(mpf(1), mpf(-1), mpf(2)), Sample(mpf(2), mpf(1), mpf(2))]


@pytest.mark.parametrize("call, message", [
    (lambda: eval_plain(_LINE, product_weights([1, 2]), 0, orientation="sideways"),
     "orientation must be one of ('direct', 'inverse'), got 'sideways'"),
    (lambda: node_derivative(_LINE, product_weights([1, 2]), orientation="sideways"),
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


# the weight builders of exact-df's schemes, as the solver calls them
EXACT_DF_WEIGHTS = {"x": x_product, "f": f_product, "alpha": f_shifted}


def _full_width(bits):
    """Non-zero values with a ``bits``-bit mantissa, either sign, magnitudes 2^-21 to 2^20."""
    return st.builds(
        lambda negative, man, exp: make_mpf(from_man_exp(-man if negative else man, exp - bits)),
        st.booleans(), st.integers(2 ** (bits - 1), 2 ** bits - 1), st.integers(-20, 20),
    )


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((64, 256, 4096)), st.sampled_from(tuple(EXACT_DF_WEIGHTS)),
       st.integers(2, 8))
def test_the_exact_df_step_is_the_inverse_interpolant_at_zero(data, bits, scheme, size):
    values = _full_width(bits)
    xs = data.draw(st.lists(values, min_size=size, max_size=size, unique=True))
    fs = data.draw(st.lists(values, min_size=size, max_size=size, unique=True))
    alpha = data.draw(values)
    zero = data.draw(st.one_of(st.none(), st.integers(0, size - 1)))
    if zero is not None:  # an exact root in the window: both return its x
        fs[zero] = mpf(0)
    with precision(bits):
        # eval_plain returns a node's value within the separation floor of t = 0
        floor = mpmath.ldexp(max(abs(f) for f in fs), 8 - bits)
        assume(all(f == 0 or abs(f) > floor for f in fs))
        window = [Sample(x, f) for x, f in zip(xs, fs)]
        try:
            weights = EXACT_DF_WEIGHTS[scheme](window, alpha)
        except DegenerateNodes:  # an alpha-shifted node on another
            assume(False)
        try:
            step = step_exact_df(window, weights)
        except SingularStep:
            with pytest.raises(SingularDenominator):
                eval_plain(window, weights, 0, "inverse")
            return
        assert step._mpf_ == eval_plain(window, weights, 0, "inverse")._mpf_
