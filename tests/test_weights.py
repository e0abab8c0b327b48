import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import fsum, mpf

from baryiter.errors import DegenerateNodes, ZeroDerivative
from baryiter.numerics import make_mpf, precision, real, set_precision
from baryiter.weights import (
    HermiteWeights,
    derivative_scaled_weights,
    product_weights,
    raw_floor,
    shifted_product_weights,
    squared_product_weights,
)

from oracles import random_nodes, shifted_product_weights_by_definition


def test_product_weights_hand_values():
    assert product_weights([0, 1]) == [mpf(-1), mpf(1)]
    w = product_weights([0, 1, 3])
    assert w == [mpf(1) / 3, mpf(-1) / 2, mpf(1) / 6]


def test_product_weights_vandermonde_kernel_0_1_2():
    w = product_weights([0, 1, 2])
    assert w == [mpf(1) / 2, mpf(-1), mpf(1) / 2]
    nodes = [mpf(0), mpf(1), mpf(2)]
    assert fsum(w) == 0
    assert fsum(wi * v for wi, v in zip(w, nodes)) == 0
    assert fsum(wi * v * v for wi, v in zip(w, nodes)) == 1


@pytest.mark.parametrize("count", [2, 3, 5, 8, 9])
def test_vandermonde_kernel_random_nodes(count):
    set_precision(256)
    rng = random.Random(100 + count)
    tol = mpf(10) ** (-int(0.25 * 256))
    for _ in range(5):
        nodes = random_nodes(rng, count)
        w = product_weights(nodes)
        n = count - 1
        for k in range(n):
            terms = [wi * v ** k for wi, v in zip(w, nodes)]
            scale = max(fsum(abs(t) for t in terms), mpf(1))
            assert abs(fsum(terms)) <= tol * scale
        top = fsum(wi * v ** n for wi, v in zip(w, nodes))
        assert abs(top - 1) <= tol


def test_translation_and_scaling_covariance():
    set_precision(256)
    rng = random.Random(7)
    for _ in range(10):
        nodes = random_nodes(rng, 4)
        n = len(nodes) - 1
        c = real(repr(rng.uniform(-5, 5)))
        a = real(repr(rng.uniform(0.2, 4)))
        w = product_weights(nodes)
        w_shift = product_weights([v + c for v in nodes])
        w_scale = product_weights([a * v for v in nodes])
        for wi, ws, wc in zip(w, w_shift, w_scale):
            assert abs(ws - wi) <= abs(wi) * mpf(10) ** -70
            assert abs(wc - wi * a ** -n) <= abs(wi * a ** -n) * mpf(10) ** -70


def test_shifted_weights_alpha_one_is_exactly_product():
    nodes = ["0.5", "1.25", "2.0", "3.5"]
    assert shifted_product_weights(nodes, 1) == product_weights(nodes)


def test_shifted_weights_alpha_zero_hand_values():
    assert shifted_product_weights([1, 2], 0) == [mpf(1), mpf(-1)]
    w = shifted_product_weights([1, 2, 4], 0)
    # direct product evaluation: 1/(f_i - 0) * prod 1/(f_i - f_j), newest last
    assert w == [mpf(-1), mpf(1) / 2, mpf(1) / 2]


def test_shifted_weights_collision_with_shifted_value():
    with pytest.raises(DegenerateNodes):
        shifted_product_weights([1, 2], "0.5")  # f_0 == alpha * f_n


# (p, q) for the node or factor p/q, which fills the whole mantissa at the working precision
RATIONALS = st.tuples(st.integers(-10**6, 10**6), st.integers(1, 997))


@settings(max_examples=80, deadline=None)
@given(nodes=st.lists(RATIONALS, min_size=2, max_size=9), alpha=RATIONALS,
       bits=st.sampled_from((64, 256, 4096)))
def test_shifted_weights_agree_with_their_definition_to_rounding(nodes, alpha, bits):
    # both divide the same rounded differences, in different orders: each weight is
    # a chain of one rounding per other node, so the two differ by under 2n units of 2^-p
    with precision(bits):
        nodes = [mpf(p) / q for p, q in nodes]
        alpha = mpf(alpha[0]) / alpha[1]
        try:
            want = shifted_product_weights_by_definition(nodes, alpha)
        except DegenerateNodes:
            assume(False)
        got = shifted_product_weights(nodes, alpha)
    assert len(got) == len(want)
    bound = 2 * len(nodes) * mpf(2) ** -bits
    with mpmath.workprec(2 * bits):
        for g, w in zip(got, want):
            assert abs(g - w) <= bound * abs(w)


def test_derivative_scaled_weights_hand_values():
    hw = derivative_scaled_weights([0, 1], [1, 1])
    assert hw.lam == (mpf(1), mpf(1))
    assert hw.gam == (mpf(2), mpf(-2))
    # gam = -(2 lam / f') sum 1/(x_i - x_j) is slope-independent: the slope
    # scales lam only
    hw = derivative_scaled_weights([0, 1], [2, 3])
    assert hw.lam == (mpf(2), mpf(3))
    assert hw.gam == (mpf(2), mpf(-2))


def test_derivative_scaled_weights_single_node_empty_products():
    hw = derivative_scaled_weights(["1.5"], ["2.5"])
    assert hw.lam == (mpf("2.5"),)
    assert hw.gam == (mpf(0),)


def test_derivative_scaled_weights_zero_slope_rejected():
    with pytest.raises(ZeroDerivative):
        derivative_scaled_weights([0, 1], [1, 0])


@pytest.mark.parametrize("call, message", [
    (lambda: HermiteWeights((mpf(1), mpf(2)), (mpf(1),)), "lam and gam must have equal length"),
    (lambda: derivative_scaled_weights([0, 1], [1]), "need one slope per node"),
])
def test_mismatched_lengths_are_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_squared_product_weights_hand_values():
    hw = squared_product_weights([1, 2])
    assert hw.lam == (mpf(1), mpf(1))
    assert hw.gam == (mpf(2), mpf(-2))
    hw = squared_product_weights([0, 1, 3])
    assert hw.lam[0] == mpf(1) / 9
    assert abs(hw.gam[0] - mpf(8) / 27) <= mpf(10) ** -74


def test_partial_fraction_probe_identity_hand_case():
    hw = squared_product_weights([1, 2])
    z = mpf(5)
    total = fsum(
        (lam + gam * (z - v)) / (z - v) ** 2
        for lam, gam, v in zip(hw.lam, hw.gam, [mpf(1), mpf(2)])
    )
    assert abs(total - mpf(1) / 144) <= mpf(10) ** -70


def test_partial_fraction_identity_random_probes():
    set_precision(256)
    rng = random.Random(21)
    for count in (2, 3, 5):
        nodes = random_nodes(rng, count)
        hw = squared_product_weights(nodes)
        for _ in range(10):
            z = real(repr(rng.uniform(4, 9)))
            expansion = fsum(
                (lam + gam * (z - v)) / (z - v) ** 2
                for lam, gam, v in zip(hw.lam, hw.gam, nodes)
            )
            product = mpf(1)
            for v in nodes:
                product /= (z - v) ** 2
            assert abs(expansion - product) <= abs(product) * mpf(10) ** -60


def test_degenerate_nodes_rejected():
    with pytest.raises(DegenerateNodes):
        product_weights([1, 1])
    with pytest.raises(DegenerateNodes):
        squared_product_weights([2, 2])
    with precision(128):
        gap = mpf(2) ** -125  # below the separation floor at 128 bits
        with pytest.raises(DegenerateNodes):
            product_weights([1, 1 + gap])


def test_separation_floor_scales_with_magnitude():
    with precision(256):
        assert make_mpf(raw_floor(mpf(1)._mpf_, 256, "n")) == mpf(2) ** (8 - 256)
        assert make_mpf(raw_floor(mpf(1024)._mpf_, 256, "n")) == mpf(2) ** (18 - 256)
