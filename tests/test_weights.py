import random
from collections import Counter

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import fsum, mpf

from baryiter.errors import DegenerateNodes, ZeroDerivative
from baryiter import weights
from baryiter.numerics import make_mpf, precision, real, set_precision
from baryiter.weights import (
    HermiteWeights,
    WeightMemory,
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


# ---------------------------------------------------------------------------
# weights kept in a memory and updated as the window moves

# Bits a maintained weight may lose against the build from empty, and the
# kernel sums against their terms.  Measured: over runs of the lowprec_sweep
# and hiprec_grid benchmark items (seeds 1 and 2) the worst weight lost 2.6
# bits, at 256 bits; over 3 000 random sequences of these moves at 64, 256
# and 4096 bits, 3.1 bits, and the worst kernel sum 2.3.  Each update of a
# kept product adds one rounding, so the bound leaves two bits for longer chains.
LOST_BITS = 5
# (hypothesis examples, most windows in a sequence) per precision
MAINTAINED_RUNS = {64: (120, 12), 256: (120, 12), 4096: (30, 8)}
MOVES = ("slide", "slide", "slide", "dedup", "shrink", "grow", "collide")


def _slopes(nodes):
    return [1 + v * v for v in nodes]  # never zero


# family -> build(nodes, memory or None); the alpha family shifts the newest node
MAINTAINED = {
    "product": lambda nodes, alpha, memory: product_weights(nodes, memory),
    "alpha": lambda nodes, alpha, memory: shifted_product_weights(nodes, alpha, memory),
    "squared": lambda nodes, alpha, memory: squared_product_weights(nodes, memory),
    "scaled": lambda nodes, alpha, memory: derivative_scaled_weights(nodes, _slopes(nodes),
                                                                     memory),
}


def _moved(window, move, fresh, pick):
    """The window after ``move``: the newest sample is last, as in a run."""
    if move == "slide":
        return window[1:] + [fresh]
    if move == "dedup" and len(window) > 2:  # an older sample evicted from the middle
        cut = pick % (len(window) - 2) + 1
        return window[:cut] + window[cut + 1:] + [fresh]
    if move == "shrink" and len(window) > 2:  # a fallback step on one sample fewer
        return window[1:]
    if move == "collide":  # a new node on, or within the separation floor of, an older one
        twin = window[pick % len(window)]
        return window[1:] + [twin if pick % 2 else twin * (1 + mpf(2) ** (4 - mpmath.mp.prec))]
    return window + [fresh] if len(window) < 9 else window[1:] + [fresh]


def _outcome(build):
    try:
        return build()
    except DegenerateNodes as err:
        return type(err), str(err)


def _columns(result):
    return [result.lam, result.gam] if isinstance(result, HermiteWeights) else [result]


def _check_kernel(nodes, w, bound):
    # sum_i w_i v_i^k = 0 for k < n, summed well above the working precision
    with mpmath.workprec(mpmath.mp.prec + 64):
        for k in range(len(nodes) - 1):
            terms = [wi * v ** k for wi, v in zip(w, nodes)]
            assert abs(fsum(terms)) <= bound * fsum(abs(t) for t in terms)


@pytest.mark.parametrize("bits", sorted(MAINTAINED_RUNS))
def test_maintained_weights_track_the_build_from_empty(bits):
    examples, most_windows = MAINTAINED_RUNS[bits]

    @settings(max_examples=examples, deadline=None)
    @given(
        start=st.lists(RATIONALS, min_size=2, max_size=8),
        moves=st.lists(st.tuples(st.sampled_from(MOVES), RATIONALS, st.integers(0, 15)),
                       min_size=1, max_size=most_windows),
        alpha=st.one_of(st.sampled_from(((0, 1), (1, 1))), RATIONALS),
    )
    def check(start, moves, alpha):
        with precision(bits):
            bound = mpf(2) ** (LOST_BITS - bits)
            alpha = mpf(alpha[0]) / alpha[1]
            windows = [[mpf(p) / q for p, q in start]]
            for move, fresh, pick in moves:
                windows.append(_moved(windows[-1], move, mpf(fresh[0]) / fresh[1], pick))
            for family, build in MAINTAINED.items():
                memory = WeightMemory()
                for nodes in windows:
                    want = _outcome(lambda: build(nodes, alpha, None))
                    got = _outcome(lambda: build(nodes, alpha, memory))
                    if isinstance(want, tuple):  # refused: the same error, and the memory kept
                        assert got == want, family
                        continue
                    for got_column, want_column in zip(_columns(got), _columns(want)):
                        for g, w in zip(got_column, want_column):
                            assert abs(g - w) <= bound * abs(w), family
                    if family in ("product", "alpha"):
                        shifted = nodes[:-1] + [alpha * nodes[-1]] if family == "alpha" else nodes
                        _check_kernel(shifted, got, bound)

    check()


@pytest.mark.parametrize("family", sorted(MAINTAINED))
def test_a_kept_pair_is_checked_against_the_new_windows_floor(family):
    with precision(64):
        # the close pair clears the floor, about 2^-53 at the scale 6 of 2 shifted
        close = [mpf(1), 1 + mpf(2) ** -50, mpf(2)]
        memory = WeightMemory()
        MAINTAINED[family](close, mpf(3), memory)
        grown = close + [mpf(2) ** 10]  # the floor rises to about 2^-44
        want = _outcome(lambda: MAINTAINED[family](grown, mpf(3), None))
        assert want[0] is DegenerateNodes
        assert _outcome(lambda: MAINTAINED[family](grown, mpf(3), memory)) == want


def test_a_memory_from_another_family_or_precision_is_not_used():
    nodes = [mpf(1) / 3, mpf(2) / 7, mpf(5) / 11]
    memory = WeightMemory()
    with precision(256):
        product_weights(nodes, memory)
        assert squared_product_weights(nodes[1:] + [mpf(3)], memory) == \
            squared_product_weights(nodes[1:] + [mpf(3)])
    with precision(64):
        assert squared_product_weights(nodes[1:] + [mpf(4)], memory) == \
            squared_product_weights(nodes[1:] + [mpf(4)])


# (family, most divisions for a one-node slide of an 8-node window, divisions from empty):
# one reciprocal per pair in either family, 8 * 7 / 2 from empty
SLIDE_COSTS = [(product_weights, 7, 28), (squared_product_weights, 7, 28)]


@pytest.mark.parametrize("build, most, from_empty", SLIDE_COSTS,
                         ids=[build.__name__ for build, _, _ in SLIDE_COSTS])
def test_a_one_node_slide_makes_linearly_many_divisions(monkeypatch, build, most, from_empty):
    divisions = Counter()
    for name in ("mpf_div", "mpf_rdiv_int"):
        if not hasattr(weights, name):
            continue
        def counted(*args, _name=name, _fn=getattr(weights, name)):
            divisions[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(weights, name, counted)
    with precision(256):
        nodes = [mpf(k) / 7 for k in range(1, 10)]
        memory = WeightMemory()
        build(nodes[:8], memory)
        divisions.clear()
        build(nodes[1:], memory)
        slide = sum(divisions.values())
        divisions.clear()
        build(nodes[1:])
    assert slide <= most
    assert sum(divisions.values()) == from_empty
