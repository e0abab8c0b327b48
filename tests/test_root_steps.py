import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from baryiter import corpus
from baryiter.errors import DegenerateNodes, SingularStep, ZeroDerivative
from baryiter.interpolants import Sample, eval_hermite, eval_plain
from baryiter.numerics import real, set_precision
from baryiter.root_search import (
    baseline_step,
    chebyshev_halley_update,
    direct_slope_estimate,
    inverse_slope_estimate,
    second_derivative_f_interp,
    second_derivative_x_interp,
    step_exact_d1,
    step_exact_df,
)
from baryiter.weights import (
    HermiteWeights,
    derivative_scaled_weights,
    product_weights,
    squared_product_weights,
)

from oracles import fd_derivative, newton_poly_derivative, random_nodes, rel_err


def _window(points):
    return [Sample(real(x), real(f), real(fp) if fp is not None else None) for x, f, fp in points]


def _hermite(lam, gam):
    return HermiteWeights(tuple(map(mpf, lam)), tuple(map(mpf, gam)))


def _random_window(rng, count, with_slopes=False):
    xs = random_nodes(rng, count)
    window = []
    fs = set()
    for x in xs:
        while True:
            f = rng.uniform(-5, 5)
            if abs(f) > 0.1 and all(abs(f - g) > 0.05 for g in fs):
                fs.add(f)
                break
        fp = rng.choice([-1, 1]) * rng.uniform(0.5, 3) if with_slopes else None
        window.append(Sample(x, real(repr(f)), real(repr(fp)) if fp is not None else None))
    return window


# ---------------------------------------------------------------------------
# exact-root steps


def test_exact_df_two_points_is_secant_value():
    window = _window([(1, -1, None), (2, 2, None)])
    w = product_weights([s.f for s in window])
    assert step_exact_df(window, w) == mpf(4) / 3


def test_exact_df_returns_a_sample_with_a_zero_f():
    # that sample is the inverse interpolant's root, whatever the weights
    window = _window([(1, -1, None), (2, 0, None)])
    weights = [mpf(1), mpf(-1)]
    assert step_exact_df(window, weights) is window[1].x
    assert eval_plain(window, weights, 0, orientation="inverse") == 2


def test_exact_df_singular_step():
    # x-based weights [ -1, 1 ] over equal f values: denominator sum vanishes
    window = _window([(0, 1, None), (1, 1, None)])
    with pytest.raises(SingularStep):
        step_exact_df(window, product_weights([s.x for s in window]))


def test_exact_d1_single_point_is_newton():
    window = _window([(1, -1, 2)])
    hw = derivative_scaled_weights([window[0].x], [window[0].f_prime])
    assert step_exact_d1(window, hw) == mpf("1.5")


def test_exact_d1_zero_derivative():
    window = _window([(1, -1, 0)])
    hw = squared_product_weights([window[0].f])
    with pytest.raises(ZeroDerivative):
        step_exact_d1(window, hw)


def test_exact_d1_returns_a_sample_with_a_zero_f():
    window = _window([(1, -1, 2), (2, 0, 1)])
    hw = _hermite([1, 1], [0, 0])
    assert step_exact_d1(window, hw) is window[1].x
    assert eval_hermite(window, hw, 0, orientation="inverse") == 2


def test_chebyshev_halley_update_hand_values():
    assert chebyshev_halley_update(mpf(1), mpf(-1), mpf(2), mpf(2), mpf(1) / 2) == mpf("1.4")
    assert chebyshev_halley_update(mpf(1), mpf(-1), mpf(2), mpf(2), mpf(1)) == mpf(17) / 12
    # zero curvature reduces to the Newton update for any beta
    for beta in (0, mpf(1) / 2, 1, 7):
        assert chebyshev_halley_update(mpf(1), mpf(-1), mpf(2), mpf(0), mpf(beta)) == mpf("1.5")
    with pytest.raises(ZeroDerivative):
        chebyshev_halley_update(mpf(1), mpf(-1), mpf(0), mpf(2), mpf(1))
    with pytest.raises(SingularStep):
        chebyshev_halley_update(mpf(1), mpf(1), mpf(1), mpf(1), mpf(1))


# ---------------------------------------------------------------------------
# slope estimates


def test_inverse_slope_two_points_is_plain_ratio():
    window = _window([(1, 3, None), (2, 7, None)])
    w = product_weights([s.f for s in window])
    assert inverse_slope_estimate(window, w) == (mpf(2) - 1) / (mpf(7) - 3)


def test_inverse_slope_exact_on_linear():
    window = _window([(0, 1, None), (1, 3, None), (3, 7, None)])  # f = 2x + 1
    w = product_weights([s.f for s in window])
    assert abs(inverse_slope_estimate(window, w) - mpf(1) / 2) <= mpf(10) ** -70


def test_inverse_slope_matches_inverse_interpolant_derivative():
    set_precision(256)
    window = _window([(1, 1, None), (2, 4, None), (3, 9, None)])  # f = x^2
    w = product_weights([s.f for s in window])
    estimate = inverse_slope_estimate(window, w)
    fd = fd_derivative(
        lambda t: eval_plain(window, w, t, orientation="inverse"),
        window[-1].f,
        mpf(10) ** -15,
    )
    assert rel_err(estimate, fd) <= mpf(10) ** -12
    # discrepancy from 1/f'(3) = 1/6 is the interpolant truncation, not noise
    assert abs(estimate - mpf(1) / 6) > mpf(10) ** -3


def test_direct_slope_two_points_is_secant_slope():
    window = _window([(1, 5, None), (3, 11, None)])
    w = product_weights([s.x for s in window])
    assert direct_slope_estimate(window, w) == mpf(3)


def test_direct_slope_exact_on_linear():
    window = _window([(0, -5, None), (1, -2, None), (2, 1, None)])  # f = 3x - 5
    w = product_weights([s.x for s in window])
    assert abs(direct_slope_estimate(window, w) - 3) <= mpf(10) ** -70


def test_direct_slope_is_interpolant_derivative_cubic():
    set_precision(256)
    xs = [mpf(1), mpf(2), mpf(3)]
    window = [Sample(x, x ** 3) for x in xs]
    w = product_weights(xs)
    estimate = direct_slope_estimate(window, w)
    oracle = newton_poly_derivative(xs, [s.f for s in window], xs[-1], order=1)
    assert abs(estimate - oracle) <= mpf(10) ** -70
    assert oracle == 25  # derivative of the quadratic fit at x=3 (true f' is 27)


def test_slope_estimates_reject_collided_values():
    window = _window([(0, 1, None), (1, 1, None), (2, 1, None)])
    w = product_weights([s.x for s in window])
    with pytest.raises(DegenerateNodes):
        inverse_slope_estimate(window, w)


# ---------------------------------------------------------------------------
# curvature estimates


def test_second_derivative_f_interp_exact_on_quadratic():
    window = _window([(1, 1, 2), (2, 4, 4)])  # f = x^2 with exact slopes
    hw = squared_product_weights([s.x for s in window])
    assert second_derivative_f_interp(window, hw) == 2


def test_second_derivative_f_interp_zero_on_linear():
    window = _window([(1, 3, 3), (2, 6, 3), (4, 12, 3)])  # f = 3x
    hw = squared_product_weights([s.x for s in window])
    assert abs(second_derivative_f_interp(window, hw)) <= mpf(10) ** -70


def test_second_derivative_f_interp_matches_fd_oracle_on_quartic():
    set_precision(256)
    window = _window([(1, 1, 4), (2, 16, 32)])  # f = x^4
    hw = squared_product_weights([s.x for s in window])
    estimate = second_derivative_f_interp(window, hw)
    fd = fd_derivative(
        lambda t: eval_hermite(window, hw, t), window[-1].x, mpf(10) ** -15, order=2
    )
    assert rel_err(estimate, fd) <= mpf(10) ** -12


def test_second_derivative_x_interp_zero_on_linear():
    window = _window([(0, -1, 2), (1, 1, 2), (2, 3, 2)])  # f = 2x - 1
    hw = squared_product_weights([s.f for s in window])
    assert abs(second_derivative_x_interp(window, hw)) <= mpf(10) ** -70


def test_second_derivative_x_interp_matches_fd_oracle():
    set_precision(256)
    window = _window([(1, 1, 2), (2, 4, 4)])  # f = x^2 with exact slopes
    hw = squared_product_weights([s.f for s in window])
    estimate = second_derivative_x_interp(window, hw)
    x_curvature = fd_derivative(
        lambda t: eval_hermite(window, hw, t, orientation="inverse"),
        window[-1].f,
        mpf(10) ** -15,
        order=2,
    )
    oracle = -x_curvature * window[-1].f_prime ** 3
    assert rel_err(estimate, oracle) <= mpf(10) ** -12


def test_second_derivative_x_interp_converges_to_true_curvature():
    set_precision(256)
    problem = corpus.get_problem("cos_minus_x")
    root = problem.reference()
    xs = [root + mpf(10) ** -3, root + mpf(10) ** -4]
    window = [Sample(x, problem.f(x), problem.df(x)) for x in xs]
    hw = squared_product_weights([s.f for s in window])
    estimate = second_derivative_x_interp(window, hw)
    assert rel_err(estimate, problem.d2f(root)) <= mpf(10) ** -2


# ---------------------------------------------------------------------------
# baselines against the published first-step errors


def test_baseline_first_steps_match_published_errors():
    set_precision(256)
    problem = corpus.get_problem("cos_minus_x")
    root = problem.reference()
    x0 = mpf(3)
    start = [Sample(x0, problem.f(x0), problem.df(x0))]
    picard = baseline_step("picard", problem, start)
    assert corpus.matches_printed(abs(picard - root), "1.73")
    newton = baseline_step("newton", problem, start)
    assert corpus.matches_printed(abs(newton - root), "1.24")
    halley = baseline_step("halley", problem, start)
    assert corpus.matches_printed(abs(halley - root), "8.72e-1")


def test_baseline_secant():
    window = _window([(1, -1, None), (2, 2, None)])
    assert baseline_step("secant", None, window) == mpf(4) / 3
    with pytest.raises(SingularStep):
        baseline_step("secant", None, _window([(1, 2, None), (3, 2, None)]))


# ---------------------------------------------------------------------------
# guards: each degenerate input raises its own error, with its own message


@pytest.mark.parametrize("step, error, message", [
    # (lam_i - gam_i f_i)/f_i^2 sums to 1 - 1 over f = 1 and f = -1
    pytest.param(lambda: step_exact_d1(_window([(1, 1, 2), (2, -1, 1)]), _hermite([1, -1], [0, 0])),
                 SingularStep, "denominator sum vanished in exact-d1 step",
                 id="exact-d1-denominator"),
    pytest.param(lambda: direct_slope_estimate(_window([(0, 1, None), (1, 2, None), (2, 3, None)]),
                                               [mpf(1), mpf(-1), mpf(5)]),
                 SingularStep, "weight sum over the older samples vanished",
                 id="direct-slope-older-weights"),
    pytest.param(lambda: direct_slope_estimate(_window([(0, 1, None), (1, 2, None), (1, 3, None)]),
                                               [mpf(1)] * 3),
                 DegenerateNodes, "repeated x value in the window", id="direct-slope-repeated-x"),
    pytest.param(lambda: second_derivative_x_interp(_window([(0, 1, 2), (1, 2, 0)]),
                                                    _hermite([1, 1], [0, 0])),
                 ZeroDerivative, "inverse orientation needs non-zero f_prime",
                 id="x-interp-zero-slope"),
    pytest.param(lambda: second_derivative_x_interp(_window([(0, 1, 2), (1, 1, 3)]),
                                                    _hermite([1, 1], [0, 0])),
                 DegenerateNodes, "repeated f value in the window", id="x-interp-repeated-f"),
    pytest.param(lambda: second_derivative_f_interp(_window([(1, 1, 2), (1, 2, 3)]),
                                                    _hermite([1, 1], [0, 0])),
                 DegenerateNodes, "repeated x value in the window", id="f-interp-repeated-x"),
    pytest.param(lambda: baseline_step("secant", None, _window([(1, -1, None)])),
                 SingularStep, "secant needs two samples", id="secant-one-sample"),
    pytest.param(lambda: baseline_step("regula-falsi", None, _window([(1, -1, None)])),
                 ValueError, "unknown baseline 'regula-falsi'", id="unknown-baseline"),
])
def test_degenerate_input_raises(step, error, message):
    with pytest.raises(error) as info:
        step()
    assert type(info.value) is error
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# reductions and symmetry (light versions; the acceptance suite runs 100 each)


def test_exact_df_window2_reduces_to_secant():
    set_precision(256)
    rng = random.Random(42)
    for _ in range(20):
        window = _random_window(rng, 2)
        secant = baseline_step("secant", None, window)
        for scheme_nodes in ([s.x for s in window], [s.f for s in window]):
            step = step_exact_df(window, product_weights(scheme_nodes))
            assert rel_err(step, secant) <= mpf(10) ** -20


def test_exact_d1_window1_reduces_to_newton():
    set_precision(256)
    rng = random.Random(43)
    for _ in range(20):
        window = _random_window(rng, 1, with_slopes=True)
        newton = window[0].x - window[0].f / window[0].f_prime
        for hw in (
            derivative_scaled_weights([window[0].x], [window[0].f_prime]),
            squared_product_weights([window[0].f]),
        ):
            assert rel_err(step_exact_d1(window, hw), newton) <= mpf(10) ** -20


_coordinate = st.floats(min_value=-8, max_value=8, allow_nan=False).map(repr)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=2, max_size=5, unique=True))
def test_exact_df_scale_invariance_property(points):
    set_precision(256)
    window = [Sample(real(x), real(f)) for x, f in points]
    xs = [s.x for s in window]
    fs = [s.f for s in window]
    floor = mpf("1e-3")
    if any(abs(a - b) < floor for i, a in enumerate(xs) for b in xs[i + 1:]):
        return
    if any(abs(a - b) < floor for i, a in enumerate(fs) for b in fs[i + 1:]):
        return
    if any(abs(f) < floor for f in fs):
        return
    w = product_weights(xs)
    try:
        base = step_exact_df(window, w)
    except SingularStep:
        return
    scaled = [Sample(s.x, 3 * s.f) for s in window]
    assert rel_err(step_exact_df(scaled, product_weights(xs)), base) <= mpf(10) ** -20


def test_exact_steps_permutation_invariant():
    set_precision(256)
    rng = random.Random(44)
    window = _random_window(rng, 4, with_slopes=True)
    base_df = step_exact_df(window, product_weights([s.x for s in window]))
    base_d1 = step_exact_d1(
        window, derivative_scaled_weights([s.x for s in window], [s.f_prime for s in window])
    )
    for _ in range(10):
        perm = window[:]
        rng.shuffle(perm)
        df = step_exact_df(perm, product_weights([s.x for s in perm]))
        d1 = step_exact_d1(
            perm, derivative_scaled_weights([s.x for s in perm], [s.f_prime for s in perm])
        )
        assert rel_err(df, base_df) <= mpf(10) ** -20
        assert rel_err(d1, base_d1) <= mpf(10) ** -20
