import random

import pytest
from mpmath import mpf

from baryiter import corpus
from baryiter.errors import SingularStep
from baryiter.interpolants import Sample, eval_hermite
from baryiter.numerics import precision, real, set_precision
from baryiter.optimise import (
    ObjectiveSample,
    opt_step_d1,
    opt_step_df,
    optimize,
    phi_curvature_d1,
    phi_curvature_df,
    phi_slope_df,
    phi_third_d1,
)
from baryiter.root_search import SolverConfig
from baryiter.weights import product_weights, squared_product_weights

from oracles import fd_derivative, newton_poly_derivative, random_nodes, rel_err


def _window(fn, xs, dfn=None):
    return [
        ObjectiveSample(real(x), fn(real(x)), dfn(real(x)) if dfn else None)
        for x in xs
    ]


def _plain_view(window):
    # the interpolant evaluators operate on (x, value, slope) samples
    return [Sample(s.x, s.phi, s.phi_prime) for s in window]


def test_slope_and_curvature_hand_values_on_quadratic():
    window = _window(lambda x: x * x, [0, 1, 2])
    w = product_weights([s.x for s in window])
    slope = phi_slope_df(window, w)
    assert slope == 4
    assert phi_curvature_df(window, w, slope) == 2


def test_slope_exact_on_linear_and_curvature_zero():
    window = _window(lambda x: 3 * x - 1, [0, "0.5", 2])
    w = product_weights([s.x for s in window])
    slope = phi_slope_df(window, w)
    assert abs(slope - 3) <= mpf(10) ** -70
    assert abs(phi_curvature_df(window, w, slope)) <= mpf(10) ** -69


def test_slope_on_cubic_equals_interpolant_derivative():
    set_precision(256)
    xs = [mpf(0), mpf(1), mpf(2)]
    window = _window(lambda x: x ** 3, xs)
    w = product_weights(xs)
    slope = phi_slope_df(window, w)
    oracle = newton_poly_derivative(xs, [s.phi for s in window], xs[-1], order=1)
    assert abs(slope - oracle) <= mpf(10) ** -70
    assert oracle == 10  # quadratic fit of x^3; the true slope is 12


def test_curvature_on_quartic_equals_interpolant_second_derivative():
    set_precision(256)
    xs = [mpf(1), mpf("1.5"), mpf(2)]
    window = _window(lambda x: x ** 4, xs)
    w = product_weights(xs)
    slope = phi_slope_df(window, w)
    curvature = phi_curvature_df(window, w, slope)
    oracle = newton_poly_derivative(xs, [s.phi for s in window], xs[-1], order=2)
    assert rel_err(curvature, oracle) <= mpf(10) ** -60


def test_opt_step_df_exact_on_quadratic():
    window = _window(lambda x: (x - 5) ** 2 + 3, [1, 2, 4])
    w = product_weights([s.x for s in window])
    assert abs(opt_step_df(window, w) - 5) <= mpf(10) ** -70


def test_opt_step_df_symmetric_window_is_singular():
    # (x-5)^2 sampled at 4 and 6: the secant slope of phi vanishes
    window = _window(lambda x: (x - 5) ** 2, [4, 6])
    w = product_weights([s.x for s in window])
    assert phi_slope_df(window, w) == 0
    with pytest.raises(SingularStep):
        opt_step_df(window, w)


def test_curvature_d1_exact_on_quadratic_zero_on_linear():
    window = _window(lambda x: 2 * x * x - x, ["0.9", "1.1"], lambda x: 4 * x - 1)
    hw = squared_product_weights([s.x for s in window])
    assert rel_err(phi_curvature_d1(window, hw), mpf(4)) <= mpf(10) ** -70
    linear = _window(lambda x: 3 * x - 1, [1, 2], lambda x: real(3))
    hw = squared_product_weights([s.x for s in linear])
    assert abs(phi_curvature_d1(linear, hw)) <= mpf(10) ** -70


def test_curvature_d1_matches_fd_oracle_on_cos():
    import mpmath

    set_precision(256)
    window = _window(mpmath.cos, ["2.9", "3.1"], lambda x: -mpmath.sin(x))
    hw = squared_product_weights([s.x for s in window])
    estimate = phi_curvature_d1(window, hw)
    fd = fd_derivative(
        lambda t: eval_hermite(_plain_view(window), hw, t),
        window[-1].x,
        mpf(10) ** -15,
        order=2,
    )
    assert rel_err(estimate, fd) <= mpf(10) ** -12


def test_third_d1_exact_on_cubic_zero_on_quadratic():
    cubic = _window(lambda x: x ** 3, [1, 2], lambda x: 3 * x * x)
    hw = squared_product_weights([s.x for s in cubic])
    curvature = phi_curvature_d1(cubic, hw)
    assert rel_err(phi_third_d1(cubic, hw, curvature), mpf(6)) <= mpf(10) ** -70
    quad = _window(lambda x: x * x, [1, 2], lambda x: 2 * x)
    hw = squared_product_weights([s.x for s in quad])
    curvature = phi_curvature_d1(quad, hw)
    assert abs(phi_third_d1(quad, hw, curvature)) <= mpf(10) ** -69


def test_third_d1_matches_fd_oracle_on_quintic():
    set_precision(256)
    window = _window(lambda x: x ** 5, [1, 2], lambda x: 5 * x ** 4)
    hw = squared_product_weights([s.x for s in window])
    curvature = phi_curvature_d1(window, hw)
    third = phi_third_d1(window, hw, curvature)
    fd = fd_derivative(
        lambda t: eval_hermite(_plain_view(window), hw, t),
        window[-1].x,
        mpf(10) ** -15,
        order=3,
    )
    assert rel_err(third, fd) <= mpf(10) ** -10


def test_opt_step_d1_exact_and_beta_independent_on_quadratics():
    window = _window(lambda x: (x - 3) ** 2 + 7, ["1", "1.5"], lambda x: 2 * (x - 3))
    hw = squared_product_weights([s.x for s in window])
    outputs = [opt_step_d1(window, hw, real(beta)) for beta in ("0", "0.5", "1")]
    assert outputs[0] == outputs[1] == outputs[2]
    assert abs(outputs[0] - 3) <= mpf(10) ** -70


def test_opt_step_d1_quartic_matches_hand_composition():
    set_precision(256)
    window = _window(lambda x: x ** 4, ["0.9", "1.1"], lambda x: 4 * x ** 3)
    hw = squared_product_weights([s.x for s in window])
    got = opt_step_d1(window, hw, mpf(1))
    # independent composition of the displayed sums
    xs = [s.x for s in window]
    phis = [s.phi for s in window]
    dphis = [s.phi_prime for s in window]
    lam, gam = hw.lam, hw.gam
    n = 1
    d = xs[n] - xs[0]
    dphi = phis[n] - phis[0]
    # one division per pair: 1/d^2, and 1/d = d * 1/d^2, as the weights form them
    inv2 = 1 / d ** 2
    inv = d * inv2
    curv = -2 / lam[n] * (
        gam[n] * dphis[n]
        + (gam[0] * dphi - lam[0] * dphis[0]) * inv
        + lam[0] * dphi * inv2
    )
    third = -6 / lam[n] * (
        gam[n] * curv / 2
        + gam[0] * dphis[n] * inv
        - (gam[0] * dphi - lam[0] * (dphis[n] + dphis[0])) * inv2
        - 2 * lam[0] * dphi * inv2 * inv
    )
    expected = xs[n] - (
        (curv ** 2 + (mpf(1) / 2 - 1) * dphis[n] * third)
        / (curv ** 2 - 1 * dphis[n] * third)
    ) * (dphis[n] / curv)
    assert got == expected


def test_optimize_quadratic_both_methods():
    problem = corpus.get_problem("opt_quadratic")
    for method, window in (("newton-df", 3), ("ch-d1", 2)):
        config = SolverConfig(method=method, window=window, precision_bits=256, max_iter=20)
        trace = optimize(problem, config)
        assert trace.status == "converged", method
        with precision(256):
            assert abs(trace.steps[-1].x - 2) < real("1e-20")


def test_optimize_records_curvature_sign():
    problem = corpus.get_problem("opt_quadratic")
    config = SolverConfig(method="ch-d1", window=2, precision_bits=128, max_iter=20)
    trace = optimize(problem, config)
    signs = [s.curvature_sign for s in trace.steps]
    assert signs[:2] == [None, None]  # seed points carry no estimate
    assert all(sign == 1 for sign in signs[2:])


def test_optimize_quartic_negative_curvature_start_reports_sign():
    problem = corpus.get_problem("opt_quartic")
    config = SolverConfig(method="ch-d1", window=3, x0="0.8", precision_bits=256, max_iter=40)
    trace = optimize(problem, config)
    assert trace.status == "converged"
    with precision(256):
        assert abs(trace.steps[-1].x - 1) < real("1e-20")


def test_optimize_newton_df_needs_three_point_window():
    problem = corpus.get_problem("opt_quadratic")
    with pytest.raises(ValueError):
        optimize(problem, SolverConfig(method="newton-df", window=2))
    with pytest.raises(ValueError):
        optimize(problem, SolverConfig(method="ch-d1", window=1))
    with pytest.raises(ValueError):
        optimize(problem, SolverConfig(method="newton", window=1))


def test_optimize_rejects_picard_bootstrap():
    problem = corpus.get_problem("opt_quadratic")
    config = SolverConfig(method="ch-d1", window=2, bootstrap="picard")
    with pytest.raises(ValueError):
        optimize(problem, config)


def test_optimize_explicit_second_seed():
    problem = corpus.get_problem("opt_quadratic")
    config = SolverConfig(
        method="newton-df", window=3, x0="0", x1="0.5", bootstrap="explicit",
        precision_bits=128, max_iter=20,
    )
    trace = optimize(problem, config)
    assert trace.steps[1].x == mpf("0.5")
    assert trace.steps[2].x == mpf("-0.5")  # mirrored third seed
    assert trace.status == "converged"


def test_newton_df_leaves_the_residual_out_where_the_slope_estimate_is_singular():
    # phi = x + 2^-41 x^2 from the seeds 0, 1, -1 steps exactly to its minimiser -2^40;
    # there the product weights of the three older nodes cancel to an exact zero sum at
    # 64 bits, so the slope estimate has no residual and the run goes on without one
    k = mpf(2) ** -41
    problem = corpus.Problem(name="far_minimiser", kind="optimisation",
                             f=lambda x: x + k * x * x)
    config = SolverConfig(method="newton-df", window=4, x0="0", x1="1", bootstrap="explicit",
                          precision_bits=64, max_iter=8)
    trace = optimize(problem, config)
    assert trace.steps[3].x == -mpf(2) ** 40
    assert trace.steps[3].f_prime is None
    assert trace.status == "converged" and trace.steps[-1].x == -mpf(2) ** 40


def test_opt_step_df_quartic_matches_composed_estimates():
    set_precision(256)
    xs = [real("0.8"), real("0.9"), real("1.1")]
    window = _window(lambda x: x ** 4 - 2 * x * x, xs)
    w = product_weights(xs)
    got = opt_step_df(window, w)
    # compose the two estimates independently
    n = 2
    den = w[0] + w[1]
    slope = (
        w[0] * (window[n].phi - window[0].phi) / (xs[n] - xs[0])
        + w[1] * (window[n].phi - window[1].phi) / (xs[n] - xs[1])
    ) / den
    curvature = -2 * (
        w[0] * ((window[n].phi - window[0].phi) - slope * (xs[n] - xs[0])) / (xs[n] - xs[0]) ** 2
        + w[1] * ((window[n].phi - window[1].phi) - slope * (xs[n] - xs[1])) / (xs[n] - xs[1]) ** 2
    ) / den
    assert got == xs[n] - slope / curvature


def test_optimize_newton_df_cos_empirical_order():
    from baryiter.analysis import empirical_order

    problem = corpus.get_problem("opt_cos")
    config = SolverConfig(method="newton-df", window=4, precision_bits=512, max_iter=40)
    trace = optimize(problem, config)
    assert trace.status == "converged"
    with precision(512):
        order = empirical_order(trace, 4)
        assert abs(order - real("1.46557")) <= real("0.15")


def test_ch_d1_window2_error_form_spot_check():
    # Along a run that starts within 1e-3 of the minimiser, the two-point
    # first-derivative scheme's errors settle into
    # e_{k+1} ~ -(2 phi'''' / 4! phi'') e_{k-1}^2 e_k; the displayed e_k^2
    # contribution is sub-dominant once e_k << e_{k-1} (checked numerically:
    # it cancels between the Newton part and the rational correction).
    problem = corpus.get_problem("opt_xexp")
    config = SolverConfig(
        method="ch-d1", window=2, x0="-0.999", x1="-0.9995",
        bootstrap="explicit", precision_bits=512, max_iter=30,
    )
    trace = optimize(problem, config)
    assert trace.status == "converged"
    with precision(512):
        errors = [s.error for s in trace.steps if s.error is not None and s.error != 0]
        assert len(errors) >= 5
        minimiser = real(-1)
        curvature = problem.d2f(minimiser)
        fourth = (4 + minimiser) * problem.f(minimiser) / minimiser  # (4+x)e^x at -1
        predicted = -2 * fourth / (24 * curvature)
        for k in (len(errors) - 2, len(errors) - 1):
            ratio = errors[k] / (errors[k - 2] ** 2 * errors[k - 1])
            assert rel_err(ratio, predicted) <= real("0.2")


def test_shift_scale_invariance_of_iterates():
    set_precision(256)
    rng = random.Random(77)
    for _ in range(10):
        xs = random_nodes(rng, 3, low=0.5, high=3.0)
        a = real(repr(rng.uniform(0.3, 4)))
        b = real(repr(rng.uniform(-5, 5)))
        window = _window(lambda x: x ** 4 - 2 * x, xs, lambda x: 4 * x ** 3 - 2)
        scaled = [
            ObjectiveSample(s.x, a * s.phi + b, a * s.phi_prime) for s in window
        ]
        w = product_weights(xs)
        assert rel_err(opt_step_df(window, w), opt_step_df(scaled, w)) <= mpf(10) ** -20
        hw = squared_product_weights(xs)
        assert rel_err(
            opt_step_d1(window, hw, mpf(1)), opt_step_d1(scaled, hw, mpf(1))
        ) <= mpf(10) ** -20
