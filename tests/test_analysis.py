import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp

from baryiter import corpus
from baryiter.analysis import (
    ErrorFactorSpec,
    empirical_order,
    order_limit,
    predicted_error_factor,
    theoretical_order,
    verify_error_factor,
)
from baryiter.errors import InsufficientData, UnsupportedCell
from baryiter.numerics import make_mpf, precision, real, set_precision
from baryiter.root_search import IterationTrace, SolverConfig, StepRecord, solve

from oracles import empirical_order_direct

# published convergence indexes, five decimal places
ROOT_ORDERS = {
    1: ["1.00000", "1.61803", "1.83929", "1.92756", "1.96595"],
    2: ["2.00000", "2.73205", "2.91964", "2.97445", "2.99165"],
}
OPT_ORDERS = {
    1: ["1.00000", "1.32472", "1.46557", "1.53416", "1.61803"],
    2: ["2.00000", "2.26953", "2.35930", "2.39246", "2.41421"],
    3: ["3.00000", "3.22069", "3.27902", "3.29571", "3.30278"],
}


def _synthetic_trace(abs_errors):
    steps = [
        StepRecord(i, mpf(0), mpf(0), None, real(e), "ok")
        for i, e in enumerate(abs_errors)
    ]
    return IterationTrace("synthetic", "none", SolverConfig(), mpf(0), steps)


def test_theoretical_order_root_table():
    for m, row in ROOT_ORDERS.items():
        for n, cell in enumerate(row):
            value = theoretical_order("root", m, n)
            assert abs(value - real(cell)) < real("0.5e-5"), (m, n)


def test_theoretical_order_opt_table():
    for m, row in OPT_ORDERS.items():
        for index, cell in enumerate(row):
            n = index + 1 if index < 4 else math.inf
            value = theoretical_order("opt", m, n)
            assert abs(value - real(cell)) < real("0.5e-5"), (m, n)


def test_root_order_n0_is_multiplicity():
    assert theoretical_order("root", 1, 0) == 1
    assert abs(theoretical_order("root", 2, 0) - 2) < real("1e-12")
    assert abs(theoretical_order("root", 3, 0) - 3) < real("1e-12")


def test_order_residual_and_monotonicity():
    for family, m in (("root", 1), ("root", 2), ("opt", 2), ("opt", 3)):
        previous = mpf(0)
        for n in range(0 if family == "root" else 1, 9):
            l = theoretical_order(family, m, n)
            if family == "root":
                residual = l - (m + 1) + m * l ** (-(n + 1))
            else:
                residual = l * l - 1 - m * (l - l ** (-n))
            assert abs(residual) <= real("1e-12")
            assert l >= previous
            assert l <= order_limit(family, m) + real("1e-12")
            previous = l


@pytest.mark.parametrize("family", ["root", "opt"])
def test_theoretical_order_matches_findroot_on_the_same_residual(family):
    set_precision(256)
    for m in range(1, 5):
        for n in range(13):
            l = theoretical_order(family, m, n)
            if l == 1:  # no crossing above 1
                continue
            if family == "root":
                residual = lambda t: t - (m + 1) + m * t ** (-(n + 1))  # noqa: E731
            else:
                residual = lambda t: t * t - 1 - m * (t - t ** (-n))  # noqa: E731
            # the largest root lies between the midpoint of [1, limit] and the limit
            root = mpmath.findroot(residual, ((1 + l) / 2, order_limit(family, m)),
                                   solver="anderson")
            # Newton stops after a step within 2^10 ulps of the limit, so the last
            # iterate, a quadratic step further on, is good to the working precision
            assert abs(l - root) <= mpmath.ldexp(l, 4 - mpmath.mp.prec), (m, n)


def test_theoretical_order_holds_at_the_precision_floor():
    # 1 + 1e-30 rounds to 1 at 64 bits: the degenerate-row check reads the slope at 1
    for family, m, n in (("root", 1, 2), ("opt", 2, 3), ("opt", 1, 1)):
        with precision(256):
            fine = theoretical_order(family, m, n)
        with precision(64):
            assert abs(theoretical_order(family, m, n) - fine) <= real("1e-16") * fine


def test_order_limits():
    assert order_limit("root", 1) == 2
    assert order_limit("root", 2) == 3
    assert abs(order_limit("opt", 1) - real("1.6180339887")) < real("1e-9")
    assert abs(order_limit("opt", 2) - real("2.4142135623")) < real("1e-9")
    assert theoretical_order("opt", 2, math.inf) == order_limit("opt", 2)
    with pytest.raises(ValueError):
        theoretical_order("nope", 1, 1)
    with pytest.raises(ValueError):
        theoretical_order("root", 0, 1)


def test_empirical_order_constructed_quadratic_sequence():
    trace = _synthetic_trace([f"1e-{2 ** i}" for i in range(1, 7)])
    assert abs(empirical_order(trace, 4) - 2) < real("1e-12")


def test_empirical_order_from_published_secant_magnitudes():
    # last two entries of the published secant error column
    trace = _synthetic_trace(["5.09e-11", "8.93e-18"])
    expected = mpmath.log(real("8.93e-18")) / mpmath.log(real("5.09e-11"))
    got = empirical_order(trace, 1)
    assert got == expected
    assert abs(got - real("1.656")) < real("5e-4")


def test_empirical_order_from_published_first_derivative_magnitudes():
    trace = _synthetic_trace(["2.87e-43", "1.56e-126"])
    got = empirical_order(trace, 1)
    assert abs(got - real("2.96")) < real("5e-3")


def test_empirical_order_requires_enough_data():
    trace = _synthetic_trace(["0.5", "0.01"])
    with pytest.raises(InsufficientData):
        empirical_order(trace, 2)
    # errors at or above 1 are not usable
    trace = _synthetic_trace(["2.26", "1.73", "0.5"])
    with pytest.raises(InsufficientData):
        empirical_order(trace, 2)


# signed errors |man| 2^exp with |man| up to 4200 bits, so some carry more
# bits than the working precision; most lie in (0, 1), a few at or above 1,
# some are exactly zero and some steps have none
_errors = st.one_of(
    st.none(),
    st.just(mpf(0)),
    st.builds(
        lambda negative, man, shift: make_mpf(
            from_man_exp(-man if negative else man, -man.bit_length() - shift)),
        st.booleans(), st.integers(min_value=1, max_value=2 ** 4200),
        st.integers(min_value=-3, max_value=100000),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_errors, min_size=2, max_size=16), st.integers(min_value=1, max_value=5),
       st.integers(min_value=64, max_value=4096))
def test_empirical_order_is_the_fsum_of_log_ratios_bit_for_bit(errors, k_last, bits):
    steps = [StepRecord(i, mpf(0), mpf(0), None, e, "ok") for i, e in enumerate(errors)]
    trace = IterationTrace("synthetic", "none", SolverConfig(), mpf(0), steps)
    with precision(bits):
        try:
            expected = empirical_order_direct(trace, k_last)
        except InsufficientData:
            with pytest.raises(InsufficientData):
                empirical_order(trace, k_last)
            return
        assert empirical_order(trace, k_last)._mpf_ == expected._mpf_


def test_predicted_error_factor_hand_values():
    secant = ErrorFactorSpec("secant", 2, ("2", "2"))
    assert predicted_error_factor(secant) == mpf("0.5")
    direct = ErrorFactorSpec("newton-f-interp/x", 3, ("1", "0", "6"))
    assert predicted_error_factor(direct) == -1
    flat = ErrorFactorSpec("exact-df/f", 4, ("3", "0", "0", "0"))
    assert predicted_error_factor(flat) == 0


def test_predicted_error_factor_unsupported_cells():
    with pytest.raises(UnsupportedCell):
        predicted_error_factor(ErrorFactorSpec("exact-df/x", 5, ("1", "1", "1", "1", "1")))
    with pytest.raises(UnsupportedCell):
        predicted_error_factor(ErrorFactorSpec("made-up/x", 2, ("1", "1")))
    with pytest.raises(UnsupportedCell):
        predicted_error_factor(ErrorFactorSpec("exact-d1/x", 3, ("1", "1", "1")))
    with pytest.raises(ValueError):
        predicted_error_factor(ErrorFactorSpec("secant", 2, ("0", "2")))


_TRACE = ["0.5", "0.1", "0.01", "0.001", "1e-5", "1e-9"]
_FLAT = ErrorFactorSpec("exact-df/f", 4, ("3", "0", "0", "0"))  # predicted factor 0


@pytest.mark.parametrize("call, error, message", [
    (lambda: theoretical_order("root", 1, -1), ValueError, "n must be non-negative"),
    (lambda: empirical_order(_synthetic_trace(_TRACE), 0), ValueError,
     "k_last must be positive"),
    # the secant cell reads f'' past the one derivative given
    (lambda: predicted_error_factor(ErrorFactorSpec("secant", 2, ("2",))), UnsupportedCell,
     "needs the solution derivative of order 2"),
    (lambda: verify_error_factor(_synthetic_trace(_TRACE), _FLAT, 0), ValueError,
     "window_tail must be positive"),
    (lambda: verify_error_factor(_synthetic_trace(_TRACE), _FLAT, 1), ValueError,
     "predicted factor is zero; relative deviation is undefined"),
])
def test_argument_guards(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "3"], ids=repr)
def test_a_count_that_is_not_an_int_is_refused(value):
    trace = _synthetic_trace(_TRACE)
    calls = [
        ("m", lambda: theoretical_order("root", value, 2)),
        ("n", lambda: theoretical_order("opt", 1, value)),
        ("k_last", lambda: empirical_order(trace, value)),
        ("window_tail", lambda: verify_error_factor(trace, ErrorFactorSpec("secant", 2, ("2", "3")),
                                                    value)),
        ("n_plus_1", lambda: predicted_error_factor(ErrorFactorSpec("secant", value, ("2", "3")))),
        ("n_plus_1", lambda: predicted_error_factor(ErrorFactorSpec("newton-df/x", value,
                                                                    ("0", "2", "12")))),
        ("n_plus_1", lambda: verify_error_factor(trace, ErrorFactorSpec("secant", value, ("2", "3")),
                                                 2)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{name} must be an integer, got {value!r}", name
    assert theoretical_order("opt", 2, math.inf) == order_limit("opt", 2)  # the one non-int n


def test_predicted_error_factor_opt_scheme():
    # window 3 (n=2): +phi'''/(3! phi'')
    spec = ErrorFactorSpec("newton-df/x", 3, ("0", "2", "12"))
    assert predicted_error_factor(spec) == 1
    # window 2 (n=1): -phi''/(2! phi'') = -1/2 regardless of the curvature
    spec = ErrorFactorSpec("newton-df/x", 2, ("0", "2", "12"))
    assert predicted_error_factor(spec) == mpf("-0.5")


def test_verify_error_factor_secant_on_sqrt2():
    set_precision(256)
    problem = corpus.get_problem("x2_minus_2")
    config = SolverConfig(
        method="exact-df", weight_scheme="x", window=2, x0="1", x1="2",
        bootstrap="explicit", precision_bits=256, max_iter=40,
    )
    trace = solve(problem, config)
    root = problem.reference()
    spec = ErrorFactorSpec("secant", 2, (2 * root, real(2)))
    deviation = verify_error_factor(trace, spec, 3)
    assert deviation <= real("0.05")


def test_verify_error_factor_newton_on_sqrt2():
    set_precision(256)
    problem = corpus.get_problem("x2_minus_2")
    config = SolverConfig(method="newton", window=1, x0="2", precision_bits=256, max_iter=40)
    trace = solve(problem, config)
    root = problem.reference()
    # Newton: e_{n+1} ~ f''/(2 f') e_n^2, the window-1 first-derivative cell
    spec = ErrorFactorSpec("newton", 1, (2 * root, real(2)))
    deviation = verify_error_factor(trace, spec, 3)
    assert deviation <= real("0.05")
    predicted = predicted_error_factor(spec)
    assert abs(predicted - 1 / (2 * root)) <= real("1e-70")


def test_verify_error_factor_skips_a_window_holding_a_zero_error():
    # secant with factor 1/2: e_j = e_{j-1} e_{j-2} / 2 exactly, except the zeros
    spec = ErrorFactorSpec("secant", 2, ("2", "2"))
    for errors, usable in ((["1", "0", "0.5", "0.25", "0.0625"], 1),
                           (["1", "0.5", "0.25", "0.0625", "0"], 2)):
        trace = _synthetic_trace(errors)
        assert verify_error_factor(trace, spec, usable) == 0
        with pytest.raises(InsufficientData, match=f"have {usable}$"):
            verify_error_factor(trace, spec, usable + 1)


def test_verify_error_factor_rejects_zero_prediction():
    trace = _synthetic_trace(["0.5", "0.1", "0.01"])
    spec = ErrorFactorSpec("exact-df/f", 4, ("3", "0", "0", "0"))
    with pytest.raises(ValueError):
        verify_error_factor(trace, spec, 1)


def test_verify_error_factor_linear_insufficient():
    from baryiter.expressions import parse_expression

    e = parse_expression("7*x-3")
    problem = corpus.Problem(name="7*x-3", kind="root", f=e.f, df=e.df, default_x0="10")
    config = SolverConfig(method="exact-df", window=2, precision_bits=128)
    trace = solve(problem, config)
    spec = ErrorFactorSpec("secant", 2, ("7", "0"))
    with pytest.raises(InsufficientData):
        verify_error_factor(trace, spec, 3)
