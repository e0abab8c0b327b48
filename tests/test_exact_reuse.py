"""Each hot-path value is computed once, and reusing it changes no bit.

The memoised ``cos``/``sin``/``exp`` are checked against mpmath; the weight
families, window selection, step formulas and the solver loop's checks against
the mpf loops in ``oracles``; and call counts show the weights of a window
and the default tolerance being built once.
"""

from collections import Counter
from functools import lru_cache
from types import SimpleNamespace

import mpmath
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import mpf_cos_sin, mpf_exp

from baryiter import corpus, interpolants, numerics, optimise, root_search
from baryiter import weights as weight_families
from baryiter.errors import DegenerateNodes, SingularStep, ZeroDerivative
from baryiter.interpolants import Sample
from baryiter.root_search import STATUS_FALLBACK, SolverConfig, select_window
from baryiter.weights import (
    HermiteWeights,
    WeightMemory,
    derivative_scaled_weights,
    product_weights,
    shifted_product_weights,
    squared_product_weights,
)

from oracles import (
    derivative_scaled_weights_direct,
    product_weights_direct,
    select_window_direct,
    shifted_product_weights_direct,
    squared_product_weights_direct,
)

PRECISIONS = (64, 256, 4096)
FUNCTIONS = ("cos", "sin", "exp")
# zero, tiny, huge, negative, +-inf and nan; the floats have the same bits at
# every precision, so only the precision tells their memo keys apart, while
# the decimal strings round differently at each precision
SPECIAL = (
    0.0, 5e-324, -1e-300, 1e300, -1e300, 0.5, -3.75, float("inf"), float("-inf"), float("nan"),
    "0.1", "-2.5e-1000", "1e-5000", "7e400", "-7e400",
)
ARGUMENTS = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e6, 1e6), st.floats())


def _check_elementary(name, x, bits):
    with numerics.precision(bits):
        got = oracles.elementary(name, x)
        want = getattr(mpmath, name)(mpf(x))
    assert got._mpf_ == want._mpf_, (name, x, bits)


@pytest.mark.parametrize("x", SPECIAL)
def test_elementary_functions_match_mpmath_at_each_precision_in_turn(x):
    for bits in PRECISIONS + PRECISIONS[::-1]:
        for name in FUNCTIONS + FUNCTIONS:  # the repeats are memo hits
            _check_elementary(name, x, bits)


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(ARGUMENTS, min_size=1, max_size=3),
    calls=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(PRECISIONS), st.sampled_from(FUNCTIONS)),
        min_size=2, max_size=20),
)
def test_memoised_elementary_functions_are_bit_identical(pool, calls):
    # a small pool repeats arguments across interleaved precisions
    for index, bits, name in calls:
        _check_elementary(name, pool[index % len(pool)], bits)


def test_cos_and_sin_at_one_point_share_one_evaluation(monkeypatch):
    calls = []

    def counted(libmp_function):
        return lambda *key: calls.append(key) or libmp_function(*key)

    monkeypatch.setattr(numerics, "_cos_sin", lru_cache(maxsize=1)(counted(mpf_cos_sin)))
    monkeypatch.setattr(numerics, "_exp", lru_cache(maxsize=1)(counted(mpf_exp)))
    with numerics.precision(256):
        x = mpf(1) / 3
        for name in ("cos", "sin", "cos", "exp", "exp"):
            oracles.elementary(name, x)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# weights


def _bits(weights):
    """Exact bits of a weight list or of a (lam, gam) pair."""
    if isinstance(weights, HermiteWeights):
        weights = (weights.lam, weights.gam)
    if isinstance(weights, tuple):
        return tuple(_bits(list(part)) for part in weights)
    return [w._mpf_ for w in weights]


def _outcome(build, *args):
    try:
        return _bits(build(*args))
    except (DegenerateNodes, ZeroDerivative) as err:
        return type(err), str(err)


def _families(nodes, alpha, slopes):
    """(library outcome, oracle outcome) for each of the four families."""
    return [
        (_outcome(product_weights, nodes), _outcome(product_weights_direct, nodes)),
        (_outcome(shifted_product_weights, nodes, alpha),
         _outcome(shifted_product_weights_direct, nodes, alpha)),
        (_outcome(squared_product_weights, nodes), _outcome(squared_product_weights_direct, nodes)),
        (_outcome(derivative_scaled_weights, nodes, slopes),
         _outcome(derivative_scaled_weights_direct, nodes, slopes)),
    ]


# p/q fills the whole mantissa at the working precision
RATIONALS = st.tuples(st.integers(-10**6, 10**6), st.integers(1, 997))


def _value(pq):
    return mpf(pq[0]) / pq[1]


# (hypothesis examples, most nodes) per precision: a 32768-bit division
# takes milliseconds, and the direct loops make O(nodes^2) of them per family
WEIGHT_RUNS = {64: (60, 9), 256: (60, 9), 4096: (30, 9), 32768: (5, 5)}


@pytest.mark.parametrize("bits", sorted(WEIGHT_RUNS))
def test_weights_are_bit_identical_to_the_direct_loops(bits):
    examples, most_nodes = WEIGHT_RUNS[bits]

    # collisions make DegenerateNodes, a zero slope ZeroDerivative; both
    # together check which the library raises first, with the same message
    @settings(max_examples=examples, deadline=None)
    @given(
        nodes=st.lists(RATIONALS, min_size=2, max_size=most_nodes),
        alpha=st.one_of(st.sampled_from(((0, 1), (1, 1))), RATIONALS),
        slopes=st.lists(RATIONALS, min_size=9, max_size=9),
        collide=st.sampled_from((None, "nodes", "shifted")),
        zero_slope=st.booleans(),
    )
    def check(nodes, alpha, slopes, collide, zero_slope):
        with numerics.precision(bits):
            nodes = [_value(v) for v in nodes]
            alpha = _value(alpha)
            if collide == "nodes":
                nodes[-1] = nodes[0]
            elif collide == "shifted" and nodes[-1] != 0:
                alpha = nodes[0] / nodes[-1]
            slopes = [_value(s) for s in slopes[:len(nodes)]]
            if zero_slope:
                slopes[-1] = mpf(0)
            for got, want in _families(nodes, alpha, slopes):
                assert got == want

    check()


def test_a_colliding_pair_is_named_as_before():
    with numerics.precision(256):
        tiny = mpf(2) ** -260
        # two pairs collide; the first in row order is (1, 1 + tiny), and in the
        # shifted family, whose newest node moves to (1 + tiny) / 2, it is (2, 2 + tiny)
        nodes = [mpf(3), mpf(1), mpf(2), mpf(2) + tiny, mpf(1) + tiny]
        families = _families(nodes, mpf("0.5"), [mpf(1)] * len(nodes))
        for index, (got, want) in enumerate(families):
            pair = (2, 2 + tiny) if index == 1 else (1, 1 + tiny)
            assert got == want
            assert got[0] is DegenerateNodes
            assert got[1] == f"nodes too close: {mpf(pair[0])} and {mpf(pair[1])}"


# ---------------------------------------------------------------------------
# window selection on running scales


def _coordinate(code, bits):
    """A value on the lattice of 2^-bits near 1 or near 0, by its code.

    While the largest |value| is 1 the separation floor is 256 units, so
    offsets of 255, 256 and 257 units fall just under, at and just over it.
    """
    near, m, e, sign = code
    unit = mpf(2) ** -bits
    k = max(256 * m + e, 0)
    return sign * (1 - k * unit) if near == "one" else sign * k * unit


CODES = st.tuples(st.sampled_from(("one", "zero")), st.integers(0, 3),
                  st.sampled_from((-1, 0, 1)), st.sampled_from((1, -1)))
ONE, BELOW_FLOOR, AT_FLOOR, ABOVE_FLOOR = (("one", 0, 0, 1), ("one", 1, -1, 1),
                                           ("one", 1, 0, 1), ("one", 1, 1, 1))


@settings(max_examples=150, deadline=None)
@given(
    bits=st.sampled_from((64, 256)),
    keys=st.sampled_from((frozenset({"x"}), frozenset({"f"}), frozenset({"x", "f"}))),
    size=st.integers(1, 8),
    points=st.lists(st.tuples(CODES, CODES), min_size=1, max_size=14),
    all_zero=st.sampled_from((None, "x", "f")),
)
@example(bits=256, keys=frozenset({"x"}), size=3, all_zero=None,
         points=[(code, ONE) for code in (BELOW_FLOOR, ONE, AT_FLOOR, ABOVE_FLOOR)])
@example(bits=64, keys=frozenset({"x", "f"}), size=4, all_zero="f",
         points=[(code, code) for code in (ONE, ABOVE_FLOOR, ("zero", 0, 1, -1), ONE)])
def test_running_scales_select_as_the_full_history_scan(bits, keys, size, points, all_zero):
    with numerics.precision(bits):
        run = root_search._Run(None, "", None, None, keys, size, mpf(0), mpf(1),
                               select_window, None)
        samples = run.samples
        for x_code, f_code in points:
            x = mpf(0) if all_zero == "x" else _coordinate(x_code, bits)
            f = mpf(0) if all_zero == "f" else _coordinate(f_code, bits)
            run.add(Sample(x, f))
            want = select_window_direct(samples, min(size, len(samples)), keys)
            got = run.newest_window()
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# built once


def test_newton_df_builds_the_weights_once_per_proposed_step(monkeypatch):
    builds, proposals = [], []
    build = optimise.product_weights
    propose = optimise._opt_propose
    monkeypatch.setattr(optimise, "product_weights",
                        lambda *args: builds.append(1) or build(*args))

    def counted_propose(run):
        before = len(builds)
        try:
            return propose(run)
        finally:
            proposals.append(len(builds) - before)

    monkeypatch.setattr(optimise, "_opt_propose", counted_propose)
    config = SolverConfig(method="newton-df", window=4, precision_bits=256)
    trace = optimise.optimize(corpus.get_problem("opt_cos"), config)
    assert trace.status == "converged"
    assert all(step.status != STATUS_FALLBACK for step in trace.steps)
    # a proposal reuses the weights its sample's residual built; the
    # residuals of the second and third seed build the other two
    assert proposals and set(proposals) == {0}
    assert len(builds) == len(proposals) + 2


def test_newton_df_estimates_the_slope_once_per_window(monkeypatch):
    slopes, proposals = [], []
    estimate = optimise.phi_slope_df
    propose = optimise._opt_propose
    monkeypatch.setattr(optimise, "phi_slope_df",
                        lambda *args: slopes.append(1) or estimate(*args))

    def counted_propose(run):
        before = len(slopes)
        try:
            return propose(run)
        finally:
            proposals.append(len(slopes) - before)

    monkeypatch.setattr(optimise, "_opt_propose", counted_propose)
    config = SolverConfig(method="newton-df", window=4, precision_bits=256)
    trace = optimise.optimize(corpus.get_problem("opt_cos"), config)
    assert trace.status == "converged"
    assert all(step.status != STATUS_FALLBACK for step in trace.steps)
    # a proposal steps on the slope its sample's residual estimated; every
    # sample after the first has a residual, and none is estimated again
    assert proposals and set(proposals) == {0}
    assert len(slopes) == len(trace.steps) - 1


def test_a_fallback_newton_df_step_estimates_its_own_slope(monkeypatch):
    windows = []
    estimate = optimise.phi_slope_df
    monkeypatch.setattr(optimise, "phi_slope_df",
                        lambda window, weights, memory=None: windows.append(len(window)) or
                        estimate(window, weights, memory))
    run = SimpleNamespace(slope=(None, None), memory=None)
    with numerics.precision(256):
        window = [Sample(mpf(x), mpf(x) ** 2) for x in (1, 2, 4, 5)]
        weights = optimise.x_product(window, mpf(0))
        run.slope = weights, estimate(window, weights)
        want = optimise._df_step(window[1:], optimise.x_product(window[1:], mpf(0)))
        windows.clear()
        got = optimise.newton_df(run, window[1:], optimise.x_product(window[1:], mpf(0)))
    # the residual's weights belong to the four-sample window: the three-sample one
    # estimates its own slope
    assert windows == [3]
    assert _exact(got) == _exact(want)


def test_default_tolerance_is_computed_once_per_precision():
    root_search.default_tolerance.cache_clear()
    problem = corpus.get_problem("cos_minus_x")
    for _ in range(2):
        root_search.solve(problem, SolverConfig(method="secant", precision_bits=320))
    info = root_search.default_tolerance.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_newton_df_selects_each_window_once(monkeypatch):
    selections, proposals = [], []
    select = optimise.select_window
    propose = optimise._opt_propose
    monkeypatch.setattr(optimise, "select_window",
                        lambda *args: selections.append(1) or select(*args))
    monkeypatch.setattr(optimise, "_opt_propose",
                        lambda run: proposals.append(1) or propose(run))
    config = SolverConfig(method="newton-df", window=4, precision_bits=256)
    trace = optimise.optimize(corpus.get_problem("opt_cos"), config)
    assert trace.status == "converged"
    # each of the three seeds' residuals selects a window; a proposal uses
    # the window its newest sample's residual selected
    assert proposals
    assert len(selections) == len(proposals) + 3


@pytest.mark.parametrize("method, scheme", [("exact-df", "x"), ("newton-f-interp", "f")])
def test_root_runs_select_each_window_once(monkeypatch, method, scheme):
    selections, proposals = [], []
    select = root_search.select_window
    propose = root_search._propose
    monkeypatch.setattr(root_search, "select_window",
                        lambda *args: selections.append(1) or select(*args))
    monkeypatch.setattr(root_search, "_propose",
                        lambda *args: proposals.append(1) or propose(*args))
    config = SolverConfig(method=method, weight_scheme=scheme, window=4, precision_bits=256)
    trace = root_search.solve(corpus.get_problem("cos_minus_x"), config)
    assert trace.status == "converged"
    # a root run has no residual to select for: each proposal selects once
    assert proposals
    assert len(selections) == len(proposals)


# ---------------------------------------------------------------------------
# step formulas and the solver loop's checks on raw values


def _exact(value):
    """A result's exact bits: an mpf's raw value, element-wise through tuples."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    return (type(value), value._mpf_) if isinstance(value, mpf) else value


def _step_outcome(fn, *args):
    """The exact result, or the exception's type and message."""
    try:
        return _exact(fn(*args))
    except Exception as err:  # which guard fires first is part of the outcome
        return type(err), str(err)


NO_MEMORY = SimpleNamespace(memory=None)  # a run whose steps form every pair row themselves


def _step_pairs(window, weights, hweights, beta, slope, curvature, fpp):
    """(name, library call, oracle call) for every converted formula on one draw."""
    problem = SimpleNamespace(name="drawn", fixed_point=lambda x: x + 1, d2f=lambda x: fpp)
    pairs = [
        ("step_exact_df", (root_search.step_exact_df, window, weights),
         (oracles.step_exact_df_direct, window, weights)),
        ("step_exact_d1", (root_search.step_exact_d1, window, hweights),
         (oracles.step_exact_d1_direct, window, hweights)),
        ("inverse_slope_estimate", (root_search.inverse_slope_estimate, window, weights),
         (oracles.inverse_slope_estimate_direct, window, weights)),
        ("direct_slope_estimate", (root_search.direct_slope_estimate, window, weights),
         (oracles.direct_slope_estimate_direct, window, weights)),
        ("second_derivative_x_interp", (root_search.second_derivative_x_interp, window, hweights),
         (oracles.second_derivative_x_interp_direct, window, hweights)),
        ("second_derivative_f_interp", (root_search.second_derivative_f_interp, window, hweights),
         (oracles.second_derivative_f_interp_direct, window, hweights)),
        ("newton_x_interp", (lambda *a: root_search.newton_x_interp(NO_MEMORY, *a)[0], window,
                             weights),
         (oracles.newton_x_interp_direct, window, weights)),
        ("newton_f_interp", (lambda *a: root_search.newton_f_interp(NO_MEMORY, *a)[0], window,
                             weights),
         (oracles.newton_f_interp_direct, window, weights)),
        ("phi_curvature_df", (optimise.phi_curvature_df, window, weights, slope),
         (oracles.phi_curvature_df_direct, window, weights, slope)),
        ("_df_step", (optimise._df_step, window, weights),
         (oracles.df_step_direct, window, weights)),
        ("phi_third_d1", (optimise.phi_third_d1, window, hweights, curvature),
         (oracles.phi_third_d1_direct, window, hweights, curvature)),
        ("_d1_step", (optimise._d1_step, window, hweights, beta),
         (oracles.d1_step_direct, window, hweights, beta)),
        ("baseline_step/secant", (root_search.baseline_step, "secant", problem, window),
         (oracles.baseline_step_direct, "secant", problem, window)),
        ("baseline_step/picard", (root_search.baseline_step, "picard", problem, window),
         (oracles.baseline_step_direct, "picard", problem, window)),
    ]
    newest = window[-1]
    if newest.f_prime is not None:  # the mpf copies fail on None with other messages
        pairs += [
            ("chebyshev_halley_update",
             (root_search.chebyshev_halley_update, newest.x, newest.f, newest.f_prime, fpp, beta),
             (oracles.chebyshev_halley_update_direct, newest.x, newest.f, newest.f_prime, fpp,
              beta)),
            ("baseline_step/newton", (root_search.baseline_step, "newton", problem, window),
             (oracles.baseline_step_direct, "newton", problem, window)),
            ("baseline_step/halley", (root_search.baseline_step, "halley", problem, window),
             (oracles.baseline_step_direct, "halley", problem, window)),
            ("hermite_node_curvature",
             (interpolants.hermite_node_curvature, [s.x for s in window], [s.f for s in window],
              [s.f_prime for s in window], hweights),
             (oracles.hermite_node_curvature_direct, [s.x for s in window],
              [s.f for s in window], [s.f_prime for s in window], hweights)),
        ]
    return pairs


def _step_outcomes(window, weights, hweights, beta, slope, curvature, fpp):
    """name -> (library outcome, oracle outcome)."""
    return {name: (_step_outcome(*ours), _step_outcome(*theirs))
            for name, ours, theirs in _step_pairs(window, weights, hweights, beta, slope,
                                                  curvature, fpp)}


def _check_the_solver_loop(x, f, res, previous_x, tol_f, tol_x):
    prec, rounding = mpmath.mp._prec_rounding
    diverged = x._mpf_ in root_search._NONFINITE or f._mpf_ in root_search._NONFINITE
    assert diverged == oracles.diverged_direct(x, f)
    raw = [None if v is None else v._mpf_ for v in (x, res, previous_x, tol_f, tol_x)]
    got = root_search._converged(*raw, prec, rounding)
    assert got == oracles.converged_direct(x, res, previous_x, tol_f, tol_x)


# small integers make zero f and slopes, repeated x and f and cancelling sums
# likely; p/q fills the whole mantissa
STEP_VALUES = st.one_of(st.integers(-2, 2).map(lambda k: (k, 1)), RATIONALS)
CHECK_VALUES = st.one_of(STEP_VALUES, st.sampled_from(("nan", "inf", "-inf")))
STEP_RUNS = {64: 150, 256: 150, 4096: 40}


def _number(drawn):
    return mpf(drawn) if isinstance(drawn, str) else _value(drawn)


@pytest.mark.parametrize("bits", sorted(STEP_RUNS))
def test_step_formulas_are_bit_identical_to_the_mpf_formulas(bits):
    @settings(max_examples=STEP_RUNS[bits], deadline=None)
    @given(
        points=st.lists(st.tuples(STEP_VALUES, STEP_VALUES, STEP_VALUES), min_size=1, max_size=5),
        weights=st.lists(STEP_VALUES, min_size=5, max_size=5),
        lam=st.lists(STEP_VALUES, min_size=5, max_size=5),
        gam=st.lists(STEP_VALUES, min_size=5, max_size=5),
        scalars=st.lists(STEP_VALUES, min_size=4, max_size=4),
        with_slopes=st.sampled_from((True, True, True, False)),
        checks=st.tuples(CHECK_VALUES, CHECK_VALUES, st.one_of(st.none(), CHECK_VALUES),
                         st.one_of(st.none(), CHECK_VALUES), STEP_VALUES, STEP_VALUES),
    )
    def check(points, weights, lam, gam, scalars, with_slopes, checks):
        with numerics.precision(bits):
            window = [Sample(_value(x), _value(f), _value(fp) if with_slopes else None)
                      for x, f, fp in points]
            size = len(window)
            hweights = HermiteWeights(tuple(map(_value, lam[:size])),
                                      tuple(map(_value, gam[:size])))
            for name, (got, want) in _step_outcomes(
                    window, [_value(w) for w in weights[:size]], hweights,
                    *map(_value, scalars)).items():
                assert got == want, name
            x, f, res, previous_x, tol_f, tol_x = (
                None if v is None else _number(v) for v in checks)
            _check_the_solver_loop(x, f, res, previous_x, abs(tol_f), abs(tol_x))

    check()


def _window(*points):
    return [Sample(*map(mpf, point)) for point in points]


# (window, weights, (lam, gam), guard that fires) for each guard the draws must reach;
# an exact-root step returns the sample with f == 0
GUARDS = [
    ("step_exact_df", _window((1, 0, 1), (2, 1, 1)), (1, 1), ((1, 1), (1, 1)),
     (mpf, mpf(1)._mpf_)),
    ("step_exact_df", _window((1, 1, 1), (2, -1, 1)), (1, 1), ((1, 1), (1, 1)),
     (SingularStep, "denominator sum vanished in exact-df step")),
    ("step_exact_d1", _window((1, 1, 0), (2, 2, 1)), (1, 1), ((1, 1), (1, 1)),
     (ZeroDerivative, "exact-d1 needs non-zero f_prime")),
    ("step_exact_d1", _window((1, 1, 1), (2, -1, 1)), (1, 1), ((1, -1), (0, 0)),
     (SingularStep, "denominator sum vanished in exact-d1 step")),
    ("inverse_slope_estimate", _window((1, 2, 1), (2, 2, 1)), (1, 1), ((1, 1), (1, 1)),
     (DegenerateNodes, "repeated f value in the window")),
    ("direct_slope_estimate", _window((2, 1, 1), (2, 2, 1)), (1, 1), ((1, 1), (1, 1)),
     (DegenerateNodes, "repeated x value in the window")),
    ("direct_slope_estimate", _window((1, 1, 1), (2, 2, 1), (3, 3, 1)), (1, -1, 1),
     ((1, 1, 1), (1, 1, 1)), (SingularStep, "weight sum over the older samples vanished")),
    ("newton_f_interp", _window((1, 1, 1), (2, 1, 1)), (1, 1), ((1, 1), (1, 1)),
     (SingularStep, "estimated slope vanished")),
    ("second_derivative_x_interp", _window((1, 1, 1), (2, 2, 0)), (1, 1), ((1, 1), (1, 1)),
     (ZeroDerivative, "this estimate needs non-zero f_prime")),
    ("second_derivative_f_interp", _window((2, 1, 1), (2, 2, 1)), (1, 1), ((1, 1), (1, 1)),
     (DegenerateNodes, "repeated x value in the window")),
    ("baseline_step/secant", _window((1, 1, 1), (2, 1, 1)), (1, 1), ((1, 1), (1, 1)),
     (SingularStep, "secant denominator vanished")),
    ("baseline_step/newton", _window((1, 1, 0)), (1,), ((1,), (1,)),
     (ZeroDerivative, "Newton step needs f' != 0")),
    ("_d1_step", _window((0, 0, 0), (1, 0, 0)), (1, 1), ((1, 1), (0, 0)),
     (SingularStep, "estimated curvature vanished")),
    ("step_exact_d1", _window((1, 0, 1), (2, 1, 1)), (1, 1), ((1, 1), (1, 1)),
     (mpf, mpf(1)._mpf_)),
    ("phi_curvature_df", _window((2, 1, 1), (2, 2, 1)), (1, 1), ((1, 1), (1, 1)),
     (DegenerateNodes, "repeated x value in the window")),
    ("hermite_node_curvature", _window((2, 1, 1), (2, 2, 1)), (1, 1), ((1, 1), (1, 1)),
     (DegenerateNodes, "repeated x value in the window")),
    ("phi_third_d1", _window((2, 1, 1), (2, 2, 1)), (1, 1), ((1, 1), (1, 1)),
     (DegenerateNodes, "repeated x value in the window")),
]


@pytest.mark.parametrize("bits", sorted(STEP_RUNS))
@pytest.mark.parametrize("name, window, weights, hweights, guard", GUARDS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(GUARDS)])
def test_each_guard_fires_as_in_the_mpf_formulas(bits, name, window, weights, hweights, guard):
    with numerics.precision(bits):
        window = [Sample(+s.x, +s.f, +s.f_prime) for s in window]
        lam, gam = hweights
        outcomes = _step_outcomes(window, list(map(mpf, weights)),
                                  HermiteWeights(tuple(map(mpf, lam)), tuple(map(mpf, gam))),
                                  mpf(1), mpf(1), mpf(1), mpf(1))
        for got, want in outcomes.values():
            assert got == want
        assert outcomes[name][0] == guard


# ---------------------------------------------------------------------------
# pair rows read from a run's weight memory, and exact-d1's per-sample constants:
# the same bits as a step that forms them itself

# memory name -> (window, alpha, memory) -> a build over the window's x or f,
# maintained across windows as a run maintains its one memory
MEMORY_BUILDS = {
    "x product": lambda window, alpha, memory: product_weights([s.x for s in window], memory),
    "f product": lambda window, alpha, memory: product_weights([s.f for s in window], memory),
    "f shifted": lambda window, alpha, memory: shifted_product_weights(
        [s.f for s in window], alpha, memory),
    "x squared": lambda window, alpha, memory: squared_product_weights(
        [s.x for s in window], memory),
    "f squared": lambda window, alpha, memory: squared_product_weights(
        [s.f for s in window], memory),
}
# hypothesis examples per precision: each draws a sequence of windows
MEMORY_RUNS = {64: 80, 256: 80, 4096: 20}


def _newest_node_loops(window, weights, hweights, slope, curvature, memory):
    """name -> (loop, args) for every newest-node loop, given ``memory`` as its last argument."""
    xs, fs, slopes = [s.x for s in window], [s.f for s in window], [s.f_prime for s in window]
    return {
        "node_derivative/direct": (interpolants.node_derivative, window, weights, "direct",
                                   None, memory),
        "node_derivative/inverse": (interpolants.node_derivative, window, weights, "inverse",
                                    None, memory),
        "node_derivative/direct/2": (interpolants.node_derivative, window, weights, "direct",
                                     slope, memory),
        "node_derivative/inverse/2": (interpolants.node_derivative, window, weights, "inverse",
                                      slope, memory),
        "hermite_node_curvature": (interpolants.hermite_node_curvature, xs, fs, slopes, hweights,
                                   memory),
        "phi_third_d1": (optimise.phi_third_d1, window, hweights, curvature, memory),
        "second_derivative_x_interp": (root_search.second_derivative_x_interp, window, hweights,
                                       memory),
    }


@pytest.mark.parametrize("bits", sorted(MEMORY_RUNS))
def test_a_runs_pair_rows_and_sample_constants_change_no_bit(bits):
    @settings(max_examples=MEMORY_RUNS[bits], deadline=None)
    @given(
        points=st.lists(st.tuples(STEP_VALUES, STEP_VALUES, STEP_VALUES), min_size=1, max_size=10),
        size=st.integers(1, 6),
        alpha=STEP_VALUES,
        weights=st.lists(STEP_VALUES, min_size=6, max_size=6),
        lam=st.lists(STEP_VALUES, min_size=6, max_size=6),
        gam=st.lists(STEP_VALUES, min_size=6, max_size=6),
        scalars=st.tuples(STEP_VALUES, STEP_VALUES),
    )
    def check(points, size, alpha, weights, lam, gam, scalars):
        with numerics.precision(bits):
            samples = [Sample(_value(x), _value(f), _value(fp)) for x, f, fp in points]
            alpha, slope, curvature = _value(alpha), *map(_value, scalars)
            memories = {name: WeightMemory() for name in MEMORY_BUILDS}
            known = {}  # one run's exact-d1 constants, over every window of the sequence
            # the windows slide over the samples, newest last, as a run's do
            for end in range(1, len(samples) + 1):
                window = samples[max(0, end - size):end]
                count = len(window)
                w = [_value(v) for v in weights[:count]]
                hw = HermiteWeights(tuple(map(_value, lam[:count])),
                                    tuple(map(_value, gam[:count])))
                want = {name: _step_outcome(*call) for name, call in
                        _newest_node_loops(window, w, hw, slope, curvature, None).items()}
                for memory_name, build in MEMORY_BUILDS.items():
                    memory = memories[memory_name]
                    try:  # a refused build leaves the memory with the window before
                        build(window, alpha, memory)
                    except DegenerateNodes:
                        pass
                    loops = _newest_node_loops(window, w, hw, slope, curvature, memory)
                    for name, call in loops.items():
                        assert _step_outcome(*call) == want[name], (memory_name, name)
                assert (_step_outcome(root_search.step_exact_d1, window, hw, known)
                        == _step_outcome(root_search.step_exact_d1, window, hw))

    check()


@pytest.mark.parametrize("count", range(2, 9))
def test_the_newest_node_loops_divide_only_at_the_end_given_the_matching_memory(monkeypatch,
                                                                              count):
    divisions = Counter()
    for module in (interpolants, optimise, weight_families):
        for name in ("mpf_div", "mpf_rdiv_int"):
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name)):
                    divisions["all"] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    with numerics.precision(256):
        window = [Sample(mpf(k) / 7, mpf(k * k) / 5 + 1, mpf(k) / 3 + 1) for k in range(count)]
        xs, fs, slopes = [s.x for s in window], [s.f for s in window], [s.f_prime for s in window]
        product, squared = WeightMemory(), WeightMemory()
        w = product_weights(xs, product)
        hw = squared_product_weights(xs, squared)
        curvature = mpf(1) / 3
        loops = {
            "node_derivative": lambda memory: interpolants.node_derivative(window, w,
                                                                           memory=memory),
            "node_derivative/2": lambda memory: interpolants.node_derivative(
                window, w, slope=curvature, memory=memory),
            "hermite_node_curvature": lambda memory: interpolants.hermite_node_curvature(
                xs, fs, slopes, hw, memory),
            "phi_third_d1": lambda memory: optimise.phi_third_d1(window, hw, curvature, memory),
        }
        made = {}
        for name, loop in loops.items():
            for memory in (product if name.startswith("node") else squared, None):
                divisions.clear()
                loop(memory)
                made[name, memory is None] = divisions["all"]
    # with the run's memory only the final division; without it, one more per older node
    assert made == {(name, without): 1 + (count - 1) * without
                    for name in loops for without in (False, True)}
