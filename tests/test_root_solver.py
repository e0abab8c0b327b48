import math
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from baryiter import corpus, expressions, root_search
from baryiter.errors import SingularStep, ZeroDerivative
from baryiter.expressions import parse_expression
from baryiter.interpolants import Sample
from baryiter.methods import METHODS
from baryiter.numerics import precision, real
from baryiter.optimise import optimize
from baryiter.root_search import IterationTrace, SolverConfig, select_window, solve


def _expr_problem(src, kind="root", x0="1"):
    return corpus.from_expression(parse_expression(src), src, kind, x0)


def _scripted_problem(values, fallback="1e-40", derivs=None, fixed=None):
    # f values scripted per x; keys parse at the solver's working precision
    def f(x):
        for key, value in values.items():
            if x == real(key):
                return real(value)
        return real(fallback)

    def df(x):
        return derivs(x) if derivs else real(1)

    return corpus.Problem(name="scripted", kind="root", f=f, df=df, fixed_point=fixed, default_x0="0")


def test_exact_df_growing_window_hits_published_cell():
    problem = corpus.get_problem("cos_minus_x")
    config = SolverConfig(
        method="exact-df", weight_scheme="x", window=3, bootstrap="picard",
        tol_f="1e-120", tol_x="1e-120", max_iter=3, precision_bits=512,
    )
    trace = solve(problem, config)
    with precision(512):
        assert corpus.matches_printed(trace.steps[3].abs_error, "3.47e-1")
        # warm-up: step 2 used only the two available points (the secant value)
        assert corpus.matches_printed(trace.steps[2].abs_error, "6.19e-1")


def test_exact_d1_growing_window_hits_published_cells():
    problem = corpus.get_problem("cos_minus_x")
    config = SolverConfig(
        method="exact-d1", weight_scheme="x", window=3,
        tol_f="1e-120", tol_x="1e-120", max_iter=4, precision_bits=512,
    )
    trace = solve(problem, config)
    with precision(512):
        assert corpus.matches_printed(trace.steps[1].abs_error, "1.24")
        assert corpus.matches_printed(trace.steps[2].abs_error, "1.18e-1")
        assert corpus.matches_printed(trace.steps[3].abs_error, "2.44e-5")
        assert corpus.matches_printed(trace.steps[4].abs_error, "9.33e-15")


def test_linear_problem_converges_one_step_after_bootstrap():
    problem = _expr_problem("7*x-3", x0="10")
    for window in (2, 3, 4):
        config = SolverConfig(method="exact-df", window=window, precision_bits=128)
        trace = solve(problem, config)
        assert trace.status == "converged"
        assert len(trace.steps) == 3  # x0, perturbation bootstrap, exact step
        with precision(128):
            assert abs(trace.steps[-1].f) < real("1e-30")


def test_explicit_bootstrap_and_x0_override():
    problem = corpus.get_problem("x2_minus_2")
    config = SolverConfig(
        method="exact-df", window=2, x0="1", x1="2", bootstrap="explicit",
        precision_bits=128,
    )
    trace = solve(problem, config)
    assert trace.steps[0].x == 1
    assert trace.steps[1].x == 2
    with precision(128):
        assert trace.steps[2].x == mpf(4) / 3
    assert trace.status == "converged"


def test_picard_bootstrap_is_default_for_fixed_point_problems():
    problem = corpus.get_problem("cos_minus_x")
    config = SolverConfig(method="secant", window=2, precision_bits=128, max_iter=30)
    trace = solve(problem, config)
    with precision(128):
        assert trace.steps[1].x == problem.fixed_point(real("3"))
    assert trace.status == "converged"


def test_perturb_bootstrap_scales_with_x0():
    problem = corpus.get_problem("x2_minus_2")
    config = SolverConfig(method="exact-df", window=2, x0="400", precision_bits=128)
    trace = solve(problem, config)
    with precision(128):
        assert trace.steps[1].x == real("400.4")  # h = 1e-3 * max(1, |x0|)


def test_exact_root_hit_terminates_converged():
    problem = _scripted_problem({"0": "1", "0.001": "0"})
    config = SolverConfig(method="exact-df", window=2, x0="0", precision_bits=128)
    trace = solve(problem, config)
    assert trace.status == "converged"
    assert trace.steps[-1].f == 0


def test_singular_step_falls_back_to_smaller_window():
    # window [2, 1, 2/3] makes the full 3-point exact-df step singular while
    # the 2-point step succeeds (value 4); scripted f keeps it deterministic
    values = {"0": "2", "1": "1", "2": mpf(2) / 3, "4": "0.5"}
    problem = _scripted_problem(values, fallback="1e-50")
    config = SolverConfig(
        method="exact-df", weight_scheme="x", window=3, x0="0", x1="1",
        bootstrap="explicit", precision_bits=128, max_iter=6,
    )
    # seed a third point by letting the first step run on {0, 1}
    trace = solve(problem, config)
    assert [s.x for s in trace.steps[:3]] == [mpf(0), mpf(1), mpf(2)]
    fallback_step = trace.steps[3]
    assert fallback_step.x == 4
    assert fallback_step.status == "singular-step-fallback"
    assert trace.status == "converged"


def test_duplicate_coordinate_eviction_prefers_newest():
    samples = [
        Sample(mpf(-1), mpf(1)),
        Sample(mpf(1), mpf(1)),
        Sample(mpf(2), mpf(4)),
    ]
    window = _newest_window(samples, 3, frozenset({"f"}))
    assert [s.x for s in window] == [mpf(1), mpf(2)]
    window = _newest_window(samples, 3, frozenset({"x"}))
    assert len(window) == 3


def _newest_window(samples, size, keys):
    """The window a run selects after taking ``samples`` in order."""
    run = root_search._Run(None, "", None, None, keys, size, mpf(0), mpf(1), select_window, None)
    for s in samples:
        run.add(s)
    return run.newest_window()


def test_f_keyed_windows_take_a_problem_returning_floats():
    # the run converts what the problem returns as it takes each sample
    problem = corpus.Problem(name="floats", kind="root", f=lambda x: float(x) ** 2 - 2.0,
                             df=lambda x: 2 * float(x), default_x0="1")
    for scheme in ("x", "f"):
        config = SolverConfig(method="exact-df", weight_scheme=scheme, window=4, x0="1",
                              precision_bits=64)
        trace = solve(problem, config)
        assert trace.status == "converged"
        assert abs(trace.steps[-1].x - mpf(2).sqrt()) < 1e-8


def _float_problem(kind, a):
    """A problem whose callables and reference return floats, with a > 0.

    A root problem is x^2 - a with the Newton map as its fixed-point form; an
    optimisation problem is x^4/4 - a x, stationary at the cube root of a.
    """
    if kind == "root":
        return SimpleNamespace(
            name="float-root", kind=kind, default_x0="1",
            f=lambda x: float(x) ** 2 - a, df=lambda x: 2 * float(x), d2f=lambda x: 2.0,
            fixed_point=lambda x: (float(x) + a / float(x)) / 2,
            reference=lambda near: math.copysign(math.sqrt(a), float(near)))
    return SimpleNamespace(
        name="float-opt", kind=kind, default_x0="1",
        f=lambda x: float(x) ** 4 / 4 - a * float(x), df=lambda x: float(x) ** 3 - a,
        d2f=lambda x: 3 * float(x) ** 2, fixed_point=None, reference=lambda near: a ** (1 / 3))


def _returning_mpf(problem):
    """``problem`` with every callable's value wrapped in ``mpf``."""
    def wrapped(function):
        return None if function is None else (lambda x: mpf(function(x)))
    return SimpleNamespace(**{
        **vars(problem),
        **{name: wrapped(getattr(problem, name))
           for name in ("f", "df", "d2f", "fixed_point", "reference")}})


def _run_outcome(problem, config):
    """Each record's (x, f, f', error, status), or the error type and message."""
    run = solve if problem.kind == "root" else optimize
    try:
        trace = run(problem, config)
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)
    return [(s.x, s.f, s.f_prime, s.error, s.status) for s in trace.steps]


BOUNDARY_METHODS = (("exact-df", "x"), ("exact-df", "f"), ("exact-d1", "x"),
                    ("ch-x-interp", "x"), ("newton", "x"), ("halley", "x"), ("secant", "x"),
                    ("picard", "x"), ("newton-df", "x"), ("ch-d1", "x"))


@settings(max_examples=80, deadline=None)
@given(
    method=st.sampled_from(BOUNDARY_METHODS),
    a=st.floats(0.5, 8),
    x0=st.floats(0.5, 4),
    window=st.integers(2, 5),
    bits=st.sampled_from((64, 256)),
)
def test_a_problem_returning_floats_runs_as_one_returning_the_equal_mpf(method, a, x0, window,
                                                                         bits):
    method, scheme = method
    spec = METHODS[method]
    problem = _float_problem("root" if spec.family == "root" else "opt", a)
    config = SolverConfig(method=method, weight_scheme=scheme, x0=repr(x0),
                          window=max(window, spec.min_window), tol_f="1e-12", tol_x="1e-12",
                          max_iter=12, precision_bits=bits)
    assert _run_outcome(problem, config) == _run_outcome(_returning_mpf(problem), config)


def test_diverged_status_on_non_finite_value():
    problem = _scripted_problem({"0": "1", "0.001": "inf"})
    config = SolverConfig(method="exact-df", window=2, x0="0", precision_bits=128)
    trace = solve(problem, config)
    assert trace.status == "diverged"


def test_budget_exhausted():
    problem = corpus.get_problem("cos_minus_x")
    config = SolverConfig(method="picard", window=1, max_iter=3, precision_bits=128)
    trace = solve(problem, config)
    assert trace.status == "budget-exhausted"
    assert len(trace.steps) == 4


def test_zero_derivative_propagates():
    problem = _expr_problem("x^2+1", x0="1")
    config = SolverConfig(method="newton", window=1, precision_bits=128, max_iter=10)
    with pytest.raises(ZeroDerivative):
        solve(problem, config)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="unknown").validated()
    with pytest.raises(ValueError):
        SolverConfig(method="exact-df", window=1).validated()
    with pytest.raises(ValueError):
        SolverConfig(weight_scheme="q").validated()
    with pytest.raises(ValueError):
        SolverConfig(method="exact-d1", weight_scheme="alpha").validated()
    with pytest.raises(ValueError):
        SolverConfig(precision_bits=16).validated()


def test_alpha_scheme_runs_and_converges():
    problem = corpus.get_problem("x2_minus_2")
    config = SolverConfig(
        method="exact-df", weight_scheme="alpha", alpha="0", window=3,
        precision_bits=256, max_iter=40,
    )
    trace = solve(problem, config)
    assert trace.status == "converged"
    with precision(256):
        assert abs(trace.steps[-1].x - problem.reference()) < real("1e-20")


def test_ch_interp_methods_converge_cubically_fast():
    problem = corpus.get_problem("cos_minus_x")
    for method in ("ch-x-interp", "ch-f-interp", "newton-x-interp", "newton-f-interp"):
        config = SolverConfig(method=method, window=3, x0="1", precision_bits=256, max_iter=40)
        trace = solve(problem, config)
        assert trace.status == "converged", method
        with precision(256):
            assert abs(trace.steps[-1].x - problem.reference()) < real("1e-20")


def test_concurrent_solvers_at_one_precision_agree():
    from concurrent.futures import ThreadPoolExecutor

    problem = corpus.get_problem("x2_minus_2")

    def run(_):
        config = SolverConfig(method="newton", window=1, x0="2", precision_bits=256, max_iter=30)
        return [s.x for s in solve(problem, config).steps]

    with ThreadPoolExecutor(max_workers=4) as pool:
        traces = list(pool.map(run, range(8)))
    assert all(t == traces[0] for t in traces)


def test_runs_at_different_precisions_in_two_threads_match_runs_made_alone():
    problem = corpus.get_problem("cos_minus_x")

    def run(bits):
        trace = solve(problem, SolverConfig(method="exact-df", window=4, precision_bits=bits))
        return [(s.x._mpf_, s.error._mpf_, s.status) for s in trace.steps]

    alone = {bits: run(bits) for bits in (64, 4096)}
    stop = threading.Event()
    low = []

    def churn():
        for _ in range(1000):  # bounded, should the other thread never get in
            if stop.is_set():
                return
            low.append(run(64))

    thread = threading.Thread(target=churn)
    thread.start()
    try:
        high = [run(4096) for _ in range(2)]
    finally:
        stop.set()
        thread.join()
    assert high == [alone[4096]] * 2
    assert low and all(trace == alone[64] for trace in low)


@pytest.mark.parametrize("config, missing", [
    (SolverConfig(x0="3"), "name, reference"),
    (SolverConfig(method="newton", window=1, x0="3"), "name, reference"),
    (SolverConfig(), "name, reference, default_x0"),
])
def test_a_non_problem_is_refused_before_its_first_evaluation(monkeypatch, config, missing):
    calls = []
    evaluate = expressions._evaluate
    monkeypatch.setattr(expressions, "_evaluate", lambda *args: calls.append(1) or evaluate(*args))
    with pytest.raises(ValueError) as info:
        solve(parse_expression("-sin(x)"), config)
    assert str(info.value) == f"Expression is not a problem: it has no {missing}"
    assert calls == []


def test_trace_records_signed_errors():
    problem = corpus.get_problem("x2_minus_2")
    config = SolverConfig(method="newton", window=1, x0="2", precision_bits=128, max_iter=20)
    trace = solve(problem, config)
    assert trace.steps[0].error > 0  # 2 > sqrt(2)
    assert trace.steps[0].abs_error == trace.steps[0].error
    assert isinstance(trace, IterationTrace)
    assert trace.iterations == trace.steps[-1].index


def test_a_bug_in_reference_refinement_is_not_swallowed():
    # secant never samples df, so only the reference refinement reaches it
    def df(x):
        raise TypeError("broken derivative")

    problem = corpus.Problem(name="df_raises", kind="root", f=lambda x: x * x - 2, df=df,
                             default_x0="1")
    config = SolverConfig(method="secant", window=2, x0="1", precision_bits=128)
    with pytest.raises(TypeError, match="broken derivative"):
        solve(problem, config)


def _record_windows(monkeypatch, name, position, windows):
    # wrap root_search.<name> so that each call records its window argument
    step = getattr(root_search, name)

    def recorded(*args):
        windows.append(args[position])
        return step(*args)
    monkeypatch.setattr(root_search, name, recorded)


@pytest.mark.parametrize("src, x0, method, index", [
    ("x*x - 4", "2", "exact-df", 0),  # the seed is the root
    ("x - 3", "2.5", "newton", 1),    # the first step lands on it
])
def test_a_sample_on_a_root_ends_the_run_before_any_step_meets_it(monkeypatch, src, x0, method,
                                                                     index):
    windows = []
    _record_windows(monkeypatch, "step_exact_df", 0, windows)
    _record_windows(monkeypatch, "baseline_step", 2, windows)
    config = SolverConfig(method=method, window=2, x0=x0, precision_bits=128)
    trace = solve(_expr_problem(src, x0=x0), config)
    assert (trace.status, trace.iterations, trace.steps[-1].f) == ("converged", index, 0)
    assert len(windows) == index
    assert all(s.f != 0 for window in windows for s in window)


def test_memory_collapsed_below_the_minimum_is_a_singular_step():
    # x0 = -0.0005 and its perturbation +0.0005 share one f value, so the {x, f}
    # keys of newton-x-interp/x leave one distinct sample where the step needs two
    config = SolverConfig(method="newton-x-interp", weight_scheme="x", window=4, x0="-0.0005",
                          precision_bits=128)
    with pytest.raises(SingularStep, match="^memory collapsed below the method minimum$"):
        solve(_expr_problem("x*x-2"), config)
