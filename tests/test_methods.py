import argparse
import dataclasses
import decimal
import io
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from baryiter import cli, corpus, root_search
from baryiter.errors import BaryiterError, DegenerateNodes
from baryiter.interpolants import ObjectiveSample, Sample
from baryiter.methods import METHODS, OPT_METHODS, ROOT_METHODS
from baryiter.numerics import precision, real
from baryiter.optimise import optimize
from baryiter.root_search import WEIGHT_SCHEMES, SolverConfig, select_window, solve

# (runner, a built-in problem every method of the family can run on)
RUNNERS = {"root": (solve, "cos_minus_x"), "opt": (optimize, "opt_quadratic")}


def _method_choices(command: str) -> tuple:
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a for a in commands.choices[command]._actions if a.dest == "method").choices)


@pytest.mark.parametrize("method", list(METHODS))
def test_table_entry_is_enforced(method):
    spec = METHODS[method]
    runner, name = RUNNERS[spec.family]
    problem = corpus.get_problem(name)
    with pytest.raises(ValueError):
        runner(problem, SolverConfig(method=method, window=spec.min_window - 1))
    other_runner, other_name = RUNNERS["opt" if spec.family == "root" else "root"]
    with pytest.raises(ValueError):
        other_runner(corpus.get_problem(other_name), SolverConfig(method=method, window=8))
    assert method != "exact-d1" or "alpha" not in spec.schemes  # no alpha-shifted slope form
    for scheme in WEIGHT_SCHEMES:
        if scheme not in spec.schemes:
            with pytest.raises(ValueError):
                SolverConfig(method=method, weight_scheme=scheme).validated(spec.family)
    config = SolverConfig(method=method, window=spec.min_window, precision_bits=128, max_iter=200)
    trace = runner(problem, config)
    assert trace.status == "converged"
    assert len(trace.steps) > spec.min_window


def test_cli_method_choices_are_the_table_keys():
    assert set(ROOT_METHODS) | set(OPT_METHODS) == set(METHODS)
    assert _method_choices("solve") == tuple(m for m, s in METHODS.items() if s.family == "root")
    assert _method_choices("optimize") == tuple(m for m, s in METHODS.items() if s.family == "opt")


@pytest.mark.parametrize("method, family", [("exact-df", "root"), ("newton-df", "opt")])
def test_x1_with_picard_is_rejected(method, family):
    # an explicit second point contradicts a fixed-point step, in either family
    runner, name = RUNNERS[family]
    config = SolverConfig(method=method, window=3, x1="0.5", bootstrap="picard")
    with pytest.raises(ValueError, match="^x1 needs the explicit or auto bootstrap, not picard$"):
        runner(corpus.get_problem(name), config)


def test_explicit_bootstrap_without_x1_is_rejected_for_seeded_methods():
    with pytest.raises(ValueError):
        SolverConfig(method="exact-df", window=2, bootstrap="explicit").validated()
    with pytest.raises(ValueError):
        SolverConfig(method="ch-d1", window=2, bootstrap="explicit").validated("opt")
    # a method that seeds x0 alone has no second point to make
    SolverConfig(method="newton", window=1, bootstrap="explicit").validated()


@pytest.mark.parametrize("name", ["x0", "x1", "alpha", "beta", "tol_f", "tol_x"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", float("nan"), float("-inf")])
def test_a_non_finite_numeric_field_is_rejected(name, value):
    config = SolverConfig(method="ch-d1", window=2, **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        config.validated("opt")
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        optimize(corpus.get_problem("opt_cos"), config)


@pytest.mark.parametrize("method, family", [("exact-df", "root"), ("newton-df", "opt")])
def test_an_x1_within_half_an_ulp_of_x0_is_rejected(method, family):
    # distinct from x0 as a decimal, so ``validated`` passes it, but it rounds to x0:
    # the memory would collapse before the first step and the run end with no trace
    runner, name = RUNNERS[family]
    problem = corpus.get_problem(name)
    for x0, x1, bits in (("1", "1." + "0" * 399 + "1", 256), ("1", "1.00000000000000000002", 64),
                         ("1e30", "1000000000000000000000000000001", 64)):
        config = SolverConfig(method=method, window=3, x0=x0, x1=x1, precision_bits=bits)
        with pytest.raises(ValueError, match="^x1 must differ from x0 at the working precision$"):
            runner(problem, config)
    config = SolverConfig(method=method, window=3, x0="1", x1="1.001", precision_bits=64)
    assert runner(problem, config).steps[1].x > 1


def test_a_nonpositive_budget_is_rejected():
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="^max_iter must be positive$"):
            SolverConfig(max_iter=max_iter).validated()


@pytest.mark.parametrize("name, value", [("window", 2.5), ("window", "4"), ("window", True),
                                         ("max_iter", "10"), ("max_iter", 10.0),
                                         ("precision_bits", 128.9), ("precision_bits", "128")])
def test_a_non_integer_count_is_rejected(name, value):
    # a float window never fills (the whole history would be the window), a float
    # precision is truncated while the trace keeps it, and a string fails to compare
    config = SolverConfig(method="exact-df", **{name: value})
    message = f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"
    with pytest.raises(ValueError, match=message):
        config.validated()
    with pytest.raises(ValueError, match=message):
        solve(corpus.get_problem("cos_minus_x"), config)


# (command, problem, method, family, seeds) for a method of each seed count
SEEDED = (("solve", "cos_minus_x", "newton", "root", 1),
          ("solve", "cos_minus_x", "secant", "root", 2),
          ("optimize", "opt_cos", "newton-df", "opt", 3))


@pytest.mark.parametrize("command, problem, method, family, seeds", SEEDED)
def test_a_budget_below_the_seed_count_is_refused(command, problem, method, family, seeds):
    # max_iter is the highest step index: below the seed count the seeds fill or overrun
    # it, and the run would propose no step
    for max_iter in range(1, seeds):
        with pytest.raises(ValueError, match=f"^{method} seeds {seeds} points, so max_iter "
                                             f"must be at least {seeds}$"):
            SolverConfig(method=method, window=seeds, max_iter=max_iter).validated(family)
        argv = [command, "--problem", problem, "--method", method, "--max-iter", str(max_iter)]
        assert cli.main(argv, out=io.StringIO()) == cli.EXIT_USAGE
    SolverConfig(method=method, window=seeds, max_iter=seeds).validated(family)
    argv = [command, "--problem", problem, "--method", method, "--max-iter", str(seeds)]
    assert cli.main(argv, out=io.StringIO()) != cli.EXIT_USAGE


@pytest.mark.parametrize("method", [m for m, s in METHODS.items() if s.min_window == 1])
def test_x1_on_a_one_point_method_is_refused(method):
    # every one-point method is a root method
    message = f"{method} starts from x0 alone and takes no x1"
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig(method=method, window=1, x1="5").validated()
    argv = ["solve", "--problem", "cos_minus_x", "--method", method, "--x1", "5"]
    assert cli.main(argv, out=io.StringIO()) == cli.EXIT_USAGE


# (runner, problem) for each family's seed-input check: cos x - x has a fixed-point form
SEED_PROBLEMS = {"root": ((solve, "cos_minus_x"), (solve, "x2_minus_2")),
                 "opt": ((optimize, "opt_quadratic"),)}


def _refusal(spec, problem, bootstrap, x1) -> bool:
    """Whether a run refuses these seed inputs, as ``validated`` and ``seed_points`` list them."""
    if spec.min_window == 1:
        return x1 is not None
    if x1 is not None:
        return bootstrap == "picard"
    # no value names the second seed: explicit has none, picard needs the form
    return bootstrap == "explicit" or (bootstrap == "picard" and problem.fixed_point is None)


def _second_seed(problem, x0, x1):
    """The second seed by the one rule, whatever the bootstrap: x1, else a fixed-point
    step, else x0 + h0."""
    if x1 is not None:
        return real(x1)
    if problem.fixed_point is not None:
        return problem.fixed_point(x0)
    return x0 + mpf(10) ** -3 * max(1, abs(x0))


@pytest.mark.parametrize("method", list(METHODS))
def test_every_seed_input_is_used_or_refused(method):
    spec = METHODS[method]
    for runner, name in SEED_PROBLEMS[spec.family]:
        problem = corpus.get_problem(name)
        if any(getattr(problem, need) is None for need in spec.needs):
            continue
        for bootstrap in root_search.BOOTSTRAPS:
            for x1 in (None, "1.75", "0.5"):
                config = SolverConfig(method=method, window=spec.min_window, x1=x1,
                                      bootstrap=bootstrap, precision_bits=64,
                                      max_iter=spec.min_window)
                case = (name, bootstrap, x1)
                if _refusal(spec, problem, bootstrap, x1):
                    with pytest.raises(ValueError):
                        runner(problem, config)
                    continue
                trace = runner(problem, config)
                if spec.min_window == 1:
                    continue  # step 1 is the method's own step
                with precision(64):
                    x0 = real(problem.default_x0)
                    assert trace.steps[1].x == _second_seed(problem, x0, x1), case


# family -> (runner, a problem to seed, the family's method that seeds the most points)
SEED_RULE_RUNS = {"root": (solve, "x2_minus_2", "exact-df"),
                  "opt": (optimize, "opt_quadratic", "newton-df")}
EXACT = decimal.Context(prec=400)  # x0 + 2^-300 and x0 + 10^-300 are exact at this precision


@st.composite
def _seed_values(draw) -> tuple:
    """Decimal strings (x0, x1): x1 anywhere near x0, or x0 plus or minus 2^-k or 10^-k."""
    x0 = decimal.Decimal(draw(st.integers(-4000, 4000))).scaleb(-3)
    if draw(st.booleans()):
        return str(x0), str(decimal.Decimal(draw(st.integers(-4000, 4000))).scaleb(-3))
    step = EXACT.power(decimal.Decimal(draw(st.sampled_from((2, 10)))), -draw(st.integers(0, 300)))
    return str(x0), str(EXACT.add(x0, step if draw(st.booleans()) else -step))


@pytest.mark.parametrize("family", sorted(SEED_RULE_RUNS))
@settings(max_examples=100, deadline=None)
@given(seeds=_seed_values(), bits=st.sampled_from((64, 128, 256)))
# x1 = 1 - 2^-256: newton-df's mirror 1 + 2^-256 rounds to x0
@example(seeds=("1", str(EXACT.subtract(1, EXACT.power(2, -256)))), bits=256)
def test_the_seeds_are_the_values_given_or_refused_before_any_evaluation(family, seeds, bits):
    runner, name, method = SEED_RULE_RUNS[family]
    count = METHODS[method].min_window
    calls = []

    def counted(fn):
        def wrapped(x):
            calls.append(x)
            return fn(x)
        return wrapped

    problem = corpus.get_problem(name)
    problem = dataclasses.replace(problem, f=counted(problem.f), df=counted(problem.df),
                                  d2f=counted(problem.d2f))
    config = SolverConfig(method=method, window=count, x0=seeds[0], x1=seeds[1],
                          precision_bits=bits, max_iter=count)
    try:
        trace = runner(problem, config)
    except ValueError:
        assert calls == []
        return
    with precision(bits):
        x0, x1 = real(seeds[0]), real(seeds[1])
        expected = [x0, x1, x0 - (x1 - x0)][:count]
    assert all(x != x0 for x in expected[1:])
    taken = [step.x._mpf_ for step in trace.steps[:count]]
    assert taken == [x._mpf_ for x in expected][:len(taken)]
    assert len(taken) == count or trace.status == "converged"


def test_a_mirrored_third_seed_that_rounds_to_x0_is_rejected():
    # newton-df seeds x0, x1 and x0 - (x1 - x0).  With x1 = 1 - 2^-256 the third is
    # 1 + 2^-256, half an ulp above 1, and rounds back to x0: the window would
    # collapse before the first step and the run end with no trace
    problem = corpus.get_problem("opt_quadratic")
    with precision(256):
        x1 = 1 - mpf(2) ** -256
    config = SolverConfig(method="newton-df", window=3, x0=1, x1=x1, precision_bits=256)
    with pytest.raises(ValueError,
                       match=r"^x0 - \(x1 - x0\) must differ from x0 at the working precision$"):
        optimize(problem, config)
    config = SolverConfig(method="newton-df", window=3, x0=1, x1="0.5", precision_bits=256)
    assert optimize(problem, config).steps[2].x == mpf("1.5")


@pytest.mark.parametrize("name", ["tol_f", "tol_x"])
@pytest.mark.parametrize("value", [-1, "-1e-400", -0.5, real("-2")])
def test_a_negative_tolerance_is_rejected(name, value):
    # no residual or step is below it: the run would spend its whole budget
    config = SolverConfig(method="exact-df", **{name: value})
    message = f"^{re.escape(f'{name} must be non-negative, got {value}')}$"
    with pytest.raises(ValueError, match=message):
        config.validated()
    with pytest.raises(ValueError, match=message):
        solve(corpus.get_problem("cos_minus_x"), config)
    SolverConfig(method="exact-df", **{name: "-0.0"}).validated()  # zero, whatever its sign


def _never(x):
    raise AssertionError("f was evaluated")


def _unevaluated_problem() -> SimpleNamespace:
    """A problem with default x0 = 3 whose every function fails the test if evaluated."""
    return SimpleNamespace(name="p", f=_never, df=_never, d2f=_never, reference=_never,
                           default_x0="3")


@pytest.mark.parametrize("method, family", [("exact-df", "root"), ("newton-df", "opt")])
def test_an_x1_equal_to_x0_is_refused_before_any_evaluation(method, family):
    problem = _unevaluated_problem()
    runner = RUNNERS[family][0]
    same = "^x1 must differ from x0 at the working precision$"
    # 1 + 1e-22 rounds to 1 at 64 bits and is a distinct seed at 128
    for x0, x1 in ((1, "1.0"), ("0.5", real("0.5")), ("1", "1.0000000000000000000001"),
                   (None, "3.0")):  # the problem's default x0
        config = SolverConfig(method=method, window=3, x0=x0, x1=x1, precision_bits=64)
        with pytest.raises(ValueError, match=same):
            runner(problem, config)
    config = SolverConfig(method=method, window=3, x0="1", x1="1." + "0" * 399 + "1",
                          precision_bits=256)
    with pytest.raises(ValueError, match=same):
        runner(problem, config)
    if family == "opt":
        # newton-df's third seed 1 + 2^-256 is half an ulp above x0 = 1 and rounds to it
        with precision(256):
            x1 = 1 - mpf(2) ** -256
        config = SolverConfig(method=method, window=3, x0=1, x1=x1, precision_bits=256)
        with pytest.raises(ValueError, match=r"^x0 - \(x1 - x0\) must differ from x0 at the "
                                             r"working precision$"):
            runner(problem, config)
    # the problem has no fixed-point form for picard's second seed
    config = SolverConfig(method=method, window=3, bootstrap="picard")
    with pytest.raises(ValueError, match="^problem 'p' has no fixed-point form$"):
        runner(problem, config)
    SolverConfig(method=method, window=3, x0="1", x1="1.0000000000000000000001",
                 precision_bits=128).validated(family)


@pytest.mark.parametrize("zero", [0, "0", "-0.0", -0.0, real(0)])
def test_a_zero_x1_of_either_sign_is_refused_at_a_zero_x0(zero):
    # +0 and -0 are one point: x1 would repeat x0 and collapse the memory before the first step
    for method, family in (("exact-df", "root"), ("newton-df", "opt")):
        runner = RUNNERS[family][0]
        for x0, x1 in ((zero, "-0.0"), (zero, 0), ("-0.0", zero)):
            config = SolverConfig(method=method, window=3, x0=x0, x1=x1)
            with pytest.raises(ValueError,
                               match="^x1 must differ from x0 at the working precision$"):
                runner(_unevaluated_problem(), config)


@pytest.mark.parametrize("value", [4, "4", "4e0", 4.0, real(4)])
def test_an_x1_of_every_type_is_taken_at_its_value(value):
    # x1 is read as x0 is: one number in any type seeds one point, and repeats an x0 equal to it
    for method, family in (("exact-df", "root"), ("newton-df", "opt")):
        runner, name = RUNNERS[family]
        count = METHODS[method].min_window
        config = SolverConfig(method=method, window=3, x0="1", x1=value, precision_bits=64,
                              max_iter=count)
        trace = runner(corpus.get_problem(name), config)
        assert [step.x for step in trace.steps[:count]] == [1, 4, -2][:count]
        config = SolverConfig(method=method, window=3, x0=value, x1="4.0")
        with pytest.raises(ValueError, match="^x1 must differ from x0 at the working precision$"):
            runner(_unevaluated_problem(), config)


def test_finite_numeric_fields_of_every_type_are_accepted():
    for value in (0, 3, "1e-40", 0.5, real("2")):
        fields = dict.fromkeys(("alpha", "beta", "tol_f", "tol_x"), value)
        SolverConfig(method="ch-d1", window=2, **fields).validated("opt")


def test_both_families_judge_a_seed_on_its_residual():
    # the seeds lie 1e-30 apart, far inside tol_x, while both residuals are large:
    # neither run stops on its seeds, and each converges at its solution
    far = (
        (solve, "x2_minus_2", SolverConfig(
            method="exact-df", window=2, x0="1", x1="1.000000000000000000000000000001",
            bootstrap="explicit", tol_x="1e-20", precision_bits=256)),
        (optimize, "opt_quadratic", SolverConfig(
            method="newton-df", window=3, x0="0", x1="1e-30", bootstrap="explicit",
            tol_x="1e-20", precision_bits=256)),
    )
    for runner, name, config in far:
        trace = runner(corpus.get_problem(name), config)
        assert trace.status == "converged" and trace.iterations > 2, name
        assert abs(trace.steps[-1].error) < real("1e-20"), name
    # a second seed whose residual is below tol_f converges where it is placed
    near = (
        (solve, "x2_minus_2", SolverConfig(
            method="exact-df", window=2, x0="1", x1="1.41421356237309504880168872420969807857",
            bootstrap="explicit", precision_bits=256)),
        (optimize, "opt_quadratic", SolverConfig(
            method="ch-d1", window=2, x0="0", x1="2", bootstrap="explicit", precision_bits=256)),
    )
    for runner, name, config in near:
        trace = runner(corpus.get_problem(name), config)
        assert (trace.status, trace.iterations) == ("converged", 1), name


@pytest.mark.parametrize("method", [m for m, s in METHODS.items() if s.error_cells])
def test_error_cells_sit_on_an_accepted_scheme_of_an_ordered_method(method):
    # verify_error_factor shapes its error products from the multiplicity
    spec = METHODS[method]
    assert spec.multiplicity is not None
    assert set(spec.error_cells) <= set(spec.schemes) | {None}


# newest last: samples whose f values, or whose x values, repeat, once between two
# older samples and once with the newest; the other coordinate and the slopes stay distinct
COLLISIONS = {
    "f": (("0.1", "0.2", "0.3", "0.4"), ("1", "2", "1", "3")),
    "f with the newest": (("0.1", "0.2", "0.3", "0.4"), ("3", "1", "2", "1")),
    "x": (("0.1", "0.2", "0.1", "0.4"), ("1", "2", "3", "4")),
    "x with the newest": (("0.4", "0.1", "0.2", "0.1"), ("1", "2", "3", "4")),
}


@pytest.mark.parametrize("collision", COLLISIONS)
@pytest.mark.parametrize("method, scheme", [
    (method, scheme) for method, spec in METHODS.items()
    for scheme, weights in spec.schemes.items() if weights.build is not None
])
def test_a_window_keeps_distinct_what_its_weights_and_its_step_divide_by(method, scheme,
                                                                          collision):
    spec = METHODS[method]
    keys, build = spec.schemes[scheme]
    make_sample = Sample if spec.family == "root" else ObjectiveSample
    xs, fs = COLLISIONS[collision]
    with precision(128):
        samples = [make_sample(real(x), real(f), real(k + 2))
                   for k, (x, f) in enumerate(zip(xs, fs))]
        run = root_search._Run(spec, method, None, build, keys, len(samples), real(0), real(1),
                               select_window, None)
        for s in samples:
            run.add(s)
        window = run.newest_window()
        try:
            spec.step(run, window, build(window, real(0)))
        except BaryiterError as err:  # a vanished denominator, say, is the step's own outcome
            assert not isinstance(err, DegenerateNodes), err
