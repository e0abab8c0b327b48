"""The error column is measured against the root the run approached.

A run's reference is taken after it ends, near its final iterate: a
built-in's nearest seed, else that iterate, Newton-refined within
``corpus.REFERENCE_STEPS`` steps at the working precision plus guard bits.
"""

import io
import json

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baryiter import cli, corpus
from baryiter.errors import BaryiterError, DomainError, NonConvergence
from baryiter.expressions import parse_expression
from baryiter.numerics import precision, real
from baryiter.root_search import SolverConfig, solve

from oracles import refine_reference_direct


def _expr_problem(src, x0, kind="root"):
    return corpus.from_expression(parse_expression(src), src, kind, x0)


def test_reference_is_the_root_the_run_converged_to():
    # Newton from x0 = 0.45 lands on -1, while secant from there converges to 0
    out = io.StringIO()
    code = cli.main(["solve", "--expr", "x^3-x", "--x0", "0.45", "--method", "secant",
                     "--output", "json"], out=out)
    doc = json.loads(out.getvalue())
    assert code == 0 and doc["summary"]["status"] == "converged"
    assert abs(mpmath.mpf(doc["steps"][-1]["x"])) < 1e-20
    assert mpmath.mpf(doc["steps"][-1]["abs_error"]) < 1e-20


def test_rootless_run_spends_a_short_budget_and_reports_no_error(monkeypatch):
    expression = parse_expression("exp(0.5*x)")
    calls = {"f": 0, "df": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    problem = corpus.Problem(name="exp(0.5*x)", kind="root", f=counted("f", expression.f),
                             df=counted("df", expression.df), default_x0="1")
    during = []
    reference_root = corpus.reference_root

    def measured(*args):
        before = sum(calls.values())
        try:
            return reference_root(*args)
        finally:
            during.append(sum(calls.values()) - before)

    monkeypatch.setattr(corpus, "reference_root", measured)
    trace = solve(problem, SolverConfig(x0="1", precision_bits=256))
    assert len(during) == 1 and 0 < during[0] <= 2 * corpus.REFERENCE_STEPS
    assert trace.reference is None
    assert all(step.error is None for step in trace.steps)


def test_a_run_that_raises_never_refines(monkeypatch):
    def refuse(*args):
        raise AssertionError("reference_root called")

    monkeypatch.setattr(corpus, "reference_root", refuse)
    with pytest.raises(DomainError):
        solve(_expr_problem("log(x)", "5"), SolverConfig(method="newton", x0="5"))


def test_refinement_starts_near_and_stops_at_the_budget():
    problem = _expr_problem("x^3 - x", "-1.2")
    with precision(256):
        assert corpus.reference_root(problem) == -1  # Newton from the default start
        assert abs(corpus.reference_root(problem, real("0.01"))) < real("1e-300")
        assert corpus.reference_root(problem, real("1.2")) == 1
        with pytest.raises(NonConvergence):
            corpus.refine_reference(_expr_problem("exp(x)", "0"))
        with pytest.raises(NonConvergence):  # a zero slope at the start
            corpus.refine_reference(_expr_problem("x*x - 1", "0"))


@pytest.mark.parametrize("bits", [64, 256])
def test_a_run_that_drifts_far_out_gets_no_reference(bits):
    # Newton on exp(x) - 2 from -100 jumps to about 5.4e43 and then steps by about 1: a step
    # that small next to |x| never halves there, so the far point does not pass for a root
    problem = _expr_problem("exp(x) - 2", "-100")
    trace = solve(problem, SolverConfig(method="newton", x0="-100", precision_bits=bits))
    assert trace.steps[-1].x > 1e43
    assert trace.reference is None
    assert all(step.error is None for step in trace.steps)


def test_a_refinement_from_afar_keeps_its_reach_at_high_precision():
    # from cos x - x's default start 3, Newton needs 17 steps to reach 32 768 bits
    with precision(32768):
        root = corpus.reference_root(_expr_problem("cos(x) - x", "3"))
        assert abs(mpmath.cos(root) - root) <= mpmath.ldexp(1, -32760)


def test_a_library_problem_without_df_runs_without_a_reference():
    # exact-df needs no derivative, but the reference refinement does: the run ends
    # normally with no reference and no error column
    problem = corpus.Problem(name="no_slope", kind="root", f=lambda x: x * x - 2)
    trace = solve(problem, SolverConfig(method="exact-df", window=3, x0="1",
                                        precision_bits=128))
    assert trace.status == "converged"
    assert abs(trace.steps[-1].x - mpmath.sqrt(2)) < real("1e-10")
    assert trace.reference is None
    assert all(step.error is None for step in trace.steps)


def test_builtin_references_follow_near():
    # opt_quartic has minimisers at -1 and +1 and a maximiser at 0; it seeds all three
    with precision(256):
        problem = corpus.get_problem("opt_quartic")
        assert problem.reference(real("-1.1")) == -1
        assert problem.reference(real("0.3")) == 0
        assert problem.reference() == 1  # nearest the default start 0.8


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "x2_minus_2", "--x0", "-1", "--method", "newton"],
    ["solve", "--problem", "exp_root", "--x0", "0.3", "--method", "secant"],
    ["optimize", "--problem", "opt_quartic", "--x0", "-0.8", "--method", "ch-d1", "--window", "3"],
    # converges to the maximiser 0
    ["optimize", "--problem", "opt_cos", "--x0", "0.3", "--method", "newton-df"],
])
def test_builtin_error_is_measured_against_the_root_it_approached(argv):
    out = io.StringIO()
    assert cli.main(argv + ["--output", "json"], out=out) == 0
    final = json.loads(out.getvalue())["steps"][-1]
    assert mpmath.mpf(final["abs_error"]) < 1e-20, final


@pytest.mark.parametrize("bits", [256, 2048])
def test_a_library_problem_that_reuses_a_builtin_name_keeps_its_own_root(bits):
    # a built-in's root is refined from its seed and remembered at each precision; the memo
    # is keyed on the problem object, and a problem that stores no roots adds no entry
    expression = parse_expression("x*x - 3")
    problem = corpus.Problem(name="x2_minus_2", kind="root", f=expression.f, df=expression.df,
                             default_x0="1")
    corpus._stored_root.cache_clear()
    with precision(bits):
        sqrt2 = corpus.get_problem("x2_minus_2").reference(real("1.4"))
        assert sqrt2 == mpmath.sqrt(2)
        assert corpus._stored_root.cache_info().currsize == 1
        trace = solve(problem, SolverConfig(method="newton", x0="1", precision_bits=bits))
        assert trace.status == "converged"
        assert trace.reference == mpmath.sqrt(3)
        assert abs(trace.steps[-1].error) < real("1e-20")
    assert corpus._stored_root.cache_info().currsize == 1


def _nearest_root_distance(a: str, x) -> mpmath.mpf:
    with mpmath.workprec(512):
        roots = mpmath.polyroots([1, 0, -mpmath.mpf(a), 0], maxsteps=200, extraprec=512)
        return min(abs(mpmath.mpf(x) - mpmath.re(root)) for root in roots)


@settings(max_examples=200, deadline=None)
@given(
    a=st.decimals(min_value="0.5", max_value="2", places=6),
    x0=st.decimals(min_value="-2", max_value="2", places=6),
    method=st.sampled_from(("secant", "newton", "exact-df")),
)
def test_converged_error_is_the_distance_to_the_nearest_root(a, x0, method):
    src = f"x^3 - {a}*x"
    try:
        trace = solve(_expr_problem(src, str(x0)),
                      SolverConfig(method=method, x0=str(x0), precision_bits=256))
    except BaryiterError:
        return  # a step that cannot be taken ends the run without a trace
    if trace.status != "converged":
        return
    final = trace.steps[-1]
    assert final.error is not None
    gap = abs(mpmath.mpf(final.abs_error) - _nearest_root_distance(str(a), final.x))
    assert gap <= mpmath.mpf(2) ** -120, (src, x0, method)


# expr_cli-style root families: (source, its coefficients' ranges, its roots); the roots
# only place the start, which lies within 5% of max(1, |root|) of one of them
_FAMILIES = {
    "cubic": ("x^3 - {0}*x - {1}", ((0.5, 1.5), (1, 3)),
              lambda a, b: [mpmath.findroot(lambda x: x ** 3 - a * x - b, 1.5)]),
    "exp": ("exp(x/{0}) - {1}", ((1, 3), (2, 5)), lambda a, b: [a * mpmath.log(b)]),
    "cos": ("cos(x) - {0}*x", ((0.5, 2),),
            lambda a: [mpmath.findroot(lambda x: mpmath.cos(x) - a * x, 0.7)]),
    "sin": ("sin(x) + {0}*x - {1}", ((1.5, 3), (0.5, 2)),
            lambda a, b: [mpmath.findroot(lambda x: mpmath.sin(x) + a * x - b, 0.5)]),
    "sqrt": ("sqrt(x + {0}) - {1}", ((0.5, 2), (1.5, 3)), lambda a, b: [b * b - a]),
    "log": ("log({0}*x) - {1}", ((0.5, 2), (0.5, 1.5)), lambda a, b: [mpmath.exp(b) / a]),
    "rational": ("(x^2 + {0})/(x + {1}) - {2}", ((0.2, 1), (1, 2), (1, 2)),
                 lambda a, b, c: [(c + mpmath.sqrt(c * c - 4 * (a - c * b))) / 2]),
    "x3_minus_ax": ("x^3 - {0}*x", ((0.9, 1.1),), lambda a: [-mpmath.sqrt(a), mpmath.sqrt(a)]),
}


def _coefficient(low, high):
    return st.decimals(min_value=str(low), max_value=str(high), places=3)


@st.composite
def _family_start(draw, families, root_at_zero=False):
    source, ranges, roots = _FAMILIES[draw(st.sampled_from(families))]
    coefficients = [draw(_coefficient(*bounds)) for bounds in ranges]
    offset = draw(st.decimals(min_value="-0.05", max_value="0.05", places=4))
    with mpmath.workprec(64):
        if root_at_zero:
            root = mpmath.mpf(0)
        else:
            root = draw(st.sampled_from(roots(*(mpmath.mpf(str(c)) for c in coefficients))))
        return source.format(*coefficients), str(root + mpmath.mpf(str(offset)) * max(1, abs(root)))


@settings(max_examples=150, deadline=None)
@given(case=_family_start(tuple(_FAMILIES)), bits=st.sampled_from((64, 256, 512)))
def test_reference_matches_the_earlier_rule_at_or_below_512_bits(case, bits):
    # the earlier rule: Newton at 1152 bits to a residual below 1e-300, as 320 digits
    src, near = case
    problem = _expr_problem(src, "1")
    with precision(bits):
        near = real(near)
        expected = real(refine_reference_direct(problem, near))
        assert corpus.reference_root(problem, near)._mpf_ == expected._mpf_, (src, near)


@settings(max_examples=50, deadline=None)
@given(case=_family_start(("x3_minus_ax",), root_at_zero=True),
       bits=st.sampled_from((64, 256, 512)))
def test_a_reference_at_a_root_at_zero_is_zero_to_twice_the_precision(case, bits):
    # here the rules differ: the earlier one ended on a 1152-bit noise iterate such as
    # -9.1e-597; at p + 64 bits the cancellation in x - f/f' leaves 0 or a value far below p
    src, near = case
    with precision(bits):
        reference = corpus.reference_root(_expr_problem(src, "1"), real(near))
        assert abs(reference) <= mpmath.ldexp(1, -2 * bits), (src, near, reference)


@settings(max_examples=30, deadline=None)
@given(a=_coefficient(0.8, 1.2), near=st.decimals(min_value="0", max_value="1", places=3),
       bits=st.sampled_from((64, 256, 512)))
def test_a_rootless_input_does_not_converge_under_either_rule(a, near, bits):
    problem = _expr_problem(f"exp({a}*x)", "1")
    with precision(bits):
        with pytest.raises(NonConvergence):
            corpus.reference_root(problem, real(str(near)))
        with pytest.raises(NonConvergence):
            refine_reference_direct(problem, real(str(near)))
