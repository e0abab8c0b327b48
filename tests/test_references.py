"""The error column is measured against the root the run approached.

A run's reference is taken after it ends, near its final iterate: the
nearest stored root of a built-in, else a refinement from that iterate
within ``corpus.REFERENCE_STEPS`` Newton steps.
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


def test_builtin_references_follow_near():
    # opt_quartic has minimisers at -1 and +1 and a maximiser at 0; the sidecar keeps all three
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


def test_a_library_problem_that_reuses_a_builtin_name_keeps_its_own_root():
    expression = parse_expression("x*x - 3")
    problem = corpus.Problem(name="x2_minus_2", kind="root", f=expression.f, df=expression.df,
                             default_x0="1")
    trace = solve(problem, SolverConfig(method="newton", x0="1", precision_bits=256))
    assert trace.status == "converged"
    with precision(256):
        assert abs(trace.reference - mpmath.sqrt(3)) < real("1e-70")
        assert abs(trace.steps[-1].error) < real("1e-20")


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
