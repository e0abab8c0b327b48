"""Compiled expressions evaluate bit for bit as the tree walk did.

``oracles.evaluate_direct`` walks a tree of mpf operations and re-reads
every literal at the working precision; the closures ``parse_expression``
compiles run on raw libmp values and must give the same bits and raise the
same errors, except that division by zero is now a ``DomainError``.
"""

from functools import lru_cache

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import mpf_cos_sin

from baryiter import corpus, numerics
from baryiter.errors import DomainError
from baryiter.expressions import parse_expression

from oracles import evaluate_direct

PRECISIONS = (64, 256, 4096)
# integers, decimals that round differently at each precision, the forms
# the tokenizer accepts, zero written several ways, and magnitudes binary64
# cannot hold; none is huge, so no cos/sin/exp argument needs millions of bits
LITERALS = ("0", "0.0", "0e5", "1", "1.", "1.000", "2", "3", ".5", "0.1", "2.5e-1",
            "1.0000000000000000001", "1e-400", "7.25e2", "13")
POINTS = (0, 0.5, -0.5, 1, -2, 3.75, 10, "0.1", "-1e-300", "2.5")
FUNCTIONS = ("cos", "sin", "exp", "log", "sqrt")
EXPONENTS = ("0", "1", "2", "3", "-1", "-2", "2^2", "-3", "--2")


@st.composite
def sources(draw, depth=4, bounded=False):
    """Source text over the whole grammar.

    ``bounded`` marks the argument of cos, sin or exp: it holds no exp, so
    no argument grows beyond what a few thousand bits reduce quickly.
    """
    kind = draw(st.sampled_from(("+", "-", "*", "/", "neg", "pow", "call", "parens", "leaf")))
    if depth == 0 or kind == "leaf":
        return draw(st.sampled_from(LITERALS + ("x",) * 5))
    child = sources(depth - 1, bounded)
    if kind in "+-*/":
        return f"{draw(child)}{kind}({draw(child)})"
    if kind == "neg":
        return f"-{draw(child)}"
    if kind == "pow":
        return f"({draw(child)})^{draw(st.sampled_from(EXPONENTS))}"
    if kind == "parens":
        return f"({draw(child)})"
    name = draw(st.sampled_from(tuple(f for f in FUNCTIONS if not bounded or f != "exp")))
    argument_bounded = bounded or name in ("cos", "sin", "exp")
    return f"{name}({draw(sources(depth - 1, argument_bounded))})"


def _outcome(program, x, bits):
    """Exact bits of ``program(x)`` at ``bits``, or the error type and message."""
    with numerics.precision(bits):
        try:
            return program(x)._mpf_
        except (ValueError, ArithmeticError) as err:
            return type(err), str(err)


def _direct(node):
    return lambda x: evaluate_direct(node, numerics.real(x))


def _compiled(expression, order):
    return (expression.f, expression.df, expression.d2f, expression.d3f)[order]


@settings(max_examples=120, deadline=None)
@given(
    source=sources(),
    pool=st.lists(st.sampled_from(POINTS), min_size=1, max_size=3),
    calls=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(PRECISIONS), st.integers(0, 3)),
        min_size=2, max_size=12),
)
def test_compiled_evaluation_is_bit_identical_to_the_tree_walk(source, pool, calls):
    expression = parse_expression(source)
    # a small pool repeats points across interleaved precisions
    for index, bits, order in calls:
        x = pool[index % len(pool)]
        got = _outcome(_compiled(expression, order), x, bits)
        want = _outcome(_direct(expression.nodes[order]), x, bits)
        if want[0] is ZeroDivisionError:
            assert got == (DomainError, "division by zero"), source
        else:
            assert got == want, (source, x, bits, order)


@settings(max_examples=12, deadline=None)
@given(source=sources(depth=3), x=st.sampled_from(POINTS))
@example(source="0.1*exp(x) - cos(x)^-2 + sqrt(1.0000000000000000001*x)", x="2.5")
def test_compiled_evaluation_is_bit_identical_at_32768_bits(source, x):
    # few examples: cos, sin, exp and log take tens of milliseconds each here
    expression = parse_expression(source)
    for order in range(4):
        got = _outcome(_compiled(expression, order), x, 32768)
        want = _outcome(_direct(expression.nodes[order]), x, 32768)
        if want[0] is ZeroDivisionError:
            assert got == (DomainError, "division by zero"), source
        else:
            assert got == want, (source, x, order)


def test_f_then_df_at_one_point_evaluate_cos_sin_once(monkeypatch):
    calls = []

    def counted(*key):
        calls.append(key)
        return mpf_cos_sin(*key)

    monkeypatch.setattr(numerics, "_cos_sin", lru_cache(maxsize=1)(counted))
    problem = corpus.get_problem("cos_minus_x")
    with numerics.precision(256):
        x = mpf(1) / 3
        assert problem.f(x) == mpmath.cos(x) - x
        assert len(calls) == 1
        assert problem.df(x) == -mpmath.sin(x) - 1
    assert len(calls) == 1


def test_literals_follow_each_precision_change():
    source = "0.1*x^2 - exp(0.3*x)/(1.7+x) + sqrt(2.5e-1*x+0.7)"
    reused = parse_expression(source)
    for bits in (64, 4096, 64, 256, 4096):
        fresh = parse_expression(source)
        for order in range(4):
            got = _outcome(_compiled(reused, order), "0.3", bits)
            assert got == _outcome(_compiled(fresh, order), "0.3", bits), (bits, order)
            assert got == _outcome(_direct(reused.nodes[order]), "0.3", bits), (bits, order)
    # the literal really rounds differently at the two precisions
    assert _outcome(reused.f, 0, 64) != _outcome(reused.f, 0, 4096)


def test_division_by_zero_is_a_domain_error():
    expression = parse_expression("1/x")
    for program in (expression.f, expression.df):
        with pytest.raises(DomainError, match="^division by zero$"):
            program(0)


def test_derivative_simplification_compares_literals_exactly():
    with numerics.precision(256):
        near_one = parse_expression("1.0000000000000000001*x")
        assert near_one.nodes[1] == ("num", "1.0000000000000000001")
        assert near_one.df(5) == mpf("1.0000000000000000001") != 1
        tiny = parse_expression("1e-400*x")
        assert tiny.nodes[1] == ("num", "1e-400")
        assert tiny.df(5) == mpf("1e-400") != 0
        for text in ("1.0000000000000000001", "1e-400"):
            square = parse_expression(f"{text}*x^2")
            assert square.d2f(3) == mpf(text) * 2
            assert square.d3f(3) == 0
        # an exponent beyond Decimal's range leaves the tree as it is
        huge = parse_expression("1e99999999999999999999*x")
        assert huge.df(5) == mpf("1e99999999999999999999")
        # literals that are exactly 0 or 1 still simplify
        assert parse_expression("1.000*x").nodes[1] == ("num", "1")
        assert parse_expression("0e7*x+x").nodes[1] == ("num", "1")
