import mpmath
import pytest
from mpmath import mpf

from baryiter.errors import ParseError
from baryiter.expressions import parse_expression
from baryiter.numerics import precision, real, set_precision

from oracles import fd_derivative, rel_err


def test_basic_evaluation():
    e = parse_expression("cos(x)-x")
    with precision(256):
        assert e.f(3) == mpmath.cos(mpf(3)) - 3


def test_power_rule_derivative():
    e = parse_expression("x^2-2")
    assert e.f(3) == 7
    assert e.df(3) == 6
    assert e.d2f(5) == 2
    assert e.d3f(5) == 0


def test_unbalanced_parenthesis_position():
    with pytest.raises(ParseError) as info:
        parse_expression("log(x")
    assert info.value.position == 6


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_expression("2+*3")
    assert info.value.position == 3
    with pytest.raises(ParseError) as info:
        parse_expression("foo(x)")
    assert info.value.position == 1
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError) as info:
        parse_expression("x$2")
    assert info.value.position == 2
    with pytest.raises(ParseError, match=r"^unexpected '2' \(column 3\)$") as info:
        parse_expression("x 2")
    assert info.value.position == 3


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        parse_expression("x^x")
    with pytest.raises(ParseError):
        parse_expression("x^2.5")
    e = parse_expression("x^-2")
    assert e.f(2) == mpf(1) / 4
    assert e.df(2) == -2 * mpf(2) ** -3


def test_trailing_whitespace_is_ignored():
    assert parse_expression("x*x - 2   ").nodes == parse_expression("x*x - 2").nodes


def test_an_exponent_beyond_the_bound_is_a_parse_error():
    # the column is that of the first literal of the exponent that grows too large
    for src, column in (("x^2^2^2^2^2", 3), ("x^2^2^2^2^2^2", 5), ("x^" + "9" * 4400, 3),
                        ("x^1000001", 3), ("(x+1)^-10^7", 8)):
        with pytest.raises(ParseError, match="^exponent exceeds 1000000 in magnitude") as info:
            parse_expression(src)
        assert info.value.position == column
    assert parse_expression("x^2^2^2^2").nodes[0] == ("pow", ("var",), 65536)
    assert parse_expression("x^-1000000").nodes[0] == ("pow", ("var",), -1000000)


def test_a_nested_negative_exponent_must_leave_an_integer():
    for src in ("x^2^-1", "x^0^-1"):
        with pytest.raises(ParseError, match="^exponent must be an integer") as info:
            parse_expression(src)
        assert info.value.position == 3
    assert parse_expression("x^1^-3").nodes[0] == ("pow", ("var",), 1)


def test_power_right_associative():
    e = parse_expression("2^3^2")
    assert e.f(0) == 512
    e = parse_expression("x^2^3")
    assert e.f(2) == 256  # x^8


def test_unary_minus_and_precedence():
    e = parse_expression("-x^2+3*x")
    assert e.f(2) == 2  # -(x^2) + 3x
    assert e.df(2) == -1
    e = parse_expression("(1-x)/(1+x)")
    assert e.f(1) == 0
    assert e.df(0) == -2


def test_function_derivatives_match_finite_differences():
    set_precision(256)
    h = mpf(10) ** -25
    for src in ("exp(2*x)", "log(x+2)", "sqrt(x+1)", "sin(x)*cos(x)", "x*exp(x)"):
        e = parse_expression(src)
        for point in ("0.3", "1.7"):
            x = real(point)
            assert rel_err(e.df(x), fd_derivative(e.f, x, h)) <= real("1e-20"), src
            assert rel_err(e.d2f(x), fd_derivative(e.df, x, h)) <= real("1e-20"), src
            assert rel_err(e.d3f(x), fd_derivative(e.d2f, x, h)) <= real("1e-20"), src


def test_a_given_derivative_source_replaces_that_order_and_seeds_the_next():
    e = parse_expression("x^3", [None, "6*x + 0*x"])
    symbolic = parse_expression("x^3")
    assert e.nodes[1] == symbolic.nodes[1]
    assert e.nodes[2] == parse_expression("6*x + 0*x").nodes[0]
    assert e.nodes[3] == parse_expression("6*x + 0*x").nodes[1]
    assert (e.df(2), e.d2f(2), e.d3f(2)) == (12, 12, 6)
    with pytest.raises(ParseError):
        parse_expression("x^3", ["3*x^"])


def test_numbers_parse_at_working_precision():
    e = parse_expression("x-0.1")
    with precision(64):
        low = e.f(0)
    with precision(512):
        high = e.f(0)
    with precision(512):
        # the literal re-rounds at the active precision: the 512-bit parse
        # is closer to the exact decimal than the 64-bit one
        exact = -(mpf(1) / 10)
        assert abs(high - exact) < abs(low - exact) or high == exact


def test_scientific_literals():
    e = parse_expression("x+1e-3")
    assert e.f(0) == real("0.001")
    e = parse_expression("2.5e2*x")
    assert e.f(2) == 500
