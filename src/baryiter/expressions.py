"""Parse test functions of one variable and differentiate them symbolically.

Grammar (whitespace ignored)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ['^' exponent]          # right-associative
    atom   := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := cos | sin | exp | log | sqrt    # the names of numerics.ELEMENTARY

Exponents must reduce to integer constants (optionally signed, and
themselves allowed to be integer powers, so 2^3^2 = 2^9); that keeps
symbolic differentiation closed under the grammar.  An exponent, and each
literal or power in it, is at most ``MAX_EXPONENT`` = 10^6 in magnitude
(x^2^2^2^2 = x^65536).  A caller may give the source of any derivative
order in place of the symbolic one (the built-in problems do, where the
symbolic form would round differently); each higher order is then
differentiated from it.

``parse_expression`` compiles the value tree and each derivative tree once
into nested closures on raw libmp values (see ``numerics``); evaluating one
calls, per node, the libmp function that the node's mpf operation would
call, at the context's precision and rounding, left operand first, as a
walk over the tree would, with no dispatch on node tags.  So each result
has the bits of the mpf evaluation; ``Expression.f`` and its derivatives
read the precision once and build one mpf, the result.  Number literals
are kept as text and converted with ``real`` once per working precision
and rounding mode, so an expression built once stays exact under
precision changes.  Division by zero raises
:class:`~baryiter.errors.DomainError`, as ``log``, ``sqrt`` and ``0^-k`` do.

Parse failures raise :class:`~baryiter.errors.ParseError` with a 1-based
column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Optional, Sequence

import mpmath
from mpmath.libmp import mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_sub

from . import numerics
from .errors import DomainError, ParseError
from .numerics import Raw, Real, Scalar, make_mpf, raw_powi, to_raw

# AST nodes are tuples: ("num", text), ("var",), ("add"|"sub"|"mul"|"div", a, b),
# ("neg", a), ("pow", a, int), ("call", name, a)

FUNCTIONS = numerics.ELEMENTARY  # FUNC name -> its evaluator on raw values
MAX_EXPONENT = 10 ** 6

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None or match.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            column = pos + (len(src[pos:]) - len(stripped)) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", column)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()
    tokens.append(("end", "", len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str):
        kind, value, column = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", column)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, column = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", column)
        return node

    def expr(self):
        return self.left_associative(self.term, {"+": "add", "-": "sub"})

    def term(self):
        return self.left_associative(self.unary, {"*": "mul", "/": "div"})

    def left_associative(self, operand: Callable, heads: dict):
        # operand (op operand)*, folded from the left; heads maps each op to its node tag
        node = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in heads:
                return node
            self.advance()
            node = (heads[value], node, operand())

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            node = self.unary()
            return node if value == "+" else _neg(node)
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, column = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.exponent()
            return ("pow", node, exponent)
        return node

    def exponent(self) -> int:
        # signed integer literal, itself allowing a nested integer power
        sign = 1
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                if value == "-":
                    sign = -sign
            else:
                break
        kind, value, column = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", value):
            raise ParseError("exponent must be an integer", column)
        self.advance()
        # MAX_EXPONENT + 1 stands for any larger value, so int() and ** build no huge integer
        base = int(value) if len(value.lstrip("0")) <= len(str(MAX_EXPONENT)) else MAX_EXPONENT + 1
        kind, op_value, _ = self.peek()
        if kind == "op" and op_value == "^":
            self.advance()
            power = self.exponent()
            if power < 0 and base != 1:  # 2^-1 is no integer, 0^-1 nothing
                raise ParseError("exponent must be an integer", column)
            # 2 to the bit length of MAX_EXPONENT exceeds it; 1^-k is 1^k
            large = base > 1 and power >= MAX_EXPONENT.bit_length()
            base = MAX_EXPONENT + 1 if large else base ** abs(power)
        if base > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {MAX_EXPONENT} in magnitude", column)
        return sign * base

    def atom(self):
        kind, value, column = self.advance()
        if kind == "num":
            return ("num", value)
        if kind == "name":
            if value == "x":
                return ("var",)
            if value in FUNCTIONS:
                self.expect_op("(")
                node = self.expr()
                self.expect_op(")")
                return ("call", value, node)
            raise ParseError(f"unknown identifier {value!r}", column)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, 'x', a function call or '('", column)


# ---------------------------------------------------------------------------
# smart constructors keep derivative trees small


def _is_num(node, value: int) -> bool:
    # exact decimal comparison: a binary64 reading would take 1e-400 for 0
    if node[0] != "num":
        return False
    try:
        return Decimal(node[1]) == value
    except ArithmeticError:  # exponent beyond Decimal's range: leave the tree unsimplified
        return False


def _num(value: int):
    return ("num", str(value))


def _neg(node):
    if node[0] == "neg":
        return node[1]
    if _is_num(node, 0):
        return node
    return ("neg", node)


def _add(a, b):
    if _is_num(a, 0):
        return b
    if _is_num(b, 0):
        return a
    return ("add", a, b)


def _sub(a, b):
    if _is_num(b, 0):
        return a
    if _is_num(a, 0):
        return _neg(b)
    return ("sub", a, b)


def _mul(a, b):
    if _is_num(a, 0) or _is_num(b, 0):
        return _num(0)
    if _is_num(a, 1):
        return b
    if _is_num(b, 1):
        return a
    return ("mul", a, b)


def _div(a, b):
    if _is_num(a, 0):
        return _num(0)
    return ("div", a, b)


def _pow(a, k: int):
    if k == 0:
        return _num(1)
    if k == 1:
        return a
    return ("pow", a, k)


def differentiate(node):
    """Symbolic derivative of an AST with respect to x."""
    head = node[0]
    if head == "num":
        return _num(0)
    if head == "var":
        return _num(1)
    if head == "neg":
        return _neg(differentiate(node[1]))
    if head == "add":
        return _add(differentiate(node[1]), differentiate(node[2]))
    if head == "sub":
        return _sub(differentiate(node[1]), differentiate(node[2]))
    if head == "mul":
        a, b = node[1], node[2]
        return _add(_mul(differentiate(a), b), _mul(a, differentiate(b)))
    if head == "div":
        a, b = node[1], node[2]
        return _div(_sub(_mul(differentiate(a), b), _mul(a, differentiate(b))), _pow(b, 2))
    if head == "pow":
        a, k = node[1], node[2]
        return _mul(_mul(_num(k), _pow(a, k - 1)), differentiate(a))
    if head == "call":
        name, a = node[1], node[2]
        da = differentiate(a)
        if name == "cos":
            return _mul(_neg(("call", "sin", a)), da)
        if name == "sin":
            return _mul(("call", "cos", a), da)
        if name == "exp":
            return _mul(node, da)
        if name == "log":
            return _div(da, a)
        if name == "sqrt":
            return _div(da, _mul(_num(2), node))
    raise ValueError(f"cannot differentiate node {node!r}")


# ---------------------------------------------------------------------------
# compilation: each tree becomes nested closures, built once at parse time

Program = Callable[[Raw, int, str], Raw]  # (x, precision, rounding) -> value


def _literal(text: str) -> Program:
    values: dict = {}  # (precision, rounding) -> real(text), raw

    def literal(x: Raw, prec: int, rounding: str) -> Raw:
        value = values.get((prec, rounding))
        if value is None:
            value = values[prec, rounding] = to_raw(text, prec, rounding)
        return value

    return literal


def _variable(x: Raw, prec: int, rounding: str) -> Raw:
    return x


def _divide(numerator: Raw, denominator: Raw, prec: int, rounding: str) -> Raw:
    try:
        return mpf_div(numerator, denominator, prec, rounding)
    except ZeroDivisionError:
        raise DomainError("division by zero") from None


_BINARY = {"add": mpf_add, "sub": mpf_sub, "mul": mpf_mul, "div": _divide}


def _compile(node) -> Program:
    """A closure evaluating ``node`` at x: each node's libmp operation, left operand first."""
    head = node[0]
    if head == "num":
        return _literal(node[1])
    if head == "var":
        return _variable
    if head == "neg":
        a = _compile(node[1])
        return lambda x, prec, rounding: mpf_neg(a(x, prec, rounding), prec, rounding)
    if head == "pow":
        a, k = _compile(node[1]), node[2]
        return lambda x, prec, rounding: raw_powi(a(x, prec, rounding), k, prec, rounding)
    if head == "call":
        fn, a = FUNCTIONS[node[1]], _compile(node[2])
        return lambda x, prec, rounding: fn(a(x, prec, rounding), prec, rounding)
    if head in _BINARY:
        op, a, b = _BINARY[head], _compile(node[1]), _compile(node[2])
        return lambda x, prec, rounding: op(a(x, prec, rounding), b(x, prec, rounding),
                                            prec, rounding)
    raise ValueError(f"cannot compile node {node!r}")


def _evaluate(program: Program, x: Scalar) -> Real:
    prec, rounding = mpmath.mp._prec_rounding
    return make_mpf(program(to_raw(x, prec, rounding), prec, rounding))


@dataclass(frozen=True)
class Expression:
    """A parsed expression with symbolic derivatives up to order three."""

    source: str
    nodes: tuple  # value, first, second, third derivative ASTs
    programs: tuple = field(init=False, repr=False, compare=False)  # nodes, compiled

    def __post_init__(self):
        object.__setattr__(self, "programs", tuple(_compile(node) for node in self.nodes))

    def f(self, x: Scalar) -> Real:
        return _evaluate(self.programs[0], x)

    def df(self, x: Scalar) -> Real:
        return _evaluate(self.programs[1], x)

    def d2f(self, x: Scalar) -> Real:
        return _evaluate(self.programs[2], x)

    def d3f(self, x: Scalar) -> Real:
        return _evaluate(self.programs[3], x)


def parse_expression(src: str, derivatives: Sequence[Optional[str]] = ()) -> Expression:
    """Parse ``src`` into an evaluator with analytic derivatives up to order 3.

    ``derivatives[k - 1]``, when given, is the source of the order-k
    derivative; any other order is the symbolic derivative of the one below.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", 1)
    nodes = [_Parser(src).parse()]
    for order in range(1, 4):
        given = derivatives[order - 1] if order <= len(derivatives) else None
        nodes.append(_Parser(given).parse() if given else differentiate(nodes[-1]))
    return Expression(source=src, nodes=tuple(nodes))
