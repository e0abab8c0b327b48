"""Independent checks of every result a workload returns.

Nothing here uses baryiter's reference roots.  Solutions of the built-in
problems are found with ``mpmath.findroot`` (Newton) at twice the working
precision on closed forms written out below; solutions of generated
expressions come from the same search on a sympy translation of the
expression (``lambdify`` onto mpmath).  Golden tables are compared cell by
cell with the published values.

A converged claim is verified when an oracle solution lies within
``2^(-bits/4) * max(1, |x*|)`` of the final iterate and the reported
``|error|`` of that iterate (when the run reports one) agrees with the
oracle's error to the same bound, or to 1e-300, whichever is larger: the
library documents its cached references to that accuracy, so above about
1000 bits the error column cannot be finer.  A reference on another root
misses by far more.  Correct digits are measured against the oracle
solution and capped at the working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Optional

import mpmath
from mpmath import cos, exp, sin

# root problems: f and f'
ROOT_FORMS = {
    "cos_minus_x": (lambda x: cos(x) - x, lambda x: -sin(x) - 1),
    "x2_minus_2": (lambda x: x * x - 2, lambda x: 2 * x),
    "exp_root": (lambda x: exp(x) - 2 * x - 1, lambda x: exp(x) - 2),
    "cubic_x3_minus_x_minus_2": (lambda x: x ** 3 - x - 2, lambda x: 3 * x * x - 1),
}
# optimisation problems: gradient and curvature of the objective
STATIONARY_FORMS = {
    "opt_quadratic": (lambda x: 2 * (x - 2), lambda x: mpmath.mpf(2)),
    "opt_xexp": (lambda x: (1 + x) * exp(x), lambda x: (2 + x) * exp(x)),
    "opt_cos": (lambda x: -sin(x), lambda x: -cos(x)),
    "opt_quartic": (lambda x: 4 * x ** 3 - 4 * x, lambda x: 12 * x * x - 4),
}


@dataclass(frozen=True)
class Verdict:
    ok: bool                 # returned a verified solution (or, without a root, honestly none)
    digits: float = 0.0      # verified correct decimal digits of the final iterate
    false_converged: bool = False  # claimed convergence the oracle rejects


def decimal_digits(bits: int) -> int:
    return int(bits * math.log10(2))


def bound_exponent(bits: int) -> int:
    return -(bits // 4)


REFERENCE_ACCURACY_DIGITS = 300


def expression_forms(source: str, optimisation: bool) -> tuple[Callable, Callable]:
    """(g, g') on mpmath for an expression in baryiter's grammar; g is f or phi'."""
    import sympy
    from sympy.parsing.sympy_parser import parse_expr, rationalize, standard_transformations

    x = sympy.Symbol("x")
    expr = parse_expr(source.replace("^", "**"), local_dict={"x": x},
                      transformations=standard_transformations + (rationalize,))
    g = sympy.diff(expr, x) if optimisation else expr
    return (sympy.lambdify(x, g, modules="mpmath"),
            sympy.lambdify(x, sympy.diff(g, x), modules="mpmath"))


class Oracle:
    """Caches oracle solutions per (function, precision) across a run."""

    def __init__(self):
        self._solutions: dict[tuple, list] = {}
        self._forms: dict[tuple, tuple] = {}

    def forms(self, item) -> tuple[Callable, Callable]:
        if item.kind == "solve":
            return ROOT_FORMS[item.problem]
        if item.kind == "optimize":
            return STATIONARY_FORMS[item.problem]
        key = (item.expr, item.optimisation)
        if key not in self._forms:
            self._forms[key] = expression_forms(item.expr, item.optimisation)
        return self._forms[key]

    def solution_near(self, key, g: Callable, dg: Callable, x, bits: int) -> Optional[mpmath.mpf]:
        """An oracle zero of g within the bound of x (at 2*bits), or None."""
        bound = mpmath.ldexp(max(mpmath.mpf(1), abs(x)), bound_exponent(bits))
        known = self._solutions.setdefault((key, bits), [])
        for r in known:
            if abs(x - r) <= bound:
                return r
        try:
            r = mpmath.findroot(g, x, solver="newton", df=dg)
        except (ValueError, ZeroDivisionError):
            return None
        known.append(r)
        return r if abs(x - r) <= bound else None

    def check(self, item, outcome) -> Verdict:
        if not item.has_root:
            claimed = outcome.status == "converged"
            return Verdict(ok=outcome.status is not None and not claimed, false_converged=claimed)
        if outcome.status != "converged":
            return Verdict(ok=False)
        g, dg = self.forms(item)
        bits = item.bits
        with mpmath.workprec(2 * bits):
            x = mpmath.mpf(outcome.x)
            key = item.problem or (item.expr, item.optimisation)
            r = self.solution_near(key, g, dg, x, bits)
            if r is None:
                return Verdict(ok=False, false_converged=True)
            error = abs(x - r)
            bound = mpmath.ldexp(max(mpmath.mpf(1), abs(r)), bound_exponent(bits))
            report_bound = max(bound, mpmath.mpf(10) ** -REFERENCE_ACCURACY_DIGITS)
            if outcome.error is not None and abs(mpmath.mpf(outcome.error) - error) > report_bound:
                return Verdict(ok=False, false_converged=True)
            cap = decimal_digits(bits)
            if error == 0:
                return Verdict(ok=True, digits=float(cap))
            relative = error / max(mpmath.mpf(1), abs(r))
        with mpmath.workprec(64):  # a digit count needs no more
            digits = -float(mpmath.log10(relative))
        return Verdict(ok=True, digits=min(float(cap), digits))


# ---------------------------------------------------------------------------
# golden tables


def parse_table(text: str) -> dict[str, list[str]]:
    """Cells of a printed ``table --reproduce`` run, per column label."""
    lines = text.splitlines()
    if not lines:
        return {}
    labels = lines[0].split()[1:]
    cells: dict[str, list[str]] = {label: [] for label in labels}
    for line in lines[1:]:
        parts = line.split()
        if not parts or not parts[0].isdigit():
            break
        for label, value in zip(labels, parts[1:]):
            if value != "-":
                cells[label].append(value)
    return cells


def cell_matches(printed: str, published: str) -> bool:
    """Same value to the published significant figures, within one final unit."""
    try:
        got = Decimal(printed)
    except ArithmeticError:
        return False
    want = Decimal(published)
    digits = len(want.as_tuple().digits)
    unit = Decimal(1).scaleb(want.adjusted() - digits + 1)
    return abs(got - want) <= unit


def golden_mismatches(text: str, published: dict[str, list[str]]) -> list[tuple[str, int]]:
    """(label, row) of every published cell the printed table does not reproduce."""
    printed = parse_table(text)
    bad = []
    for label, cells in published.items():
        column = printed.get(label, [])
        for i, cell in enumerate(cells):
            if i >= len(column) or not cell_matches(column[i], cell):
                bad.append((label, i))
    return bad
