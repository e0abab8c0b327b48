"""Built-in benchmark problems with high-precision reference solutions.

Each built-in is data: an f source in the grammar of ``expressions``, a
kind, a default start and, for ``cos x - x``, a fixed-point source.  Its
callables are the programs ``parse_expression`` compiles, as for ``--expr``
input; where a symbolic derivative would round differently from the closed
form the problem was first written with, the built-in gives that
derivative's source too, so no output bit moves.  Every real solution of
each built-in (roots, or stationary points for objectives; for ``cos``
those at 0, pi and 2 pi) is written beside it as a short decimal seed:
the solution's binary64 value, or exactly "0".  One rule gives a run its
reference at every working precision: the seed nearest the point the
caller names (a run's final iterate) is Newton-refined at that precision
and remembered per (problem, seed, precision); a problem that stores no
seeds is refined from that point, and nothing is kept.  A refinement runs
at the working precision plus ``REFERENCE_GUARD_BITS`` until f is exactly
0 or the Newton step falls below the working precision and to half the
step before, within ``REFERENCE_STEPS`` steps.  Newton doubles the
correct digits each step, so a 53-bit seed reaches any precision.  The
golden error tables for the ``cos x - x`` benchmark live here too; the
command-line ``table`` command and the acceptance suite both replay them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from functools import lru_cache
from typing import Callable, Optional

import mpmath
from mpmath import mpf

from .errors import NonConvergence
from .expressions import parse_expression
from .numerics import Real, precision, real

REFERENCE_GUARD_BITS = 64      # a refinement runs this far above the working precision
REFERENCE_STEPS = 16           # to 1 023 bits; one more per doubling, as Newton doubles digits


@dataclass(frozen=True)
class Problem:
    """A benchmark function; for optimisation problems ``f`` is the objective."""

    name: str
    kind: str  # "root" | "optimisation"
    f: Callable[[Real], Real]
    df: Optional[Callable[[Real], Real]] = None
    d2f: Optional[Callable[[Real], Real]] = None
    d3f: Optional[Callable[[Real], Real]] = None
    fixed_point: Optional[Callable[[Real], Real]] = None
    default_x0: str = "1"
    roots: tuple[str, ...] = ()  # seeds of the known solutions, decimals at least about 1 apart

    def reference(self, near: Optional[Real] = None) -> Real:
        """The solution nearest ``near`` at the working precision; see ``reference_root``."""
        return reference_root(self, near)


def from_expression(expression, name: str, kind: str, default_x0: str,
                    fixed_point: Optional[Callable[[Real], Real]] = None) -> Problem:
    """The problem whose f and derivatives are a parsed expression's programs."""
    return Problem(name=name, kind=kind, f=expression.f, df=expression.df, d2f=expression.d2f,
                   d3f=expression.d3f, fixed_point=fixed_point, default_x0=default_x0)


def _builtin(name: str, kind: str, x0: str, f: str, *derivatives: Optional[str],
             roots: tuple[str, ...], fixed_point: Optional[str] = None) -> Problem:
    # derivatives: source of f', f'', f''' in order, None where the symbolic form rounds alike
    fixed = parse_expression(fixed_point).f if fixed_point else None
    problem = from_expression(parse_expression(f, derivatives), name, kind, x0, fixed)
    return replace(problem, roots=roots)


PROBLEMS = {problem.name: problem for problem in (
    # fixed-point benchmark behind the golden error tables
    _builtin("cos_minus_x", "root", "3", "cos(x) - x", roots=("0.7390851332151607",),
             fixed_point="cos(x)"),
    # roots -sqrt(2) and sqrt(2)
    _builtin("x2_minus_2", "root", "1", "x*x - 2",
             roots=("-1.4142135623730951", "1.4142135623730951")),
    # roots 0 and about 1.2564; f is convex
    _builtin("exp_root", "root", "2", "exp(x) - 2*x - 1", roots=("0", "1.2564312086261697")),
    # cubic with constant third derivative, for error-factor checks
    _builtin("cubic_x3_minus_x_minus_2", "root", "2", "x^3 - x - 2", "3*x*x - 1",
             roots=("1.5213797068045676",)),
    # minimiser 2; exactness benchmark
    _builtin("opt_quadratic", "optimisation", "0", "(x - 2)^2 + 1", roots=("2",)),
    # minimiser exactly -1
    _builtin("opt_xexp", "optimisation", "0", "x*exp(x)",
             "(1 + x)*exp(x)", "(2 + x)*exp(x)", "(3 + x)*exp(x)", roots=("-1",)),
    # minimiser pi; of the stationary points k pi, those with k = 0, 1, 2 are stored
    _builtin("opt_cos", "optimisation", "2.5", "cos(x)",
             roots=("0", "3.141592653589793", "6.283185307179586")),
    # double-well: minimisers -1 and +1 (the default start's), maximiser 0
    _builtin("opt_quartic", "optimisation", "0.8", "x^4 - 2*x*x", None, "12*x*x - 4",
             roots=("-1", "0", "1")),
)}


def list_problems() -> list[Problem]:
    return list(PROBLEMS.values())


def get_problem(name: str) -> Problem:
    try:
        return PROBLEMS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; known: {', '.join(sorted(PROBLEMS))}") from None


# ---------------------------------------------------------------------------
# reference solutions


def refine_reference(problem: Problem, near: Optional[Real] = None) -> Real:
    """Newton-refine the reference; returns an mpf at the working precision p.

    Starts from ``near``, else from the problem's default start, and runs
    at p + ``REFERENCE_GUARD_BITS`` bits.  It stops when the residual is
    exactly 0, or after a step no larger than 2^-(p+32) max(|x|, |start|)
    that is also at most half the step before.  The start's term lets a
    root at 0 stop; the halving keeps a far point, where f/f' stays near 1
    while |x| is huge, from passing for a root.  It raises
    ``NonConvergence`` after ``REFERENCE_STEPS`` steps, plus one per
    doubling of p above 1 023 bits.  Root problems refine on f/f';
    optimisation problems on f'/f''.
    """
    if problem.kind == "root":
        value, slope = problem.f, problem.df
    else:
        value, slope = problem.df, problem.d2f
    if value is None or slope is None:
        raise NonConvergence(f"problem {problem.name!r} lacks the derivatives to refine")
    bits = mpmath.mp.prec
    with precision(bits + REFERENCE_GUARD_BITS):
        x = real(problem.default_x0 if near is None else near)
        scale = abs(x)
        previous = None
        for _ in range(REFERENCE_STEPS + max(0, bits.bit_length() - 10)):
            residual = value(x)
            if residual == 0:
                break
            derivative = slope(x)
            if derivative == 0:
                raise NonConvergence(f"reference for {problem.name!r} met a zero slope")
            step = residual / derivative
            x -= step
            # a small step alone proves nothing far out; it must also have halved
            if (previous is not None and 2 * abs(step) <= abs(previous)
                    and abs(step) <= mpmath.ldexp(max(abs(x), scale), -(bits + 32))):
                break
            previous = step
        else:
            raise NonConvergence(f"reference for {problem.name!r} did not settle")
    return +x


@lru_cache(maxsize=64)
def _stored_root(problem: Problem, seed: str, bits: int) -> Real:
    # keyed on the problem object, not its name, so a library problem never reads a built-in's
    return refine_reference(problem, real(seed))


def reference_root(problem: Problem, near: Optional[Real] = None) -> Real:
    """The reference solution nearest ``near``, else nearest the default start.

    A problem that stores ``roots`` gets the seed nearest that point, picked
    in binary64, Newton-refined at the working precision and remembered per
    (problem, seed, precision).  One that stores none is refined from that
    point, and nothing is kept.
    """
    if not problem.roots:
        return refine_reference(problem, near)
    start = float(problem.default_x0 if near is None else near)
    seed = min(problem.roots, key=lambda seed: abs(float(seed) - start))
    return _stored_root(problem, seed, mpmath.mp.prec)


# ---------------------------------------------------------------------------
# golden error tables (cos x - x from x0 = 3, 512-bit profile)
#
# Cells are |x_i - root| to three significant figures.  The derivative-free
# columns bootstrap their second point with one fixed-point step; every
# memory column grows its window from the available points before sliding.

GOLDEN_TABLES = {
    "table4": {
        "problem": "cos_minus_x",
        "precision_bits": 512,
        "columns": [
            {"label": "picard", "method": "picard", "window": 1},
            {"label": "secant", "method": "exact-df", "window": 2, "weights": "x"},
            {"label": "n=2", "method": "exact-df", "window": 3, "weights": "x"},
            {"label": "n=3", "method": "exact-df", "window": 4, "weights": "x"},
            {"label": "newton", "method": "newton", "window": 1},
        ],
        "cells": {
            "picard": ["2.26", "1.73", "1.90e-1", "1.14e-1", "8.15e-2",
                       "5.24e-2", "3.63e-2", "2.40e-2", "1.63e-2", "1.09e-2"],
            "secant": ["2.26", "1.73", "6.19e-1", "8.35e-1", "1.01e-1",
                       "1.23e-2", "2.91e-4", "7.94e-7", "5.09e-11", "8.93e-18"],
            "n=2": ["2.26", "1.73", "6.19e-1", "3.47e-1", "6.61e-2",
                    "1.73e-3", "4.27e-6", "5.60e-11", "4.80e-20", "1.33e-36"],
            "n=3": ["2.26", "1.73", "6.19e-1", "3.47e-1", "1.77e-2",
                    "2.00e-4", "1.78e-8", "4.40e-16", "6.06e-31", "2.08e-59"],
            "newton": ["2.26", "1.24", "1.39", "4.94e-2", "5.68e-4",
                       "7.12e-8", "1.12e-15", "2.76e-31", "1.68e-62", "6.25e-125"],
        },
    },
    "table6": {
        "problem": "cos_minus_x",
        "precision_bits": 512,
        "columns": [
            {"label": "n=0", "method": "exact-d1", "window": 1, "weights": "x"},
            {"label": "n=1", "method": "exact-d1", "window": 2, "weights": "x"},
            {"label": "n=2", "method": "exact-d1", "window": 3, "weights": "x"},
            {"label": "n=3", "method": "exact-d1", "window": 4, "weights": "x"},
            {"label": "halley", "method": "halley", "window": 1},
        ],
        "cells": {
            "n=0": ["2.26", "1.24", "1.39", "4.94e-2", "5.68e-4", "7.12e-8", "1.12e-15"],
            "n=1": ["2.26", "1.24", "1.18e-1", "6.85e-4", "1.35e-10", "1.88e-28", "1.41e-77"],
            "n=2": ["2.26", "1.24", "1.18e-1", "2.44e-5", "9.33e-15", "2.87e-43", "1.56e-126"],
            "n=3": ["2.26", "1.24", "1.18e-1", "2.44e-5", "4.76e-15", "6.73e-44", "7.76e-131"],
            "halley": ["2.26", "8.72e-1", "5.27e-2", "1.65e-5", "5.19e-16", "1.62e-47", "4.93e-142"],
        },
    },
}


def golden_table(name: str) -> dict:
    try:
        return GOLDEN_TABLES[name]
    except KeyError:
        raise KeyError(f"unknown table {name!r}; known: {', '.join(sorted(GOLDEN_TABLES))}") from None


def matches_printed(value: Real, cell: str) -> bool:
    """True when ``value`` rounds to the printed cell's significant figures.

    The cell is read as a correctly rounded decimal; ``value`` must lie
    within half a unit in its last printed digit (plus a sliver for the
    publisher's own boundary rounding).
    """
    half_ulp = mpf(10) ** Decimal(cell).as_tuple().exponent / 2  # the last digit's exponent
    return abs(value - real(cell)) <= half_ulp * (1 + mpf(10) ** -6)
