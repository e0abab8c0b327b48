"""Built-in benchmark problems with high-precision reference solutions.

Each problem carries analytic derivatives up to the order the solvers can
use, an optional fixed-point form, and a default starting point.  Reference
solutions (roots, or minimisers for objectives) are Newton-refined at 1152
bits until the residual drops below 1e-300.  The built-ins' references ship
as 320-digit decimal strings in a sidecar file next to this module (a test
checks them against a fresh refinement); any other problem is refined on
each request, and nothing is written back.  Either way the digits are
parsed at the caller's working precision.  The golden error tables for the
``cos x - x`` benchmark live here too; the command-line ``table`` command
and the acceptance suite both replay them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from mpmath import mpf

from .errors import NonConvergence
from .numerics import Real, cos, exp, precision, real, sin, to_decimal

REFERENCE_BITS = 1152          # leaves headroom over the 320 stored digits
REFERENCE_DIGITS = 320
REFERENCE_RESIDUAL = mpf(10) ** -300
_SIDECAR = Path(__file__).with_name("_references.tsv")


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
    notes: str = ""

    def reference(self) -> Real:
        """Reference solution at the working precision."""
        return reference_root(self)


def _problems() -> dict[str, Problem]:
    entries = [
        Problem(
            name="cos_minus_x",
            kind="root",
            f=lambda x: cos(x) - x,
            df=lambda x: -sin(x) - 1,
            d2f=lambda x: -cos(x),
            d3f=lambda x: sin(x),
            fixed_point=lambda x: cos(x),
            default_x0="3",
            notes="fixed-point benchmark behind the golden error tables",
        ),
        Problem(
            name="x2_minus_2",
            kind="root",
            f=lambda x: x * x - 2,
            df=lambda x: 2 * x,
            d2f=lambda x: real(2),
            d3f=lambda x: real(0),
            default_x0="1",
            notes="root sqrt(2)",
        ),
        Problem(
            name="exp_root",
            kind="root",
            f=lambda x: exp(x) - 2 * x - 1,
            df=lambda x: exp(x) - 2,
            d2f=lambda x: exp(x),
            d3f=lambda x: exp(x),
            default_x0="2",
            notes="simple root near 1.2564 (f' = e^r - 2 > 0 there)",
        ),
        Problem(
            name="cubic_x3_minus_x_minus_2",
            kind="root",
            f=lambda x: x ** 3 - x - 2,
            df=lambda x: 3 * x * x - 1,
            d2f=lambda x: 6 * x,
            d3f=lambda x: real(6),
            default_x0="2",
            notes="cubic with constant third derivative, for error-factor checks",
        ),
        Problem(
            name="opt_quadratic",
            kind="optimisation",
            f=lambda x: (x - 2) ** 2 + 1,
            df=lambda x: 2 * (x - 2),
            d2f=lambda x: real(2),
            d3f=lambda x: real(0),
            default_x0="0",
            notes="minimiser 2; exactness benchmark",
        ),
        Problem(
            name="opt_xexp",
            kind="optimisation",
            f=lambda x: x * exp(x),
            df=lambda x: (1 + x) * exp(x),
            d2f=lambda x: (2 + x) * exp(x),
            d3f=lambda x: (3 + x) * exp(x),
            default_x0="0",
            notes="minimiser exactly -1",
        ),
        Problem(
            name="opt_cos",
            kind="optimisation",
            f=lambda x: cos(x),
            df=lambda x: -sin(x),
            d2f=lambda x: -cos(x),
            d3f=lambda x: sin(x),
            default_x0="2.5",
            notes="minimiser pi",
        ),
        Problem(
            name="opt_quartic",
            kind="optimisation",
            f=lambda x: x ** 4 - 2 * x * x,
            df=lambda x: 4 * x ** 3 - 4 * x,
            d2f=lambda x: 12 * x * x - 4,
            d3f=lambda x: 24 * x,
            default_x0="0.8",
            notes="double-well; the default start selects the minimiser at +1",
        ),
    ]
    return {p.name: p for p in entries}


PROBLEMS = _problems()


def list_problems() -> list[Problem]:
    return list(PROBLEMS.values())


def get_problem(name: str) -> Problem:
    try:
        return PROBLEMS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; known: {', '.join(sorted(PROBLEMS))}") from None


# ---------------------------------------------------------------------------
# reference solutions


def _load_sidecar() -> dict[str, str]:
    if not _SIDECAR.exists():
        return {}
    out = {}
    for line in _SIDECAR.read_text().splitlines():
        if not line.strip():
            continue
        name, _, digits = line.partition("\t")
        out[name] = digits.strip()
    return out


_reference_cache: dict[str, str] | None = None


def refine_reference(problem: Problem) -> str:
    """Newton-refine the reference at 1152 bits; returns a 320-digit decimal string.

    Root problems refine on f/f'; optimisation problems on f'/f''.
    """
    if problem.kind == "root":
        value, slope = problem.f, problem.df
    else:
        value, slope = problem.df, problem.d2f
    if value is None or slope is None:
        raise NonConvergence(f"problem {problem.name!r} lacks the derivatives to refine")
    with precision(REFERENCE_BITS):
        x = real(problem.default_x0)
        for _ in range(200):
            residual = value(x)
            if abs(residual) < REFERENCE_RESIDUAL:
                return to_decimal(x, REFERENCE_DIGITS)
            derivative = slope(x)
            if derivative == 0:
                break
            x = x - residual / derivative
    raise NonConvergence(f"reference for {problem.name!r} did not reach the target residual")


def reference_root(problem: Problem) -> Real:
    """Reference solution from the sidecar, else refined (and, for a built-in, kept in memory)."""
    global _reference_cache
    if _reference_cache is None:
        _reference_cache = _load_sidecar()
    digits = _reference_cache.get(problem.name)
    if digits is None:
        digits = refine_reference(problem)
        if problem.name in PROBLEMS:
            _reference_cache[problem.name] = digits
    return real(digits)


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
    target = real(cell)
    mantissa = cell.split("e")[0].split("E")[0]
    digits = len(mantissa.replace(".", "").replace("-", "").lstrip("0"))
    exponent = int(cell.split("e")[1]) if "e" in cell else 0
    # exponent of the leading digit
    lead = exponent + (len(mantissa.lstrip("-").split(".")[0].lstrip("0")) - 1)
    half_ulp = mpf(10) ** (lead - digits + 1) / 2
    return abs(value - target) <= half_ulp * (1 + mpf(10) ** -6)
