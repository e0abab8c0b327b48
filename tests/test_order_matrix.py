"""Measured convergence orders against the method table, at 8192 bits.

Each cell runs one memory method at one window from its problem's default
start and reads the last per-step ratio log|e_{k+1}| / log|e_k| of its
trace.  The ratio must match ``analysis.theoretical_order(family,
multiplicity, window - 1)``, the family and multiplicity being the method
table's.  With errors exact to the working precision the ratio approaches
the order as l + log|C| / log|e_k|, so by the last step, at |e_k| near
2^-2500 or below, the leading-error constant C moves it by little.

Tolerance, fixed from the spread of the last steps' ratios measured on this
grid before the test was written: every last ratio lay within 0.0050 of its
order (largest on ``ch-f-interp`` w3), each above it, and the last three
ratios of a cell fell towards the order by at most about 0.06.  A cell must
match within ``ORDER_TOL`` = 0.01, twice the largest deviation seen.

Cells left out, each for a named reason:

* ``newton-df`` w4 on ``opt_xexp``: from the default start it walks down
  the flat tail of x e^x and runs out its budget far from -1, so it has no
  asymptotic ratio to read.
* ``ch-d1`` on ``opt_quartic``: it reads exactly 3.000 at w4 and w8; the
  Hermite interpolant reproduces the quartic, so its derivative estimates
  are exact and no leading error term sets the order.
* secant on phi' = -sin x of ``opt_cos``: it reads 2.000, not 1.618, since
  phi'''(pi) = 0 removes the secant's leading error term.
"""

import math

import mpmath
import pytest

from baryiter import analysis, corpus
from baryiter.expressions import parse_expression
from baryiter.methods import METHODS
from baryiter.optimise import optimize
from baryiter.root_search import SolverConfig, solve

BITS = 8192
ORDER_TOL = 0.01
ROOT_MEMORY_METHODS = ("exact-df", "exact-d1", "newton-x-interp", "newton-f-interp",
                       "ch-x-interp", "ch-f-interp")

CELLS = ([("cos_minus_x", method, window) for method in ROOT_MEMORY_METHODS
          for window in (2, 3, 4, 8)]
         + [("opt_xexp", method, window) for method in ("newton-df", "ch-d1")
            for window in (3, 8)])


def _last_ratio(trace) -> float:
    errors = [step.abs_error for step in trace.steps
              if step.abs_error is not None and 0 < step.abs_error < 1]
    return float(mpmath.log(errors[-1]) / mpmath.log(errors[-2]))


def _measured_order(problem, method: str, window: int) -> float:
    spec = METHODS[method]
    run = solve if spec.family == "root" else optimize
    trace = run(problem, SolverConfig(method=method, window=window, precision_bits=BITS))
    assert trace.status == "converged", (problem.name, method, window, trace.status)
    return _last_ratio(trace)


@pytest.mark.parametrize("name,method,window", CELLS)
def test_last_ratio_matches_the_theoretical_order(name, method, window):
    spec = METHODS[method]
    expected = float(analysis.theoretical_order(spec.family, spec.multiplicity, window - 1))
    measured = _measured_order(corpus.get_problem(name), method, window)
    assert abs(measured - expected) <= ORDER_TOL, (measured, expected)


def test_ch_d1_gains_digits_1_83_times_as_fast_as_secant_on_opt_xexp():
    # the abstract's "1.8x faster than secant": secant runs on phi' = (1 + x) e^x, whose
    # root is opt_xexp's minimiser, and ch-d1 w8 on the objective itself
    slope = corpus.from_expression(parse_expression("(1 + x)*exp(x)"), "opt_xexp_slope",
                                   "root", "0")
    secant = _measured_order(slope, "secant", 2)
    assert abs(secant - (1 + math.sqrt(5)) / 2) <= ORDER_TOL, secant
    ch_d1 = _measured_order(corpus.get_problem("opt_xexp"), "ch-d1", 8)
    # both orders sat within 0.003 of theirs, which moves the quotient by under 0.003
    assert abs(math.log(ch_d1) / math.log(secant) - 1.83) <= 0.01, (ch_d1, secant)
