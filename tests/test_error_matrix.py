"""Measured leading-error factors against the method table, at 2048 bits.

Each cell runs one method at one window under one weight scheme from its
problem's default start, and reads ``analysis.verify_error_factor``: the
relative deviation of e_j / (product of the window's errors) from the cell's
published factor, over the last steps.  The solution derivatives come from
sympy, differentiating each problem's source, evaluated at the root the run
approached.  A cell is every (method, scheme, window) that ``methods.METHODS``
tabulates, for windows 1-5, on every built-in of its family.  ``ch-x-interp``
and ``ch-f-interp`` run the same fixed weights under every scheme, so each of
their cells runs once.

Tolerance, fixed from this grid run before the test was written: the last
deviation (tail 1) was at most 5.7e-8 (``newton-f-interp/f`` w4 on the
cubic), and the larger of the last two (tail 2) at most 4.0e-4
(``newton-x-interp/x`` w4 on ``cos_minus_x``).  A cell must match within
1e-6 at tail 1 and 1e-3 at tail 2.  The file runs in about 3 s, sympy's
import included.

Cells left out, each for a named reason:

* A degenerate cell: its published factor is 0, because the derivative it
  is proportional to vanishes at the solution, so the next term sets the
  error and a relative deviation is undefined.  Each one's factor is
  checked to be 0 at the working precision instead.
* ``newton-df`` w4 on ``opt_xexp``: from the default start it walks down
  the flat tail of x e^x and runs out its budget far from -1.
"""

import mpmath
import pytest
import sympy
from mpmath import mpf

from baryiter import corpus
from baryiter.analysis import ErrorFactorSpec, predicted_error_factor, verify_error_factor
from baryiter.errors import UnsupportedCell
from baryiter.methods import METHODS
from baryiter.numerics import precision
from baryiter.optimise import optimize
from baryiter.root_search import SolverConfig, solve

BITS = 2048
WINDOWS = range(1, 6)  # the highest needs the fifth derivative
TOLERANCE = {1: mpf("1e-6"), 2: mpf("1e-3")}  # window_tail -> largest relative deviation

# each built-in's f (the objective, for optimisation) in sympy's grammar
SOURCES = {
    "root": {"cos_minus_x": "cos(x) - x", "x2_minus_2": "x**2 - 2",
             "exp_root": "exp(x) - 2*x - 1", "cubic_x3_minus_x_minus_2": "x**3 - x - 2"},
    "opt": {"opt_xexp": "x*exp(x)", "opt_cos": "cos(x)", "opt_quartic": "x**4 - 2*x**2"},
}
_X = sympy.Symbol("x")

# (problem, cell, window) -> why the solution makes the published factor 0
DEGENERATE = {
    ("x2_minus_2", "newton-f-interp/x", 3): "f''' = 0",
    ("x2_minus_2", "newton-f-interp/x", 4): "f'''' = 0",
    ("cubic_x3_minus_x_minus_2", "newton-f-interp/x", 4): "f'''' = 0",
    ("x2_minus_2", "ch-f-interp/x", 2): "f'''' = 0",
    ("cubic_x3_minus_x_minus_2", "ch-f-interp/x", 2): "f'''' = 0",
    ("opt_cos", "newton-df/x", 3): "phi'''(pi) = sin(pi) = 0",
    ("opt_cos", "newton-df/x", 5): "phi'''''(pi) = -sin(pi) = 0",
    ("opt_quartic", "newton-df/x", 5): "phi''''' = 0",
}
# (problem, cell, window) -> why the run has no asymptotic errors to read
NOT_CONVERGED = {
    ("opt_xexp", "newton-df/x", 4): "walks down the flat tail of x e^x from the default start",
}


def _cells() -> list:
    """(method, cell name, window) of every tabulated cell that the method can run."""
    cells = []
    for method, spec in METHODS.items():
        seen = set()
        for scheme, cell in spec.error_cells.items():
            if cell in seen:
                continue  # another scheme names the same cell
            seen.add(cell)
            name = method if scheme is None else f"{method}/{scheme}"
            for window in WINDOWS:
                if window < spec.min_window:
                    continue
                try:
                    predicted_error_factor(ErrorFactorSpec(name, window, ("1",) * len(WINDOWS)))
                except UnsupportedCell:
                    continue
                cells.append((method, name, window))
    return cells


CELLS = [(problem, method, name, window) for method, name, window in _cells()
         for problem in SOURCES[METHODS[method].family]]
LEFT_OUT = {**DEGENERATE, **NOT_CONVERGED}
MEASURED = [(p, method, name, w) for p, method, name, w in CELLS if (p, name, w) not in LEFT_OUT]


def _derivatives(problem: str, family: str, at) -> tuple:
    """The first ``max(WINDOWS)`` derivatives of the problem's source at ``at``."""
    f = sympy.sympify(SOURCES[family][problem])
    return tuple(sympy.lambdify(_X, sympy.diff(f, _X, k), "mpmath")(at)
                 for k in range(1, max(WINDOWS) + 1))


def _run(problem: str, method: str, name: str, window: int):
    """The converged trace of the cell and its spec with the solution's derivatives."""
    spec = METHODS[method]
    runner = solve if spec.family == "root" else optimize
    scheme = name.partition("/")[2] or "x"
    config = SolverConfig(method=method, weight_scheme=scheme, window=window,
                          precision_bits=BITS, max_iter=200)
    trace = runner(corpus.get_problem(problem), config)
    assert trace.status == "converged", trace.status
    with precision(BITS):
        derivatives = _derivatives(problem, spec.family, trace.reference)
    return trace, ErrorFactorSpec(name, window, derivatives)


def test_the_sources_are_the_built_ins():
    with precision(256):
        x = mpf("0.3")
        for sources in SOURCES.values():
            for problem, source in sources.items():
                f = sympy.lambdify(_X, sympy.sympify(source), "mpmath")
                assert abs(f(x) - corpus.get_problem(problem).f(x)) < mpf(2) ** -250, problem


def test_every_left_out_cell_is_a_cell():
    assert set(LEFT_OUT) <= {(p, name, w) for p, _, name, w in CELLS}


@pytest.mark.parametrize("problem, method, name, window", MEASURED,
                         ids=[f"{p}-{n}-w{w}" for p, _, n, w in MEASURED])
def test_the_measured_factor_matches_the_table(problem, method, name, window):
    trace, spec = _run(problem, method, name, window)
    with precision(BITS):
        for tail, tolerance in TOLERANCE.items():
            deviation = verify_error_factor(trace, spec, tail)
            assert deviation <= tolerance, (tail, mpmath.nstr(deviation, 3),
                                            mpmath.nstr(predicted_error_factor(spec), 10))


@pytest.mark.parametrize("problem, name, window", sorted(DEGENERATE))
def test_a_degenerate_cell_has_a_vanishing_factor(problem, name, window):
    _, spec = _run(problem, name.partition("/")[0], name, window)
    with precision(BITS):
        assert abs(predicted_error_factor(spec)) < mpf(2) ** -(BITS - 64)
