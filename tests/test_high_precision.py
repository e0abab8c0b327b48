"""Error columns above the 1 063 bits the stored roots carry.

Each run's reported |error| must agree with an mpmath ``findroot`` solution
at twice the working precision p, to 2^-(p-8) relative to max(1, |root|)
(the reference is itself rounded to p bits), and the summary's empirical
order must lie within 0.01 of the theoretical order.
"""

import mpmath
import pytest
from mpmath import mpf

from baryiter import analysis, cli, corpus
from baryiter.optimise import optimize
from baryiter.root_search import SolverConfig, solve

RUNS = [
    # (runner, problem, config, the residual findroot solves (f, or f' of an objective)
    #  and its slope, the theoretical order)
    pytest.param(solve, "cos_minus_x",
                 SolverConfig(method="exact-df", window=4, precision_bits=4096),
                 (lambda x: mpmath.cos(x) - x, lambda x: -mpmath.sin(x) - 1),
                 lambda: analysis.theoretical_order("root", 1, 3), id="cos_minus_x-exact-df-w4"),
    pytest.param(solve, "exp_root",
                 SolverConfig(method="newton", x0="0.3", precision_bits=4096),
                 (lambda x: mpmath.exp(x) - 2 * x - 1, lambda x: mpmath.exp(x) - 2),
                 lambda: mpf(2), id="exp_root-newton"),
    pytest.param(optimize, "opt_cos",
                 SolverConfig(method="ch-d1", window=8, precision_bits=16384),
                 (lambda x: -mpmath.sin(x), lambda x: -mpmath.cos(x)),
                 lambda: analysis.theoretical_order("opt", 2, 7), id="opt_cos-ch-d1-w8"),
]


@pytest.mark.parametrize("runner, name, config, residual, theory", RUNS)
def test_error_column_is_exact_to_the_working_precision(runner, name, config, residual, theory):
    trace = runner(corpus.get_problem(name), config)
    assert trace.status == "converged"
    bits = config.precision_bits
    with mpmath.workprec(2 * bits):
        root = mpmath.findroot(residual[0], trace.steps[-1].x, solver="newton", df=residual[1])
        bound = mpmath.ldexp(max(1, abs(root)), -(bits - 8))
        for step in trace.steps:
            assert abs(step.abs_error - abs(step.x - root)) <= bound, step.index
    order = mpf(cli.trace_document(trace, 20)["summary"]["empirical_order"])
    assert abs(order - theory()) <= mpf("0.01"), order
