"""Univariate optimisation on interpolants of the objective.

Only the direct function is interpolated: inverse-objective interpolation
is excluded by design, because near an extremum the inverse is multi-valued
and the interpolant degrades.  So an objective sample (x, phi, phi') is the
root solver's ``Sample`` (x, f, f'), and the formulas below read ``f`` as phi
and ``f_prime`` as phi'.

``newton-df``
    Newton step on slope and curvature estimated from (x_i, phi_i) memory
    with x-based product weights: the direct interpolant's first and second
    ``node_derivative`` at the newest sample.  Needs at least three points for a
    non-degenerate curvature, so the window minimum is 3.
``ch-d1``
    Chebyshev-Halley step on the true slope and the curvature and
    third-derivative estimates of the direct slope-matching interpolant over
    (x_i, phi_i, phi'_i) memory with x-based squared-product weights: both
    are ``hermite_node_curvature``, the third given the curvature; window
    minimum 2.

``optimize`` runs the root solver's loop (``root_search.drive``) on these
methods: growing memory, newest ``window`` samples, window-reduction
fallback on singular steps.  The starting points are x0, x0 + h (or an
explicit ``x1``) and, for ``newton-df``, the mirror image x0 - h.
Convergence uses the slope residual: the true phi' for ``ch-d1``, the
interpolant slope estimate for ``newton-df`` (a documented heuristic, since
the true gradient is unavailable).  Each step records the sign of the
curvature estimate; the solver does not classify the stationary point.

Both steps end in the root solver's Newton or Chebyshev-Halley update and
run on raw libmp values, bit for bit as the mpf formulas.
"""

from __future__ import annotations

from typing import Optional, Sequence

from mpmath.libmp import fzero, mpf_eq

from .errors import SingularStep
from .interpolants import ObjectiveSample  # noqa: F401  (re-exported: the public objective sample)
from .interpolants import Sample, hermite_node_curvature, node_derivative
from .numerics import Real
from .root_search import (
    IterationTrace,
    SolverConfig,
    chebyshev_halley_update,
    drive,
    newton_update,
    select_window,
)
# the shared loop's pieces, and the interpolant slope at the newest sample,
# under this module's own names, so that optimisation steps can be
# instrumented apart
from .root_search import _interp_step, _propose as _opt_propose
from .root_search import direct_slope_estimate as phi_slope_df
from .weights import HermiteWeights, ProductWeights, product_weights, squared_product_weights


def phi_curvature_df(window: Sequence[Sample], weights: Sequence[Real], slope: Real) -> Real:
    """Interpolant curvature at the newest sample, given its slope: see ``node_derivative``."""
    return node_derivative(window, weights, slope=slope)


def _df_step(window: Sequence[Sample], weights: Sequence[Real], slope: Optional[Real] = None):
    if slope is None:
        slope = phi_slope_df(window, weights)
    curvature = phi_curvature_df(window, weights, slope)
    if mpf_eq(curvature._mpf_, fzero):
        raise SingularStep("estimated curvature vanished")
    return newton_update(window[-1].x, slope, curvature), curvature


def opt_step_df(window: Sequence[Sample], weights: Sequence[Real]) -> Real:
    """Newton step on the derivative-free slope/curvature estimates."""
    return _df_step(window, weights)[0]


def phi_curvature_d1(window: Sequence[Sample], hweights: HermiteWeights) -> Real:
    """phi'' at the newest sample from the slope-matching interpolant."""
    return hermite_node_curvature(window, hweights)


def phi_third_d1(window: Sequence[Sample], hweights: HermiteWeights, curvature: Real) -> Real:
    """phi''' at the newest sample, given the curvature estimate: see ``hermite_node_curvature``."""
    return hermite_node_curvature(window, hweights, curvature=curvature)


def _d1_step(window: Sequence[Sample], hweights: HermiteWeights, beta: Real):
    curvature = phi_curvature_d1(window, hweights)
    if mpf_eq(curvature._mpf_, fzero):
        raise SingularStep("estimated curvature vanished")
    third = phi_third_d1(window, hweights, curvature)
    newest = window[-1]
    return chebyshev_halley_update(newest.x, newest.f_prime, curvature, third, beta), curvature


def opt_step_d1(window: Sequence[Sample], hweights: HermiteWeights, beta: Real) -> Real:
    """Chebyshev-Halley step on (phi', phi'', phi''') with estimated curvature terms."""
    return _d1_step(window, hweights, beta)[0]


# ---------------------------------------------------------------------------
# table pieces (see root_search): weight builders, step formulas and the
# residual of each method, calling this module's names at call time


def x_product(window: Sequence[Sample], alpha: Real,
              previous: Optional[ProductWeights] = None) -> ProductWeights:
    return product_weights([s.x for s in window], previous)


def x_squared(window: Sequence[Sample], alpha: Real,
              previous: Optional[HermiteWeights] = None) -> HermiteWeights:
    return squared_product_weights([s.x for s in window], previous)


def newton_df(run, window: Sequence[Sample], weights):
    # the residual's slope, when it was estimated on these very weights
    slope_weights, slope = run.slope
    return _df_step(window, weights, slope if slope_weights is weights else None)


def ch_d1(run, window: Sequence[Sample], weights):
    return _d1_step(window, weights, run.beta)


def sampled_slope(run) -> Optional[Real]:
    """``ch-d1`` residual: the true phi' of the newest sample."""
    return run.samples[-1].f_prime


def estimated_slope(run) -> Optional[Real]:
    """``newton-df`` residual: the interpolant slope at the newest sample."""
    window = run.newest_window()
    if len(window) < 2:
        return None
    weights = run.weights(window)
    try:
        slope = phi_slope_df(window, weights)
    except SingularStep:
        return None
    run.slope = weights, slope
    return slope


def optimize(problem, config: SolverConfig) -> IterationTrace:
    """Drive one optimisation method on ``problem``.

    ``problem.f`` is read as the objective and ``problem.df`` as its
    gradient; the trace's ``f`` column holds objective values and
    ``f_prime`` the slope used as the convergence residual.
    """
    return drive(problem, config, "opt", _opt_propose, select_window, _interp_step)
