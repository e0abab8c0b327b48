"""Convergence-order computation and leading-error-factor checks.

A memory method whose dominant error multiplies a product of recent errors
has an asymptotic order ``l`` solving a scalar fixed-point equation:

* root family ("root", coincidence multiplicity m, memory n+1):
  ``l = (m+1) - m l^-(n+1)``; the n -> infinity limit is ``m + 1``.
* optimisation family ("opt"): ``l^2 = 1 + m (l - l^-n)``; the limit is
  ``(m + sqrt(4 + m^2))/2``.

``theoretical_order`` finds the largest root in [1, limit] with Newton
started from the limit; the fixed point is unique in that interval.  It
stops on a step within 2^10 ulps of the limit, so its last iterate, one
quadratic step on, is good to the working precision.
``empirical_order`` averages log-error ratios, matching the defining
relation ``e_{i+1} ~ e_i^l`` directly, which is more robust than regression
on the few asymptotic steps a trace provides.

``predicted_error_factor`` evaluates a published leading-error cell, which
``methods.METHODS`` holds with each method (there is no closed form for
general window sizes), after checking that the solution is non-degenerate
for the method's family; ``verify_error_factor`` compares it against the
error products of a converged trace, shaped by the method's family and
multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import fone, from_int, fzero, mpf_abs, mpf_div, mpf_log, mpf_lt, mpf_sum

from .errors import InsufficientData, UnsupportedCell
from .methods import METHODS, MethodSpec
from .numerics import Real, Scalar, make_mpf, real, require_int
from .root_search import IterationTrace, newton_update

FAMILIES = ("root", "opt")


def order_limit(family: str, m: int) -> Real:
    """Asymptotic (n -> infinity) order of the family."""
    if family == "root":
        return mpf(m + 1)
    if family == "opt":
        return (m + mpmath.sqrt(mpf(4) + m * m)) / 2
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def _residual(family: str, m: int, n: int, l: Real) -> Real:
    if family == "root":
        return l - (m + 1) + m * l ** (-(n + 1))
    return l * l - 1 - m * (l - l ** (-n))


def _slope(family: str, m: int, n: int, l: Real) -> Real:
    if family == "root":
        return 1 - m * (n + 1) * l ** (-(n + 2))
    return 2 * l - m * (1 + n * l ** (-(n + 1)))


def theoretical_order(family: str, m: int, n) -> Real:
    """Convergence index for multiplicity ``m`` and memory parameter ``n``.

    ``m`` and ``n`` are ints (not bools); ``n`` may be ``math.inf`` for the
    asymptotic limit.  Degenerate rows (no crossing above 1) return exactly 1.
    """
    if require_int("m", m) < 1:
        raise ValueError("m must be at least 1")
    limit = order_limit(family, m)
    if n == math.inf:
        return limit
    if require_int("n", n) < 0:
        raise ValueError("n must be non-negative")
    # Both residuals vanish at 1, are positive at the limit and are convex in
    # l (positive second derivative for l > 0).  So a row crosses above 1
    # exactly when its slope at 1 is negative, and then Newton from the limit
    # descends monotonically onto the largest root.
    if _slope(family, m, n, mpf(1)) >= 0:
        return mpf(1)
    l = limit
    for _ in range(200):
        candidate = newton_update(l, _residual(family, m, n, l), _slope(family, m, n, l))
        if abs(candidate - l) < mpmath.ldexp(limit, 10 - mpmath.mp.prec):
            return candidate
        l = candidate
    return l


def empirical_order(trace: IterationTrace, k_last: int) -> Real:
    """Mean of log|e_{i+1}| / log|e_i| over the last ``k_last`` usable steps.

    Usable steps carry a reference error strictly inside (0, 1); at least
    ``k_last + 1`` of them are required.  Runs on raw libmp values (see
    ``numerics``): each |e| and log is rounded and each ratio divided at the
    working precision, and the ratios are summed exactly and rounded once,
    as ``fsum`` does, so the result is that of ``fsum`` over the
    ``mpmath.log`` ratios, divided by ``k_last``, bit for bit.
    """
    if require_int("k_last", k_last) < 1:
        raise ValueError("k_last must be positive")
    prec, rounding = mpmath.mp._prec_rounding
    errors = [mpf_abs(s.error._mpf_, prec, rounding) for s in trace.steps if s.error is not None]
    errors = [e for e in errors if mpf_lt(fzero, e) and mpf_lt(e, fone)]
    if len(errors) < k_last + 1:
        raise InsufficientData(
            f"need {k_last + 1} steps with errors in (0, 1), have {len(errors)}"
        )
    logs = [mpf_log(e, prec, rounding) for e in errors[-(k_last + 1):]]
    ratios = [mpf_div(logs[i + 1], logs[i], prec, rounding) for i in range(k_last)]
    return make_mpf(mpf_div(mpf_sum(ratios, prec, rounding), from_int(k_last), prec, rounding))


# ---------------------------------------------------------------------------
# leading-error factors

# the non-degeneracy condition of each family: (derivative order, message)
_NON_DEGENERATE = {
    "root": (1, "the first solution derivative must be non-zero (simple root)"),
    "opt": (2, "the solution curvature must be non-zero"),
}


@dataclass(frozen=True)
class ErrorFactorSpec:
    """Identifies a tabulated leading-error cell.

    ``scheme`` is "method/weight-scheme", or a bare method name where the
    method table gives the bare name cells (the baselines that reduce to a
    memory scheme).  ``derivatives`` lists the solution-point derivatives
    starting at order 1.
    """

    scheme: str
    n_plus_1: int
    derivatives: tuple[Scalar, ...]


def _cell(spec: ErrorFactorSpec) -> tuple[MethodSpec, Callable]:
    """The method entry and its published cell that ``spec.scheme`` names."""
    name, slash, scheme = spec.scheme.partition("/")
    method = METHODS.get(name)
    cells = method.error_cells if method is not None else {}
    cell = cells.get(scheme if slash else None)  # None keys the bare method name
    if cell is None:
        raise UnsupportedCell(f"no tabulated factors for scheme {spec.scheme!r}")
    return method, cell


def predicted_error_factor(spec: ErrorFactorSpec) -> Real:
    """Leading-error constant for the scheme's tabulated window size."""
    require_int("n_plus_1", spec.n_plus_1)
    method, cell = _cell(spec)
    values = [real(v) for v in spec.derivatives]
    order, message = _NON_DEGENERATE[method.family]
    if len(values) < order or values[order - 1] == 0:
        raise ValueError(message)

    def d(k: int) -> Real:
        if len(values) < k:
            raise UnsupportedCell(f"needs the solution derivative of order {k}")
        return values[k - 1]

    return cell(d, spec.n_plus_1)


def _error_products(errors: Sequence[Real], n_plus_1: int, m: int, family: str):
    """Pairs (e_j, product of the n+1 window errors before step j, each to the power m)."""
    newest = m - 1 if family == "opt" else m  # the newest error's exponent
    out = []
    for j in range(n_plus_1, len(errors)):
        window = errors[j - n_plus_1: j]
        if any(e == 0 for e in window) or errors[j] == 0:
            continue
        product = mpf(1)
        for e in window[:-1]:
            product *= e ** m
        out.append((errors[j], product * window[-1] ** newest))
    return out


def verify_error_factor(trace: IterationTrace, spec: ErrorFactorSpec, window_tail: int) -> Real:
    """Largest relative deviation of e_j / (error product) from the predicted factor.

    Uses the last ``window_tail`` steps whose full error window is non-zero;
    errors are signed, so the factor's sign is checked too.
    """
    if require_int("window_tail", window_tail) < 1:
        raise ValueError("window_tail must be positive")
    predicted = predicted_error_factor(spec)
    method, _ = _cell(spec)
    errors = [s.error for s in trace.steps if s.error is not None]
    pairs = _error_products(errors, spec.n_plus_1, method.multiplicity, method.family)
    if len(pairs) < window_tail:
        raise InsufficientData(
            f"need {window_tail} usable error products, have {len(pairs)}"
        )
    if predicted == 0:
        raise ValueError("predicted factor is zero; relative deviation is undefined")
    deviations = [
        abs(e / product / predicted - 1) for e, product in pairs[-window_tail:]
    ]
    return max(deviations)
