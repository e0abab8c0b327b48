"""Independent oracles the tests freeze expected values from.

Everything here is deliberately implemented from first principles (Newton
on y^2 - a, Taylor sums with an explicit remainder bound, divided
differences, central finite-difference stencils) so the checks do not share
code paths with the library.
"""

import random

import mpmath
from mpmath import fsum, mpf

from baryiter import numerics
from baryiter.errors import (DegenerateNodes, InsufficientData, NonConvergence,
                             SingularDenominator, SingularStep, ZeroDerivative)
from baryiter.interpolants import sample_slopes
from baryiter.numerics import real


def newton_sqrt(a, bits):
    """sqrt(a) by Newton on y^2 - a, computed with guard bits then rounded."""
    with mpmath.mp.workprec(bits + 64):
        y = mpf(a)
        target = mpf(a)
        for _ in range(200):
            y_next = (y + target / y) / 2
            if abs(y_next - y) <= mpf(2) ** (-(bits + 32)) * abs(y):
                y = y_next
                break
            y = y_next
    with mpmath.mp.workprec(bits):
        return +y


def refine_reference_direct(problem, near=None):
    """The earlier reference rule: Newton at 1152 bits until |residual| < 1e-300.

    Returns the root as a 320-digit decimal string, the form of the oracle
    digits in ``reference_digits``; raises ``NonConvergence`` after 16 steps
    or at a zero slope.
    """
    if problem.kind == "root":
        value, slope = problem.f, problem.df
    else:
        value, slope = problem.df, problem.d2f
    with mpmath.mp.workprec(1152):
        x = mpf(problem.default_x0 if near is None else near)
        for _ in range(16):
            residual = value(x)
            if abs(residual) < mpf(10) ** -300:
                return numerics.to_decimal(x, 320)
            derivative = slope(x)
            if derivative == 0:
                break
            x = x - residual / derivative
    raise NonConvergence(f"reference for {problem.name!r} did not reach the target residual")


def to_decimal_direct(value, digits):
    """``d.ddd...e±nn`` through mpf's own predicates and ``mpmath.nstr``.

    The formatter ``numerics.to_decimal`` used before it formatted raw
    values with libmp's ``to_str``; the two must agree character for
    character.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    x = real(value)
    if mpmath.isnan(x):
        return "nan"
    if mpmath.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        mantissa = "0" if digits == 1 else "0." + "0" * (digits - 1)
        return mantissa + "e+00"
    s = mpmath.nstr(
        x, digits, strip_zeros=False, min_fixed=1, max_fixed=0, show_zero_exponent=True
    )
    mantissa, _, exponent = s.partition("e")
    sign, magnitude = exponent[0], exponent[1:]
    return f"{mantissa}e{sign}{magnitude.zfill(2)}"


def empirical_order_direct(trace, k_last):
    """Mean log-error ratio over the last ``k_last`` usable steps, in mpf arithmetic.

    The form ``analysis.empirical_order`` had before it ran on raw libmp
    values: ``fsum`` of the ``mpmath.log`` ratios, divided by ``k_last``.
    """
    errors = [s.abs_error for s in trace.steps
              if s.abs_error is not None and 0 < s.abs_error < 1]
    if len(errors) < k_last + 1:
        raise InsufficientData(f"need {k_last + 1} steps, have {len(errors)}")
    tail = errors[-(k_last + 1):]
    ratios = [mpmath.log(tail[i + 1]) / mpmath.log(tail[i]) for i in range(k_last)]
    return fsum(ratios) / k_last


def taylor_cos(x, terms=300):
    """(partial Taylor sum of cos rounded to the working precision, tail bound).

    The sum runs with 64 guard bits so the oracle's own rounding stays far
    below the returned bound; the alternating series with decreasing terms
    makes the first omitted term an interval bound on the truncation.
    """
    target_prec = mpmath.mp.prec
    with mpmath.mp.workprec(target_prec + 64):
        x = mpf(x)
        total = mpf(0)
        term = mpf(1)
        for k in range(terms):
            total += term
            term = -term * x * x / ((2 * k + 1) * (2 * k + 2))
            if abs(term) < mpf(2) ** (-(target_prec + 48)):
                break
        tail = abs(term)
    with mpmath.mp.workprec(target_prec):
        return +total, +tail


def divided_difference_poly(xs, ys):
    """Newton-form coefficients of the interpolating polynomial."""
    coeffs = list(ys)
    n = len(xs)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    return coeffs


def newton_poly_derivative(xs, ys, t, order=1):
    """Derivative of the divided-difference interpolant at t (orders 0-2).

    Nested evaluation of p(x) = c0 + (x-x0)(c1 + (x-x1)(c2 + ...)) with the
    first and second derivatives carried along.
    """
    coeffs = divided_difference_poly(xs, ys)
    t = mpf(t)
    value = coeffs[-1]
    first = mpf(0)
    second = mpf(0)
    for i in reversed(range(len(xs) - 1)):
        second = second * (t - xs[i]) + 2 * first
        first = first * (t - xs[i]) + value
        value = value * (t - xs[i]) + coeffs[i]
    if order == 0:
        return value
    if order == 1:
        return first
    if order == 2:
        return second
    raise ValueError("order must be 0, 1 or 2")


def fd_derivative(fn, t, h, order=1):
    """Central finite-difference derivative of a callable at t."""
    t = mpf(t)
    h = mpf(h)
    if order == 1:
        return (fn(t + h) - fn(t - h)) / (2 * h)
    if order == 2:
        return (fn(t + h) - 2 * fn(t) + fn(t - h)) / (h * h)
    if order == 3:
        return (fn(t + 2 * h) - 2 * fn(t + h) + 2 * fn(t - h) - fn(t - 2 * h)) / (2 * h ** 3)
    raise ValueError("order must be 1, 2 or 3")


def random_nodes(rng: random.Random, count, low=-3.0, high=3.0, min_gap=0.05):
    """Sorted, well-separated random nodes as mpf values."""
    while True:
        values = sorted(rng.uniform(low, high) for _ in range(count))
        if all(b - a >= min_gap for a, b in zip(values, values[1:])):
            return [mpf(repr(v)) for v in values]


def rel_err(a, b, floor="1e-30"):
    denom = max(abs(a), abs(b), mpf(floor))
    return abs(a - b) / denom


def ulp(value):
    """Unit in the last place of ``value`` at the working precision."""
    x = real(value)
    if x == 0:
        return mpf(2) ** (1 - mpmath.mp.prec)
    return mpf(2) ** (int(mpmath.mag(x)) - mpmath.mp.prec)


# ---------------------------------------------------------------------------
# barycentric weights straight from their defining products: a separate
# distinctness pass, then every factor (v_i - v_j) subtracted where it is used
# and multiplied in as its reciprocal, one division per factor


def _floor(scale):
    # the separation floor: 2^-(precision-8) times the node scale
    return mpf(2) ** (8 - mpmath.mp.prec) * abs(scale)


def _require_distinct_direct(nodes):
    floor = _floor(max((abs(v) for v in nodes), default=mpf(0)))
    for i, vi in enumerate(nodes):
        for vj in nodes[i + 1:]:
            if abs(vi - vj) <= floor:
                raise DegenerateNodes(f"nodes too close: {vi} and {vj}")


def product_weights_direct(nodes):
    nodes = [+mpf(v) for v in nodes]
    _require_distinct_direct(nodes)
    out = []
    for i, vi in enumerate(nodes):
        w = mpf(1)
        for j, vj in enumerate(nodes):
            if j != i:
                w *= 1 / (vi - vj)
        out.append(w)
    return out


def shifted_product_weights_direct(nodes, alpha):
    """Product weights over the nodes with the newest, the last entry, moved to ``alpha * v_n``."""
    nodes = [+mpf(v) for v in nodes]
    return product_weights_direct(nodes[:-1] + [+mpf(alpha) * nodes[-1]])


def shifted_product_weights_by_definition(nodes, alpha):
    """The shifted weights from their defining formula, dividing in its own order.

    ``w_i = 1/(v_i - alpha v_n) * prod_{j not in {i,n}} 1/(v_i - v_j)`` and
    ``w_n = prod_{j != n} 1/(alpha v_n - v_j)``, the unshifted ``v_n`` kept
    in the separation check; it agrees with the library to rounding, not
    bit for bit.
    """
    nodes = [+mpf(v) for v in nodes]
    alpha = +mpf(alpha)
    if alpha == 1:
        return product_weights_direct(nodes)
    _require_distinct_direct(nodes)
    n = len(nodes) - 1
    shifted = alpha * nodes[n]
    floor = _floor(max(max(abs(v) for v in nodes), abs(shifted)))
    out = []
    for i, vi in enumerate(nodes[:n]):
        if abs(vi - shifted) <= floor:
            raise DegenerateNodes(f"node {vi} collides with the shifted value {shifted}")
        w = 1 / (vi - shifted)
        for j, vj in enumerate(nodes):
            if j != i and j != n:
                w /= vi - vj
        out.append(w)
    wn = mpf(1)
    for vj in nodes[:n]:
        if abs(shifted - vj) <= floor:
            raise DegenerateNodes(f"shifted value {shifted} collides with node {vj}")
        wn /= shifted - vj
    out.append(wn)
    return out


def squared_product_weights_direct(nodes):
    """(lam, gam) with lam_i = prod 1/(v_i - v_j)^2, gam_i = -2 lam_i sum 1/(v_i - v_j).

    Each pair's one division is 1/(v_i - v_j)^2; its 1/(v_i - v_j) is
    (v_i - v_j) times that.
    """
    nodes = [+mpf(v) for v in nodes]
    _require_distinct_direct(nodes)
    lam, gam = [], []
    for i, vi in enumerate(nodes):
        u2 = mpf(1)
        s = mpf(0)
        for j, vj in enumerate(nodes):
            if j != i:
                inverse_square = 1 / (vi - vj) ** 2
                u2 *= inverse_square
                s += (vi - vj) * inverse_square
        lam.append(u2)
        gam.append(-2 * u2 * s)
    return lam, gam


def derivative_scaled_weights_direct(nodes, slopes):
    if len(nodes) != len(slopes):
        raise ValueError("need one slope per node")
    slopes = [+mpf(s) for s in slopes]
    if any(s == 0 for s in slopes):
        raise ZeroDerivative("derivative-scaled weights need non-zero slopes")
    lam, gam = squared_product_weights_direct(nodes)
    return [s * u2 for s, u2 in zip(slopes, lam)], gam


def select_window_direct(samples, size, keys):
    """Newest ``size`` samples pairwise distinct in ``keys``, each floor from a full-history scan.

    The mpf loop ``root_search.select_window`` ran before it took running
    scales and raw values.
    """
    floors = {key: _floor(max((abs(getattr(s, key)) for s in samples), default=mpf(0)))
              for key in keys}
    kept = []
    for s in reversed(samples):
        clash = any(
            abs(getattr(s, key) - getattr(t, key)) <= floors[key] for key in keys for t in kept
        )
        if not clash:
            kept.append(s)
            if len(kept) == size:
                break
    kept.reverse()
    return kept


def evaluate_direct(node, x):
    """An expression AST at x by a walk over the tree, re-reading each literal.

    The tree-walking evaluator ``baryiter.expressions`` used before it
    compiled its trees; the compiled closures must match it bit for bit.
    """
    head = node[0]
    if head == "num":
        return real(node[1])
    if head == "var":
        return x
    if head == "neg":
        return -evaluate_direct(node[1], x)
    if head == "add":
        return evaluate_direct(node[1], x) + evaluate_direct(node[2], x)
    if head == "sub":
        return evaluate_direct(node[1], x) - evaluate_direct(node[2], x)
    if head == "mul":
        return evaluate_direct(node[1], x) * evaluate_direct(node[2], x)
    if head == "div":
        return evaluate_direct(node[1], x) / evaluate_direct(node[2], x)
    if head == "pow":
        return elementary("powi", evaluate_direct(node[1], x), node[2])
    if head == "call":
        return elementary(node[1], evaluate_direct(node[2], x))
    raise ValueError(f"cannot evaluate node {node!r}")


def elementary(name, x, *args):
    """``numerics``' raw kernel ``name`` (``powi`` takes the exponent) on a Scalar, as an mpf."""
    prec, rounding = mpmath.mp._prec_rounding
    kernel = numerics.raw_powi if name == "powi" else numerics.ELEMENTARY[name]
    return numerics.make_mpf(kernel(numerics.to_raw(x, prec, rounding), *args, prec, rounding))


# ---------------------------------------------------------------------------
# the interpolant evaluators as mpf loops over the differences d = t - c, the
# form ``interpolants.eval_plain`` and ``eval_hermite`` had before they ran on
# raw values through ``plain_ratio`` and ``hermite_ratio``


def _oriented_direct(samples, orientation):
    xs, fs = [s.x for s in samples], [s.f for s in samples]
    return (xs, fs) if orientation == "direct" else (fs, xs)


def _near_node_direct(nodes, t):
    floor = _floor(max(abs(v) for v in nodes + [t]))
    for i, c in enumerate(nodes):
        if abs(t - c) <= floor:
            return i
    return None


def eval_plain_direct(samples, weights, t, orientation="direct"):
    nodes, values = _oriented_direct(samples, orientation)
    t = real(t)
    hit = _near_node_direct(nodes, t)
    if hit is not None:
        return values[hit]
    terms = [w / (t - c) for w, c in zip(weights, nodes)]
    den = fsum(terms)
    if den == 0:
        raise SingularDenominator(f"denominator sum vanished at t={t}")
    num = fsum(term * v for term, v in zip(terms, values))
    return num / den


def eval_hermite_direct(samples, hweights, t, orientation="direct"):
    nodes, values = _oriented_direct(samples, orientation)
    slopes = sample_slopes(samples)
    if orientation == "inverse":
        if any(sl == 0 for sl in slopes):
            raise ZeroDerivative("inverse orientation needs non-zero f_prime")
        slopes = [1 / sl for sl in slopes]
    t = real(t)
    hit = _near_node_direct(nodes, t)
    if hit is not None:
        return values[hit]
    num_terms = []
    den_terms = []
    for lam, gam, c, v, s in zip(hweights.lam, hweights.gam, nodes, values, slopes):
        d = t - c
        d2 = d * d
        num_terms.append((lam * v + (gam * v + lam * s) * d) / d2)
        den_terms.append((lam + gam * d) / d2)
    den = fsum(den_terms)
    if den == 0:
        raise SingularDenominator(f"denominator sum vanished at t={t}")
    return fsum(num_terms) / den


# ---------------------------------------------------------------------------
# the step formulas and the solver loop's checks as mpf loops: one mpf per
# operation, as ``root_search``, ``optimise`` and ``interpolants`` compute
# them on raw libmp values.  A formula that divides by a node difference d
# multiplies by its reciprocals instead, formed as a weight build forms them:
# 1/d for the product weights; 1/d^2, and 1/d = d * 1/d^2, for the squared ones.


def _squared_reciprocals(d):
    """(1/d, 1/d^2) as the squared weight family forms them: one division."""
    inverse_square = 1 / d ** 2
    return d * inverse_square, inverse_square


def step_exact_df_direct(window, weights):
    for s in window:
        if s.f == 0:
            return s.x
    terms = [w / s.f for w, s in zip(weights, window)]
    den = fsum(terms)
    if den == 0:
        raise SingularStep("denominator sum vanished in exact-df step")
    num = fsum(t * s.x for t, s in zip(terms, window))
    return num / den


def step_exact_d1_direct(window, hweights):
    num_terms = []
    den_terms = []
    for lam, gam, s, fp in zip(hweights.lam, hweights.gam, window, sample_slopes(window)):
        if s.f == 0:
            return s.x
        if fp == 0:
            raise ZeroDerivative("exact-d1 needs non-zero f_prime")
        newton, inverse_square = s.x - s.f / fp, 1 / (s.f * s.f)
        num_terms.append((lam * newton - gam * s.f * s.x) * inverse_square)
        den_terms.append((lam - gam * s.f) * inverse_square)
    den = fsum(den_terms)
    if den == 0:
        raise SingularStep("denominator sum vanished in exact-d1 step")
    return fsum(num_terms) / den


def _estimate_parts_direct(window, weights):
    n = len(window) - 1
    den = fsum(weights[:n])
    if den == 0:
        raise SingularStep("weight sum over the older samples vanished")
    return n, den


def inverse_slope_estimate_direct(window, weights):
    n, den = _estimate_parts_direct(window, weights)
    newest = window[n]
    terms = []
    for k in range(n):
        df = newest.f - window[k].f
        if df == 0:
            raise DegenerateNodes("repeated f value in the window")
        terms.append(weights[k] * (newest.x - window[k].x) * (1 / df))
    return fsum(terms) / den


def direct_slope_estimate_direct(window, weights):
    n, den = _estimate_parts_direct(window, weights)
    newest = window[n]
    terms = []
    for k in range(n):
        dx = newest.x - window[k].x
        if dx == 0:
            raise DegenerateNodes("repeated x value in the window")
        terms.append(weights[k] * (newest.f - window[k].f) * (1 / dx))
    return fsum(terms) / den


def hermite_node_curvature_direct(window, hweights, orientation="direct"):
    direct = orientation == "direct"
    nodes, values = [s.x for s in window], [s.f for s in window]
    if not direct:
        nodes, values = values, nodes
    slopes = sample_slopes(window)
    if not direct and any(sl == 0 for sl in slopes):
        raise ZeroDerivative("inverse orientation needs non-zero f_prime")

    def tilt(weight, slope):  # the weight times s: s = f' direct, s = 1/f' inverse
        return weight * slope if direct else weight / slope

    n = len(nodes) - 1
    acc = tilt(hweights.gam[n], slopes[n])
    for k in range(n):
        d = nodes[n] - nodes[k]
        if d == 0:
            raise DegenerateNodes(f"repeated {'x' if direct else 'f'} value in the window")
        inverse, inverse_square = _squared_reciprocals(d)
        dv = values[n] - values[k]
        acc += (hweights.gam[k] * dv - tilt(hweights.lam[k], slopes[k])) * inverse
        acc += hweights.lam[k] * dv * inverse_square
    return -2 / hweights.lam[n] * acc


def second_derivative_x_interp_direct(window, hweights):
    curvature = hermite_node_curvature_direct(window, hweights, "inverse")
    return -(curvature * window[-1].f_prime ** 3)


def second_derivative_f_interp_direct(window, hweights):
    return hermite_node_curvature_direct(window, hweights)


def chebyshev_halley_update_direct(x, f, fp, fpp, beta):
    if fp == 0:
        raise ZeroDerivative("Chebyshev-Halley update needs f' != 0")
    fp2 = fp * fp
    den = fp2 - beta * f * fpp
    if den == 0:
        raise SingularStep("Chebyshev-Halley denominator vanished")
    num = fp2 + (mpf(1) / 2 - beta) * f * fpp
    return x - (num * f) / (den * fp)


def baseline_step_direct(method, problem, window):
    newest = window[-1]
    if method == "picard":
        if problem.fixed_point is None:
            raise ValueError(f"problem {problem.name!r} has no fixed-point form")
        return problem.fixed_point(newest.x)
    if method == "newton":
        if newest.f_prime == 0:
            raise ZeroDerivative("Newton step needs f' != 0")
        return newest.x - newest.f / newest.f_prime
    if method == "halley":
        if problem.d2f is None:
            raise ValueError(f"problem {problem.name!r} has no second derivative")
        fpp = problem.d2f(newest.x)
        return chebyshev_halley_update_direct(newest.x, newest.f, newest.f_prime, fpp,
                                              mpf(1) / 2)
    if method == "secant":
        if len(window) < 2:
            raise SingularStep("secant needs two samples")
        prev = window[-2]
        den = newest.f - prev.f
        if den == 0:
            raise SingularStep("secant denominator vanished")
        return (prev.x * newest.f - newest.x * prev.f) / den
    raise ValueError(f"unknown baseline {method!r}")


def newton_x_interp_direct(window, weights):
    newest = window[-1]
    return newest.x - newest.f * inverse_slope_estimate_direct(window, weights)


def newton_f_interp_direct(window, weights):
    slope = direct_slope_estimate_direct(window, weights)
    if slope == 0:
        raise SingularStep("estimated slope vanished")
    newest = window[-1]
    return newest.x - newest.f / slope


def phi_curvature_df_direct(window, weights, slope):
    n, den = _estimate_parts_direct(window, weights)
    newest = window[n]
    terms = []
    for k in range(n):
        dx = newest.x - window[k].x
        if dx == 0:
            raise DegenerateNodes("repeated x value in the window")
        inverse = 1 / dx
        terms.append(weights[k] * ((newest.f - window[k].f) - slope * dx) * inverse * inverse)
    return -2 * fsum(terms) / den


def df_step_direct(window, weights):
    slope = direct_slope_estimate_direct(window, weights)
    curvature = phi_curvature_df_direct(window, weights, slope)
    if curvature == 0:
        raise SingularStep("estimated curvature vanished")
    return window[-1].x - slope / curvature, curvature


def phi_third_d1_direct(window, hweights, curvature):
    slopes = sample_slopes(window)
    n = len(window) - 1
    newest = window[n]
    acc = hweights.gam[n] * curvature / 2
    for k in range(n):
        d = newest.x - window[k].x
        if d == 0:
            raise DegenerateNodes("repeated x value in the window")
        inverse, inverse_square = _squared_reciprocals(d)
        dphi = newest.f - window[k].f
        acc += hweights.gam[k] * slopes[n] * inverse
        acc -= (hweights.gam[k] * dphi - hweights.lam[k] * (slopes[n] + slopes[k])) * inverse_square
        acc -= 2 * hweights.lam[k] * dphi * inverse_square * inverse
    return -6 / hweights.lam[n] * acc


def d1_step_direct(window, hweights, beta):
    curvature = hermite_node_curvature_direct(window, hweights)
    if curvature == 0:
        raise SingularStep("estimated curvature vanished")
    third = phi_third_d1_direct(window, hweights, curvature)
    newest = window[-1]
    try:
        x_new = chebyshev_halley_update_direct(newest.x, newest.f_prime, curvature, third, beta)
    except ZeroDerivative as err:
        raise SingularStep(str(err)) from None
    return x_new, curvature


def diverged_direct(x, f):
    """The solver loop's divergence check on a pushed sample."""
    return not (mpmath.isfinite(x) and mpmath.isfinite(f))


def converged_direct(x, res, previous_x, tol_f, tol_x):
    """The solver loop's convergence checks: the residual, then the step."""
    if res is not None and (res == 0 or abs(res) < tol_f):
        return True
    return previous_x is not None and abs(x - previous_x) < tol_x
