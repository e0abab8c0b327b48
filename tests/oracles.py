"""Independent oracles the tests freeze expected values from.

Everything here is deliberately implemented from first principles (Newton
on y^2 - a, Taylor sums with an explicit remainder bound, divided
differences, central finite-difference stencils) so the checks do not share
code paths with the library.
"""

import random

import mpmath
from mpmath import mpf

from baryiter import numerics
from baryiter.errors import DegenerateNodes, ZeroDerivative
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
                w /= vi - vj
        out.append(w)
    return out


def shifted_product_weights_direct(nodes, alpha):
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
    """(lam, gam) with lam_i = prod 1/(v_i - v_j)^2, gam_i = -2 lam_i sum 1/(v_i - v_j)."""
    nodes = [+mpf(v) for v in nodes]
    _require_distinct_direct(nodes)
    lam, gam = [], []
    for i, vi in enumerate(nodes):
        u2 = mpf(1)
        s = mpf(0)
        for j, vj in enumerate(nodes):
            if j != i:
                u2 /= (vi - vj) ** 2
                s += 1 / (vi - vj)
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
        return numerics.powi(evaluate_direct(node[1], x), node[2])
    if head == "call":
        return getattr(numerics, node[1])(evaluate_direct(node[2], x))
    raise ValueError(f"cannot evaluate node {node!r}")
