"""Evaluate the barycentric interpolants behind the iteration schemes.

The solvers do not call them, but ``exact-df``'s step is
``eval_plain(window, w, 0, "inverse")`` bit for bit, and ``exact-d1``'s is
``eval_hermite``'s inverse value at 0 up to operation order.  Finite
differences of them check every derivative estimate the steps use.

Two forms, each in two orientations:

* plain      ``(sum w_i v_i/(t - c_i)) / (sum w_i/(t - c_i))``
* slope-matching (order 2)
             ``(sum [lam_i v_i + (gam_i v_i + lam_i s_i)(t - c_i)]/(t - c_i)^2)
              / (sum [lam_i + gam_i (t - c_i)]/(t - c_i)^2)``

Direct orientation interpolates f over the x nodes (``c=x, v=f, s=f'``);
inverse orientation interpolates x over the f nodes (``c=f, v=x, s=1/f'``).
Both match the stored values at the nodes for any non-zero weights, and the
slope-matching form matches the stored first derivatives as well.

``Sample`` is the one sample type of both solver families: an optimisation
run interpolates its objective directly, so (x, phi, phi') is stored as
(x, f, f').  ``sample_slopes`` is the one check that a window carries f'.

The node derivatives at the newest node, one raw loop per form, are
``node_derivative`` (plain form, first and second order) and
``hermite_node_curvature`` (slope-matching, second order, and third order
given the second), each in both orientations but the third order, which is
direct only.  They are on the solver's hot path and run on the raw libmp
values of their mpf arguments (see ``numerics``), bit for bit as the mpf
formulas that multiply by the newest node's reciprocal differences 1/d_k
and 1/d_k^2 of ``weights.newest_pairs``: read from the pair table the
given weights carry, so a step divides once per pair, or formed on the
spot with the same bits.  The evaluators stay mpf loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath
from mpmath import fsum
from mpmath.libmp import (fzero, mpf_add, mpf_div, mpf_eq, mpf_mul, mpf_mul_int, mpf_rdiv_int,
                          mpf_shift, mpf_sub, mpf_sum)

from .errors import SingularDenominator, SingularStep, ZeroDerivative
from .numerics import Real, Scalar, make_mpf, real
from .weights import HermiteWeights, newest_pairs, raw_floor, raw_scale


@dataclass(frozen=True)
class Sample:
    """One evaluated point of the target function."""

    x: Real
    f: Real
    f_prime: Real | None = None


@dataclass(frozen=True)
class ObjectiveSample(Sample):
    """A ``Sample`` of an objective, read as (x, phi, phi')."""

    @property
    def phi(self) -> Real:
        return self.f

    @property
    def phi_prime(self) -> Real | None:
        return self.f_prime


def sample_slopes(window: Sequence[Sample]) -> list[Real]:
    """Every sample's f', or ``ValueError`` if one is missing."""
    slopes = [s.f_prime for s in window]
    if any(sl is None for sl in slopes):
        raise ValueError("this scheme needs f_prime on every sample")
    return slopes


ORIENTATIONS = ("direct", "inverse")


def _columns(samples: Sequence[Sample], orientation: str = "direct",
             raw: bool = True) -> tuple[list, list]:
    """(nodes, values) of the plain form, raw or as mpfs: (x, f) direct, (f, x) inverse."""
    xs = [s.x._mpf_ if raw else s.x for s in samples]
    fs = [s.f._mpf_ if raw else s.f for s in samples]
    if orientation == "direct":
        return xs, fs
    if orientation == "inverse":
        return fs, xs
    raise ValueError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")


def _hermite_data(samples: Sequence[Sample], orientation: str):
    nodes, values = _columns(samples, orientation, raw=False)
    slopes = sample_slopes(samples)
    if orientation == "inverse":
        if any(sl == 0 for sl in slopes):
            raise ZeroDerivative("inverse orientation needs non-zero f_prime")
        slopes = [1 / sl for sl in slopes]
    return nodes, values, slopes


def _near_node(nodes: Sequence[Real], t: Real) -> int | None:
    # Within the separation floor the ratio is meaningless; return the node
    # value instead so evaluation is total away from true poles.
    prec, rounding = mpmath.mp._prec_rounding
    scale = raw_scale([c._mpf_ for c in nodes] + [t._mpf_], prec, rounding)  # largest |value|
    floor = make_mpf(raw_floor(scale, prec, rounding))
    for i, c in enumerate(nodes):
        if abs(t - c) <= floor:
            return i
    return None


def eval_plain(
    samples: Sequence[Sample],
    weights: Sequence[Real],
    t: Scalar,
    orientation: str = "direct",
) -> Real:
    """Value of the plain barycentric ratio at ``t``.

    ``t`` is an x value for the direct orientation and an f value for the
    inverse one.  At (or within the separation floor of) a node the paired
    coordinate is returned directly.
    """
    nodes, values = _columns(samples, orientation, raw=False)
    if len(weights) != len(nodes):
        raise ValueError("weight list length must equal the sample count")
    t = real(t)
    hit = _near_node(nodes, t)
    if hit is not None:
        return values[hit]
    terms = [w / (t - c) for w, c in zip(weights, nodes)]
    den = fsum(terms)
    if den == 0:
        raise SingularDenominator(f"denominator sum vanished at t={t}")
    num = fsum(term * v for term, v in zip(terms, values))
    return num / den


def eval_hermite(
    samples: Sequence[Sample],
    hweights: HermiteWeights,
    t: Scalar,
    orientation: str = "direct",
) -> Real:
    """Value of the order-2 (slope-matching) barycentric ratio at ``t``."""
    nodes, values, slopes = _hermite_data(samples, orientation)
    if len(hweights) != len(nodes):
        raise ValueError("weight list length must equal the sample count")
    t = real(t)
    hit = _near_node(nodes, t)
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


def node_derivative(samples: Sequence[Sample], weights: Sequence[Real],
                    orientation: str = "direct", slope: Real | None = None) -> Real:
    """r'(c_n) of the plain ratio at the newest node, or r''(c_n) given ``slope`` = r'(c_n).

    With d_k = c_n - c_k, the newest node last (Schneider & Werner 1986;
    Berrut & Trefethen 2004, section 9):

    ``r'  =    (sum_{k!=n} w_k (v_n - v_k) (1/d_k)) / (sum_{k!=n} w_k)``
    ``r'' = -2 (sum_{k!=n} w_k [(v_n - v_k) - r' d_k] (1/d_k) (1/d_k)) / (sum_{k!=n} w_k)``

    These are the ratio's derivatives when the weights sum to zero, as every
    product family's do, so that the older weights sum to -w_n.  d_k and
    1/d_k are the product family's newest pair row (``weights.newest_pairs``),
    read from the table of ``weights`` when it holds these nodes.
    """
    prec, rounding = mpmath.mp._prec_rounding
    nodes, values = _columns(samples, orientation)
    n = len(samples) - 1
    ws = [w._mpf_ for w in weights]
    tangent = None if slope is None else slope._mpf_
    den = mpf_sum(ws[:n], prec, rounding)
    if mpf_eq(den, fzero):
        raise SingularStep("weight sum over the older samples vanished")
    pairs = newest_pairs(nodes, False, weights, prec, rounding,
                         "x" if orientation == "direct" else "f")
    terms = []
    for k, (d, _, inverse, _) in enumerate(pairs):
        rise = mpf_sub(values[n], values[k], prec, rounding)
        if tangent is not None:
            rise = mpf_sub(rise, mpf_mul(tangent, d, prec, rounding), prec, rounding)
        term = mpf_mul(mpf_mul(ws[k], rise, prec, rounding), inverse, prec, rounding)
        terms.append(term if tangent is None else mpf_mul(term, inverse, prec, rounding))
    num = mpf_sum(terms, prec, rounding)
    if tangent is not None:
        num = mpf_mul_int(num, -2, prec, rounding)
    return make_mpf(mpf_div(num, den, prec, rounding))


def hermite_node_curvature(samples: Sequence[Sample], hweights: HermiteWeights,
                           orientation: str = "direct", curvature: Real | None = None) -> Real:
    """r''(c_n) of the slope-matching ratio at the newest node, or r'''(c_n) given r''(c_n).

    With d_k = c_n - c_k, the newest node last, and ``curvature`` = r''(c_n):

    ``r''  = -(2/lam_n) (gam_n s_n + sum_{k!=n} [(gam_k (v_n - v_k) - lam_k s_k) (1/d_k)
                                                + lam_k (v_n - v_k) (1/d_k^2)])``
    ``r''' = -(6/lam_n) (gam_n r''/2 + sum_{k!=n} [gam_k s_n (1/d_k)
                         - (gam_k (v_n - v_k) - lam_k (s_n + s_k)) (1/d_k^2)
                         - 2 lam_k (v_n - v_k) (1/d_k^2) (1/d_k)])``

    r'' is f''(x_n) in the direct orientation and x''(f_n) in the inverse
    one, whose slopes s = 1/f' are taken as divisions by f'; r''' is taken
    in the direct orientation only (``ValueError`` otherwise).  1/d_k and
    1/d_k^2 are the squared family's newest pair row
    (``weights.newest_pairs``), read from the table of ``hweights`` when
    it holds these nodes.  Both agree with ``mpmath.diff`` of
    ``eval_hermite`` for the squared-product weights (checked in the test
    suite).
    """
    if curvature is not None and orientation != "direct":
        raise ValueError("r''' is taken in the direct orientation only")
    prec, rounding = mpmath.mp._prec_rounding
    n = len(samples) - 1
    cs, vs = _columns(samples, orientation)
    fps = [sl._mpf_ for sl in sample_slopes(samples)]
    if orientation == "inverse" and any(mpf_eq(fp, fzero) for fp in fps):
        raise ZeroDerivative("inverse orientation needs non-zero f_prime")
    tilt = mpf_mul if orientation == "direct" else mpf_div  # a weight times s = f' or 1/f'
    lams, gams = [w._mpf_ for w in hweights.lam], [w._mpf_ for w in hweights.gam]
    if curvature is None:
        acc = tilt(gams[n], fps[n], prec, rounding)
    else:
        acc = mpf_shift(mpf_mul(gams[n], curvature._mpf_, prec, rounding), -1)  # halved exactly
    for k, (_, _, inverse, inverse_square) in enumerate(
            newest_pairs(cs, True, hweights, prec, rounding,
                         "x" if orientation == "direct" else "f")):
        dv = mpf_sub(vs[n], vs[k], prec, rounding)
        if curvature is None:
            top = mpf_sub(mpf_mul(gams[k], dv, prec, rounding),
                          tilt(lams[k], fps[k], prec, rounding), prec, rounding)
            acc = mpf_add(acc, mpf_mul(top, inverse, prec, rounding), prec, rounding)
            top = mpf_mul(lams[k], dv, prec, rounding)
            acc = mpf_add(acc, mpf_mul(top, inverse_square, prec, rounding), prec, rounding)
            continue
        acc = mpf_add(acc, mpf_mul(mpf_mul(gams[k], fps[n], prec, rounding), inverse,
                                   prec, rounding), prec, rounding)
        slope_sum = mpf_add(fps[n], fps[k], prec, rounding)
        top = mpf_sub(mpf_mul(gams[k], dv, prec, rounding),
                      mpf_mul(lams[k], slope_sum, prec, rounding), prec, rounding)
        acc = mpf_sub(acc, mpf_mul(top, inverse_square, prec, rounding), prec, rounding)
        top = mpf_mul(mpf_mul_int(lams[k], 2, prec, rounding), dv, prec, rounding)
        top = mpf_mul(mpf_mul(top, inverse_square, prec, rounding), inverse, prec, rounding)
        acc = mpf_sub(acc, top, prec, rounding)
    scale = -2 if curvature is None else -6
    return make_mpf(mpf_mul(mpf_rdiv_int(scale, lams[n], prec, rounding), acc, prec, rounding))
