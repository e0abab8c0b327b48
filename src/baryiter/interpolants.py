"""Evaluate the barycentric interpolants behind the iteration schemes.

The solvers do not call the evaluators, but each form has one ratio loop,
``plain_ratio`` and ``hermite_ratio``, and the exact steps are those loops
at t = 0, whose gaps c_i - t are the f values themselves:

* ``step_exact_df(window, w)`` is ``eval_plain(window, w, 0, "inverse")``
* ``step_exact_d1(window, hw)`` is ``eval_hermite(window, hw, 0, "inverse")``

bit for bit.  Finite differences of the evaluators check every derivative
estimate the steps use.

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
spot with the same bits.  The ratio loops run on raw values too, over the
gaps e_i = c_i - t, and return their numerator and denominator sums: the
plain one bit for bit as the mpf loop over t - c_i (negating a gap negates
both sums exactly), the slope-matching one in its own order, through each
node's tangent T_i = v_i - s_i e_i at t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import mpmath
from mpmath.libmp import (fzero, mpf_abs, mpf_add, mpf_div, mpf_eq, mpf_le, mpf_mul, mpf_mul_int,
                          mpf_rdiv_int, mpf_shift, mpf_sub, mpf_sum)

from .errors import SingularDenominator, SingularStep, ZeroDerivative
from .numerics import Real, Scalar, make_mpf, to_raw
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


def _columns(samples: Sequence[Sample], orientation: str = "direct") -> tuple[list, list]:
    """Raw (nodes, values) of the plain form: (x, f) direct, (f, x) inverse."""
    xs = [s.x._mpf_ for s in samples]
    fs = [s.f._mpf_ for s in samples]
    if orientation == "direct":
        return xs, fs
    if orientation == "inverse":
        return fs, xs
    raise ValueError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")


def _raw_slopes(samples: Sequence[Sample], orientation: str) -> list:
    """Every sample's raw f', which the inverse orientation divides by."""
    fps = [sl._mpf_ for sl in sample_slopes(samples)]
    if orientation == "inverse" and any(mpf_eq(fp, fzero) for fp in fps):
        raise ZeroDerivative("inverse orientation needs non-zero f_prime")
    return fps


def plain_ratio(weights: list, values: list, gaps: list, prec: int, rounding: str) -> tuple:
    """Raw ``(sum w_i v_i/e_i, sum w_i/e_i)`` over the raw gaps e_i = c_i - t."""
    terms = [mpf_div(w, e, prec, rounding) for w, e in zip(weights, gaps)]
    den = mpf_sum(terms, prec, rounding)
    num = mpf_sum([mpf_mul(term, v, prec, rounding) for term, v in zip(terms, values)],
                  prec, rounding)
    return num, den


def hermite_ratio(samples: Sequence[Sample], hweights: HermiteWeights, gaps: list, prec: int,
                  rounding: str, orientation: str = "direct", known: dict | None = None) -> tuple:
    """Raw ``(sum [lam_i T_i - (gam_i e_i) v_i] (1/e_i^2), sum [lam_i - gam_i e_i] (1/e_i^2))``.

    Over the raw gaps e_i = c_i - t, where T_i = v_i - s_i e_i is node i's
    tangent at t: e_i times f'_i direct, divided by f'_i inverse.  ``known``,
    kept for one t, maps ``id(sample)`` to (sample, T, 1/e^2) and gains the
    samples it lacks; the bits are those without it.
    """
    values = _columns(samples, orientation)[1]
    tilt = mpf_mul if orientation == "direct" else mpf_div
    num_terms = []
    den_terms = []
    for lam, gam, s, v, e in zip(hweights.lam, hweights.gam, samples, values, gaps):
        entry = None if known is None else known.get(id(s))
        if entry is None or entry[0] is not s:  # the key is the identity of a live sample
            entry = (s, mpf_sub(v, tilt(e, s.f_prime._mpf_, prec, rounding), prec, rounding),
                     mpf_rdiv_int(1, mpf_mul(e, e, prec, rounding), prec, rounding))
            if known is not None:
                known[id(s)] = entry
        _, tangent, inverse_square = entry
        lam, gam_e = lam._mpf_, mpf_mul(gam._mpf_, e, prec, rounding)
        num = mpf_sub(mpf_mul(lam, tangent, prec, rounding), mpf_mul(gam_e, v, prec, rounding),
                      prec, rounding)
        num_terms.append(mpf_mul(num, inverse_square, prec, rounding))
        den_terms.append(mpf_mul(mpf_sub(lam, gam_e, prec, rounding), inverse_square,
                                 prec, rounding))
    return mpf_sum(num_terms, prec, rounding), mpf_sum(den_terms, prec, rounding)


def _ratio_at(nodes: list, values: list, t: Scalar, ratio) -> Real:
    """num/den of ``ratio(gaps, prec, rounding)`` at ``t``, or a node's value near ``t``.

    Within the separation floor of a node the ratio is meaningless; that
    node's value is returned instead, so evaluation is total away from true
    poles.
    """
    prec, rounding = mpmath.mp._prec_rounding
    t = to_raw(t, prec, rounding)
    floor = raw_floor(raw_scale(nodes + [t], prec, rounding), prec, rounding)
    gaps = [mpf_sub(c, t, prec, rounding) for c in nodes]
    for e, v in zip(gaps, values):
        if mpf_le(mpf_abs(e, prec, rounding), floor):
            return make_mpf(v)
    num, den = ratio(gaps, prec, rounding)
    if mpf_eq(den, fzero):
        raise SingularDenominator(f"denominator sum vanished at t={make_mpf(t)}")
    return make_mpf(mpf_div(num, den, prec, rounding))


def eval_plain(samples: Sequence[Sample], weights: Sequence[Real], t: Scalar,
               orientation: str = "direct") -> Real:
    """Value of the plain barycentric ratio at ``t``.

    ``t`` is an x value for the direct orientation and an f value for the
    inverse one.  At (or within the separation floor of) a node the paired
    coordinate is returned directly.
    """
    nodes, values = _columns(samples, orientation)
    if len(weights) != len(nodes):
        raise ValueError("weight list length must equal the sample count")
    return _ratio_at(nodes, values, t, partial(plain_ratio, [w._mpf_ for w in weights], values))


def eval_hermite(samples: Sequence[Sample], hweights: HermiteWeights, t: Scalar,
                 orientation: str = "direct") -> Real:
    """Value of the order-2 (slope-matching) barycentric ratio at ``t``."""
    nodes, values = _columns(samples, orientation)
    _raw_slopes(samples, orientation)  # refuses a missing slope, and a zero one inverse
    if len(hweights) != len(nodes):
        raise ValueError("weight list length must equal the sample count")
    return _ratio_at(nodes, values, t, partial(hermite_ratio, samples, hweights,
                                               orientation=orientation))


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
    fps = _raw_slopes(samples, orientation)
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
