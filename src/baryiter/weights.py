"""Barycentric weight families used by the memory-based iteration schemes.

Four families cover every scheme in the library, built by three kernels:
the alpha-shifted family is the product weights of a shifted node set.
Over a node set ``v_0..v_n`` (either the x or the f coordinates of the
solver memory):

* first-order product weights    ``w_i = prod_{j!=i} 1/(v_i - v_j)``
* alpha-shifted product weights  first-order weights over the node set
                                 with the newest node moved to ``alpha * v_n``
* squared-product pairs          ``lam_i = prod_{j!=i} 1/(v_i - v_j)^2`` and
                                 ``gam_i = -2 lam_i sum_{j!=i} 1/(v_i - v_j)``
* derivative-scaled pairs        squared-product pairs with ``lam_i``
                                 multiplied by the sample slope

The first-order weights span the kernel of the node Vandermonde matrix:
``sum_i w_i v_i^k = 0`` for ``k < n`` and ``sum_i w_i v_i^n = 1``.  The
squared-product pairs are the partial-fraction coefficients of
``prod_i (z - v_i)^{-2}``.  Weights are left unnormalised; the iteration
formulas are ratios, so common factors cancel, and the kernel identity
stays exactly testable.

Nodes closer together than the separation floor make entries overflow any
useful precision.  Every constructor subtracts each pair of nodes once, in
one pass that also checks the gap against the floor, and takes
``v_j - v_i`` as ``-(v_i - v_j)``: round-to-nearest is symmetric in sign,
so that is the rounded difference bit for bit.  The squared families also
square and invert each pair's difference once.  Each weight is then the
same chain of divisions, in the same order, as from the defining products.

The kernels run on raw libmp values (see ``numerics``): each reads the
working precision and rounding once, calls for every operation the libmp
function mpf's operator would call with them, and builds the returned mpf
values at the end, so the weights are those of the mpf loops bit for bit.
The separation floor ``2^(8-precision)·scale`` is the scale's bits with
the exponent shifted, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from mpmath import mp
from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sub,
)

from .errors import DegenerateNodes, ZeroDerivative
from .numerics import Raw, Real, Scalar, make_mpf, real, to_raw


@dataclass(frozen=True)
class HermiteWeights:
    """Paired weights (lam, gam) for the order-2 barycentric forms."""

    lam: tuple[Real, ...]
    gam: tuple[Real, ...]

    def __post_init__(self):
        if len(self.lam) != len(self.gam):
            raise ValueError("lam and gam must have equal length")

    def __len__(self) -> int:
        return len(self.lam)


def raw_floor(scale: Raw, prec: int, rounding: str) -> Raw:
    """Smallest usable node gap: 2^-(precision-8) times |``scale``|, a raw value."""
    return mpf_shift(mpf_abs(scale, prec, rounding), 8 - prec)


def raw_scale(values: Iterable[Raw], prec: int, rounding: str,
              largest: Optional[Raw] = None) -> Optional[Raw]:
    """The largest |v| over raw ``values``, as ``max`` finds it, continuing from ``largest``.

    ``None`` when there are no values and no ``largest``.
    """
    for v in values:
        magnitude = mpf_abs(v, prec, rounding)
        if largest is None or mpf_gt(magnitude, largest):
            largest = magnitude
    return largest


def _to_raw(values: Sequence[Scalar], prec: int, rounding: str) -> list[Raw]:
    return [to_raw(v, prec, rounding) for v in values]


def _differences(nodes: list[Raw], prec: int, rounding: str) -> list[list[Raw]]:
    """``d[i][j] = v_i - v_j`` (``None`` on the diagonal), one subtraction per pair.

    Raises DegenerateNodes for the first pair, in row order over ``i < j``,
    whose gap does not clear the separation floor.
    """
    floor = raw_floor(raw_scale(nodes, prec, rounding) or fzero, prec, rounding)
    count = len(nodes)
    d = [[None] * count for _ in range(count)]
    for i, vi in enumerate(nodes):
        for j in range(i + 1, count):
            gap = mpf_sub(vi, nodes[j], prec, rounding)
            if mpf_le(mpf_abs(gap, prec, rounding), floor):
                raise DegenerateNodes(f"nodes too close: {make_mpf(vi)} and {make_mpf(nodes[j])}")
            d[i][j] = gap
            d[j][i] = mpf_neg(gap, prec, rounding)
    return d


def product_weights(nodes: Sequence[Scalar]) -> list[Real]:
    """First-order weights w_i = prod_{j!=i} 1/(v_i - v_j)."""
    prec, rounding = mp._prec_rounding
    out = []
    for i, row in enumerate(_differences(_to_raw(nodes, prec, rounding), prec, rounding)):
        w = fone
        for j, d in enumerate(row):
            if j != i:
                w = mpf_div(w, d, prec, rounding)
        out.append(make_mpf(w))
    return out


def shifted_product_weights(nodes: Sequence[Scalar], alpha: Scalar) -> list[Real]:
    """Product weights over the nodes with the newest, the last entry, moved to ``alpha * v_n``.

    For ``i != n``: ``w_i = 1/(v_i - alpha v_n) * prod_{j not in {i,n}} 1/(v_i - v_j)``;
    for the newest node: ``w_n = prod_{j != n} 1/(alpha v_n - v_j)``.  The
    unshifted ``v_n`` is not a node of this set, so only the shifted set must
    clear the separation floor; ``alpha = 1`` is ``product_weights`` itself.
    """
    *older, newest = nodes
    return product_weights(older + [real(alpha) * real(newest)])


def squared_product_weights(nodes: Sequence[Scalar]) -> HermiteWeights:
    """Partial-fraction pairs lam_i = prod 1/(v_i - v_j)^2, gam_i = -2 lam_i sum 1/(v_i - v_j)."""
    prec, rounding = mp._prec_rounding
    diffs = _differences(_to_raw(nodes, prec, rounding), prec, rounding)
    count = len(diffs)
    squares = [[None] * count for _ in range(count)]
    inverses = [[None] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            squares[i][j] = squares[j][i] = mpf_pow_int(diffs[i][j], 2, prec, rounding)
            inverses[i][j] = mpf_rdiv_int(1, diffs[i][j], prec, rounding)
            inverses[j][i] = mpf_neg(inverses[i][j], prec, rounding)
    lam, gam = [], []
    for i in range(count):
        u2 = fone
        s = fzero
        for j in range(count):
            if j != i:
                u2 = mpf_div(u2, squares[i][j], prec, rounding)
                s = mpf_add(s, inverses[i][j], prec, rounding)
        lam.append(make_mpf(u2))
        gam.append(make_mpf(mpf_mul(mpf_mul_int(u2, -2, prec, rounding), s, prec, rounding)))
    return HermiteWeights(tuple(lam), tuple(gam))


def derivative_scaled_weights(nodes: Sequence[Scalar], slopes: Sequence[Scalar]) -> HermiteWeights:
    """Squared-product pairs with lam_i scaled by the sample slope f'_i.

    ``lam_i = f'_i prod_{j!=i} 1/(v_i - v_j)^2`` and
    ``gam_i = -(2 lam_i / f'_i) sum_{j!=i} 1/(v_i - v_j)``.  A zero slope
    would zero out lam_i and break differentiability of the matching
    interpolant, so it is rejected.
    """
    if len(nodes) != len(slopes):
        raise ValueError("need one slope per node")
    prec, rounding = mp._prec_rounding
    slopes = _to_raw(slopes, prec, rounding)
    for s in slopes:
        if mpf_eq(s, fzero):
            raise ZeroDerivative("derivative-scaled weights need non-zero slopes")
    base = squared_product_weights(nodes)
    lam = tuple(make_mpf(mpf_mul(s, u2._mpf_, prec, rounding)) for s, u2 in zip(slopes, base.lam))
    return HermiteWeights(lam, base.gam)
