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
useful precision: every pair of a window is checked against the floor, in
row order, before any weight is formed.

Every pair of nodes is one row of a pair table: the difference, the
factor (the difference, or for the squared family its square) and the
reciprocals of both, from one division per pair (``1/d``, or ``1/d^2`` and
``1/d = d * 1/d^2``).  A build multiplies by the reciprocals, so a build
from empty makes m(m-1)/2 divisions in either family.  A build's table
travels with the weights it returns, and ``newest_pairs`` hands the newest
node's row, what the solvers' node derivatives divide by, from there.

A solver's window loses its oldest node and gains a new one at each step,
so a kernel given ``previous``, earlier weights of its family, updates the
build that made them: kept products have the nodes that left multiplied
out, and each new node is added as a build from empty adds it (Berrut &
Trefethen, SIAM Review 46, 2004, section 3), O(m) operations and m - 1
divisions per node that joins instead of O(m^2) per window.  A kept weight
carries a few more roundings than a fresh one, and the barycentric formula
stays forward-stable for weights with a small relative error (Higham, IMA
J. Numer. Anal. 24, 2004).  Without ``previous``, or from another family
or precision, a build starts from empty: each weight is the chain of the
reciprocal factors to the other nodes, multiplied in window order.

The kernels run on raw libmp values (see ``numerics``): each reads the
working precision and rounding once, calls for every operation the libmp
function mpf's operator would call with them, and builds the returned mpf
values at the end, so a build from empty gives the weights of the mpf
loops that multiply by the same reciprocals bit for bit.  The separation
floor ``2^(8-precision)·scale`` is the scale's bits with the exponent
shifted, exactly.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from mpmath import mp
from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_add,
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
    """Paired weights (lam, gam) for the order-2 barycentric forms, and their build's table."""

    lam: tuple[Real, ...]
    gam: tuple[Real, ...]
    table: Optional[PairTable] = field(default=None, compare=False, repr=False)

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


class PairTable(NamedTuple):
    """A build's nodes, products and pair rows, never written again; later builds start here."""

    key: tuple      # (squared family, precision, rounding)
    nodes: list     # raw values, in window order
    products: list  # each node's product of factors
    # pairs[i][j] = (v_i - v_j, factor, 1/(v_i - v_j), 1/factor), None on the diagonal;
    # the factor is the difference, or for the squared family its square
    pairs: list


class ProductWeights(list):
    """First-order weights: a list that carries the ``PairTable`` of the build that made it."""

    def __init__(self, values: Iterable[Real], table: Optional[PairTable]):
        super().__init__(values)
        self.table = table


def _pair(gap: Raw, squared: bool, prec: int, rounding: str) -> tuple:
    """The (difference, factor, reciprocal, reciprocal factor) rows of a pair both ways round.

    From ``gap = v_i - v_j``, with one division: ``1/d`` for the product
    family; ``1/d^2`` for the squared family, whose ``1/d`` is ``d * 1/d^2``.
    ``v_j - v_i`` is ``-(v_i - v_j)``: round-to-nearest is symmetric in
    sign, so negating the difference and its reciprocal gives the row of
    ``-gap`` bit for bit.
    """
    back = mpf_neg(gap, prec, rounding)
    if not squared:
        inverse = mpf_rdiv_int(1, gap, prec, rounding)
        inverse_back = mpf_neg(inverse, prec, rounding)
        return (gap, gap, inverse, inverse), (back, back, inverse_back, inverse_back)
    square = mpf_pow_int(gap, 2, prec, rounding)
    inverse_square = mpf_rdiv_int(1, square, prec, rounding)
    inverse = mpf_mul(gap, inverse_square, prec, rounding)
    return ((gap, square, inverse, inverse_square),
            (back, square, mpf_neg(inverse, prec, rounding), inverse_square))


def newest_pairs(nodes: list[Raw], squared: bool, weights, prec: int, rounding: str,
                 coordinate: str) -> Sequence[tuple]:
    """The newest node's row to each older node: ``_pair(v_n - v_k)`` for k < n, newest last.

    Read from the table ``weights`` carry when it is of this family and
    precision over these very nodes, else formed here as a build forms it,
    so the bits are the same either way.  A zero difference is
    DegenerateNodes, naming the repeated ``coordinate``.
    """
    table = getattr(weights, "table", None)
    if table is not None and table.key == (squared, prec, rounding) and table.nodes == nodes:
        return table.pairs[-1][:-1]
    newest = nodes[-1]
    row = []
    for v in nodes[:-1]:
        gap = mpf_sub(newest, v, prec, rounding)
        if mpf_eq(gap, fzero):
            raise DegenerateNodes(f"repeated {coordinate} value in the window")
        row.append(_pair(gap, squared, prec, rounding)[0])
    return row


def _build(nodes: list[Raw], squared: bool, previous, prec: int, rounding: str) -> PairTable:
    """The pair table over ``nodes``, started from the table ``previous`` weights carry.

    The nodes the window shares, in order, with that table's window keep
    their pairs and, unless only one is kept, their products, multiplied by
    their factor to each node that left.  Each other node is then added in
    window order: every product present is multiplied by its reciprocal
    factor to it, and its own chain is the product of its reciprocal factors
    to each node present.  DegenerateNodes names the first pair, in row
    order over ``i < j``, whose gap does not clear the window's separation
    floor.
    """
    key = (squared, prec, rounding)
    old = getattr(previous, "table", None)
    old = old if old is not None and old.key == key else PairTable(key, [], [], [])
    position = {v: p for p, v in enumerate(old.nodes)}
    source = []  # each node's index in the old window, or None
    last = -1
    for v in nodes:
        p = position.get(v, -1)
        source.append(p if p > last else None)
        last = max(p, last)
    floor = raw_floor(raw_scale(nodes, prec, rounding) or fzero, prec, rounding)
    count = len(nodes)
    pairs = [[None] * count for _ in range(count)]
    for i, (vi, p) in enumerate(zip(nodes, source)):
        for j in range(i + 1, count):
            q = source[j]
            kept = p is not None and q is not None
            gap = old.pairs[p][q][0] if kept else mpf_sub(vi, nodes[j], prec, rounding)
            if mpf_le(mpf_abs(gap, prec, rounding), floor):
                raise DegenerateNodes(f"nodes too close: {make_mpf(vi)} and {make_mpf(nodes[j])}")
            pairs[i][j], pairs[j][i] = ((old.pairs[p][q], old.pairs[q][p]) if kept
                                        else _pair(gap, squared, prec, rounding))
    products = [None] * count
    present = []  # the nodes added so far, in window order
    if count - source.count(None) > 1:  # a lone kept node's product is 1: it is added anew
        gone = [g for g in range(len(old.nodes)) if g not in source]
        for i, p in enumerate(source):
            if p is not None:
                w = old.products[p]
                for g in gone:
                    w = mpf_mul(w, old.pairs[p][g][1], prec, rounding)
                products[i] = w
                present.append(i)
    for k in range(count):
        if products[k] is None:
            w = fone
            for j in present:
                products[j] = mpf_mul(products[j], pairs[j][k][3], prec, rounding)
                w = mpf_mul(w, pairs[k][j][3], prec, rounding)
            products[k] = w
            insort(present, k)
    return PairTable(key, nodes, products, pairs)


def product_weights(nodes: Sequence[Scalar],
                    previous: Optional[ProductWeights] = None) -> ProductWeights:
    """First-order weights w_i = prod_{j!=i} 1/(v_i - v_j), updated from ``previous``."""
    prec, rounding = mp._prec_rounding
    table = _build(_to_raw(nodes, prec, rounding), False, previous, prec, rounding)
    return ProductWeights(map(make_mpf, table.products), table)


def shifted_product_weights(nodes: Sequence[Scalar], alpha: Scalar,
                            previous: Optional[ProductWeights] = None) -> ProductWeights:
    """Product weights over the nodes with the newest, the last entry, moved to ``alpha * v_n``.

    For ``i != n``: ``w_i = 1/(v_i - alpha v_n) * prod_{j not in {i,n}} 1/(v_i - v_j)``;
    for the newest node: ``w_n = prod_{j != n} 1/(alpha v_n - v_j)``.  The
    unshifted ``v_n`` is not a node of this set, so only the shifted set must
    clear the separation floor; ``alpha = 1`` is ``product_weights`` itself.
    """
    *older, newest = nodes
    return product_weights(older + [real(alpha) * real(newest)], previous)


def squared_product_weights(nodes: Sequence[Scalar],
                            previous: Optional[HermiteWeights] = None) -> HermiteWeights:
    """Partial-fraction pairs lam_i = prod 1/(v_i - v_j)^2, gam_i = -2 lam_i sum 1/(v_i - v_j).

    Each gam sum is added afresh, in window order, from the pair reciprocals.
    """
    prec, rounding = mp._prec_rounding
    table = _build(_to_raw(nodes, prec, rounding), True, previous, prec, rounding)
    lam, gam = [], []
    for i, (u2, row) in enumerate(zip(table.products, table.pairs)):
        s = fzero
        for j, pair in enumerate(row):
            if j != i:
                s = mpf_add(s, pair[2], prec, rounding)
        lam.append(make_mpf(u2))
        gam.append(make_mpf(mpf_mul(mpf_mul_int(u2, -2, prec, rounding), s, prec, rounding)))
    return HermiteWeights(tuple(lam), tuple(gam), table)


def derivative_scaled_weights(nodes: Sequence[Scalar], slopes: Sequence[Scalar],
                              previous: Optional[HermiteWeights] = None) -> HermiteWeights:
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
    base = squared_product_weights(nodes, previous)
    lam = tuple(make_mpf(mpf_mul(s, u2._mpf_, prec, rounding)) for s, u2 in zip(slopes, base.lam))
    return HermiteWeights(lam, base.gam, base.table)
