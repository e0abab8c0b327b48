"""Barycentric weight families used by the memory-based iteration schemes.

Four families cover every scheme in the library.  Over a node set
``v_0..v_n`` (either the x or the f coordinates of the solver memory):

* first-order product weights    ``w_i = prod_{j!=i} 1/(v_i - v_j)``
* alpha-shifted product weights  (newest node replaced by ``alpha * v_n``
  in the factor it contributes to the others)
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from mpmath import mpf

from .errors import DegenerateNodes, ZeroDerivative
from .numerics import Real, Scalar, get_precision, real


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


def separation_floor(scale: Scalar) -> Real:
    """Smallest usable node gap: 2^-(precision-8) times the node scale."""
    return mpf(2) ** (8 - get_precision()) * abs(real(scale))


def node_scale(nodes: Sequence[Real]) -> Real:
    return max((abs(v) for v in nodes), default=mpf(0))


def _as_reals(nodes: Sequence[Scalar]) -> list[Real]:
    return [real(v) for v in nodes]


def _differences(nodes: list[Real]) -> list[list[Real]]:
    """``d[i][j] = v_i - v_j`` (``None`` on the diagonal), one subtraction per pair.

    Raises DegenerateNodes for the first pair, in row order over ``i < j``,
    whose gap does not clear the separation floor.
    """
    floor = separation_floor(node_scale(nodes))
    count = len(nodes)
    d = [[None] * count for _ in range(count)]
    for i, vi in enumerate(nodes):
        for j in range(i + 1, count):
            gap = vi - nodes[j]
            if abs(gap) <= floor:
                raise DegenerateNodes(f"nodes too close: {vi} and {nodes[j]}")
            d[i][j] = gap
            d[j][i] = -gap
    return d


def product_weights(nodes: Sequence[Scalar]) -> list[Real]:
    """First-order weights w_i = prod_{j!=i} 1/(v_i - v_j)."""
    out = []
    for i, row in enumerate(_differences(_as_reals(nodes))):
        w = mpf(1)
        for j, d in enumerate(row):
            if j != i:
                w /= d
        out.append(w)
    return out


def shifted_product_weights(nodes: Sequence[Scalar], alpha: Scalar) -> list[Real]:
    """Product weights with the newest node's value shifted by a free ``alpha``.

    For ``i != n``: ``w_i = 1/(v_i - alpha v_n) * prod_{j not in {i,n}} 1/(v_i - v_j)``;
    for the newest node: ``w_n = prod_{j != n} 1/(alpha v_n - v_j)``.
    ``alpha = 1`` recovers ``product_weights`` exactly.  The newest node is
    the last entry.
    """
    nodes = _as_reals(nodes)
    alpha = real(alpha)
    if alpha == 1:
        return product_weights(nodes)
    diffs = _differences(nodes)
    n = len(nodes) - 1
    shifted = alpha * nodes[n]
    floor = separation_floor(max(node_scale(nodes), abs(shifted)))
    gaps = []  # v_i - alpha v_n for the older nodes
    for vi in nodes[:n]:
        gap = vi - shifted
        if abs(gap) <= floor:
            raise DegenerateNodes(f"node {vi} collides with the shifted value {shifted}")
        gaps.append(gap)
    out = []
    for i, gap in enumerate(gaps):
        w = 1 / gap
        for j in range(n):
            if j != i:
                w /= diffs[i][j]
        out.append(w)
    wn = mpf(1)
    for gap in gaps:
        wn /= -gap
    out.append(wn)
    return out


def squared_product_weights(nodes: Sequence[Scalar]) -> HermiteWeights:
    """Partial-fraction pairs lam_i = prod 1/(v_i - v_j)^2, gam_i = -2 lam_i sum 1/(v_i - v_j)."""
    diffs = _differences(_as_reals(nodes))
    count = len(diffs)
    squares = [[None] * count for _ in range(count)]
    inverses = [[None] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            squares[i][j] = squares[j][i] = diffs[i][j] ** 2
            inverses[i][j] = 1 / diffs[i][j]
            inverses[j][i] = -inverses[i][j]
    lam, gam = [], []
    for i in range(count):
        u2 = mpf(1)
        s = mpf(0)
        for j in range(count):
            if j != i:
                u2 /= squares[i][j]
                s += inverses[i][j]
        lam.append(u2)
        gam.append(-2 * u2 * s)
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
    slopes = _as_reals(slopes)
    for s in slopes:
        if s == 0:
            raise ZeroDerivative("derivative-scaled weights need non-zero slopes")
    base = squared_product_weights(nodes)
    lam = tuple(s * u2 for s, u2 in zip(slopes, base.lam))
    return HermiteWeights(lam, base.gam)
