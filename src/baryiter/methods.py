"""The method table: one ``MethodSpec`` per method holds every fact about it.

A memory scheme is closed-form weights over a window of the newest samples
plus one step formula, so an entry names, per accepted weight scheme, the
weight builder and the sample coordinates kept distinct in a window (the one
the builder reads and each whose differences the step divides by), then its
step.  An entry also carries the paper's two convergence facts: the
multiplicity of its order recurrence, and its published leading-error cells,
which say for each weight scheme which closed form holds at which window.
``root_search.drive`` (the one solver loop), ``SolverConfig.validated``, the
CLI's ``--method`` choices and ``analysis`` all read this table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

import mpmath
from mpmath import mpf

from . import optimise as opt
from . import root_search as rs
from .errors import UnsupportedCell
from .root_search import WEIGHT_SCHEMES


class WeightScheme(NamedTuple):
    keys: frozenset[str]              # sample coordinates kept pairwise distinct in a window
    build: Optional[Callable] = None  # (window, alpha, memory) -> weights; None for baselines


@dataclass(frozen=True)
class MethodSpec:
    family: str                         # "root" (solve) or "opt" (optimize); the order family too
    min_window: int                     # smallest window the step takes; a run seeds this many points
    schemes: Mapping[str, WeightScheme]  # accepted weight schemes
    needs: tuple[str, ...]              # problem callables besides f ("df" is sampled everywhere)
    step: Callable                      # (run, window, weights) -> (x_new, curvature or None)
    multiplicity: Optional[int] = None  # m of the order equation; None if not tabulated
    residual: Optional[Callable] = None  # (run) -> newest sample's slope residual; root runs use f
    # weight scheme (None: the bare method name) -> (d, n+1) -> published leading-error factor
    error_cells: Mapping[Optional[str], Callable] = field(default_factory=dict)


_X, _F, _NONE = frozenset({"x"}), frozenset({"f"}), frozenset()


def _fixed(keys: frozenset[str], build: Optional[Callable] = None) -> dict[str, WeightScheme]:
    # weights fixed by the method: every configured weight scheme maps to them
    return dict.fromkeys(WEIGHT_SCHEMES, WeightScheme(keys, build))


def _products(divides: frozenset[str]) -> dict[str, WeightScheme]:
    # first-order products over x or f, or shifted products over f; ``divides``
    # holds the coordinates whose differences the step divides by
    return {"x": WeightScheme(_X | divides, rs.x_product),
            "f": WeightScheme(_F | divides, rs.f_product),
            "alpha": WeightScheme(_F | divides, rs.f_shifted)}


# ---------------------------------------------------------------------------
# leading-error cells
#
# d(k) is the k-th derivative of the function (or objective) at the true
# solution.  Each published closed form is written once.


def _half(d):  # the secant/Newton factor: window 2, or window 1 with slopes
    return d(2) / (2 * d(1))


def _x3(d):
    return (3 * d(2) ** 2 - 2 * d(1) * d(3)) / (12 * d(1) ** 2)


def _x4(d):
    return (3 * d(2) ** 3 - 4 * d(1) * d(2) * d(3) + d(1) ** 2 * d(4)) / (24 * d(1) ** 3)


def _f3(d):
    return (6 * d(2) ** 2 - 2 * d(1) * d(3)) / (12 * d(1) ** 2)


def _f4(d):
    return (15 * d(2) ** 3 - 10 * d(1) * d(2) * d(3) + d(1) ** 2 * d(4)) / (24 * d(1) ** 3)


def _direct_f4(d):
    return (6 * d(2) ** 3 - 6 * d(1) * d(2) * d(3) + d(1) ** 2 * d(4)) / (24 * d(1) ** 3)


def _third(d):
    return -d(3) / (6 * d(1))


def _fourth(d):
    return d(4) / (24 * d(1))


def _published(by_window: dict[int, Callable]) -> Callable:
    # a cell tabulated only at the listed window sizes
    def cell(d, n_plus_1):
        if n_plus_1 not in by_window:
            raise UnsupportedCell(f"no tabulated factor for window {n_plus_1}")
        return by_window[n_plus_1](d)
    return cell


def _opt_df(d, n_plus_1):
    # (-1)^n / (n+1)! * phi^(n+1) / phi'' with n+1 = window size
    n = n_plus_1 - 1
    if n < 1:
        raise UnsupportedCell("derivative-free optimisation needs a window of at least 2")
    return mpf((-1) ** n) / mpmath.factorial(n + 1) * d(n + 1) / d(2)


_DF_X = _published({2: _half, 3: _x3, 4: _x4})  # inverse-root interpolant, x-weighted
_DF_F = _published({2: _half, 3: _f3, 4: _f4})  # inverse-root interpolant, f-weighted
_D1_X = _published({1: _half, 2: _x4})
_D1_F = _published({1: _half, 2: _f4})
_DIRECT_X = _published({2: _half, 3: _third, 4: _fourth})  # direct interpolant (Newton step)
_DIRECT_F = _published({2: _half, 3: _x3, 4: _direct_f4})


METHODS: dict[str, MethodSpec] = {
    "exact-df": MethodSpec("root", 2, _products(_NONE), (), rs.exact_df, 1,
                           error_cells={"x": _DF_X, "f": _DF_F}),
    "exact-d1": MethodSpec(
        "root", 1, {"x": WeightScheme(_X, rs.x_slope_scaled), "f": WeightScheme(_F, rs.f_squared)},
        ("df",), rs.exact_d1, 2, error_cells={"x": _D1_X, "f": _D1_F}),
    "newton-x-interp": MethodSpec(
        "root", 2, _products(_F), (), rs.newton_x_interp, 1,
        error_cells={"x": _DF_X, "f": _DF_F}),
    "newton-f-interp": MethodSpec(
        "root", 2, _products(_X), (), rs.newton_f_interp, 1,
        error_cells={"x": _DIRECT_X, "f": _DIRECT_F}),
    # the fixed weights give one cell, whatever scheme is configured
    "ch-x-interp": MethodSpec(
        "root", 1, _fixed(_F, rs.f_squared), ("df",), rs.ch_x_interp, 2,
        error_cells=dict.fromkeys(WEIGHT_SCHEMES, _D1_F)),
    "ch-f-interp": MethodSpec(
        "root", 1, _fixed(_X, rs.x_squared), ("df",), rs.ch_f_interp, 2,
        error_cells=dict.fromkeys(WEIGHT_SCHEMES, _published({1: _half, 2: _fourth}))),
    "picard": MethodSpec("root", 1, _fixed(_NONE), ("fixed_point",), rs.baseline),
    # a baseline steps on its minimum window only, where it is the scheme it reduces to
    "newton": MethodSpec("root", 1, _fixed(_NONE), ("df",), rs.baseline, 2,
                         error_cells={None: _published({1: _half})}),
    "halley": MethodSpec("root", 1, _fixed(_NONE), ("df", "d2f"), rs.baseline),
    "secant": MethodSpec("root", 2, _fixed(_F), (), rs.baseline, 1,
                         error_cells={None: _published({2: _half})}),
    "newton-df": MethodSpec(
        "opt", 3, _fixed(_X, opt.x_product), (), opt.newton_df, 1,
        residual=opt.estimated_slope, error_cells={"x": _opt_df}),
    "ch-d1": MethodSpec(
        "opt", 2, _fixed(_X, opt.x_squared), ("df",), opt.ch_d1, 2,
        residual=opt.sampled_slope),
}

ROOT_METHODS = tuple(name for name, spec in METHODS.items() if spec.family == "root")
OPT_METHODS = tuple(name for name, spec in METHODS.items() if spec.family == "opt")
