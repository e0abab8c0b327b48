"""The method table: one ``MethodSpec`` per method holds every fact about it.

A memory scheme is closed-form weights over a window of the newest samples
plus one step formula, so an entry names, per accepted weight scheme, the
weight builder and the sample coordinates kept distinct in a window, and
then its step.  ``root_search.drive`` (the one solver loop),
``SolverConfig.validated``, the CLI's ``--method`` choices and ``analysis``
all read this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

from . import optimise as opt
from . import root_search as rs
from .root_search import BOOTSTRAPS, WEIGHT_SCHEMES


class WeightScheme(NamedTuple):
    keys: frozenset[str]              # sample coordinates kept pairwise distinct in a window
    build: Optional[Callable] = None  # (window, alpha) -> weights; None for the baselines


@dataclass(frozen=True)
class MethodSpec:
    family: str                         # "root" (solve) or "opt" (optimize); the order family too
    min_window: int                     # smallest window the step takes; a run seeds this many points
    schemes: Mapping[str, WeightScheme]  # accepted weight schemes
    needs: tuple[str, ...]              # problem callables besides f ("df" is sampled everywhere)
    seeding: tuple[str, ...]            # bootstrap modes accepted for the points after x0
    step: Callable                      # (run, window, weights) -> (x_new, curvature or None)
    multiplicity: Optional[int] = None  # m of the order equation; None if not tabulated
    residual: Optional[Callable] = None  # (run, samples) -> slope residual; root runs use f


_X, _F, _NONE = frozenset({"x"}), frozenset({"f"}), frozenset()
_XF = _X | _F
_NO_PICARD = tuple(mode for mode in BOOTSTRAPS if mode != "picard")


def _fixed(keys: frozenset[str], build: Optional[Callable] = None) -> dict[str, WeightScheme]:
    # weights fixed by the method: every configured weight scheme maps to them
    return dict.fromkeys(WEIGHT_SCHEMES, WeightScheme(keys, build))


def _products(x_keys, f_keys, alpha_keys) -> dict[str, WeightScheme]:
    # first-order products over x or f, or shifted products over f
    return {"x": WeightScheme(x_keys, rs.x_product), "f": WeightScheme(f_keys, rs.f_product),
            "alpha": WeightScheme(alpha_keys, rs.f_shifted)}


METHODS: dict[str, MethodSpec] = {
    "exact-df": MethodSpec("root", 2, _products(_X, _F, _F), (), BOOTSTRAPS, rs.exact_df, 1),
    "exact-d1": MethodSpec(
        "root", 1, {"x": WeightScheme(_X, rs.x_slope_scaled), "f": WeightScheme(_F, rs.f_squared)},
        ("df",), BOOTSTRAPS, rs.exact_d1, 2),
    "newton-x-interp": MethodSpec(
        "root", 2, _products(_XF, _F, _F), (), BOOTSTRAPS, rs.newton_x_interp, 1),
    "newton-f-interp": MethodSpec(
        "root", 2, _products(_X, _XF, _X), (), BOOTSTRAPS, rs.newton_f_interp, 1),
    "ch-x-interp": MethodSpec(
        "root", 1, _fixed(_F, rs.f_squared), ("df",), BOOTSTRAPS, rs.ch_x_interp, 2),
    "ch-f-interp": MethodSpec(
        "root", 1, _fixed(_X, rs.x_squared), ("df",), BOOTSTRAPS, rs.ch_f_interp, 2),
    "picard": MethodSpec("root", 1, _fixed(_NONE), ("fixed_point",), BOOTSTRAPS, rs.baseline),
    "newton": MethodSpec("root", 1, _fixed(_NONE), ("df",), BOOTSTRAPS, rs.baseline, 2),
    "halley": MethodSpec("root", 1, _fixed(_NONE), ("df", "d2f"), BOOTSTRAPS, rs.baseline),
    "secant": MethodSpec("root", 2, _fixed(_F), (), BOOTSTRAPS, rs.baseline, 1),
    "newton-df": MethodSpec(
        "opt", 3, _fixed(_X, opt.x_product), (), _NO_PICARD, opt.newton_df, 1,
        residual=opt.estimated_slope),
    "ch-d1": MethodSpec(
        "opt", 2, _fixed(_X, opt.x_squared), ("df",), _NO_PICARD, opt.ch_d1, 2,
        residual=opt.sampled_slope),
}

ROOT_METHODS = tuple(name for name, spec in METHODS.items() if spec.family == "root")
OPT_METHODS = tuple(name for name, spec in METHODS.items() if spec.family == "opt")
