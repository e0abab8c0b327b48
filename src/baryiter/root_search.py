"""Univariate root iterations with memory, plus classical baselines.

Methods (``SolverConfig.method``):

``exact-df``
    Exact root of the inverse-function interpolant over the (x_i, f_i)
    memory: ``x_new = (sum w_i x_i/f_i) / (sum w_i/f_i)``.  Equals the
    secant method with a two-point window.  Weight schemes: ``x``, ``f``
    or ``alpha`` (f-based weights with the newest value shifted).
``exact-d1``
    Exact root of the slope-matching inverse interpolant over
    (x_i, f_i, f'_i).  Equals Newton with a single point.  Weight schemes:
    ``x`` (derivative-scaled) or ``f`` (squared-product).
``newton-x-interp`` / ``newton-f-interp``
    Newton step at the newest point with 1/f' (inverse interpolant) or f'
    (direct interpolant) estimated from memory.  Weight schemes ``x``/``f``.
``ch-x-interp`` / ``ch-f-interp``
    Chebyshev-Halley step at the newest point with f'' estimated from the
    slope-matching inverse (f-based weights) or direct (x-based weights)
    interpolant, both by ``interpolants.hermite_node_curvature``; the
    weights are fixed by the scheme and the configured weight scheme is
    ignored.  ``beta`` selects the family member: 0 is Chebyshev, 1/2
    Halley, 1 super-Halley (the recommended default).
``picard`` / ``newton`` / ``halley`` / ``secant``
    Classical baselines.  ``picard`` needs the problem in fixed-point form;
    ``halley`` uses the true second derivative.

Each method's facts live in one ``MethodSpec`` in ``methods.METHODS``.
``drive`` is the one solver loop, behind ``solve`` and ``optimise.optimize``.
It keeps the newest ``window`` samples distinct in their weight scheme's keys,
growing from as many starting points as the method's window minimum, chosen
by ``seed_points`` from the seed values given.  A singular step is retried
with one sample fewer (``singular-step-fallback``) down to the method
minimum, then raised.

The step formulas, window selection and the solver loop's per-step checks
(finiteness, the residual and step tolerances, the error column) run on
raw libmp values, bit for bit as the mpf formulas (see ``numerics``).  The
exact steps are the interpolants' ratio loops at t = 0 (``plain_ratio``,
``hermite_ratio``).  The formulas multiply by reciprocals a run computes
once: the node derivatives by the newest node's pair row of the table their
weights carry (1/d_k, 1/d_k^2, see ``weights.newest_pairs``), and
``exact-d1`` by each sample's 1/f^2, next to its Newton point x - f/f',
kept per sample in ``_Run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    fhalf,
    finf,
    fnan,
    fninf,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_sub,
)

from . import numerics
from .errors import (
    BaryiterError,
    SingularStep,
    ZeroDerivative,
)
from .interpolants import (Sample, _columns, hermite_node_curvature, hermite_ratio,
                           node_derivative, plain_ratio, sample_slopes)
from .numerics import Raw, Real, Scalar, as_mpf, make_mpf, real
from .weights import (
    HermiteWeights,
    ProductWeights,
    derivative_scaled_weights,
    product_weights,
    raw_floor,
    raw_scale,
    shifted_product_weights,
    squared_product_weights,
)

if TYPE_CHECKING:
    from .methods import MethodSpec

WEIGHT_SCHEMES = ("x", "f", "alpha")
BOOTSTRAPS = ("auto", "picard", "perturb", "explicit")

STATUS_OK = "ok"
STATUS_FALLBACK = "singular-step-fallback"
STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"
STATUS_EXHAUSTED = "budget-exhausted"


@lru_cache(maxsize=32)
def default_tolerance(precision_bits: int) -> Real:
    """Default convergence tolerance: 10^-(0.3 * decimal digits of the precision).

    Computed once per precision, at that precision.
    """
    with numerics.precision(precision_bits):
        return mpf(10) ** (-(mpf(3) / 10) * precision_bits * mpf("0.3010299956639812"))


@dataclass
class SolverConfig:
    """Configuration shared by the root solver and the optimiser.

    Numeric fields accept decimal strings (preferred for exact values),
    ints, floats or mpf; they are converted at the configured precision
    when the run starts.  ``tol_f`` doubles as the gradient tolerance for
    optimisation runs.  ``max_iter`` is the highest step index the trace
    may reach (the initial point is index 0).  ``alpha`` only matters for
    the alpha weight scheme; its default of 0 is arbitrary (any value with
    the right asymptotics works, none is preferred).  ``seed_points`` picks
    the second starting point from ``x1``, ``perturb_h`` and ``bootstrap``
    (one of ``BOOTSTRAPS``).  ``validated`` refuses a non-finite numeric
    field, an integer field that is not an int, a negative tolerance, a
    seed value no seed would use, an ``x1`` equal to ``x0`` at the working
    precision, and a ``max_iter`` below the number of seeds, so every run
    proposes a step.
    """

    method: str = "exact-df"
    weight_scheme: str = "x"
    alpha: Scalar = 0
    window: int = 4
    beta: Scalar = 1
    x0: Optional[Scalar] = None
    x1: Optional[Scalar] = None
    bootstrap: str = "auto"
    perturb_h: Optional[Scalar] = None
    tol_f: Optional[Scalar] = None
    tol_x: Optional[Scalar] = None
    max_iter: int = 60
    precision_bits: int = numerics.DEFAULT_PRECISION_BITS

    def validated(self, family: str = "root") -> "SolverConfig":
        """``self`` after checking it against the method's table entry.

        ``family`` is "root" for ``solve`` and "opt" for ``optimize``.
        """
        spec = method_spec(self.method, family)
        if self.weight_scheme not in spec.schemes:
            raise ValueError(f"{self.method} takes the weight schemes {tuple(spec.schemes)}")
        if self.bootstrap not in BOOTSTRAPS:
            raise ValueError(f"unknown bootstrap {self.bootstrap!r}; expected one of {BOOTSTRAPS}")
        for name in ("x1", "perturb_h"):
            if getattr(self, name) is not None and spec.min_window == 1:
                raise ValueError(f"{self.method} starts from x0 alone and takes no {name}")
        if self.x1 is not None and self.bootstrap in ("picard", "perturb"):
            raise ValueError(f"x1 needs the explicit or auto bootstrap, not {self.bootstrap}")
        if self.x1 is not None and self.perturb_h is not None:
            raise ValueError("x1 and perturb_h both give the second point: pass one")
        if self.perturb_h is not None and self.bootstrap in ("picard", "explicit"):
            raise ValueError(f"perturb_h needs the perturb or auto bootstrap, not {self.bootstrap}")
        if self.x1 is None and self.bootstrap == "explicit" and spec.min_window > 1:
            raise ValueError("explicit bootstrap needs x1")
        for name in ("window", "max_iter", "precision_bits"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.window < spec.min_window:
            raise ValueError(f"{self.method} needs a window of at least {spec.min_window}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.max_iter < spec.min_window:
            raise ValueError(f"{self.method} seeds {spec.min_window} points, so max_iter must be "
                             f"at least {spec.min_window}")
        if self.precision_bits < numerics.MIN_PRECISION_BITS:
            raise ValueError(f"precision must be at least {numerics.MIN_PRECISION_BITS} bits")
        for name in ("x0", "x1", "alpha", "beta", "tol_f", "tol_x", "perturb_h"):
            value = getattr(self, name)
            # an int is finite; anything else is parsed as the run will parse it
            if value is not None and not isinstance(value, int) and not mpmath.isfinite(mpf(value)):
                raise ValueError(f"{name} must be finite, got {value}")
            if name.startswith("tol_") and value is not None and mpf(value) < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.perturb_h is not None and mpf(self.perturb_h) == 0:
            raise ValueError("perturb_h must be non-zero")  # it would seed x1 = x0
        if self.x0 is not None and self.x1 is not None:
            with numerics.precision(self.precision_bits):
                if real(self.x0) == real(self.x1):
                    raise ValueError("x1 must differ from x0 at the working precision")
        return self


def method_spec(method: str, family: str) -> MethodSpec:
    """The table entry of ``method``, which must belong to ``family``."""
    from .methods import METHODS  # the table is built from this module's functions

    spec = METHODS.get(method)
    if spec is None or spec.family != family:
        names = tuple(name for name, entry in METHODS.items() if entry.family == family)
        raise ValueError(f"unknown method {method!r}; expected one of {names}")
    return spec


@dataclass
class StepRecord:
    """One solver step.  ``error`` is signed (iterate minus reference)."""

    index: int
    x: Real
    f: Optional[Real]
    f_prime: Optional[Real]
    error: Optional[Real]
    status: str
    curvature_sign: Optional[int] = None  # optimisation runs only

    @property
    def abs_error(self) -> Optional[Real]:
        return None if self.error is None else abs(self.error)


@dataclass
class IterationTrace:
    problem: str
    method: str
    config: SolverConfig
    reference: Optional[Real]
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def status(self) -> str:
        return self.steps[-1].status if self.steps else STATUS_EXHAUSTED

    @property
    def iterations(self) -> int:
        return self.steps[-1].index if self.steps else 0


# ---------------------------------------------------------------------------
# step formulas
#
# Each formula reads the working (precision, rounding) once and runs on raw
# libmp values (see ``numerics``): every operation calls the libmp function
# that mpf's operator would call, in the same order, and only the returned
# value is built as an mpf, so each step is that of the mpf formula bit for
# bit.  Each argument is an mpf (``drive`` converts a problem's values), read as its ``_mpf_``.


def step_exact_df(window: Sequence[Sample], weights: Sequence[Real]) -> Real:
    """Exact root of the inverse interpolant: (sum w_i x_i/f_i) / (sum w_i/f_i).

    ``plain_ratio`` at the gaps f_i - 0 = f_i.  A sample with f == 0 is
    that root: its x is returned.
    """
    prec, rounding = mpmath.mp._prec_rounding
    xs, fs = _columns(window)
    for s, f in zip(window, fs):
        if mpf_eq(f, fzero):
            return s.x
    num, den = plain_ratio([w._mpf_ for w in weights], xs, fs, prec, rounding)
    if mpf_eq(den, fzero):
        raise SingularStep("denominator sum vanished in exact-df step")
    return make_mpf(mpf_div(num, den, prec, rounding))


def step_exact_d1(window: Sequence[Sample], hweights: HermiteWeights,
                  known: Optional[dict] = None) -> Real:
    """Exact root of the slope-matching inverse interpolant.

    ``(sum [lam_i (x_i - f_i/f'_i) - gam_i f_i x_i] (1/f_i^2))
     / (sum [lam_i - gam_i f_i] (1/f_i^2))``: ``hermite_ratio`` at the gaps
    f_i - 0 = f_i.  A sample with f == 0 is that root: its x is returned.
    Each sample's (x - f/f', 1/f^2) is taken from ``known``, a run's map
    from ``id(sample)`` to (sample, x - f/f', 1/f^2), which gains the
    samples it lacks; the bits are those of a step without it.
    """
    prec, rounding = mpmath.mp._prec_rounding
    slopes = sample_slopes(window)
    fs = _columns(window)[1]
    for s, f, fp in zip(window, fs, slopes):
        if mpf_eq(f, fzero):
            return s.x
        if mpf_eq(fp._mpf_, fzero):
            raise ZeroDerivative("exact-d1 needs non-zero f_prime")
    num, den = hermite_ratio(window, hweights, fs, prec, rounding, "inverse", known)
    if mpf_eq(den, fzero):
        raise SingularStep("denominator sum vanished in exact-d1 step")
    return make_mpf(mpf_div(num, den, prec, rounding))


def inverse_slope_estimate(window: Sequence[Sample], weights: Sequence[Real]) -> Real:
    """1/f' at the newest sample: ``node_derivative`` of the inverse interpolant."""
    return node_derivative(window, weights, "inverse")


def direct_slope_estimate(window: Sequence[Sample], weights: Sequence[Real]) -> Real:
    """f' at the newest sample: ``node_derivative`` of the direct interpolant."""
    return node_derivative(window, weights)


def second_derivative_x_interp(window: Sequence[Sample], hweights: HermiteWeights) -> Real:
    """f'' at the newest sample via the slope-matching inverse interpolant.

    ``-x'' f'^3`` of the interpolant's x''[f] at the newest node
    (``hermite_node_curvature``, inverse orientation).  Expects
    squared-product weights over the f values.
    """
    prec, rounding = mpmath.mp._prec_rounding
    curvature = hermite_node_curvature(window, hweights, "inverse")._mpf_
    cube = mpf_pow_int(window[-1].f_prime._mpf_, 3, prec, rounding)
    return make_mpf(mpf_neg(mpf_mul(curvature, cube, prec, rounding)))


def second_derivative_f_interp(window: Sequence[Sample], hweights: HermiteWeights) -> Real:
    """f'' at the newest sample via the slope-matching direct interpolant.

    Expects squared-product weights over the x values.
    """
    return hermite_node_curvature(window, hweights)


def chebyshev_halley_update(x: Real, f: Real, fp: Real, fpp: Real, beta: Real) -> Real:
    """One Chebyshev-Halley step.

    ``x - [(f'^2 + (1/2 - beta) f f'') f] / [(f'^2 - beta f f'') f']``, with
    one division; beta=0 Chebyshev, beta=1/2 Halley, beta=1 super-Halley.
    A zero f'' reduces it to the Newton update.
    """
    prec, rounding = mpmath.mp._prec_rounding
    x, f, fp, fpp, beta = x._mpf_, f._mpf_, fp._mpf_, fpp._mpf_, beta._mpf_
    if mpf_eq(fp, fzero):
        raise ZeroDerivative("Chebyshev-Halley update needs f' != 0")
    fp2 = mpf_mul(fp, fp, prec, rounding)
    den = mpf_sub(fp2, mpf_mul(mpf_mul(beta, f, prec, rounding), fpp, prec, rounding),
                  prec, rounding)
    if mpf_eq(den, fzero):
        raise SingularStep("Chebyshev-Halley denominator vanished")
    # 1/2 is exact at any precision
    share = mpf_mul(mpf_sub(fhalf, beta, prec, rounding), f, prec, rounding)
    num = mpf_add(fp2, mpf_mul(share, fpp, prec, rounding), prec, rounding)
    step = mpf_div(mpf_mul(num, f, prec, rounding), mpf_mul(den, fp, prec, rounding),
                   prec, rounding)
    return make_mpf(mpf_sub(x, step, prec, rounding))


def baseline_step(method: str, problem, window: Sequence[Sample]) -> Real:
    """Classical single-step baselines: picard, newton, halley, secant."""
    newest = window[-1]
    if method == "picard":
        return problem.fixed_point(newest.x)
    prec, rounding = mpmath.mp._prec_rounding
    if method == "newton":
        fp = newest.f_prime._mpf_
        if mpf_eq(fp, fzero):
            raise ZeroDerivative("Newton step needs f' != 0")
        x, f = newest.x._mpf_, newest.f._mpf_
        return make_mpf(mpf_sub(x, mpf_div(f, fp, prec, rounding), prec, rounding))
    if method == "halley":
        fpp = as_mpf(problem.d2f(newest.x))
        return chebyshev_halley_update(newest.x, newest.f, newest.f_prime, fpp,
                                       make_mpf(fhalf))
    if method == "secant":
        if len(window) < 2:
            raise SingularStep("secant needs two samples")
        prev = window[-2]
        px, pf, x, f = prev.x._mpf_, prev.f._mpf_, newest.x._mpf_, newest.f._mpf_
        den = mpf_sub(f, pf, prec, rounding)
        if mpf_eq(den, fzero):
            raise SingularStep("secant denominator vanished")
        num = mpf_sub(mpf_mul(px, f, prec, rounding), mpf_mul(x, pf, prec, rounding),
                      prec, rounding)
        return make_mpf(mpf_div(num, den, prec, rounding))
    raise ValueError(f"unknown baseline {method!r}")


# ---------------------------------------------------------------------------
# table pieces: weight builders (window, alpha, previous weights) -> weights and step formulas
# (run, window, weights) -> (x_new, curvature or None).  The builders and
# ``baseline_step`` are looked up in this module at call time, so wrappers
# installed on these names (perfbench/tracing.py) see every call.


def x_product(window: Sequence[Sample], alpha: Real,
              previous: Optional[ProductWeights] = None) -> ProductWeights:
    return product_weights([s.x for s in window], previous)


def f_product(window: Sequence[Sample], alpha: Real,
              previous: Optional[ProductWeights] = None) -> ProductWeights:
    return product_weights([s.f for s in window], previous)


def f_shifted(window: Sequence[Sample], alpha: Real,
              previous: Optional[ProductWeights] = None) -> ProductWeights:
    return shifted_product_weights([s.f for s in window], alpha, previous)


def x_slope_scaled(window: Sequence[Sample], alpha: Real,
                   previous: Optional[HermiteWeights] = None) -> HermiteWeights:
    return derivative_scaled_weights([s.x for s in window], [s.f_prime for s in window], previous)


def x_squared(window: Sequence[Sample], alpha: Real,
              previous: Optional[HermiteWeights] = None) -> HermiteWeights:
    return squared_product_weights([s.x for s in window], previous)


def f_squared(window: Sequence[Sample], alpha: Real,
              previous: Optional[HermiteWeights] = None) -> HermiteWeights:
    return squared_product_weights([s.f for s in window], previous)


def exact_df(run: _Run, window: Sequence[Sample], weights):
    return step_exact_df(window, weights), None


def exact_d1(run: _Run, window: Sequence[Sample], weights):
    return step_exact_d1(window, weights, run.newton_points), None


def newton_x_interp(run: _Run, window: Sequence[Sample], weights):
    prec, rounding = mpmath.mp._prec_rounding
    inverse_slope = inverse_slope_estimate(window, weights)._mpf_
    x, f = window[-1].x._mpf_, window[-1].f._mpf_
    return make_mpf(mpf_sub(x, mpf_mul(f, inverse_slope, prec, rounding), prec, rounding)), None


def newton_f_interp(run: _Run, window: Sequence[Sample], weights):
    prec, rounding = mpmath.mp._prec_rounding
    slope = direct_slope_estimate(window, weights)._mpf_
    if mpf_eq(slope, fzero):
        raise SingularStep("estimated slope vanished")
    x, f = window[-1].x._mpf_, window[-1].f._mpf_
    return make_mpf(mpf_sub(x, mpf_div(f, slope, prec, rounding), prec, rounding)), None


def ch_x_interp(run: _Run, window: Sequence[Sample], weights):
    newest = window[-1]
    fpp = second_derivative_x_interp(window, weights)
    return chebyshev_halley_update(newest.x, newest.f, newest.f_prime, fpp, run.beta), None


def ch_f_interp(run: _Run, window: Sequence[Sample], weights):
    newest = window[-1]
    fpp = second_derivative_f_interp(window, weights)
    return chebyshev_halley_update(newest.x, newest.f, newest.f_prime, fpp, run.beta), None


def baseline(run: _Run, window: Sequence[Sample], weights):
    return baseline_step(run.method, run.problem, window), None


# ---------------------------------------------------------------------------
# the solver loop


def select_window(samples: Sequence, size: int, keys: frozenset[str], scales: dict) -> list:
    """Newest ``size`` samples whose ``keys`` coordinates are pairwise distinct.

    Scans from the newest backwards; an older sample colliding with a newer
    one (within the separation floor) is skipped, implementing the
    evict-the-older-duplicate policy.  Each key's floor comes from the
    largest |value| of that coordinate over ``samples``, which ``scales``
    maps the key to as a raw mpf (``_Run`` keeps it as samples are added).
    """
    prec, rounding = mpmath.mp._prec_rounding
    floors = [raw_floor(scales[key], prec, rounding) for key in keys]
    kept: list = []
    kept_values: list = []  # each kept sample's raw coordinates, in the order of keys
    for s in reversed(samples):
        values = [getattr(s, key)._mpf_ for key in keys]
        if not _clashes(values, kept_values, floors, prec, rounding):
            kept.append(s)
            kept_values.append(values)
            if len(kept) == size:
                break
    kept.reverse()
    return kept


def _clashes(values: list, kept_values: list, floors: list, prec: int, rounding: str) -> bool:
    """Whether a coordinate of ``values`` lies within its floor of a kept sample's."""
    for kept in kept_values:
        for v, other, floor in zip(values, kept, floors):
            if mpf_le(mpf_abs(mpf_sub(v, other, prec, rounding), prec, rounding), floor):
                return True
    return False


@dataclass
class _Run:
    """One run's method facts, resolved once before its first step, and its samples.

    ``add`` appends a sample and extends each dedup key's largest |value|
    (a raw mpf) by that sample alone, so ``select_window`` never rescans the
    history.  The window selected after the newest sample and the last
    window's weights are kept: an optimisation residual and the step
    proposed after it use the same window, selected and built once.  Each
    build updates the last window's weights, and the step formulas read the
    newest node's pair row from the table the weights carry.
    """

    spec: MethodSpec
    method: str
    problem: object
    build: Optional[Callable]   # the weight scheme's builder; None for the baselines
    keys: frozenset[str]        # dedup coordinates of the weight scheme
    window: int
    alpha: Real
    beta: Real
    select: Callable            # select_window, as the calling module names it
    step: Callable              # _interp_step, as the calling module names it
    # every sample taken, oldest first; only ``add`` grows it
    samples: list = field(default_factory=list, init=False, repr=False, compare=False)
    # key -> largest |value| over the samples, as a raw mpf
    _scales: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the window selected since the newest sample was added, if any
    _selected: Optional[list] = field(default=None, init=False, repr=False, compare=False)
    # (window, weights) of the last build, whose weights the next build updates
    _last: tuple = field(default=((), None), init=False, repr=False, compare=False)
    # id(sample) -> (sample, x - f/f', 1/f^2), computed once per sample by exact-d1's step
    newton_points: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (weights, slope) of the last interpolant-slope residual, which newton-df's step reuses
    slope: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def add(self, sample: Sample) -> None:
        """Append ``sample``, extend the running maxima by it and drop the selected window."""
        self.samples.append(sample)
        prec, rounding = mpmath.mp._prec_rounding
        for key in self.keys:
            value = getattr(sample, key)._mpf_
            self._scales[key] = raw_scale((value,), prec, rounding, self._scales.get(key))
        self._selected = None

    def newest_window(self) -> list:
        """The newest ``window`` distinct samples, selected once per added sample."""
        if self._selected is None:
            size = min(self.window, len(self.samples))
            # without dedup keys every sample is distinct: take the newest as they are
            self._selected = (self.select(self.samples, size, self.keys, self._scales)
                              if self.keys else self.samples[-size:])
        return self._selected

    def weights(self, window: Sequence):
        """The scheme's weights on ``window``, reused while the samples are the same objects."""
        last_window, weights = self._last
        if len(last_window) != len(window) or any(a is not b for a, b in zip(last_window, window)):
            weights = self.build(window, self.alpha, weights)
            self._last = tuple(window), weights
        return weights


def _interp_step(run: _Run, window: Sequence) -> tuple:
    """The method's step on ``window``: the scheme's weights, then the step formula."""
    weights = None if run.build is None else run.weights(window)
    return run.spec.step(run, window, weights)


def _propose(run: _Run):
    """Next iterate, its curvature sign (optimisation only), and whether the window shrank."""
    base = run.newest_window()
    minimum = run.spec.min_window
    # raised as it stands when the distinct samples are fewer than the minimum
    last_err = SingularStep("memory collapsed below the method minimum")
    for size in range(len(base), minimum - 1, -1):
        try:
            x_new, curvature = run.step(run, base[len(base) - size:])
        except SingularStep as err:
            last_err = err
            continue
        sign = None if curvature is None else (1 if mpf_gt(curvature._mpf_, fzero) else -1)
        return x_new, sign, size < len(base)
    raise last_err


def seed_points(problem, config: SolverConfig, spec: MethodSpec, x0: Real) -> Iterator[Real]:
    """The ``spec.min_window`` starting points, each made only when asked for.

    After ``x0`` comes ``x1`` when given; otherwise ``x0 + perturb_h`` when
    that is given; otherwise one fixed-point step, under the ``picard``
    bootstrap or under ``auto`` when the problem has that form; otherwise
    ``x0 + 1e-3 * max(1, |x0|)``.  A perturbation that rounds to ``x0`` is
    refused.  A third point mirrors the second about ``x0``, and is refused
    when it rounds to ``x0``.
    """
    yield x0
    if spec.min_window == 1:
        return
    fixed_point = getattr(problem, "fixed_point", None)
    if config.x1 is not None:
        x1 = real(config.x1)
    elif config.perturb_h is None and (
        config.bootstrap == "picard" or (config.bootstrap == "auto" and fixed_point is not None)
    ):
        if fixed_point is None:
            raise ValueError(f"problem {problem.name!r} has no fixed-point form")
        x1 = fixed_point(x0)
    else:
        h = real(config.perturb_h) if config.perturb_h is not None else mpf(10) ** -3 * max(mpf(1), abs(x0))
        x1 = x0 + h
        if x1 == x0:  # h != 0 rounded away: ``validated`` has no x0 to check it on
            raise ValueError("x1 must differ from x0 at the working precision")
    yield x1
    if spec.min_window > 2:
        x2 = x0 - (x1 - x0)
        if x2 == x0:  # x1 - x0 is below half an ulp of x0
            raise ValueError("x0 - (x1 - x0) must differ from x0 at the working precision")
        yield x2


_KINDS = {"root": "root", "opt": "optimisation"}  # family -> the kind of problem it runs on
_NEEDS = {"df": "first derivative", "d2f": "second derivative", "fixed_point": "fixed-point form"}
_NONFINITE = (finf, fninf, fnan)


def _converged(x: Raw, res: Optional[Raw], previous_x: Optional[Raw], tol_f: Raw, tol_x: Raw,
               prec: int, rounding: str) -> bool:
    """Whether |res| is 0 or below ``tol_f``, or the step |x - previous_x| below ``tol_x``.

    Every value is raw; ``res`` or ``previous_x`` is ``None`` when there is none.
    """
    if res is not None and (mpf_eq(res, fzero) or mpf_lt(mpf_abs(res, prec, rounding), tol_f)):
        return True
    if previous_x is None:
        return False
    step = mpf_abs(mpf_sub(x, previous_x, prec, rounding), prec, rounding)
    return mpf_lt(step, tol_x)


def drive(problem, config: SolverConfig, family: str, propose: Callable, select: Callable,
          step: Callable) -> IterationTrace:
    """The one solver loop: run ``config.method`` of ``family`` on ``problem``.

    ``propose``, ``select`` and ``step`` are ``_propose``, ``select_window``
    and ``_interp_step`` under the calling module's names, read when it is
    called, so each family's layers can be instrumented apart.  A root
    run's residual is f; an optimisation run's is its method's slope,
    written into ``f_prime``.  The starting points converge on their
    residual only; from the first proposed step on, a step below ``tol_x``
    converges too.  A problem with a ``kind`` must be of the family's kind.
    """
    kind = getattr(problem, "kind", None)
    if kind is not None and kind != _KINDS[family]:
        article = "an" if kind == "optimisation" else "a"
        raise ValueError(f"problem {problem.name!r} is {article} {kind} problem")
    config = config.validated(family)
    spec = method_spec(config.method, family)
    required = ("name", "f", "reference") + (("default_x0",) if config.x0 is None else ())
    missing = [name for name in required if getattr(problem, name, None) is None]
    if missing:
        raise ValueError(f"{type(problem).__name__} is not a problem: it has no "
                         f"{', '.join(missing)}")
    for need in spec.needs:
        if getattr(problem, need, None) is None:
            raise ValueError(f"problem {problem.name!r} has no {_NEEDS[need]}")
    with numerics.precision(config.precision_bits):
        prec, rounding = mpmath.mp._prec_rounding
        tolerance = default_tolerance(config.precision_bits)
        tol_f = (real(config.tol_f) if config.tol_f is not None else tolerance)._mpf_
        tol_x = (real(config.tol_x) if config.tol_x is not None else tolerance)._mpf_
        scheme = spec.schemes[config.weight_scheme]
        # the baselines (no weights) step on exactly their minimum window
        window = config.window if scheme.build is not None else spec.min_window
        run = _Run(spec, config.method, problem, scheme.build, scheme.keys, window,
                   real(config.alpha), real(config.beta), select, step)
        slopes = "df" in spec.needs
        residual = spec.residual

        steps: list[StepRecord] = []

        # a problem's values become mpf as they enter: here, in ``finish`` and halley's step
        def take(x: Scalar, previous_x: Optional[Raw] = None, status: str = STATUS_OK,
                 sign: Optional[int] = None) -> Optional[str]:
            """Evaluate ``x``, record it and return its terminal status, or ``None``."""
            fx = as_mpf(problem.f(x))
            fpx = as_mpf(problem.df(x)) if slopes else None
            x = as_mpf(x)
            run.add(Sample(x, fx, fpx))
            record = StepRecord(len(steps), x, fx, fpx, None, status, sign)
            steps.append(record)
            if x._mpf_ in _NONFINITE or fx._mpf_ in _NONFINITE:
                return STATUS_DIVERGED
            if residual is None:
                res = fx
            else:
                res = record.f_prime = residual(run)
            res = None if res is None else res._mpf_
            if _converged(x._mpf_, res, previous_x, tol_f, tol_x, prec, rounding):
                return STATUS_CONVERGED
            return None

        def finish(status: str) -> IterationTrace:
            steps[-1].status = status
            # the reference is the solution nearest where the run ended; only a library
            # or arithmetic error means "no reference", anything else is a bug
            # in the problem's callables and propagates
            try:
                reference = problem.reference(steps[-1].x)
            except (BaryiterError, ArithmeticError):
                reference = None
            if reference is not None:
                reference = as_mpf(reference)
                for record in steps:
                    record.error = make_mpf(mpf_sub(record.x._mpf_, reference._mpf_,
                                                    prec, rounding))
            return IterationTrace(problem.name, config.method, config, reference, steps)

        x0 = real(config.x0) if config.x0 is not None else real(problem.default_x0)
        # a seed is placed, not stepped to: it converges on its residual alone
        for x in seed_points(problem, config, spec, x0):
            status = take(x)
            if status:
                return finish(status)

        # a root run's sample with f == 0 converges when taken: no exact-root step meets one
        while steps[-1].index < config.max_iter:
            x_new, sign, reduced = propose(run)
            status = take(x_new, steps[-1].x._mpf_, STATUS_FALLBACK if reduced else STATUS_OK, sign)
            if status:
                return finish(status)
        return finish(STATUS_EXHAUSTED)


def solve(problem, config: SolverConfig) -> IterationTrace:
    """Drive one root method on ``problem`` until convergence or budget end.

    ``problem`` needs ``f`` (plus ``df`` for the derivative methods,
    ``d2f`` for halley, ``fixed_point`` for picard) returning mpf values
    (anything else is converted as the run takes it), and a
    ``reference(near)`` that fills the signed error column once the run has
    ended: the solution nearest the final iterate (a built-in's seed refined
    at the working precision, else a refinement from the iterate), when one
    is found.
    """
    return drive(problem, config, "root", _propose, select_window, _interp_step)
