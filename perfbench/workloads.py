"""Seeded workloads and the one place that calls baryiter's public entry points.

Each workload is a fixed list of items; a run executes whole passes over it,
one item after another in one thread (a closed loop with a single client).
The seed picks starting points and expression coefficients only, so every
seed exercises the same layers in the same proportions.  The program sees
nothing but the generated inputs: every start, window and precision is
passed explicitly.

Why these three (see README.md for the layer map):

``lowprec_sweep``
    Every method at small windows and 256 bits, plus the golden-table
    replays at 512 bits.  An mpf operation costs about a Python call here,
    so driver, window-selection and weight-loop overhead dominate.
``hiprec_grid``
    Five memory methods at windows 2/3, 4 and 8 at 4096 bits.  Big integer
    division (weights) and cos/sin (evaluation) dominate.
``expr_cli``
    ``cli.main`` on generated ``--expr`` inputs: argument parsing,
    symbolic-derivative evaluation, reference refinement and JSON output
    dominate; weights and step formulas are small.  Three template families
    reproduce the known defects (wrong reference root, false convergence,
    lost trace) and show up as failures by design.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from typing import Optional

import mpmath

from baryiter import cli, corpus, optimise, root_search
from perfbench.oracle import decimal_digits, parse_table

STATUS_FALLBACK = "singular-step-fallback"

ROOT_METHODS = (
    "exact-df", "exact-d1", "newton-x-interp", "newton-f-interp", "ch-x-interp",
    "ch-f-interp", "picard", "newton", "halley", "secant",
)
# methods that never build barycentric weights
BASELINE_METHODS = ("picard", "newton", "halley", "secant")

# default starting points of the built-in problems; seeded starts scatter around them
ROOT_STARTS = {"cos_minus_x": 3.0, "x2_minus_2": 1.0, "exp_root": 2.0, "cubic_x3_minus_x_minus_2": 2.0}
OPT_STARTS = {"opt_quadratic": 0.0, "opt_xexp": 0.0, "opt_cos": 2.5, "opt_quartic": 0.8}

LOWPREC_BITS = 256
# several starts per cell: some cells (newton-df on opt_xexp at window 4)
# behave chaotically in the start, and averaging keeps a pass's cost steady
LOWPREC_STARTS = 4
PICARD_MAX_ITER = 200  # picard is linear and needs ~135 steps at 256 bits
START_SPREAD = 0.01  # seeded starts lie within 1% of the default (scale at least 1)
ROOT_WINDOWS = (2, 4, 8)
OPT_WINDOWS = (3, 4, 8)  # the optimisation methods need at least three points
# A pass at 4096 bits takes about a second, so a 30-second run repeats every
# item about 25 times and keeps its best time; with 8192-bit items (100-400 ms
# each) it managed 7 repeats, at 32768 bits one.  4096 bits keeps the cost
# structure: big-integer division and cos/sin dominate, and an mpf product
# costs ten times what it does at 256 bits.
HIPREC_BITS = 4096
EXPR_BITS = 256
EXPR_ROOT_METHODS = ("newton", "halley", "exact-d1", "ch-x-interp", "exact-df")
EXPR_OPT_METHODS = ("ch-d1",)


@dataclass(frozen=True)
class Item:
    """One request of a workload.

    ``kind`` is ``solve`` / ``optimize`` (library API on a built-in
    problem), ``table`` (``cli.main(["table", ...])``) or ``cli``
    (``cli.main(argv)`` on a generated expression).
    """

    id: str
    kind: str
    problem: Optional[str] = None
    method: Optional[str] = None
    window: Optional[int] = None
    x0: Optional[str] = None
    bits: int = LOWPREC_BITS
    max_iter: int = 60
    table: Optional[str] = None
    command: Optional[str] = None  # cli items: "solve" or "optimize"
    expr: Optional[str] = None
    has_root: bool = True

    @property
    def optimisation(self) -> bool:
        return self.kind == "optimize" or self.command == "optimize"

    @property
    def builds_weights(self) -> bool:
        return self.kind != "table" and self.method not in BASELINE_METHODS

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Item":
        return cls(**json.loads(text))

    def argv(self) -> list[str]:
        """Command line for ``cli.main`` (table and cli items)."""
        if self.kind == "table":
            return ["table", "--reproduce", self.table]
        return [self.command, "--expr", self.expr, "--x0", self.x0, "--method", self.method,
                "--output", "json", "--precision-bits", str(self.bits)]


@dataclass
class Outcome:
    """What one request returned, reduced to comparable values."""

    status: Optional[str]          # None when the run ended without a trace
    iterations: int = 0
    x: Optional[str] = None        # final iterate as a decimal string
    error: Optional[str] = None    # reported |error| of the final iterate
    fallbacks: int = 0
    exit_code: Optional[int] = None
    text: str = field(default="", repr=False)

    def key(self) -> tuple:
        return (self.status, self.iterations, self.x, self.error, self.exit_code)


def _near(rng: random.Random, centre: float) -> str:
    return f"{centre + rng.uniform(-START_SPREAD, START_SPREAD) * max(1.0, abs(centre)):.6f}"


def lowprec_sweep(seed: int) -> list[Item]:
    rng = random.Random(f"lowprec_sweep:{seed}")
    items = []
    for problem, start in ROOT_STARTS.items():
        for method in ROOT_METHODS:
            if method == "picard" and problem != "cos_minus_x":
                continue  # only cos_minus_x has a fixed-point form
            for window in ROOT_WINDOWS:
                for k in range(LOWPREC_STARTS):
                    items.append(Item(
                        id=f"{problem}/{method}/w{window}/{k}", kind="solve", problem=problem,
                        method=method, window=window, x0=_near(rng, start), bits=LOWPREC_BITS,
                        max_iter=PICARD_MAX_ITER if method == "picard" else 60,
                    ))
    for problem, start in OPT_STARTS.items():
        for method in ("newton-df", "ch-d1"):
            for window in OPT_WINDOWS:
                for k in range(LOWPREC_STARTS):
                    items.append(Item(
                        id=f"{problem}/{method}/w{window}/{k}", kind="optimize", problem=problem,
                        method=method, window=window, x0=_near(rng, start), bits=LOWPREC_BITS,
                    ))
    for table in ("table4", "table6"):
        items.append(Item(id=table, kind="table", table=table, bits=512))
    return items


def hiprec_grid(seed: int) -> list[Item]:
    rng = random.Random(f"hiprec_grid:{seed}")
    cells = [
        ("solve", "cos_minus_x", ("exact-df", "exact-d1", "ch-f-interp"), ROOT_WINDOWS),
        ("solve", "exp_root", ("exact-df", "exact-d1", "ch-f-interp"), ROOT_WINDOWS),
        ("optimize", "opt_cos", ("newton-df", "ch-d1"), OPT_WINDOWS),
    ]
    items = []
    for kind, problem, methods, windows in cells:
        centre = {**ROOT_STARTS, **OPT_STARTS}[problem]
        for method in methods:
            for window in windows:
                items.append(Item(
                    id=f"{problem}/{method}/w{window}", kind=kind, problem=problem,
                    method=method, window=window, x0=_near(rng, centre), bits=HIPREC_BITS,
                ))
    return items


# ---------------------------------------------------------------------------
# expression families: (name, has_root, builder).  A builder draws the
# coefficients and returns (expression, known solution or None, start).


def _c(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _findroot(fn, guess: float) -> float:
    with mpmath.workprec(53):
        return float(mpmath.findroot(fn, guess))


def _cubic(rng):
    a, b = _c(rng, 0.5, 1.5), _c(rng, 1.0, 3.0)
    root = _findroot(lambda x: x ** 3 - float(a) * x - float(b), 1.5)
    return f"x^3 - {a}*x - {b}", root + rng.uniform(0.2, 0.5)


def _exp(rng):
    a, b = _c(rng, 1.0, 3.0), _c(rng, 2.0, 5.0)
    root = float(a) * math.log(float(b))
    return f"exp(x/{a}) - {b}", root + rng.uniform(-0.3, 0.3) * float(a)


def _cos(rng):
    a = _c(rng, 0.5, 2.0)
    root = _findroot(lambda x: mpmath.cos(x) - float(a) * x, 0.7)
    return f"cos(x) - {a}*x", root + rng.uniform(-0.3, 0.3)


def _sin(rng):
    a, b = _c(rng, 1.5, 3.0), _c(rng, 0.5, 2.0)
    root = _findroot(lambda x: mpmath.sin(x) + float(a) * x - float(b), 0.5)
    return f"sin(x) + {a}*x - {b}", root + rng.uniform(-0.5, 0.5)


def _sqrt(rng):
    a, b = _c(rng, 0.5, 2.0), _c(rng, 1.5, 3.0)
    root = float(b) ** 2 - float(a)
    return f"sqrt(x + {a}) - {b}", root * (1 + rng.uniform(-0.2, 0.2))


def _log(rng):
    a, b = _c(rng, 0.5, 2.0), _c(rng, 0.5, 1.5)
    root = math.exp(float(b)) / float(a)
    return f"log({a}*x) - {b}", root * (1 + rng.uniform(-0.2, 0.2))


def _rational(rng):
    a, b, c = _c(rng, 0.2, 1.0), _c(rng, 1.0, 2.0), _c(rng, 1.0, 2.0)
    a_, b_, c_ = float(a), float(b), float(c)
    root = (c_ + math.sqrt(c_ * c_ - 4 * (a_ - c_ * b_))) / 2
    return f"(x^2 + {a})/(x + {b}) - {c}", root + rng.uniform(-0.3, 0.3)


def _wrong_reference(rng):
    # roots 0 and +-sqrt(a).  From 0.466..0.48 sqrt(a) halley, exact-d1 and
    # exact-df settle on another root than the Newton refinement of the
    # reference; just below 0.447 sqrt(a) (Newton's 2-cycle) every method
    # agrees again, so the start keeps clear of it
    a = _c(rng, 0.9, 1.1)
    return f"x^3 - {a}*x", 0.473 * math.sqrt(float(a)) * (1 + rng.uniform(-0.005, 0.005))


def _no_root(rng):
    # no root; |f| falls below any absolute tolerance as x -> -infinity
    a = _c(rng, 0.8, 1.2)
    return f"exp({a}*x)", rng.uniform(0.0, 1.0)


def _domain(rng):
    # Newton from beyond e^(1+a) jumps to x < 0, where log is undefined
    a = _c(rng, 0.5, 1.0)
    return f"log(x) - {a}", math.exp(1 + float(a)) * rng.uniform(1.3, 1.6)


def _quartic(rng):
    a = _c(rng, 1.0, 3.0)
    root = float(a) ** (1 / 3)
    return f"x^4/4 - {a}*x", root + rng.uniform(-0.2, 0.2)


def _exp_linear(rng):
    a = _c(rng, 2.0, 5.0)
    return f"exp(x) - {a}*x", math.log(float(a)) + rng.uniform(-0.3, 0.3)


def _log_barrier(rng):
    a = _c(rng, 0.5, 2.0)
    root = 1 / math.sqrt(2 * float(a))
    return f"{a}*x^2 - log(x)", root * (1 + rng.uniform(-0.2, 0.2))


def _hyperbola(rng):
    a = _c(rng, 0.3, 0.7)
    root = float(a) / math.sqrt(1 - float(a) ** 2)
    return f"sqrt(x^2 + 1) - {a}*x", root + rng.uniform(-0.2, 0.2)


ROOT_FAMILIES = (
    ("cubic", True, _cubic),
    ("exp", True, _exp),
    ("cos", True, _cos),
    ("sin", True, _sin),
    ("sqrt", True, _sqrt),
    ("log", True, _log),
    ("rational", True, _rational),
    ("wrong_reference", True, _wrong_reference),
    ("no_root", False, _no_root),
    ("domain", True, _domain),
)
OPT_FAMILIES = (
    ("quartic", True, _quartic),
    ("exp_linear", True, _exp_linear),
    ("log_barrier", True, _log_barrier),
    ("hyperbola", True, _hyperbola),
)


def expr_cli(seed: int) -> list[Item]:
    rng = random.Random(f"expr_cli:{seed}")
    items = []
    for command, families, methods in (
        ("solve", ROOT_FAMILIES, EXPR_ROOT_METHODS),
        ("optimize", OPT_FAMILIES, EXPR_OPT_METHODS),
    ):
        for family, has_root, build in families:
            expr, start = build(rng)
            x0 = f"{start:.6f}"
            for method in methods:
                items.append(Item(
                    id=f"{family}/{method}", kind="cli", method=method, x0=x0,
                    bits=EXPR_BITS, command=command, expr=expr, has_root=has_root,
                ))
    return items


WORKLOADS = {"lowprec_sweep": lowprec_sweep, "hiprec_grid": hiprec_grid, "expr_cli": expr_cli}


def generate(workload: str, seed: int) -> list[Item]:
    return WORKLOADS[workload](seed)


# ---------------------------------------------------------------------------
# execution


def _decimal(value: mpmath.mpf, bits: int, magnitude: bool = False) -> str:
    # straight from the binary value: no rounding to the ambient precision
    raw = mpmath.libmp.mpf_abs(value._mpf_) if magnitude else value._mpf_
    return mpmath.libmp.to_str(raw, decimal_digits(bits) + 3)


def execute(item: Item) -> tuple[int, Outcome]:
    """Run one item through the public API; returns (latency in ns, outcome).

    Only the call into baryiter is timed.  Entry points are looked up on
    their modules at call time, so installed trace wrappers apply.
    """
    clock = time.perf_counter_ns
    if item.kind in ("solve", "optimize"):
        problem = corpus.get_problem(item.problem)
        config = root_search.SolverConfig(
            method=item.method, window=item.window, x0=item.x0,
            max_iter=item.max_iter, precision_bits=item.bits,
        )
        runner = root_search.solve if item.kind == "solve" else optimise.optimize
        start = clock()
        trace = runner(problem, config)
        elapsed = clock() - start
        last = trace.steps[-1]
        return elapsed, Outcome(
            status=trace.status,
            iterations=trace.iterations,
            x=_decimal(last.x, item.bits),
            error=None if last.error is None else _decimal(last.error, item.bits, magnitude=True),
            fallbacks=sum(s.status == STATUS_FALLBACK for s in trace.steps),
        )

    argv = item.argv()
    out = io.StringIO()
    with redirect_stderr(io.StringIO()):
        start = clock()
        code = cli.main(argv, out=out)
        elapsed = clock() - start
    text = out.getvalue()
    if item.kind == "table":
        steps = sum(len(column) - 1 for column in parse_table(text).values())
        return elapsed, Outcome(status="replayed", iterations=steps, exit_code=code, text=text)
    if not text.strip():
        return elapsed, Outcome(status=None, exit_code=code)
    doc = json.loads(text)
    last = doc["steps"][-1]
    return elapsed, Outcome(
        status=doc["summary"]["status"],
        iterations=doc["summary"]["iterations"],
        x=last["x"],
        error=last["abs_error"],
        fallbacks=sum(s["status"] == STATUS_FALLBACK for s in doc["steps"]),
        exit_code=code,
    )
