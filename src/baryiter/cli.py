"""Command-line front end: run solvers, replay golden tables, query orders.

Exit codes: 0 on success/convergence, 1 on usage errors, 2 when a run
diverges, exhausts its budget or fails (or a golden-table cell fails to match).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

import mpmath

from . import analysis, corpus, numerics, optimise, root_search
from .errors import BaryiterError, InsufficientData, ParseError
from .expressions import parse_expression
from .methods import METHODS, OPT_METHODS, ROOT_METHODS
from .numerics import precision, to_decimal
from .root_search import IterationTrace, SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2

HUMAN_DIGITS = 20
GUARD_BITS = 16  # beyond the printed digits, for ``order``


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``baryiter`` argument parser, built once per process.

    Parsing keeps no state in it: each ``parse_args`` returns a fresh
    namespace, so every ``main`` call reuses the one parser.
    """
    parser = _Parser(prog="baryiter", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared_flags(p, max_iter, digits, digits_help):
        """The flags ``solve``, ``optimize`` and ``compare`` share."""
        target = p.add_mutually_exclusive_group(required=True)
        target.add_argument("--problem", help="built-in problem name")
        target.add_argument("--expr", help="expression in x, e.g. 'cos(x)-x'")
        p.add_argument("--x0", help="starting point (required with --expr)")
        p.add_argument("--weights", choices=root_search.WEIGHT_SCHEMES, default="x")
        p.add_argument("--window", type=int, default=4, help="memory size n+1")
        p.add_argument("--max-iter", type=int, default=max_iter)
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--digits", type=int, default=digits, help=digits_help)

    for name, methods, default_method, kind, about in (
        ("solve", ROOT_METHODS, "exact-df", "root", "run a root method"),
        ("optimize", OPT_METHODS, "newton-df", "optimisation", "run an optimisation method"),
    ):
        p = sub.add_parser(name, help=about)
        add_shared_flags(p, 60, None,
                         "displayed significant digits (default 20; json uses full precision)")
        p.add_argument("--x1", help="explicit second starting point")
        p.add_argument("--method", choices=methods, default=default_method)
        p.add_argument("--alpha", default="0", help="shift for the alpha weight scheme")
        p.add_argument("--beta", default="1", help="Chebyshev-Halley parameter")
        p.add_argument("--tol-f", help="residual tolerance (default scales with precision)")
        p.add_argument("--tol-x", help="step-size tolerance")
        p.add_argument("--output", choices=("human", "json", "csv"), default="human")
        p.set_defaults(handler=_run_command, kind=kind)

    order = sub.add_parser("order", help="theoretical convergence order")
    order.add_argument("--family", choices=analysis.FAMILIES, required=True)
    order.add_argument("--m", type=int, required=True, help="coincidence multiplicity")
    order.add_argument("--n", required=True, help="memory parameter, or 'inf'")
    order.add_argument("--digits", type=int, default=6)
    order.set_defaults(handler=_order_command)

    table = sub.add_parser("table", help="replay a golden error table and check every cell")
    table.add_argument("--reproduce", choices=sorted(corpus.GOLDEN_TABLES), required=True)
    table.add_argument("--precision-bits", type=int, default=None)
    table.set_defaults(handler=_table_command)

    compare = sub.add_parser("compare", help="run several methods side by side")
    add_shared_flags(compare, 30, 3, "displayed significant digits (default 3)")
    compare.add_argument("--methods", required=True, help="comma-separated method list")
    compare.set_defaults(handler=_compare_command)

    return parser


def _resolve_problem(args, kind: str) -> corpus.Problem:
    if args.problem:
        return corpus.get_problem(args.problem)  # the solver checks its kind
    if args.x0 is None:
        raise UsageError("--expr needs --x0")
    return corpus.from_expression(parse_expression(args.expr), args.expr, kind, args.x0)


def _bits(args) -> int:
    """``--precision-bits``, or the default precision when it is not given."""
    return numerics.DEFAULT_PRECISION_BITS if args.precision_bits is None else args.precision_bits


def _config_from(args) -> SolverConfig:
    return SolverConfig(
        method=args.method,
        weight_scheme=args.weights,
        alpha=args.alpha,
        window=args.window,
        beta=args.beta,
        x0=args.x0,
        x1=args.x1,
        tol_f=args.tol_f,
        tol_x=args.tol_x,
        max_iter=args.max_iter,
        precision_bits=_bits(args),
    )


def _summary_order(trace: IterationTrace) -> Optional[str]:
    """The empirical order over the last three steps, to 6 digits, at the working precision."""
    try:
        return to_decimal(analysis.empirical_order(trace, 3), 6)
    except InsufficientData:
        return None


def _config_document(config: SolverConfig) -> dict:
    return {
        "method": config.method,
        "weights": config.weight_scheme,
        "alpha": str(config.alpha),
        "window": config.window,
        "beta": str(config.beta),
        "bootstrap": config.bootstrap,
        "max_iter": config.max_iter,
        "precision_bits": config.precision_bits,
    }


def _step_cells(trace: IterationTrace, digits: int) -> list:
    """Each step of ``trace`` with its numbers as decimal strings, at the working precision."""
    return [
        {
            "i": s.index,
            "x": to_decimal(s.x, digits),
            "f": to_decimal(s.f, digits) if s.f is not None else None,
            "abs_error": to_decimal(s.abs_error, digits) if s.error is not None else None,
            "status": s.status,
        }
        for s in trace.steps
    ]


def trace_document(trace: IterationTrace, digits: int) -> dict:
    """JSON-ready form of a trace; every number is a decimal string."""
    with precision(trace.config.precision_bits):
        steps = _step_cells(trace, digits)
        order = _summary_order(trace)
    return {
        "problem": trace.problem,
        "method": trace.method,
        "config": _config_document(trace.config),
        "steps": steps,
        "summary": {
            "status": trace.status,
            "iterations": trace.iterations,
            "empirical_order": order,
        },
    }


_quote = json.encoder.encode_basestring_ascii  # json.dumps' own quoting under ensure_ascii


def _json_scalar(value) -> str:
    """A string, an int or None as ``json.dumps`` writes it; documents hold no bool or float."""
    if isinstance(value, str):
        return _quote(value)
    return "null" if value is None else str(value)


def _json_steps(steps: list) -> str:
    """A document's step list, nested in the top level, each step from one template."""
    if not steps:
        return "[]"
    template = "{" + ",".join(f"\n      {_quote(key)}: %s" for key in steps[0]) + "\n    }"
    return "[\n    " + ",\n    ".join(
        template % tuple(map(_json_scalar, s.values())) for s in steps) + "\n  ]"


def document_json(doc: dict, indent: str = "") -> str:
    """``json.dumps(doc, indent=2)`` of a ``trace_document``, or of an object nested in one.

    Values are strings, ints, None, non-empty objects of these, and the step list.
    """
    inner = indent + "  "
    items = []
    for key, value in doc.items():
        if isinstance(value, dict):
            text = document_json(value, inner)
        elif isinstance(value, list):
            text = _json_steps(value)
        else:
            text = _json_scalar(value)
        items.append(f"\n{inner}{_quote(key)}: {text}")
    return "{" + ",".join(items) + "\n" + indent + "}"


def emit_json(trace: IterationTrace, digits: Optional[int], out) -> None:
    if digits is None:
        digits = numerics.decimal_digits(trace.config.precision_bits) + 2
    print(document_json(trace_document(trace, digits)), file=out)


def emit_csv(trace: IterationTrace, digits: Optional[int], out) -> None:
    digits = HUMAN_DIGITS if digits is None else digits
    with precision(trace.config.precision_bits):
        steps = _step_cells(trace, digits)  # csv has no summary row, so no order
    print(",".join(steps[0]), file=out)
    for s in steps:
        print(",".join("" if value is None else str(value) for value in s.values()), file=out)


def emit_human(trace: IterationTrace, digits: Optional[int], out) -> None:
    digits = HUMAN_DIGITS if digits is None else digits
    doc = trace_document(trace, digits)
    print(f"problem: {doc['problem']}   method: {doc['method']}   "
          f"window: {doc['config']['window']}   weights: {doc['config']['weights']}", file=out)
    width = max(len(s["x"]) for s in doc["steps"])
    header = f"{'i':>3}  {'x':<{width}}  {'|error|':<{digits + 7}}  status"
    print(header, file=out)
    for s in doc["steps"]:
        err = s["abs_error"] or "-"
        print(f"{s['i']:>3}  {s['x']:<{width}}  {err:<{digits + 7}}  {s['status']}", file=out)
    summary = doc["summary"]
    order = summary["empirical_order"] or "n/a"
    print(f"status: {summary['status']}   iterations: {summary['iterations']}   "
          f"empirical order: {order}", file=out)


_EMITTERS = {"json": emit_json, "csv": emit_csv, "human": emit_human}


def _run_command(args, out) -> int:
    problem = _resolve_problem(args, args.kind)
    config = _config_from(args)
    runner = root_search.solve if args.kind == "root" else optimise.optimize
    trace = runner(problem, config)
    _EMITTERS[args.output](trace, args.digits, out)
    if trace.failure is not None:
        print(f"error: {trace.failure}", file=sys.stderr)
    return EXIT_OK if trace.status == root_search.STATUS_CONVERGED else EXIT_FAILED


def _order_command(args, out) -> int:
    if args.m < 1:
        raise UsageError("--m must be at least 1")
    try:
        n = math.inf if args.n.strip().lower() in ("inf", "infinity") else int(args.n)
    except ValueError:
        n = None  # not a whole number: the same usage error as a negative one
    if n is None or n < 0:
        raise UsageError("--n must be non-negative or 'inf'")
    # every printed digit is computed: the run's precision follows --digits alone
    bits = max(numerics.DEFAULT_PRECISION_BITS, math.ceil(args.digits * math.log2(10)) + GUARD_BITS)
    with precision(bits):
        value = analysis.theoretical_order(args.family, args.m, n)
        print(mpmath.nstr(value, args.digits, strip_zeros=False), file=out)
    return EXIT_OK


def run_golden_table(name: str, precision_bits: Optional[int] = None):
    """Replay one golden table.

    Returns (label -> printed errors, label -> list of mismatching row
    indexes, all_match).
    """
    spec = corpus.golden_table(name)
    bits = spec["precision_bits"] if precision_bits is None else precision_bits
    problem = corpus.get_problem(spec["problem"])
    computed: dict[str, list[str]] = {}
    mismatches: dict[str, list[int]] = {}
    for column in spec["columns"]:
        label = column["label"]
        cells = spec["cells"][label]
        config = SolverConfig(
            method=column["method"],
            weight_scheme=column.get("weights", "x"),
            window=column["window"],
            bootstrap="picard",  # the published tables seed with one fixed-point step
            tol_f="1e-150",
            tol_x="1e-150",
            max_iter=len(cells) - 1,
            precision_bits=bits,
        )
        trace = root_search.solve(problem, config)
        with precision(bits):
            errors = [s.abs_error for s in trace.steps]
            bad = [
                i for i, cell in enumerate(cells)
                if i >= len(errors) or errors[i] is None
                or not corpus.matches_printed(errors[i], cell)
            ]
            computed[label] = [to_decimal(e, 3) for e in errors if e is not None]
        mismatches[label] = bad
    all_match = not any(mismatches.values())
    return computed, mismatches, all_match


def _print_grid(labels: Sequence[str], columns: Sequence[Sequence[str]], rows: int, width: int,
                out) -> None:
    """Rows 0 to ``rows - 1`` of ``columns`` under their labels, right-aligned; "-" past an end."""
    print("i  " + "".join(f"{label:>{width}}" for label in labels), file=out)
    for i in range(rows):
        cells = (column[i] if i < len(column) else "-" for column in columns)
        print(f"{i:<2} " + "".join(f"{cell:>{width}}" for cell in cells), file=out)


def _table_command(args, out) -> int:
    spec = corpus.golden_table(args.reproduce)
    computed, mismatches, all_match = run_golden_table(args.reproduce, args.precision_bits)
    labels = [c["label"] for c in spec["columns"]]
    rows = len(next(iter(spec["cells"].values())))
    _print_grid(labels, [computed[label] for label in labels], rows, 12, out)
    for label in labels:
        bad = mismatches[label]
        verdict = "ok" if not bad else f"MISMATCH at i={bad}"
        print(f"column {label}: {verdict}", file=out)
    print("all cells match" if all_match else "some cells mismatch", file=out)
    return EXIT_OK if all_match else EXIT_FAILED


def _compare_command(args, out) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    problem = _resolve_problem(args, "root")
    bits = _bits(args)
    traces = []
    for method in methods:
        spec = METHODS.get(method)  # an unknown name is rejected by the solver
        config = SolverConfig(
            method=method,
            weight_scheme=args.weights,
            window=max(args.window, spec.min_window) if spec else args.window,
            x0=args.x0,
            max_iter=args.max_iter,
            precision_bits=bits,
        )
        traces.append(root_search.solve(problem, config))
    with precision(bits):  # |error|, or |f| where a run has no reference
        columns = [[to_decimal(s.abs_error, args.digits) if s.error is not None
                    else "f=" + to_decimal(abs(s.f), args.digits) for s in t.steps]
                   for t in traces]
    print(f"problem: {problem.name}   |error| per step", file=out)
    _print_grid(methods, columns, max(len(t.steps) for t in traces), args.digits + 9, out)
    for method, trace in zip(methods, traces):
        print(f"{method}: {trace.status} after {trace.iterations} steps", file=out)
    return EXIT_OK if all(t.status == root_search.STATUS_CONVERGED for t in traces) else EXIT_FAILED


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        # before any other check, so a bad --digits reads the same everywhere
        if getattr(args, "digits", None) is not None and args.digits < 1:
            raise UsageError("--digits must be positive")
        return args.handler(args, out)
    except (UsageError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BaryiterError as err:
        # solver-level failure: surface the error type name
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_FAILED
    except (KeyError, ValueError) as err:
        # a KeyError's str() is the repr of its message
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
