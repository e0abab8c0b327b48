"""Command-line front end: run solvers, replay golden tables, query orders.

Exit codes: 0 on success/convergence, 1 on usage errors, 2 when a run
diverges or exhausts its budget (or a golden-table cell fails to match).
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

    def add_run_flags(p, methods, default_method, default_window):
        target = p.add_mutually_exclusive_group(required=True)
        target.add_argument("--problem", help="built-in problem name")
        target.add_argument("--expr", help="expression in x, e.g. 'cos(x)-x'")
        p.add_argument("--x0", help="starting point (required with --expr)")
        p.add_argument("--x1", help="explicit second starting point")
        p.add_argument("--method", choices=methods, default=default_method)
        p.add_argument("--weights", choices=root_search.WEIGHT_SCHEMES, default="x")
        p.add_argument("--alpha", default="0", help="shift for the alpha weight scheme")
        p.add_argument("--window", type=int, default=default_window, help="memory size n+1")
        p.add_argument("--beta", default="1", help="Chebyshev-Halley parameter")
        p.add_argument("--bootstrap", choices=root_search.BOOTSTRAPS, default="auto")
        p.add_argument("--perturb-h", help="step for the perturbation bootstrap")
        p.add_argument("--tol-f", help="residual tolerance (default scales with precision)")
        p.add_argument("--tol-x", help="step-size tolerance")
        p.add_argument("--max-iter", type=int, default=60)
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--output", choices=("human", "json", "csv"), default="human")
        p.add_argument("--digits", type=int, default=None,
                       help="displayed significant digits (default 20; json uses full precision)")

    solve = sub.add_parser("solve", help="run a root method")
    add_run_flags(solve, ROOT_METHODS, "exact-df", 4)

    optimize = sub.add_parser("optimize", help="run an optimisation method")
    add_run_flags(optimize, OPT_METHODS, "newton-df", 4)

    order = sub.add_parser("order", help="theoretical convergence order")
    order.add_argument("--family", choices=analysis.FAMILIES, required=True)
    order.add_argument("--m", type=int, required=True, help="coincidence multiplicity")
    order.add_argument("--n", required=True, help="memory parameter, or 'inf'")
    order.add_argument("--digits", type=int, default=6)

    table = sub.add_parser("table", help="replay a golden error table and check every cell")
    table.add_argument("--reproduce", choices=sorted(corpus.GOLDEN_TABLES), required=True)
    table.add_argument("--precision-bits", type=int, default=None)

    compare = sub.add_parser("compare", help="run several methods side by side")
    target = compare.add_mutually_exclusive_group(required=True)
    target.add_argument("--problem")
    target.add_argument("--expr")
    compare.add_argument("--x0")
    compare.add_argument("--methods", required=True, help="comma-separated method list")
    compare.add_argument("--weights", choices=root_search.WEIGHT_SCHEMES, default="x")
    compare.add_argument("--window", type=int, default=4)
    compare.add_argument("--max-iter", type=int, default=30)
    compare.add_argument("--precision-bits", type=int, default=None)
    compare.add_argument("--digits", type=int, default=3)

    return parser


def _resolve_problem(args, kind: str) -> corpus.Problem:
    if args.problem:
        problem = corpus.get_problem(args.problem)
        if problem.kind != kind:
            raise UsageError(f"problem {problem.name!r} is a {problem.kind} problem")
        return problem
    if args.x0 is None:
        raise UsageError("--expr needs --x0")
    return corpus.from_expression(parse_expression(args.expr), args.expr, kind, args.x0)


def _config_from(args) -> SolverConfig:
    bits = args.precision_bits if args.precision_bits is not None else numerics.default_precision_bits()
    return SolverConfig(
        method=args.method,
        weight_scheme=args.weights,
        alpha=args.alpha,
        window=args.window,
        beta=args.beta,
        x0=args.x0,
        x1=args.x1,
        bootstrap=args.bootstrap,
        perturb_h=args.perturb_h,
        tol_f=args.tol_f,
        tol_x=args.tol_x,
        max_iter=args.max_iter,
        precision_bits=bits,
    )


def _summary_order(trace: IterationTrace) -> Optional[str]:
    try:
        with precision(trace.config.precision_bits):
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


def trace_document(trace: IterationTrace, digits: int) -> dict:
    """JSON-ready form of a trace; every number is a decimal string."""
    with precision(trace.config.precision_bits):
        steps = [
            {
                "i": s.index,
                "x": to_decimal(s.x, digits),
                "f": to_decimal(s.f, digits) if s.f is not None else None,
                "abs_error": to_decimal(s.abs_error, digits) if s.error is not None else None,
                "status": s.status,
            }
            for s in trace.steps
        ]
    return {
        "problem": trace.problem,
        "method": trace.method,
        "config": _config_document(trace.config),
        "steps": steps,
        "summary": {
            "status": trace.status,
            "iterations": trace.iterations,
            "empirical_order": _summary_order(trace),
        },
    }


def emit_json(trace: IterationTrace, digits: Optional[int], out) -> None:
    if digits is None:
        digits = numerics.decimal_digits(trace.config.precision_bits) + 2
    print(json.dumps(trace_document(trace, digits), indent=2), file=out)


def emit_csv(trace: IterationTrace, digits: Optional[int], out) -> None:
    digits = HUMAN_DIGITS if digits is None else digits
    doc = trace_document(trace, digits)
    print("i,x,f,abs_error,status", file=out)
    for s in doc["steps"]:
        cells = [str(s["i"]), s["x"], s["f"] or "", s["abs_error"] or "", s["status"]]
        print(",".join(cells), file=out)


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


def _check_digits(digits: Optional[int]) -> None:
    if digits is not None and digits < 1:
        raise UsageError("--digits must be positive")


def _run_command(args, kind: str, out) -> int:
    _check_digits(args.digits)
    problem = _resolve_problem(args, kind)
    config = _config_from(args)
    runner = root_search.solve if kind == "root" else optimise.optimize
    trace = runner(problem, config)
    _EMITTERS[args.output](trace, args.digits, out)
    return EXIT_OK if trace.status == root_search.STATUS_CONVERGED else EXIT_FAILED


def _order_command(args, out) -> int:
    _check_digits(args.digits)
    n = math.inf if args.n.strip().lower() in ("inf", "infinity") else int(args.n)
    if args.m < 1:
        raise UsageError("--m must be at least 1")
    if n != math.inf and n < 0:
        raise UsageError("--n must be non-negative or 'inf'")
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
    _check_digits(args.digits)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    problem = _resolve_problem(args, "root")
    bits = args.precision_bits if args.precision_bits is not None else numerics.default_precision_bits()
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _run_command(args, "root", out)
        if args.command == "optimize":
            return _run_command(args, "optimisation", out)
        if args.command == "order":
            return _order_command(args, out)
        if args.command == "table":
            return _table_command(args, out)
        # argparse requires one of the five subcommands, so this one is compare
        return _compare_command(args, out)
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
