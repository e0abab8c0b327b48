"""In-memory spans and counters around baryiter's layer boundaries.

The wrappers are installed on module attributes that the library looks up
at call time (``root_search.product_weights``, ``optimise.phi_slope_df``,
``cli.build_parser``, ``corpus.reference_root`` ...) and on the callables
of each built-in ``Problem``; nothing under ``src/`` changes.  A tracer
either records spans (name, start, end, parent) plus call counts, or call
counts alone; the counting mode exists so a traced pass can be checked
against a pass without clocks for identical results and counts.

A layer's self time is its span's duration minus the time its direct child
spans cover; summing self time over every span of a request gives back the
duration of its root spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in the same list, -1 for a root


def self_times(spans: Iterable[Span]) -> Counter:
    """Self time in ns per span name: duration minus the direct children's durations."""
    spans = list(spans)
    covered = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end_ns - span.start_ns
    out: Counter = Counter()
    for span, child_ns in zip(spans, covered):
        out[span.name] += span.end_ns - span.start_ns - child_ns
    return out


class Tracer:
    """Counts calls per layer and, when ``timing`` is on, records their spans."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.counts: Counter = Counter()
        self._records: list[list] = []  # [name, start, end, parent], by span index
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def count_calls(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` counted under ``name`` and, when timing, recorded as a span."""
        if not self.timing:
            return self.count_calls(name, fn)
        counts = self.counts
        records = self._records
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            counts[name] += 1
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(records))
            records.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def take(self) -> tuple[Counter, list[Span]]:
        """Counts and spans recorded since the last call; clears both."""
        counts = Counter(self.counts)
        spans = [Span(*record) for record in self._records]
        self.counts.clear()
        self._records.clear()
        self._stack.clear()
        return counts, spans


# Module attributes wrapped as spans: (module name, attribute, layer name).
SPAN_POINTS = (
    ("root_search", "solve", "root_search.driver"),
    ("root_search", "select_window", "root_search.select_window"),
    ("root_search", "_interp_step", "root_search.step"),
    ("root_search", "baseline_step", "root_search.step"),
    ("root_search", "product_weights", "weights"),
    ("root_search", "shifted_product_weights", "weights"),
    ("root_search", "squared_product_weights", "weights"),
    ("root_search", "derivative_scaled_weights", "weights"),
    ("root_search", "hermite_node_curvature", "interpolants.curvature"),
    ("optimise", "optimize", "optimise.driver"),
    ("optimise", "select_window", "root_search.select_window"),
    ("optimise", "_df_step", "optimise.step"),
    ("optimise", "_d1_step", "optimise.step"),
    ("optimise", "phi_slope_df", "optimise.step"),
    ("optimise", "product_weights", "weights"),
    ("optimise", "squared_product_weights", "weights"),
    ("optimise", "hermite_node_curvature", "interpolants.curvature"),
    ("corpus", "reference_root", "corpus.reference"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.parser"),
    ("cli", "to_decimal", "numerics.to_decimal"),
    ("analysis", "empirical_order", "analysis.empirical_order"),
)

# Counted but not timed: one call per proposed step, retries included below it.
COUNT_POINTS = (
    ("root_search", "_propose", "root_search.propose"),
    ("optimise", "_opt_propose", "optimise.propose"),
)

PROBLEM_CALLABLES = ("f", "df", "d2f", "d3f", "fixed_point")
EXPRESSION_CALLABLES = ("f", "df", "d2f", "d3f")


def tree_nodes(node) -> int:
    """Node count of an expression AST (tuples whose tail holds sub-trees)."""
    return 1 + sum(tree_nodes(child) for child in node[1:] if isinstance(child, tuple))


class _TracedExpression:
    """Stands in for a parsed ``Expression``: the callables the CLI uses, wrapped."""

    def __init__(self, expression, tracer: Tracer):
        for attr in EXPRESSION_CALLABLES:
            setattr(self, attr, tracer.wrap("expressions.eval", getattr(expression, attr)))


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers on baryiter for the duration of the block."""
    from baryiter import cli, corpus

    points = [(name, attr, layer, tracer.wrap) for name, attr, layer in SPAN_POINTS]
    points += [(name, attr, layer, tracer.count_calls) for name, attr, layer in COUNT_POINTS]
    saved_attrs = []
    saved_problems = dict(corpus.PROBLEMS)
    saved_emitters = dict(cli._EMITTERS)
    try:
        for module_name, attr, layer, wrap in points:
            module = importlib.import_module(f"baryiter.{module_name}")
            saved_attrs.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrap(layer, getattr(module, attr)))

        parse = tracer.wrap("expressions.parse", cli.parse_expression)
        saved_attrs.append((cli, "parse_expression", cli.parse_expression))

        def parse_traced(src):
            expression = parse(src)
            tracer.count("expressions.tree_nodes", sum(tree_nodes(n) for n in expression.nodes))
            return _TracedExpression(expression, tracer)

        cli.parse_expression = parse_traced
        for key, emit in saved_emitters.items():
            cli._EMITTERS[key] = tracer.wrap("cli.emit", emit)
        for name, problem in saved_problems.items():
            wrapped = {
                attr: tracer.wrap("corpus.eval", getattr(problem, attr))
                for attr in PROBLEM_CALLABLES
                if getattr(problem, attr) is not None
            }
            corpus.PROBLEMS[name] = dataclasses.replace(problem, **wrapped)
        yield tracer
    finally:
        for module, attr, original in reversed(saved_attrs):
            setattr(module, attr, original)
        corpus.PROBLEMS.clear()
        corpus.PROBLEMS.update(saved_problems)
        cli._EMITTERS.clear()
        cli._EMITTERS.update(saved_emitters)
