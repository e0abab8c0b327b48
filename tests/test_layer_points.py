"""Every module attribute the benchmark's tracer wraps is still called.

``perfbench/tracing.py`` measures each layer by wrapping names that baryiter
looks up at call time.  A name that is renamed, or no longer called through
its own module, would read as a layer that costs nothing.  This test wraps
the same names with its own counters, leaving perfbench itself untouched.
"""

import importlib
import io
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from baryiter import cli, corpus, optimise, root_search  # noqa: E402
from perfbench.tracing import COUNT_POINTS, SPAN_POINTS  # noqa: E402

# (problem, method, weight scheme, window): together they reach every point
RUNS = (
    ("cos_minus_x", "exact-df", "alpha", 4),
    ("cos_minus_x", "exact-d1", "x", 3),
    ("cos_minus_x", "ch-f-interp", "x", 3),
    ("cos_minus_x", "newton", "x", 1),
    ("opt_cos", "newton-df", "x", 4),
    ("opt_cos", "ch-d1", "x", 3),
)


def test_every_traced_point_is_called(monkeypatch):
    calls = Counter()

    def counted(point, fn):
        def wrapper(*args, **kwargs):
            calls[point] += 1
            return fn(*args, **kwargs)
        return wrapper

    points = {(module, attr) for module, attr, _ in SPAN_POINTS + COUNT_POINTS}
    for module_name, attr in points:
        module = importlib.import_module(f"baryiter.{module_name}")
        monkeypatch.setattr(module, attr, counted((module_name, attr), getattr(module, attr)))

    for name, method, scheme, window in RUNS:
        problem = corpus.get_problem(name)
        run = root_search.solve if problem.kind == "root" else optimise.optimize
        config = root_search.SolverConfig(method=method, weight_scheme=scheme, window=window,
                                          precision_bits=128)
        assert run(problem, config).status == "converged", (name, method)
    argv = ["solve", "--expr", "x^2-2", "--x0", "1", "--precision-bits", "128", "--output", "json"]
    assert cli.main(argv, out=io.StringIO()) == 0

    assert sorted(point for point in points if not calls[point]) == []
