"""Count the library's mpf divisions and multiplications over one pass of a benchmark workload.

From the repository root::

    python tests/division_counts.py [--workload hiprec_grid] [--seed 1]

Wraps ``mpf_div``, ``mpf_rdiv_int``, ``mpf_mul`` and ``mpf_pow_int`` as
each baryiter module imported them, runs every item of the workload once
through ``perfbench.workloads.execute`` (read, not edited), and prints the
calls per module and function, then the total of each function.  An
operation libmp makes inside one of its own functions (``mpf_cos_sin``,
``mpf_exp`` ...) is not counted, nor is one made through a reference taken
at import (the operator table of ``expressions``).  The counts depend on
the code alone, not on the machine, so two checkouts' output compares
directly: a division traded for multiplications shows in both columns.
"""

import argparse
import importlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import execute, generate  # noqa: E402

MODULES = ("weights", "root_search", "optimise", "interpolants", "expressions", "numerics",
           "analysis")
FUNCTIONS = ("mpf_div", "mpf_rdiv_int", "mpf_mul", "mpf_pow_int")


def count_operations(items) -> Counter:
    """Calls per (module, function) while ``items`` run once each."""
    counts = Counter()
    saved = []

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    try:
        for name in MODULES:
            module = importlib.import_module(f"baryiter.{name}")
            for function in FUNCTIONS:
                if hasattr(module, function):
                    saved.append((module, function, getattr(module, function)))
                    setattr(module, function, counted((name, function), getattr(module, function)))
        for item in items:
            execute(item)
    finally:
        for module, function, original in saved:
            setattr(module, function, original)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hiprec_grid")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    counts = count_operations(generate(args.workload, args.seed))
    for (module, function), calls in sorted(counts.items()):
        print(f"{module:<13} {function:<13} {calls:>7}")
    for function in FUNCTIONS:
        total = sum(calls for (_, name), calls in counts.items() if name == function)
        print(f"{'total':<13} {function:<13} {total:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
