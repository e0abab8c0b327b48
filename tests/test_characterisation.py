"""Characterisation of every solver path against a fixture pinned at 256 bits.

``characterisation.json`` is written by ``compute_cases`` below and is never
regenerated by the suite: any change to a trace, a status, an iteration
count or the CLI's JSON output fails this test.  Each case records the final
status, the iteration count, the final iterate to 30 digits and a sha256
over every step's ``x``/``f``/``f_prime``/``error``/``status``/
``curvature_sign`` as decimal strings; a case that raises records the
exception type instead.

Run as a script, this file recomputes the cases and prints every one that
differs from the fixture, field by field::

    PYTHONPATH=src python tests/test_characterisation.py [--write]

``--write`` rewrites the fixture from the computed cases, for a change that
moves a trace on purpose.
"""

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest
from mpmath.libmp import to_str

from baryiter import cli, corpus
from baryiter.optimise import optimize
from baryiter.root_search import SolverConfig, solve

FIXTURE = Path(__file__).with_name("characterisation.json")
BITS = 256
HASH_DIGITS = 90  # more than the 78 digits that round-trip 256 bits

ALL_SCHEMES = ("x", "f", "alpha")
# method -> (minimum window, weight schemes it accepts)
ROOT_CASES = {
    "exact-df": (2, ALL_SCHEMES),
    "exact-d1": (1, ("x", "f")),
    "newton-x-interp": (2, ALL_SCHEMES),
    "newton-f-interp": (2, ALL_SCHEMES),
    "ch-x-interp": (1, ALL_SCHEMES),
    "ch-f-interp": (1, ALL_SCHEMES),
    "picard": (1, ALL_SCHEMES),
    "newton": (1, ALL_SCHEMES),
    "halley": (1, ALL_SCHEMES),
    "secant": (2, ALL_SCHEMES),
}
OPT_CASES = {"newton-df": 3, "ch-d1": 2}
ROOT_PROBLEMS = ("cos_minus_x", "x2_minus_2", "exp_root", "cubic_x3_minus_x_minus_2")
OPT_PROBLEMS = ("opt_quadratic", "opt_xexp", "opt_cos", "opt_quartic")
CLI_CASES = {
    "solve/newton": ["solve", "--expr", "x^3 - 2*x - 5", "--x0", "2", "--method", "newton"],
    "solve/exact-df": ["solve", "--expr", "cos(x) - x*exp(x/3)", "--x0", "1",
                       "--method", "exact-df"],
    "optimize/ch-d1": ["optimize", "--expr", "x^4/4 - 2*x + log(x)", "--x0", "1.2",
                       "--method", "ch-d1", "--window", "3"],
}


def _decimal(value):
    if value is None or isinstance(value, (int, str)):
        return str(value)
    return to_str(value._mpf_, HASH_DIGITS)


def _trace_record(trace):
    digest = hashlib.sha256()
    for s in trace.steps:
        fields = (s.x, s.f, s.f_prime, s.error, s.status, s.curvature_sign)
        digest.update(("|".join(_decimal(v) for v in fields) + "\n").encode())
    return {
        "status": trace.status,
        "iterations": trace.iterations,
        "x": to_str(trace.steps[-1].x._mpf_, 30),
        "steps_sha256": digest.hexdigest(),
    }


def _run(runner, problem, config):
    try:
        return _trace_record(runner(problem, config))
    except Exception as err:  # the exception type is the pinned outcome
        return {"raises": type(err).__name__}


def _windows(minimum):
    return sorted({minimum, 4, 8})


def compute_cases() -> dict:
    cases = {}
    for name in ROOT_PROBLEMS:
        problem = corpus.get_problem(name)
        for method, (minimum, schemes) in ROOT_CASES.items():
            for scheme in schemes:
                for window in _windows(minimum):
                    config = SolverConfig(method=method, weight_scheme=scheme, window=window,
                                          precision_bits=BITS)
                    cases[f"{name}/{method}/{scheme}/w{window}"] = _run(solve, problem, config)
    for name in OPT_PROBLEMS:
        problem = corpus.get_problem(name)
        for method, minimum in OPT_CASES.items():
            for window in _windows(minimum):
                config = SolverConfig(method=method, window=window, precision_bits=BITS)
                cases[f"{name}/{method}/w{window}"] = _run(optimize, problem, config)
    for label, argv in CLI_CASES.items():
        out = io.StringIO()
        code = cli.main(argv + ["--output", "json", "--precision-bits", str(BITS)], out=out)
        text = out.getvalue()
        doc = json.loads(text)
        cases[f"cli/{label}"] = {
            "exit_code": code,
            "status": doc["summary"]["status"],
            "iterations": doc["summary"]["iterations"],
            "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    return cases


@pytest.fixture(scope="module")
def computed():
    return compute_cases()


def test_case_set_matches_fixture(computed):
    assert sorted(computed) == sorted(json.loads(FIXTURE.read_text()))


def test_every_case_matches_fixture(computed):
    # the comparison the re-baseline tool below prints
    changed = changed_fields(json.loads(FIXTURE.read_text()), computed)
    first = [(key, name) for key, fields in changed.items() for name, _, _ in fields][:5]
    assert changed == {}, f"{len(changed)} cases changed; first (case, field) pairs: {first}"


# ---------------------------------------------------------------------------
# the re-baseline tool


def _fixture_text(cases: dict) -> str:
    return json.dumps(cases, indent=1, sort_keys=True) + "\n"


def changed_fields(expected: dict, computed: dict) -> dict:
    """case -> [(field, fixture value, computed value)] for every case that differs."""
    changed = {}
    for key in sorted(expected.keys() | computed.keys()):
        old, new = expected.get(key, {}), computed.get(key, {})
        fields = [(name, old.get(name), new.get(name))
                  for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]
        if fields:
            changed[key] = fields
    return changed


def _cell(name: str, value) -> str:
    if value is None:
        return "-"
    # a digest is told apart by its first 12 hex digits
    return str(value)[:12] if name.endswith("sha256") else str(value)


def test_fixture_is_laid_out_as_the_tool_writes_it():
    assert FIXTURE.read_text() == _fixture_text(json.loads(FIXTURE.read_text()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Recompute the characterisation cases and list those that differ "
                    "from the fixture.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the fixture from the computed cases")
    args = parser.parse_args(argv)
    expected = json.loads(FIXTURE.read_text())
    computed = compute_cases()
    changed = changed_fields(expected, computed)
    rows = [(key, name, _cell(name, old), _cell(name, new))
            for key, fields in changed.items() for name, old, new in fields]
    if rows:
        rows.insert(0, ("case", "field", "fixture", "computed"))
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        for row in rows:
            print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)) + "  " + row[3])
    print(f"{len(changed)} of {len(expected)} cases changed")
    if args.write:
        FIXTURE.write_text(_fixture_text(computed))
        print(f"wrote {len(computed)} cases to {FIXTURE.name}")
    return 1 if changed and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
