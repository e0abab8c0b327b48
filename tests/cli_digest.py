"""Print one sha256 over the CLI's output on a fixed set of invocations.

From the repository root::

    python tests/cli_digest.py [--each]

Runs ``cli.main`` in this process on every invocation of ``invocations()``
and hashes each one's argv, exit code, stdout and stderr, in order, into one
sha256; prints the invocation count and the digest.  Two checkouts whose CLI
output is byte-identical print the same line, so a change that must not move
an output bit is checked by running this on each side.  ``--each`` first
prints one line per invocation: its index, the first 12 hex digits of the
sha256 of its record, and its argv shell-quoted; a ``diff`` of two
checkouts' output lists the invocations whose output changed.  The set is the
``expr_cli`` items of ``perfbench.workloads`` for seeds 1-20 (read, not
edited), then ``solve``, ``optimize``, ``compare``, both golden tables and a
few usage errors, in every output format at 64, 256 and 4096 bits, with
``--digits`` up to 150.  ``tests/test_cli_digest.py`` pins the digest;
pytest does not collect this file itself: its name does not start with
``test_``.
"""

import hashlib
import io
import json
import shlex
import sys
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from baryiter import cli  # noqa: E402
from perfbench.workloads import generate  # noqa: E402

BITS = ("64", "256", "4096")
DIGITS = ((), ("--digits", "5"), ("--digits", "150"))
OUTPUTS = ("human", "json", "csv")
ROOT_METHODS = ("exact-df,exact-d1,newton-x-interp,newton-f-interp,ch-x-interp,ch-f-interp,"
                "newton,halley,secant")
USAGE_ERRORS = (
    ("order", "--family", "root", "--m", "0", "--n", "2"),
    ("order", "--family", "opt", "--m", "2", "--n", "inf", "--digits", "30"),
    ("solve", "--expr", "x*x-2"),
    ("solve", "--expr", "x 2", "--x0", "1"),
    ("solve", "--problem", "nope"),
    ("compare", "--problem", "x2_minus_2", "--methods", ","),
)


def invocations() -> list:
    """Every argv the digest covers, in the order it runs them."""
    runs = [item.argv() for seed in range(1, 21) for item in generate("expr_cli", seed)]
    for bits in BITS:
        for output in OUTPUTS:
            for digits in DIGITS:
                runs.append(["solve", "--problem", "cos_minus_x", "--output", output,
                             "--precision-bits", bits, *digits])
                runs.append(["optimize", "--problem", "opt_xexp", "--method", "ch-d1",
                             "--output", output, "--precision-bits", bits, *digits])
        for digits in DIGITS:
            runs.append(["compare", "--problem", "cos_minus_x", "--methods", ROOT_METHODS,
                         "--precision-bits", bits, *digits])
        # no reference: the cells fall back to |f|
        runs.append(["compare", "--expr", "x*x+1", "--x0", "0.5", "--methods", "secant,newton",
                     "--precision-bits", bits])
        for table in ("table4", "table6"):
            runs.append(["table", "--reproduce", table, "--precision-bits", bits])
    runs.extend(list(argv) for argv in USAGE_ERRORS)
    return runs


def record(argv: list) -> bytes:
    """One invocation's argv, exit code, stdout and stderr, as one JSON line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = cli.main(argv, out=out)
    return json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n"


def main(args: list) -> int:
    each = args == ["--each"]
    if args and not each:
        print("usage: python tests/cli_digest.py [--each]", file=sys.stderr)
        return 2
    digest = hashlib.sha256()
    runs = invocations()
    for index, argv in enumerate(runs):
        line = record(argv)
        digest.update(line)
        if each:
            print(f"{index:4d} {hashlib.sha256(line).hexdigest()[:12]} {shlex.join(argv)}")
    print(f"{len(runs)} invocations  sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
