"""Print the lines of ``src/baryiter`` that the tier-1 suite never runs.

From the repository root::

    PYTHONPATH=src python tests/line_map.py [pytest arguments]

Runs pytest (with no arguments, the whole tier-1 suite) under
``sys.settrace`` and prints each executable line of the package that never
ran, as ``file:line: text``, then their count.  A line is executable when an
instruction of the file's compiled code maps to it.  Lines that run only in
a subprocess are not seen.  Pytest does not collect this file: its name does
not start with ``test_``.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "baryiter"


def executable_lines(path: Path) -> set[int]:
    """Every line an instruction of ``path``'s code objects maps to."""
    lines = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def run_traced(args: list[str]) -> tuple[int, set]:
    """Pytest's exit status on ``args`` and the (real path, line) pairs of the package that ran."""
    package = str(PACKAGE) + os.sep
    ran: set = set()
    paths: dict = {}  # co_filename -> its real path inside the package, or None

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in paths:
            real = os.path.realpath(filename)
            paths[filename] = real if real.startswith(package) else None
        path = paths[filename]
        if path is None:
            return None
        ran.add((path, frame.f_lineno))

        def line(frame, event, arg):
            if event == "line":
                ran.add((path, frame.f_lineno))
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(args: list[str]) -> int:
    status, ran = run_traced(args)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        real = os.path.realpath(path)
        for number in sorted(executable_lines(path)):
            if (real, number) not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{number}: {text[number - 1].strip()}")
    print(f"{missed} executable lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
