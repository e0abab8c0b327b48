"""Run one workload item in a fresh interpreter and report when it returns.

``python3 perfbench/cold_start.py '<item json>'`` prints one JSON line as
soon as the solve returns; ``run.py`` times interpreter start, imports and
that first solve from the outside.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import Item, execute  # noqa: E402

if __name__ == "__main__":
    _, outcome = execute(Item.from_json(sys.argv[1]))
    print(json.dumps({"status": outcome.status}), flush=True)
