"""The library's mpf arithmetic calls on the benchmark workloads, pinned.

``division_counts.count_operations`` counts the calls per (module, function)
over one pass of seed 1 of each workload.  The counts depend on the code
alone, not on the machine, so a change that adds or removes an operation on
a hot path shows here.  A pin changes only in a change whose CHANGES.md
line says why the count moved.
"""

import pytest
from division_counts import FUNCTIONS, count_operations

from perfbench.workloads import generate

# workload -> (module, function) -> calls on seed 1
PINNED = {
    "expr_cli": {
        ("analysis", "mpf_div"): 180,
        ("expressions", "mpf_div"): 297,
        ("interpolants", "mpf_add"): 384,
        ("interpolants", "mpf_div"): 540,
        ("interpolants", "mpf_mul"): 1992,
        ("interpolants", "mpf_rdiv_int"): 137,
        ("interpolants", "mpf_sub"): 738,
        ("numerics", "mpf_pow_int"): 390,
        ("root_search", "mpf_add"): 136,
        ("root_search", "mpf_div"): 359,
        ("root_search", "mpf_mul"): 1017,
        ("root_search", "mpf_pow_int"): 65,
        ("root_search", "mpf_sub"): 1903,
        ("weights", "mpf_add"): 896,
        ("weights", "mpf_mul"): 1957,
        ("weights", "mpf_pow_int"): 246,
        ("weights", "mpf_rdiv_int"): 457,
        ("weights", "mpf_sub"): 457,
    },
    "hiprec_grid": {
        ("interpolants", "mpf_add"): 434,
        ("interpolants", "mpf_div"): 410,
        ("interpolants", "mpf_mul"): 3334,
        ("interpolants", "mpf_rdiv_int"): 133,
        ("interpolants", "mpf_sub"): 1319,
        ("root_search", "mpf_add"): 67,
        ("root_search", "mpf_div"): 227,
        ("root_search", "mpf_mul"): 469,
        ("root_search", "mpf_sub"): 2235,
        ("weights", "mpf_add"): 1074,
        ("weights", "mpf_mul"): 2232,
        ("weights", "mpf_pow_int"): 242,
        ("weights", "mpf_rdiv_int"): 607,
        ("weights", "mpf_sub"): 607,
    },
    "lowprec_sweep": {
        ("interpolants", "mpf_add"): 2682,
        ("interpolants", "mpf_div"): 3835,
        ("interpolants", "mpf_mul"): 26006,
        ("interpolants", "mpf_rdiv_int"): 1010,
        ("interpolants", "mpf_sub"): 11296,
        ("numerics", "mpf_pow_int"): 1476,
        ("root_search", "mpf_add"): 812,
        ("root_search", "mpf_div"): 2978,
        ("root_search", "mpf_mul"): 7053,
        ("root_search", "mpf_pow_int"): 237,
        ("root_search", "mpf_sub"): 28446,
        ("weights", "mpf_add"): 4484,
        ("weights", "mpf_mul"): 16931,
        ("weights", "mpf_pow_int"): 1307,
        ("weights", "mpf_rdiv_int"): 6229,
        ("weights", "mpf_sub"): 6229,
    },
}
# workload -> the total of each function in FUNCTIONS, as division_counts prints it
TOTALS = {
    "hiprec_grid": (637, 740, 6035, 242, 1575, 4161),
    "lowprec_sweep": (6813, 7239, 49990, 3020, 7978, 45971),
    "expr_cli": (1376, 594, 4966, 701, 1416, 3098),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_operation_counts_are_pinned(workload):
    counts = count_operations(generate(workload, 1))
    assert dict(counts) == PINNED[workload]
    totals = tuple(sum(calls for (_, name), calls in counts.items() if name == function)
                   for function in FUNCTIONS)
    assert totals == TOTALS[workload]
