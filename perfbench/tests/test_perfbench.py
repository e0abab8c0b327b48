"""Tests of the benchmark harness itself: generators, oracle checks, span arithmetic."""

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import mpmath  # noqa: E402
import pytest  # noqa: E402

from baryiter import cli, corpus, root_search  # noqa: E402
from perfbench.oracle import Oracle, cell_matches, golden_mismatches  # noqa: E402
from perfbench.run import (  # noqa: E402
    CALIBRATION, compare_tracing, end_to_end, failures, per_layer, run_traced_passes, tail, verify,
)
from perfbench.tracing import Span, Tracer, instrument, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Item, Outcome, execute, generate  # noqa: E402


def _cos_root(bits: int) -> str:
    with mpmath.workprec(bits):
        root = mpmath.findroot(lambda x: mpmath.cos(x) - x, 0.7)
        return mpmath.nstr(root, int(bits * 0.30103) + 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_reproducible_and_seeded(workload):
    first, again, other = generate(workload, 7), generate(workload, 7), generate(workload, 8)
    assert first == again
    assert [i.id for i in first] == [i.id for i in other]
    assert [(i.x0, i.expr) for i in first] != [(i.x0, i.expr) for i in other]
    assert len({i.id for i in first}) == len(first)


def test_item_survives_the_cold_start_json_round_trip():
    item = generate("expr_cli", 3)[0]
    assert Item.from_json(item.to_json()) == item


def test_check_accepts_a_true_root_and_counts_its_digits():
    item = Item(id="t", kind="solve", problem="cos_minus_x", bits=256)
    verdict = Oracle().check(item, Outcome(status="converged", x=_cos_root(256)))
    assert verdict.ok and not verdict.false_converged
    assert verdict.digits == pytest.approx(77, abs=1)


def test_check_rejects_a_converged_trace_with_a_wrong_x():
    item = Item(id="t", kind="solve", problem="cos_minus_x", bits=256)
    verdict = Oracle().check(item, Outcome(status="converged", x="0.7390851332"))
    assert not verdict.ok and verdict.false_converged and verdict.digits == 0


def test_check_rejects_a_wrong_reported_error():
    item = Item(id="t", kind="solve", problem="cos_minus_x", bits=256)
    outcome = Outcome(status="converged", x=_cos_root(256), error="1.0")
    verdict = Oracle().check(item, outcome)
    assert not verdict.ok and verdict.false_converged


def test_check_on_a_rootless_input_accepts_only_an_honest_status():
    item = Item(id="t", kind="cli", command="solve", expr="exp(x)", has_root=False)
    oracle = Oracle()
    assert oracle.check(item, Outcome(status="budget-exhausted")).ok
    claimed = oracle.check(item, Outcome(status="converged", x="-53.9"))
    assert not claimed.ok and claimed.false_converged
    assert not oracle.check(item, Outcome(status=None)).ok  # run lost its trace


def test_expression_oracle_uses_its_own_translation():
    item = Item(id="t", kind="cli", command="optimize", expr="x^4/4 - 2*x", bits=256)
    with mpmath.workprec(256):
        x = mpmath.nstr(mpmath.cbrt(2), 80)
    assert Oracle().check(item, Outcome(status="converged", x=x)).ok
    assert not Oracle().check(item, Outcome(status="converged", x="1.26")).ok


def test_golden_check_passes_the_real_replay_and_rejects_a_doctored_cell():
    out = io.StringIO()
    assert cli.main(["table", "--reproduce", "table4"], out=out) == 0
    text = out.getvalue()
    published = corpus.GOLDEN_TABLES["table4"]["cells"]
    assert golden_mismatches(text, published) == []
    doctored = text.replace("6.19e-01", "6.29e-01", 1)
    assert doctored != text
    assert golden_mismatches(doctored, published) == [("secant", 2)]


def test_cell_match_allows_one_final_unit():
    assert cell_matches("1.90e-01", "1.90e-1")
    assert cell_matches("1.91e-01", "1.90e-1")
    assert not cell_matches("1.92e-01", "1.90e-1")
    assert not cell_matches("-", "2.26")


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("driver", 0, 100, -1),
        Span("weights", 10, 40, 0),
        Span("eval", 15, 25, 1),
        Span("step", 50, 90, 0),
        Span("weights", 60, 70, 3),
    ]
    assert self_times(spans) == {"driver": 30, "weights": 30, "eval": 10, "step": 30}
    assert sum(self_times(spans).values()) == 100


def test_tracer_links_nested_spans_to_their_parents():
    tracer = Tracer(timing=True)
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    counts, spans = tracer.take()
    assert counts == {"outer": 1, "inner": 2}
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s.end_ns >= s.start_ns for s in spans)
    assert tracer.take() == ({}, [])


def test_tracing_changes_no_result_and_is_removed_afterwards():
    item = generate("lowprec_sweep", 1)[0]
    original = root_search.solve
    _, plain = execute(item)
    with instrument(Tracer(timing=True)) as tracer:
        _, traced = execute(item)
        counts, spans = tracer.take()
    assert traced.key() == plain.key()
    assert counts["weights"] > 0 and counts["corpus.eval"] > 0
    assert spans[0].name == "root_search.driver"
    assert root_search.solve is original


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    assert tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)


def _small_run():
    items = [generate("lowprec_sweep", 1)[0], generate("lowprec_sweep", 1)[-1], generate("expr_cli", 1)[0]]
    base, traced = run_traced_passes(items, 0)
    problems = verify(items, base + traced, Oracle())
    return items, base, traced, not problems


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    items, base, traced, correct = _small_run()
    assert correct
    metrics, _ = end_to_end(base, setup_s=0.1, peak_rss_mb=20.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = per_layer(items, base, traced)
    layers.update({f"mpf.{op}_ns.{bits}": (0.0, "ns") for bits, _ in CALIBRATION for op in ("mul", "div")})
    assert {name: unit for name, (_, unit) in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_tracing_comparison_flags_a_changed_count_or_result():
    items, base, traced, _ = _small_run()
    assert compare_tracing(items, base, traced) == []
    traced[0][0].counts["weights"] += 1
    traced[0][1].outcome.x = "0"
    assert len(compare_tracing(items, base, traced)) == 2


def test_failed_count_does_not_grow_with_the_number_of_passes():
    # the no_root family fails by design (false convergence)
    items = [i for i in generate("expr_cli", 1) if i.id in ("cubic/newton", "no_root/newton")]
    base, traced = run_traced_passes(items, 0)
    passes = base + traced + base
    assert not verify(items, passes, Oracle())
    assert failures(passes) == failures(passes[:1]) == 1
    metrics, _ = end_to_end(passes, setup_s=0.1, peak_rss_mb=20.0)
    assert metrics["ok_ratio"][0] == 0.5
